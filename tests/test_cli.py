import os

import numpy as np
import pytest

from stosymp.cli import main, parse_args
from stosymp.nls import build_lattice, nls_initial
from stosymp.project import ProjectionConfig


def run_cli(args):
    return main(args)


def test_parse_basic_order_command():
    args = parse_args(["order", "--example", "ex1", "--t-end", "1",
                       "--paths", "200", "--seed", "7"])
    assert args.command == "order" and args.paths == 200 and args.seed == 7


def test_zero_dt_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["run", "--example", "ex1", "--dt", "0", "--t-end", "1"])
    assert err.value.code == 2
    for argv in (["order", "--max-iter", "0"], ["order", "--paths", "0"],
                 ["timing", "--paths", "-1"],
                 ["nls", "--dt", "0.1", "--t-end", "1", "--modes", "0"],
                 ["nls", "--dt", "0.1", "--t-end", "1", "--max-iter", "0"],
                 ["order", "--dt-list", "0.1,abc"],
                 ["run", "--dt", "0.1", "--t-end", "1", "--seed", "-1"],
                 ["order", "--seed", "-3"],
                 ["nls", "--dt", "0.1", "--t-end", "1", "--seed", "-1"],
                 ["check", "--seed", "-1"]):
        with pytest.raises(SystemExit) as err:
            parse_args(argv)
        assert err.value.code == 2


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        parse_args(["run", "--example", "ex1", "--dt", "0.1", "--t-end", "1",
                    "--bogus", "3"])
    assert err.value.code == 2


def test_config_file_merging_and_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.5\nseed = 11  # comment\n")
    args = parse_args(["run", "--config", str(cfg), "--dt", "0.01",
                       "--t-end", "0.1"])
    assert args.gamma == 0.5 and args.seed == 11
    # explicit flag wins over the config value
    args2 = parse_args(["run", "--config", str(cfg), "--dt", "0.01",
                        "--t-end", "0.1", "--gamma", "1.0"])
    assert args2.gamma == 1.0
    # an abbreviated flag wins as well
    args3 = parse_args(["run", "--config", str(cfg), "--dt", "0.01",
                        "--t-end", "0.1", "--gam", "1.0"])
    assert args3.gamma == 1.0


def test_config_supplies_required_flags(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dt = 0.01\nt_end = 0.05\n")
    out = tmp_path / "run.csv"
    assert run_cli(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert len(out.read_text().splitlines()) == 1 + 6   # header and t = 0 .. 0.05
    with pytest.raises(SystemExit) as err:   # still required without the file
        parse_args(["run", "--out", str(out)])
    assert err.value.code == 2


def test_config_unknown_key_rejected(tmp_path):
    cfg = tmp_path / "run.cfg"
    # an unknown key, and a known key whose value fails the flag's choices
    for line in ("bogus = 3", "example = ex9"):
        cfg.write_text(line + "\n")
        with pytest.raises(SystemExit) as err:
            parse_args(["run", "--config", str(cfg), "--dt", "0.01", "--t-end", "0.1"])
        assert err.value.code == 2


def test_run_command_byte_identical(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    base = ["run", "--example", "ex1", "--scheme", "ses-sp-2", "--dt", "0.01",
            "--t-end", "0.05", "--seed", "3", "--gamma", "0.2"]
    assert run_cli(base + ["--out", str(out1)]) == 0
    assert run_cli(base + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_order_command_writes_slopes(tmp_path):
    out = tmp_path / "order.csv"
    code = run_cli(["order", "--example", "ex1", "--schemes", "ses-sp-1",
                    "--t-end", "0.125", "--dt-list", "0.03125,0.015625",
                    "--ref-dt", "0.0078125", "--paths", "4", "--out", str(out)])
    assert code == 0
    header = out.read_text().splitlines()[0].split(",")
    assert "slope_x" in header and "err_x" in header


def test_order_keeps_finished_schemes_and_names_the_failure(tmp_path, capsys):
    # symplectic Euler's Newton solve stalls at dt 2^-5 on this noise
    out = tmp_path / "order.csv"
    code = run_cli(["order", "--example", "ex1", "--paths", "20", "--t-end", "0.25",
                    "--dt-list", "0.03125,0.015625", "--ref-dt", "0.00390625",
                    "--gamma", "0.01", "--seed", "2",
                    "--schemes", "ses-sp-1,ses-sp-2,midpoint,sympeuler", "--out", str(out)])
    assert code == 1
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert [(r[0], float(r[1])) for r in rows] == [
        (s, dt) for s in ("ses-sp-1", "ses-sp-2", "midpoint") for dt in (0.03125, 0.015625)]
    err = capsys.readouterr().err
    assert "sympeuler at dt=0.03125" in err and "(step " in err


def test_track_command(tmp_path):
    stem = tmp_path / "trk"
    code = run_cli(["track", "--example", "ex3", "--scheme", "ses-sp-1",
                    "--dt", "0.01", "--t-end", "0.1",
                    "--invariants", "quadratic", "--out", str(stem)])
    assert code == 0
    body = (tmp_path / "trk_quadratic.csv").read_text().splitlines()
    assert body[0] == "t,value"
    assert len(body) == 12
    assert (tmp_path / "trk_defect.csv").exists()


def test_nls_command_charge_column(tmp_path):
    stem = tmp_path / "nls"
    code = run_cli(["nls", "--dt", "0.001", "--t-end", "0.02", "--h", "1",
                    "--recipe", "strang-ab", "--tol", "1e-13",
                    "--out", str(stem)])
    assert code == 0
    lines = (tmp_path / "nls_summary.csv").read_text().splitlines()
    assert lines[0] == "t,charge,defect,newton_iters"
    charges = np.array([float(l.split(",")[1]) for l in lines[1:]])
    assert np.max(np.abs(charges - charges[0])) <= 1e-8 * charges[0]


def test_nls_field_csv_rows(tmp_path):
    stem = tmp_path / "nls"
    assert run_cli(["nls", "--dt", "0.01", "--t-end", "0.03", "--h", "1",
                    "--out", str(stem)]) == 0
    lines = (tmp_path / "nls_field.csv").read_text().splitlines()
    assert lines[0] == "t,x,p,q"
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    lattice = build_lattice(-5.0, 5.0, 9, 10)   # the defaults at h = 1
    n = lattice.n_interior
    assert rows.shape == (4 * n, 4)             # one row per (step, node), t = 0 included
    assert np.array_equal(rows[:, 0], np.repeat(0.01 * np.arange(4), n))
    assert np.array_equal(rows[:, 1], np.tile(lattice.nodes, 4))
    # Q is PhaseState.x and P is PhaseState.y; %.17g round-trips
    z0 = nls_initial(lattice)
    assert np.array_equal(rows[:n, 3], z0.x)
    assert np.array_equal(rows[:n, 2], z0.y)


def test_nls_summary_line_reports_the_solver(tmp_path, capsys):
    stem = tmp_path / "nls"
    assert run_cli(["nls", "--dt", "0.01", "--t-end", "0.03", "--h", "0.5",
                    "--out", str(stem)]) == 0
    rows = (tmp_path / "nls_summary.csv").read_text().splitlines()[2:]
    iters = [int(float(row.split(",")[3])) for row in rows]
    line = capsys.readouterr().out
    assert (f"newton iterations per step mean {np.mean(iters):.2f} max {max(iters)}, "
            "fallback steps 0 ->") in line


def test_nls_bad_spacing_exit_2(tmp_path, capsys):
    code = run_cli(["nls", "--dt", "0.001", "--t-end", "0.01", "--h", "0.7"])
    assert code == 2


def test_check_command():
    assert run_cli(["check", "--example", "ex1"]) == 0
    assert run_cli(["check", "--example", "ex3"]) == 0


def test_check_honours_scheme(capsys):
    assert run_cli(["check", "--example", "ex1"]) == 0
    plain = capsys.readouterr().out
    assert run_cli(["check", "--example", "ex1", "--scheme", "ses-sp-2"]) == 0
    assert capsys.readouterr().out == plain   # ses-sp-2 is the default
    assert run_cli(["check", "--example", "ex1", "--scheme", "midpoint"]) == 0
    midpoint = capsys.readouterr().out
    sym = [line for line in midpoint.splitlines() if line.startswith("symplecticity")]
    assert sym and sym[0] not in plain


def test_check_reports_sympeuler_as_not_symplectic(capsys):
    # symplectic Euler with its drift-correction terms is not symplectic at
    # frozen noise (README), and check says so
    assert run_cli(["check", "--example", "ex1", "--scheme", "sympeuler"]) == 1
    out = capsys.readouterr().out
    assert "symplecticity: FAIL (residual 3.672e-02)" in out


def test_check_rejects_out(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as err:
        run_cli(["check", "--example", "ex1", "--scheme", "midpoint", "--out", "x.csv"])
    assert err.value.code == 2
    assert not list(tmp_path.iterdir())


def test_gamma_uniform_list_matches_scalar(capsys):
    assert run_cli(["check", "--example", "ex1", "--gamma", "0.3"]) == 0
    scalar = capsys.readouterr().out
    assert run_cli(["check", "--example", "ex1", "--gamma", "0.3,0.3"]) == 0
    assert capsys.readouterr().out == scalar


def test_gamma_list_of_wrong_length_exit_2(tmp_path):
    code = run_cli(["run", "--example", "ex1", "--dt", "0.1", "--t-end", "0.2",
                    "--gamma", "0.1,0.2,0.3", "--out", str(tmp_path / "r.csv")])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["run", "--example", "ex1", "--dt", "1", "--t-end", "0.1"],
    ["track", "--example", "ex1", "--dt", "1", "--t-end", "0.1"],
    ["nls", "--dt", "1", "--t-end", "0.1"],
    ["order", "--example", "ex1", "--dt-list", "0.03", "--ref-dt", "0.01",
     "--paths", "2", "--t-end", "0.1"],
    ["order", "--example", "ex1", "--dt-list", "0.03", "--ref-dt", "0.007",
     "--paths", "2", "--t-end", "0.1"],
    ["timing", "--example", "ex1", "--dt-list", "0.03", "--ref-dt", "0.01",
     "--t-end", "0.1"],
    ["run", "--example", "ex1", "--dt", "0.03", "--t-end", "0.1"],
    ["track", "--example", "ex1", "--dt", "0.03", "--t-end", "0.1"],
    ["nls", "--dt", "0.03", "--t-end", "0.1"],
    ["order", "--example", "ex1", "--c", "0.15", "--gamma", "0.01", "--t-end", "0.1025",
     "--dt-list", "0.02,0.01", "--ref-dt", "0.005", "--paths", "4", "--schemes", "midpoint"],
], ids=["run-zero-steps", "track-zero-steps", "nls-zero-steps", "order-untiled-dt",
        "order-ref-dt-not-dividing", "timing-untiled-dt", "run-untiled-t-end",
        "track-untiled-t-end", "nls-untiled-t-end", "order-ref-dt-not-tiling-t-end"])
def test_unrunnable_step_sizes_exit_2(argv, tmp_path, capsys):
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["run", "--dt", "nan", "--t-end", "1"],
    ["order", "--dt-list", "0.1,nan"],
    ["run", "--dt", "0.1", "--t-end", "inf"],
    ["run", "--dt", "0.1", "--t-end", "0.2", "--tol", "nan"],
    ["run", "--dt", "0.1", "--t-end", "0.2", "--gamma", "nan"],
    ["run", "--dt", "0.1", "--t-end", "0.2", "--gamma", "0.1,inf"],
    ["run", "--dt", "0.1", "--t-end", "0.2", "--c", "inf"],
    ["nls", "--dt", "0.1", "--t-end", "0.2", "--x-left=-inf"],
], ids=["dt-nan", "dt-list-nan", "t-end-inf", "tol-nan", "gamma-nan", "gamma-list-inf",
        "c-inf", "x-left-inf"])
def test_non_finite_numbers_exit_2(argv, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli(argv + ["--out", str(tmp_path / "out")])
    assert err.value.code == 2
    assert "expected a finite number" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_nan_tol_rejected_by_config():
    with pytest.raises(ValueError, match="tol must be positive"):
        ProjectionConfig(tol=float("nan"))


@pytest.mark.parametrize("argv", [
    ["track", "--example", "ex1", "--dt", "0.05", "--t-end", "0.25"],
    ["timing", "--example", "ex1", "--schemes", "ses-sp-1", "--dt-list", "0.0625",
     "--ref-dt", "0.015625", "--t-end", "0.125", "--paths", "2"],
    ["check", "--example", "ex1", "--c", "2"],
], ids=["track", "timing", "check"])
def test_max_iter_reaches_the_solver(argv, tmp_path, capsys):
    # one chord iteration and one full-Newton iteration cannot meet the default
    # tolerance on these steps (each run passes with the default --max-iter),
    # so each run must fail; check writes no file and takes no --out
    out = [] if argv[0] == "check" else ["--out", str(tmp_path / "out")]
    assert run_cli(argv + ["--max-iter", "1"] + out) == 1
    assert "numerical failure" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())   # the check of --out leaves no file


def test_timing_command_rows(tmp_path):
    out = tmp_path / "timing.csv"
    code = run_cli(["timing", "--example", "ex1", "--schemes", "ses-sp-1,midpoint",
                    "--dt-list", "0.03125,0.015625", "--paths", "2", "--t-end", "0.125",
                    "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "scheme,dt,err,wall_s"
    assert len(lines) == 5
    assert all(float(line.split(",")[3]) > 0 for line in lines[1:])


def test_csv_has_17_significant_digits(tmp_path):
    out = tmp_path / "r.csv"
    run_cli(["run", "--example", "ex1", "--dt", "0.01", "--t-end", "0.02",
             "--seed", "0", "--out", str(out)])
    row = out.read_text().splitlines()[2].split(",")
    # a generic double prints at full precision (about 17 digits)
    assert any(len(cell.replace("-", "").replace(".", "").lstrip("0")) >= 15
               for cell in row[1:])


@pytest.mark.parametrize("names, message", [
    pytest.param("foo", "unknown invariant 'foo' on ex1", id="foo"),
    pytest.param(",", "--invariants names no invariant", id="comma"),
    pytest.param("", "--invariants names no invariant", id="empty"),
])
def test_unknown_invariant_exit_2(names, message, tmp_path, capsys):
    code = run_cli(["track", "--example", "ex1", "--dt", "0.01", "--t-end", "0.02",
                    "--invariants", names, "--out", str(tmp_path / "trk")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{message}; registered: ['hamiltonian']" in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("command, written", [
    pytest.param(command, written, id=command) for command, written in (
        ("run", "x.csv"), ("track", "x_hamiltonian.csv"), ("nls", "x_field.csv"),
        ("timing", "x.csv"), ("order", "x.csv"))
])
def test_unwritable_out_exit_2(command, written, tmp_path, capsys, monkeypatch):
    # the path is checked before the first step, so no run starts
    def no_run(*args, **kwargs):
        pytest.fail(f"{command} ran before it checked --out")

    monkeypatch.setattr("stosymp.harness.simulate", no_run)
    monkeypatch.setattr("stosymp.cli.simulate", no_run)
    out = tmp_path / "missing" / "x.csv"
    flags = {"run": ["--example", "ex1", "--dt", "0.01"],
             "track": ["--example", "ex1", "--dt", "0.01"],
             "nls": ["--dt", "0.01"]}.get(command, ["--example", "ex1", "--dt-list", "0.01",
                                                   "--paths", "2"])
    code = run_cli([command, "--t-end", "0.02", *flags, "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"error: cannot write {out.parent / written}: " in err
    assert not out.parent.exists()


@pytest.mark.parametrize("command", ["order", "timing"])
def test_empty_scheme_list_exit_2(command, tmp_path, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli([command, "--example", "ex1", "--dt-list", "0.25", "--t-end", "0.5",
                 "--schemes", ",", "--out", str(tmp_path / "out.csv")])
    assert err.value.code == 2
    assert "expected at least one scheme" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
