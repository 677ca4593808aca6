import dataclasses
import hashlib
import os

import numpy as np
import pytest

from stosymp import cli
from stosymp.cli import CSV_BLOCK, _format_rows, main, parse_args, write_csv
from stosymp.core import PhaseState
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


def test_config_comments_and_blank_lines_are_skipped(tmp_path):
    plain, commented = tmp_path / "plain.cfg", tmp_path / "commented.cfg"
    plain.write_text("gamma = 0.5\nseed = 11\n")
    commented.write_text("# a comment line\n\ngamma = 0.5  # restraint\n   \n"
                         "  # indented comment\nseed = 11\n\n")
    parsed = []
    for cfg in (plain, commented):
        args = vars(parse_args(["run", "--config", str(cfg), "--dt", "0.01", "--t-end", "0.1"]))
        assert args.pop("config") == str(cfg)
        parsed.append(args)
    assert parsed[0] == parsed[1]
    assert parsed[0]["gamma"] == 0.5 and parsed[0]["seed"] == 11


def test_config_line_without_equals_exit_2(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("gamma = 0.5\n\nseed 11\n")
    with pytest.raises(SystemExit) as err:
        parse_args(["run", "--config", str(cfg), "--dt", "0.01", "--t-end", "0.1"])
    assert err.value.code == 2
    assert f"{cfg}:3: expected 'key = value'" in capsys.readouterr().err


def test_unknown_scheme_in_list_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        parse_args(["order", "--schemes", "ses-sp-1,bogus"])
    assert err.value.code == 2
    assert "unknown scheme 'bogus'" in capsys.readouterr().err


def test_write_csv_across_a_block_boundary(tmp_path):
    # a full block is written as it fills, the rest at the end; the bytes are
    # those of one format call over all the rows
    rows = [[i, i / 7.0] for i in range(CSV_BLOCK + 3)]
    expected = ("n,value\n" + _format_rows(rows)).encode()
    out = tmp_path / "rows.csv"
    write_csv(str(out), ["n", "value"], iter(rows))
    assert out.read_bytes() == expected

    def failing():
        yield from rows
        raise RuntimeError("row source failed")

    failed = tmp_path / "failed.csv"
    with pytest.raises(RuntimeError, match="row source failed"):
        write_csv(str(failed), ["n", "value"], failing())
    assert failed.read_bytes() == expected


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


def test_check_command(capsys):
    for name in ("ex1", "ex2", "ex3", "ex4"):
        assert run_cli(["check", "--example", name]) == 0
        lines = capsys.readouterr().out.splitlines()
        # ex2 and ex4 integrate in transformed coordinates and check the round trip
        assert len(lines) == (3 if name in ("ex2", "ex4") else 2)
        assert all(": pass (" in line for line in lines)
        if len(lines) == 3:
            assert lines[2].startswith("transform round-trip: pass (")


def test_check_round_trip_fails_on_nan(monkeypatch, capsys):
    # a NaN in the y round trip alone must not pass as the x deviation
    real = cli.get_example

    def nan_inverse_example(name, c=None):
        ex = real(name, c=c)

        def inverse(w):
            z = ex.inverse(w)
            return PhaseState(z.x, np.full_like(z.y, np.nan))

        return dataclasses.replace(ex, inverse=inverse)

    monkeypatch.setattr(cli, "get_example", nan_inverse_example)
    assert run_cli(["check", "--example", "ex4"]) == 1
    assert "transform round-trip: FAIL (nan)" in capsys.readouterr().out.splitlines()


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


@pytest.mark.parametrize("argv, message", [
    pytest.param(["run", "--example", "ex1", "--dt", "1", "--t-end", "0.1"],
                 "t_end 0.1 is not a whole number of steps of 1.0", id="run-zero-steps"),
    pytest.param(["track", "--example", "ex1", "--dt", "1", "--t-end", "0.1"],
                 "t_end 0.1 is not a whole number of steps of 1.0", id="track-zero-steps"),
    pytest.param(["nls", "--dt", "1", "--t-end", "0.1"],
                 "t_end 0.1 is not a whole number of steps of 1.0", id="nls-zero-steps"),
    pytest.param(["order", "--example", "ex1", "--dt-list", "0.03", "--ref-dt", "0.01",
                  "--paths", "2", "--t-end", "0.1"],
                 "dt 0.03 does not tile t_end 0.1 on the ref_dt 0.01 grid", id="order-untiled-dt"),
    pytest.param(["order", "--example", "ex1", "--dt-list", "0.03", "--ref-dt", "0.007",
                  "--paths", "2", "--t-end", "0.1"],
                 "t_end 0.1 is not a whole number of steps of 0.007",
                 id="order-ref-dt-not-dividing"),
    pytest.param(["timing", "--example", "ex1", "--dt-list", "0.03", "--ref-dt", "0.01",
                  "--t-end", "0.1"],
                 "dt 0.03 does not tile t_end 0.1 on the ref_dt 0.01 grid", id="timing-untiled-dt"),
    pytest.param(["run", "--example", "ex1", "--dt", "0.03", "--t-end", "0.1"],
                 "t_end 0.1 is not a whole number of steps of 0.03", id="run-untiled-t-end"),
    pytest.param(["track", "--example", "ex1", "--dt", "0.03", "--t-end", "0.1"],
                 "t_end 0.1 is not a whole number of steps of 0.03", id="track-untiled-t-end"),
    pytest.param(["nls", "--dt", "0.03", "--t-end", "0.1"],
                 "t_end 0.1 is not a whole number of steps of 0.03", id="nls-untiled-t-end"),
    pytest.param(["order", "--example", "ex1", "--c", "0.15", "--gamma", "0.01",
                  "--t-end", "0.1025", "--dt-list", "0.02,0.01", "--ref-dt", "0.005",
                  "--paths", "4", "--schemes", "midpoint"],
                 "t_end 0.1025 is not a whole number of steps of 0.005",
                 id="order-ref-dt-not-tiling-t-end"),
    # --dt-list takes any finite number, so a step that is not positive reaches
    # the grid check (the default ref_dt is min(dt_list)/16)
    pytest.param(["order", "--example", "ex1", "--dt-list", "0.1,-0.05", "--t-end", "0.1"],
                 "steps must be positive (dt [0.1, -0.05], ref_dt -0.003125)",
                 id="order-negative-dt"),
    pytest.param(["order", "--example", "ex1", "--dt-list", "0.025", "--ref-dt", "0.01",
                  "--t-end", "0.1"],
                 "ref_dt 0.01 does not divide dt 0.025", id="order-ref-dt-not-dividing-dt"),
])
def test_unrunnable_step_sizes_exit_2(argv, message, tmp_path, capsys):
    assert run_cli(argv + ["--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
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


def test_order_with_one_path_has_no_standard_error(tmp_path):
    # the delete-one jackknife needs two paths; with one, se_x and se_y are NaN
    out = tmp_path / "order.csv"
    assert run_cli(["order", "--example", "ex1", "--schemes", "midpoint",
                    "--t-end", "0.125", "--dt-list", "0.03125,0.015625",
                    "--ref-dt", "0.0078125", "--paths", "1", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 2
    for row in rows:
        assert row[header.index("se_x")] == row[header.index("se_y")] == "nan"
        assert np.isfinite(float(row[header.index("err_x")]))


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


@pytest.mark.parametrize("argv, files", [
    (["run", "--example", "ex1", "--dt", "0.01", "--t-end", "0.05", "--out", "run.csv"],
     {"run.csv": "daddc5d5d2430a13a789921b5664129171eff857404a7aac6dd97ae244d29223"}),
    (["run", "--example", "ex3", "--scheme", "midpoint", "--dt", "0.01", "--t-end", "0.05",
      "--out", "run.csv"],
     {"run.csv": "e35abd7e8945d3b3030695b537bc24e6d3e652ee9f2e28f58e6864d70aa0d8e5"}),
    (["nls", "--dt", "0.001", "--t-end", "0.003", "--h", "1", "--out", "nls"],
     {"nls_field.csv": "5e2b915d0c63df36e999f6bf1374fbd684cc31cc84daba2f123810105be4d5bf",
      "nls_summary.csv": "8351946966c461481b5bad3edaeaeff2c45870ffed86f908463eca03c2f750cf"}),
])
def test_csv_bytes_are_pinned(argv, files, tmp_path, monkeypatch):
    # SHA-256 of each file as the CLI wrote it when the trajectory was a list
    # of PhaseState and the rows were Python lists; the CSVs formatted from
    # Trajectory's array must keep every byte
    monkeypatch.chdir(tmp_path)
    assert run_cli(argv) == 0
    for name, digest in files.items():
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest, name
