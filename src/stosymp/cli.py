"""Command-line front end: trajectories, convergence orders, timing tables,
invariant tracking, the Schrodinger lattice simulator, and model self-checks.

A ``--config`` file of ``key = value`` lines (``#`` comments allowed) is read
as ``--key=value`` flags placed before the command line's own, so it gets the
same checks, may supply required flags, and any flag given on the command line
wins.  All outputs are CSV with 17 significant digits; identical invocation
and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from . import harness, nls as nlsmod
from .core import build_noise_grid, verify_gradients
from .modelzoo import get_example
from .project import NoConvergence, ProjectionConfig, simulate
from .splitflow import symplectic_residual_phase

DEFAULT_DT_LIST = "0.03125,0.015625,0.0078125,0.00390625"  # 2^-5 .. 2^-8


CSV_BLOCK = 1024   # rows formatted per %-format call


def _format_rows(rows: list) -> str:
    """The rows as CSV lines from one %-format call, every row laid out as
    the first: "%s" for a string, "%.17g" for anything else."""
    line = ",".join("%s" if isinstance(v, str) else "%.17g" for v in rows[0]) + "\n"
    return (line * len(rows)) % tuple(chain.from_iterable(rows))


class UsageError(Exception):
    """Flags that parse but describe no runnable job; ``dispatch`` exits 2."""


def _open_out(path: str, mode: str):
    """``path`` opened for writing; a path that cannot be is a ``UsageError``."""
    try:
        return open(path, mode, encoding="utf-8")
    except OSError as err:
        raise UsageError(f"cannot write {path}: {err.strerror or err}") from err


def _check_writable(paths: Sequence[str]) -> None:
    """Raise ``write_csv``'s ``UsageError`` for ``paths`` before a run; no new file is left."""
    for path in paths:
        existed = os.path.exists(path)
        _open_out(path, "a").close()
        if not existed:
            os.remove(path)


def write_csv(path: str, header: Sequence[str], rows) -> None:
    """``header`` and ``rows``, an iterable of sequences or a 2-D array, as
    CSV, CSV_BLOCK rows at a time.  Every row of a file has its first row's
    layout (the same length, a string where the first row has one).  The rows
    taken from ``rows`` are written even when it raises, so a generator keeps
    what it yielded before it failed.  A path that cannot be opened is a
    ``UsageError``."""
    with _open_out(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        if isinstance(rows, np.ndarray):
            for start in range(0, len(rows), CSV_BLOCK):
                fh.write(_format_rows(rows[start:start + CSV_BLOCK].tolist()))
            return
        block = []
        try:
            for row in rows:
                block.append(row)
                if len(block) == CSV_BLOCK:
                    done, block = block, []
                    fh.write(_format_rows(done))
        finally:
            if block:
                fh.write(_format_rows(block))


def _finite(text: str) -> float:
    v = float(text)
    if not math.isfinite(v):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text}")
    return v


def _parse_gamma(text: str):
    parts = [_finite(p) for p in text.split(",")]
    return parts[0] if len(parts) == 1 else parts


def _dt_list(text: str) -> tuple:
    return tuple(_finite(p) for p in text.split(","))


def _scheme_list(text: str):
    schemes = [s.strip() for s in text.split(",") if s.strip()]
    if not schemes:
        raise argparse.ArgumentTypeError(f"expected at least one scheme of {harness.SCHEMES}")
    for s in schemes:
        if s not in harness.SCHEMES:
            raise argparse.ArgumentTypeError(
                f"unknown scheme {s!r}; choose from {harness.SCHEMES}")
    return schemes


def _positive(text: str) -> float:
    v = _finite(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive value, got {text}")
    return v


def _positive_int(text: str) -> int:
    v = int(text)
    if v <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text}")
    return v


def _non_negative_int(text: str) -> int:
    v = int(text)
    if v < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text}")
    return v


def build_parser(require: bool = True) -> argparse.ArgumentParser:
    """The command-line parser; ``require=False`` makes every flag optional,
    for the first pass that only looks for ``--config``."""
    parser = argparse.ArgumentParser(
        prog="stosymp",
        description="Semi-explicit symplectic integrators for stochastic "
                    "Hamiltonian systems, with convergence and invariant harnesses.")
    sub = parser.add_subparsers(dest="command", required=True)

    def shared(p, out=True):
        p.add_argument("--config", help="file of 'key = value' lines read as flags "
                                        "(command-line flags win)")
        p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--tol", type=_positive, default=ProjectionConfig.tol)
        p.add_argument("--max-iter", type=_positive_int, default=ProjectionConfig.max_iter)
        if out:
            p.add_argument("--out", default=None, help="output CSV path")

    def common(p, scheme=True, out=True):
        shared(p, out)
        p.add_argument("--example", default="ex1", choices=["ex1", "ex2", "ex3", "ex4"])
        if scheme:
            p.add_argument("--scheme", default="ses-sp-1", choices=harness.SCHEMES)
        p.add_argument("--gamma", type=_parse_gamma, default=0.0,
                       help="restraint constant; scalar applied to all channels "
                            "or a comma list per channel (default 0)")
        p.add_argument("--c", type=_finite, default=0.5, help="noise Hamiltonian scale")

    def stepping(p):
        p.add_argument("--dt", type=_positive, required=require)
        p.add_argument("--t-end", type=_positive, required=require)

    p_run = sub.add_parser("run", help="simulate a single path and dump the trajectory")
    common(p_run)
    stepping(p_run)

    for name, help_text, paths in (("order", "mean-square convergence order", 200),
                                   ("timing", "CPU time comparison on identical noise", 1)):
        p = sub.add_parser(name, help=help_text)
        common(p, scheme=False)
        p.add_argument("--schemes", type=_scheme_list,
                       default=["ses-sp-1", "ses-sp-2", "midpoint"])
        p.add_argument("--dt-list", type=_dt_list, default=DEFAULT_DT_LIST)
        p.add_argument("--ref-dt", type=_positive, default=None,
                       help="reference step (default min(dt_list)/16)")
        p.add_argument("--t-end", type=_positive, default=1.0)
        p.add_argument("--paths", type=_positive_int, default=paths)

    p_track = sub.add_parser("track", help="invariant / defect series along one path")
    common(p_track)
    stepping(p_track)
    p_track.add_argument("--invariants", default="hamiltonian",
                         help="comma list of registered invariant names")

    p_nls = sub.add_parser("nls", help="stochastic cubic Schrodinger lattice run")
    shared(p_nls)
    p_nls.set_defaults(tol=1e-13)
    stepping(p_nls)
    p_nls.add_argument("--h", type=_positive, default=1.0)
    p_nls.add_argument("--x-left", type=_finite, default=-5.0)
    p_nls.add_argument("--x-right", type=_finite, default=5.0)
    p_nls.add_argument("--modes", type=_positive_int, default=10)
    p_nls.add_argument("--recipe", default="strang-ab", choices=sorted(nlsmod.RECIPES))

    p_check = sub.add_parser("check", help="gradient and symplecticity self-checks "
                                           "(writes no file)")
    common(p_check, out=False)
    p_check.set_defaults(tol=1e-13, scheme="ses-sp-2")

    return parser


def _config_flags(path: str) -> list:
    """``--key=value`` for each ``key = value`` line of a config file."""
    flags = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            flags.append(f"--{key.replace('_', '-')}={val}")
    return flags


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    parser = build_parser()
    argv = list(argv)
    # the config file may supply required flags, so find it before they are checked
    first = build_parser(require=False).parse_args(argv)
    if first.config:
        try:
            flags = _config_flags(first.config)
        except (OSError, ValueError) as err:
            parser.error(str(err))
        # right after the command, so the command line's own flags come later and win
        at = argv.index(first.command) + 1
        argv = argv[:at] + flags + argv[at:]
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _step_count(args) -> int:
    problem = harness.grid_mismatch(args.t_end, [args.dt], args.dt)
    if problem:
        raise UsageError(problem)
    return int(round(args.t_end / args.dt))


def cmd_run(args, cfg: ProjectionConfig) -> int:
    n_steps = _step_count(args)
    out = args.out or f"run_{args.example}_{args.scheme}.csv"
    _check_writable([out])
    example = get_example(args.example, c=args.c)
    traj, _ = harness.track(example, args.scheme, args.t_end, args.dt, [], args.seed,
                            args.gamma, cfg, keep_states=True)
    d = example.model.d
    header = ["t"] + [f"x{i+1}" for i in range(d)] + [f"y{i+1}" for i in range(d)]
    # a state's (2, d) array flattens to x1..xd, y1..yd
    write_csv(out, header, np.column_stack((traj.times, traj.z.reshape(len(traj.z), -1))))
    zf = traj.final
    print(f"run {args.example} {args.scheme}: {n_steps} steps, "
          f"final x={zf.x} y={zf.y} -> {out}")
    return 0


def _order_reports(args, cfg: ProjectionConfig):
    """One ``OrderReport`` per scheme of ``--schemes``, all on the same noise,
    each run when it is asked for; the flags are checked here, before any."""
    ref_dt = args.ref_dt if args.ref_dt else min(args.dt_list) / 16.0
    problem = harness.grid_mismatch(args.t_end, args.dt_list, ref_dt)
    if problem:
        raise UsageError(problem)
    example = get_example(args.example, c=args.c)
    return (harness.ms_error(harness.ConvergenceSpec(
        example, scheme, args.t_end, args.dt_list, ref_dt, args.paths, args.seed,
        args.gamma, cfg)) for scheme in args.schemes)


def cmd_order(args, cfg: ProjectionConfig) -> int:
    """Rows go to the CSV as each scheme finishes, so a scheme that fails
    keeps the rows of those before it."""
    reports = _order_reports(args, cfg)
    summary = []

    def rows():
        for rep in reports:
            summary.append(f"{rep.scheme}: slope_x={rep.slope_x:.3f} "
                           f"slope_y={rep.slope_y:.3f}")
            for i, dt in enumerate(rep.dts):
                yield [rep.scheme, dt, rep.err_x[i], rep.err_y[i], rep.err_norm[i],
                       rep.se_x[i], rep.se_y[i], rep.wall[i], rep.slope_x, rep.slope_y]

    out = args.out or f"order_{args.example}.csv"
    write_csv(out, ["scheme", "dt", "err_x", "err_y", "err_norm", "se_x", "se_y",
                    "wall_s", "slope_x", "slope_y"], rows())
    print(f"order {args.example} ({args.paths} paths): " + "; ".join(summary)
          + f" -> {out}")
    return 0


def cmd_timing(args, cfg: ProjectionConfig) -> int:
    """Wall-clock time (noise generation excluded) and error per scheme per step."""
    out = args.out or f"timing_{args.example}.csv"
    _check_writable([out])
    rows = [[rep.scheme, dt, err, wall] for rep in _order_reports(args, cfg)
            for dt, err, wall in zip(rep.dts, rep.err_norm, rep.wall)]
    write_csv(out, ["scheme", "dt", "err", "wall_s"], rows)
    scheme, dt, _, wall = min(rows, key=lambda r: r[3])
    print(f"timing {args.example}: fastest {scheme} at dt={dt:g} ({wall:.3f}s) -> {out}")
    return 0


def cmd_track(args, cfg: ProjectionConfig) -> int:
    _step_count(args)
    example = get_example(args.example, c=args.c)
    names = [s.strip() for s in args.invariants.split(",") if s.strip()]
    registered = f"registered: {sorted(example.invariants)}"
    if not names:
        raise UsageError(f"--invariants names no invariant; {registered}")
    for name in names:
        if name not in example.invariants:
            raise UsageError(f"unknown invariant {name!r} on {args.example}; {registered}")
    stem = args.out or f"track_{args.example}_{args.scheme}"
    stem = stem[:-4] if stem.endswith(".csv") else stem
    outs = [f"{stem}_{name}.csv" for name in names]
    if args.scheme in ("ses-sp-1", "ses-sp-2"):
        outs.append(f"{stem}_defect.csv")
    _check_writable(outs)
    traj, series = harness.track(example, args.scheme, args.t_end, args.dt, names,
                                 args.seed, args.gamma, cfg)
    columns = [zip(traj.times, series[name]) for name in names]
    columns.append(zip(traj.times[1:], traj.defect))   # outs names it for SES only
    for path, column in zip(outs, columns):
        write_csv(path, ["t", "value"], column)
    peaks = {name: float(np.max(np.abs(series[name]))) for name in names}
    print(f"track {args.example} {args.scheme}: max |relative deviation| "
          + " ".join(f"{k}={v:.3e}" for k, v in peaks.items())
          + " -> " + ", ".join(outs))
    return 0


def cmd_nls(args, cfg: ProjectionConfig) -> int:
    span = args.x_right - args.x_left
    n_cells = span / args.h
    if abs(round(n_cells) - n_cells) > 1e-9 or round(n_cells) < 2:
        raise UsageError(f"h={args.h} does not tile [{args.x_left}, {args.x_right}]")
    lattice = nlsmod.build_lattice(args.x_left, args.x_right, int(round(n_cells)) - 1,
                                   args.modes)
    n_steps = _step_count(args)
    stem = args.out or f"nls_{args.recipe}"
    stem = stem[:-4] if stem.endswith(".csv") else stem
    _check_writable([f"{stem}_field.csv", f"{stem}_summary.csv"])
    grid = build_noise_grid(args.seed, 0, args.modes, n_steps * args.dt,
                            n_steps * harness.FINE_STEPS)

    stepper = nlsmod.nls_stepper(lattice, args.recipe, grid, cfg, harness.FINE_STEPS)
    traj = simulate(stepper, nlsmod.nls_initial(lattice), n_steps, args.dt,
                    {"charge": nlsmod.charge})
    # one row per (step, node): t, the node, p = y and q = x
    t, nodes = np.broadcast_arrays(traj.times[:, None], lattice.nodes)
    write_csv(f"{stem}_field.csv", ["t", "x", "p", "q"],
              np.stack((t, nodes, traj.z[:, 1], traj.z[:, 0]), axis=-1).reshape(-1, 4))
    charges = traj.tracked["charge"]
    iters = traj.iterations
    write_csv(f"{stem}_summary.csv", ["t", "charge", "defect", "newton_iters"],
              zip(traj.times, charges, [0.0, *traj.defect], [0, *iters]))
    drift = np.max(np.abs(charges - charges[0])) / abs(charges[0])
    print(f"nls {args.recipe}: {n_steps} steps, max relative charge drift "
          f"{drift:.3e}, newton iterations per step mean {iters.mean():.2f} "
          f"max {iters.max()}, fallback steps {traj.fallback_steps} -> {stem}_summary.csv")
    return 0


def cmd_check(args, cfg: ProjectionConfig) -> int:
    example = get_example(args.example, c=args.c)
    radius = 0.3 if args.example in ("ex2", "ex4") else 1.0
    rep = verify_gradients(example.model, seed=args.seed, center=example.z0, radius=radius)
    ok = rep.passed
    print(f"gradients: {'pass' if rep.passed else 'FAIL'} "
          f"(worst deviation {rep.worst:.3e})")

    # spot-check symplecticity of one --scheme step at fixed noise
    grid = build_noise_grid(args.seed, 0, example.model.m, 1e-2, harness.FINE_STEPS)
    stepper = harness.make_stepper(args.scheme, example, grid, harness.FINE_STEPS,
                                   args.gamma, cfg)
    res = symplectic_residual_phase(lambda z: stepper(z, 0)[0], example.z0.stacked())
    sym_ok = res <= 1e-5
    ok = ok and sym_ok
    print(f"symplecticity: {'pass' if sym_ok else 'FAIL'} (residual {res:.3e})")

    if example.forward is not None:
        z_back = example.inverse(example.forward(example.z0))
        rt = float(np.max(np.abs(z_back.stacked() - example.z0.stacked())))
        rt_ok = rt <= 1e-12
        ok = ok and rt_ok
        print(f"transform round-trip: {'pass' if rt_ok else 'FAIL'} ({rt:.3e})")
    return 0 if ok else 1


def dispatch(args) -> int:
    gamma = getattr(args, "gamma", 0.0)
    try:
        if np.ndim(gamma):
            channels = get_example(args.example).model.m + 1
            if len(gamma) != channels:
                raise UsageError(f"--gamma lists {len(gamma)} values; {args.example} needs "
                                 f"1 or {channels} (one per channel, drift channel first)")
        return {
            "run": cmd_run,
            "order": cmd_order,
            "timing": cmd_timing,
            "track": cmd_track,
            "nls": cmd_nls,
            "check": cmd_check,
        }[args.command](args, ProjectionConfig(args.tol, args.max_iter))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except NoConvergence as err:
        print(f"error: numerical failure: {err}"
              + (f" (step {err.step})" if err.step is not None else ""),
              file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    return dispatch(args)


if __name__ == "__main__":
    sys.exit(main())
