"""Workload definitions: the CLI invocations each workload runs, their sizes,
and the checks applied to their outputs.

An operation is one ``stosymp.cli.main([...])`` call: one scheme of
``order``/``track``, or one stiffness ratio of ``nls``.  Every operation
writes into a scratch directory of its own and is checked there.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import math
import os
from dataclasses import dataclass
from typing import Callable, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_ORDER = os.path.join(HERE, "golden_order_ex1.json")
GOLDEN_TRACK = os.path.join(HERE, "golden_track_ex1.json")

# The program seed is the benchmark seed modulo this; the golden tables
# cover exactly these program seeds.
SEED_RANGE = 64

# order-ex1: the criterion-1 recipe (ex1, c=0.15, gamma=0.01, dt 2^-5..2^-8
# against a 2^-12 reference) with 200 paths over a quarter of its horizon.
ORDER_SCHEMES = ("ses-sp-1", "ses-sp-2", "midpoint")
ORDER_T_END = 0.25
ORDER_PATHS = 200
ORDER_DTS = (0.03125, 0.015625, 0.0078125, 0.00390625)
ORDER_REF_DT = 0.000244140625
ORDER_TOL = 1e-12
# |err - err_seed| <= 10 * tol * (reference steps): each step's solve is
# exact to about tol, and errors of that size add up at most linearly over
# the reference run.
ORDER_ERR_ATOL = 10.0 * ORDER_TOL * round(ORDER_T_END / ORDER_REF_DT)

# track-ex1: criterion 10 (ex1, c=0.1, gamma=0, dt=1e-4) for all four
# schemes, over 1000 single-path steps instead of 200k.
TRACK_SCHEMES = ("ses-sp-1", "ses-sp-2", "midpoint", "sympeuler")
TRACK_DT = 1e-4
TRACK_STEPS = 1000
TRACK_DH_MAX = 1e-2          # checked for every scheme but sympeuler
TRACK_TOL = 1e-12
# the same reasoning as ORDER_ERR_ATOL, for the relative energy deviation
TRACK_ATOL = 10.0 * TRACK_TOL * TRACK_STEPS

# nls-sweep: n=99 lattice (h=0.1 on [-5, 5]) at dt/h^2 = 0.01, 0.25, 1.
NLS_H = 0.1
NLS_RATIOS = (("0.01", 1e-4, 500), ("0.25", 2.5e-3, 100), ("1", 1e-2, 8))  # dt/h^2, dt, steps
NLS_DRIFT_MAX = 1e-12


def program_seed(seed: int) -> int:
    return seed % SEED_RANGE


@dataclass(frozen=True)
class Op:
    """One CLI invocation: ``argv`` is built for an output directory."""

    label: str                      # e.g. "ses-sp-1" or "nls-r0.25"
    argv: Callable[[str], List[str]]
    path_steps: int                 # scheme steps times paths, reference run included
    check: Callable[[str], "Outcome"]


@dataclass
class Outcome:
    ok: bool
    message: str
    counters: Dict[str, object]     # hardware-independent output counters


def _read_rows(path: str):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def stable_csv_lines(path: str):
    """The CSV's lines without its ``wall_s`` column, the one output that
    depends on the hardware; streamed, so large outputs are never held."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        keep = [i for i, name in enumerate(header) if name != "wall_s"]
        for row in itertools.chain([header], reader):
            yield (",".join(row[i] for i in keep) + "\n").encode()


def _output_counters(paths) -> dict:
    digest = hashlib.sha256()
    nbytes = 0
    for path in paths:
        for line in stable_csv_lines(path):
            digest.update(line)
            nbytes += len(line)
    return {"csv_bytes": nbytes, "digest": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# order-ex1
# ---------------------------------------------------------------------------

def _load_golden(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def order_argv(scheme: str, pseed: int, out: str) -> List[str]:
    return ["order", "--example", "ex1", "--c", "0.15", "--gamma", "0.01",
            "--t-end", repr(ORDER_T_END), "--schemes", scheme,
            "--dt-list", ",".join(repr(dt) for dt in ORDER_DTS),
            "--ref-dt", repr(ORDER_REF_DT), "--paths", str(ORDER_PATHS),
            "--tol", repr(ORDER_TOL), "--seed", str(pseed),
            "--out", os.path.join(out, "order.csv")]


def order_errors(path: str) -> dict:
    """err_x, err_y, err_norm columns of an order CSV, in dt order."""
    header, rows = _read_rows(path)
    cols = {name: header.index(name) for name in ("err_x", "err_y", "err_norm")}
    return {name: [float(r[i]) for r in rows] for name, i in cols.items()}


def _check_order(scheme: str, pseed: int, golden: dict):
    def check(out: str) -> Outcome:
        path = os.path.join(out, "order.csv")
        counters = _output_counters([path])
        _, rows = _read_rows(path)
        if len(rows) != len(ORDER_DTS):
            return Outcome(False, f"{len(rows)} rows, expected {len(ORDER_DTS)}", counters)
        got = order_errors(path)
        want = golden[str(pseed)][scheme]
        worst = 0.0
        for name, vals in got.items():
            for g, w in zip(vals, want[name]):
                if not math.isfinite(g):
                    return Outcome(False, f"{name} not finite", counters)
                worst = max(worst, abs(g - w))
        if worst > ORDER_ERR_ATOL:
            return Outcome(False, f"err_* differ from the seed values by {worst:.3e} "
                                  f"> {ORDER_ERR_ATOL:.1e}", counters)
        return Outcome(True, f"err_* within {worst:.1e} of the seed values", counters)
    return check


def order_ops(seed: int) -> List[Op]:
    pseed = program_seed(seed)
    golden = _load_golden(GOLDEN_ORDER)
    n_ref = round(ORDER_T_END / ORDER_REF_DT)
    steps = n_ref + sum(round(ORDER_T_END / dt) for dt in ORDER_DTS)
    return [Op(s, lambda out, s=s: order_argv(s, pseed, out), steps * ORDER_PATHS,
               _check_order(s, pseed, golden)) for s in ORDER_SCHEMES]


# ---------------------------------------------------------------------------
# track-ex1
# ---------------------------------------------------------------------------

def track_argv(scheme: str, pseed: int, out: str) -> List[str]:
    return ["track", "--example", "ex1", "--scheme", scheme, "--c", "0.1",
            "--gamma", "0", "--dt", repr(TRACK_DT), "--t-end", repr(TRACK_STEPS * TRACK_DT),
            "--tol", repr(TRACK_TOL), "--invariants", "hamiltonian", "--seed", str(pseed),
            "--out", os.path.join(out, "track")]


def track_energy(out: str) -> dict:
    """Largest and last |dH/H| of a track run's energy series."""
    _, rows = _read_rows(os.path.join(out, "track_hamiltonian.csv"))
    dh = [abs(float(r[1])) for r in rows]
    return {"max_abs": max(dh), "final": dh[-1]}


def _check_track(scheme: str, want: dict):
    def check(out: str) -> Outcome:
        files = [os.path.join(out, "track_hamiltonian.csv")]
        if scheme.startswith("ses"):
            files.append(os.path.join(out, "track_defect.csv"))
        counters = _output_counters(files)
        _, rows = _read_rows(files[0])
        if len(rows) != TRACK_STEPS + 1:
            return Outcome(False, f"{len(rows)} rows, expected {TRACK_STEPS + 1}", counters)
        got = track_energy(out)
        if not math.isfinite(got["max_abs"]):
            return Outcome(False, "non-finite energy series", counters)
        # sympeuler's energy trend is a documented acceptance failure: its
        # series is recorded but not judged either way
        if scheme == "sympeuler":
            return Outcome(True, f"max |dH/H| {got['max_abs']:.3e} (not judged)", counters)
        if got["max_abs"] > TRACK_DH_MAX:
            return Outcome(False, f"max |dH/H| {got['max_abs']:.3e} > {TRACK_DH_MAX}",
                           counters)
        worst = max(abs(got[k] - want[k]) for k in got)
        if worst > TRACK_ATOL:
            return Outcome(False, f"|dH/H| differs from the seed values by {worst:.3e} "
                                  f"> {TRACK_ATOL:.1e}", counters)
        return Outcome(True, f"max |dH/H| {got['max_abs']:.3e}, within {worst:.1e} "
                             "of the seed values", counters)
    return check


def track_ops(seed: int) -> List[Op]:
    pseed = program_seed(seed)
    golden = _load_golden(GOLDEN_TRACK)[str(pseed)]
    return [Op(s, lambda out, s=s: track_argv(s, pseed, out), TRACK_STEPS,
               _check_track(s, golden.get(s))) for s in TRACK_SCHEMES]


# ---------------------------------------------------------------------------
# nls-sweep
# ---------------------------------------------------------------------------

def _check_nls(steps: int):
    def check(out: str) -> Outcome:
        summary = os.path.join(out, "nls_summary.csv")
        counters = _output_counters([summary, os.path.join(out, "nls_field.csv")])
        _, rows = _read_rows(summary)
        counters["newton_iters"] = sum(int(float(r[3])) for r in rows)
        if len(rows) != steps + 1:
            return Outcome(False, f"{len(rows)} rows, expected {steps + 1}", counters)
        q0 = float(rows[0][1])
        drift = max(abs(float(r[1]) - q0) for r in rows) / abs(q0)
        if not drift <= NLS_DRIFT_MAX:
            return Outcome(False, f"charge drift {drift:.3e} > {NLS_DRIFT_MAX}", counters)
        return Outcome(True, f"charge drift {drift:.1e}", counters)
    return check


def nls_ops(seed: int) -> List[Op]:
    pseed = program_seed(seed)
    ops = []
    for ratio, dt, steps in NLS_RATIOS:
        argv = ["nls", "--dt", repr(dt), "--t-end", repr(steps * dt), "--h", repr(NLS_H),
                "--recipe", "strang-ab", "--tol", "1e-13", "--seed", str(pseed)]
        ops.append(Op(f"nls-r{ratio}",
                      lambda out, argv=argv: argv + ["--out", os.path.join(out, "nls")],
                      steps, _check_nls(steps)))
    return ops


WORKLOADS = {
    "order-ex1": order_ops,
    "track-ex1": track_ops,
    "nls-sweep": nls_ops,
}

INPUT_SIZE = {
    "order-ex1": (f"ex1 c=0.15 gamma=0.01 t_end={ORDER_T_END} paths={ORDER_PATHS} "
                  f"dt=2^-5..2^-8 ref_dt=2^-12, schemes {','.join(ORDER_SCHEMES)}"),
    "track-ex1": (f"ex1 c=0.1 gamma=0 dt={TRACK_DT} steps={TRACK_STEPS} single path, "
                  f"schemes {','.join(TRACK_SCHEMES)}"),
    "nls-sweep": ("n=99 lattice (h=0.1), strang-ab, tol=1e-13, dt/h^2:steps "
                  + ", ".join(f"{r}:{n}" for r, _, n in NLS_RATIOS)),
}
