"""stosymp benchmark runner.

    python3 perfbench/run.py --workload order-ex1 --seed 1 --seconds 36 --trace 0

Runs one workload's CLI invocations in this process, repeating the whole
set (a round) until ``--seconds`` are spent, checks every output, and prints
a report followed by one JSON line: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``.  ``--workload all`` runs every workload in turn.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import os
import sys

# One worker: BLAS/OpenMP pools stay at one thread for this process and the
# set-up probes it starts.  Set before numpy is first imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import workloads as wl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SPANS_DIR = os.path.join(ROOT, ".perfbench")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2          # two rounds at least, so repeatability is always checked

# The speed of one core of a shared host can swing by 1.5-2x over tens of
# seconds under load from outside this process, and CPU time swings with
# it.  So every time in the JSON is normalised: raw seconds times
# REF_NOMINAL_S over the mean of the reference kernel's time just before and
# just after.  On a 2-vCPU Xeon host, ten 36-second blocks of track-ex1
# spread by 26% of their median raw and by 6% normalised.  A machine on
# which the kernel takes REF_NOMINAL_S reads raw seconds; the report prints
# both.
REF_NOMINAL_S = 0.04
REF_STEPS = 8000

# Set-up as a user pays it: import, parser, and the model or lattice the
# workload needs, timed in a fresh interpreter.
SETUP_CODE = """
import time
t0 = time.perf_counter()
from stosymp import cli
cli.build_parser()
{build}
print(time.perf_counter() - t0)
"""
SETUP_BUILD = {
    "order-ex1": "cli.get_example('ex1', c=0.15)",
    "track-ex1": "cli.get_example('ex1', c=0.1)",
    "nls-sweep": "cli.nlsmod.build_lattice(-5.0, 5.0, 99, 10)",
}


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def import_program() -> None:
    """Import stosymp from this checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "stosymp", "__init__.py")):
        raise ImportError(f"no stosymp sources under {SRC}")
    sys.path.insert(0, SRC)
    import stosymp

    if os.path.dirname(os.path.dirname(os.path.abspath(stosymp.__file__))) != SRC:
        raise ImportError(f"stosymp imported from {stosymp.__file__}, not {SRC}")


def environment() -> dict:
    import numpy
    import scipy

    cpu = ""
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def reference_kernel() -> float:
    """Seconds taken by a fixed explicit-Euler loop on one-element numpy
    arrays: the interpreter-plus-small-numpy mix of the program's steppers,
    in code the program cannot change."""
    t0 = time.perf_counter()
    x = np.array([0.0])
    y = np.array([-3.0])
    for _ in range(REF_STEPS):
        gx = x * (y[0] ** 2 + 1.0)
        gy = (x[0] ** 2 + 1.0) * y
        x = x + 1e-4 * gy
        y = y - 1e-4 * gx
    return time.perf_counter() - t0


def normalised(raw: float, before: float, after: float) -> float:
    return raw * 2.0 * REF_NOMINAL_S / (before + after)


def measure_setup(workload: str) -> list:
    """(raw, normalised) seconds of each set-up sample."""
    code = SETUP_CODE.format(build=SETUP_BUILD[workload])
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    before = reference_kernel()
    for i in range(SETUP_SAMPLES + 1):     # the first one warms the file cache
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60, check=True)
        after = reference_kernel()
        if i:
            raw = float(proc.stdout.strip().splitlines()[-1])
            samples.append((raw, normalised(raw, before, after)))
        before = after
    return samples


# ---------------------------------------------------------------------------
# Rounds
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, workload: str, seed: int, scratch: str):
        from stosymp import cli

        self.cli = cli
        self.workload = workload
        self.ops = wl.WORKLOADS[workload](seed)
        self.scratch = scratch
        self.attempted = 0
        self.failed = 0
        self.messages = {}          # op label -> last check message
        self.counters = {}          # op label -> first round's output counters
        self.nondeterminism = []

    def run_op(self, idx: int, op, tracer=None) -> float:
        out = os.path.join(self.scratch, f"op{idx}")
        os.makedirs(out)
        argv = op.argv(out)
        log = io.StringIO()
        gc.collect()
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                if tracer is None:
                    rc = self.cli.main(argv)
                else:
                    with tracer.operation(idx, op.label):
                        rc = self.cli.main(argv)
        except SystemExit as err:          # argparse usage errors
            rc = err.code
        except Exception:                  # any crash is a failed operation
            rc = None
            log.write(traceback.format_exc())
        wall = time.perf_counter() - t0
        if rc == 0:
            try:
                outcome = op.check(out)
            except (OSError, ValueError, IndexError, KeyError) as err:
                outcome = wl.Outcome(False, f"output unreadable: {err!r}", {})
        else:
            outcome = wl.Outcome(False, f"exit {rc}: {log.getvalue().strip()[-400:]}",
                                      {})
        shutil.rmtree(out)
        self.messages[op.label] = outcome.message
        if not outcome.ok:
            self.failed += 1
            print(f"FAILED {self.workload} {op.label}: {outcome.message}")
        if op.label not in self.counters:
            self.counters[op.label] = outcome.counters
        elif outcome.counters and outcome.counters != self.counters[op.label]:
            self.nondeterminism.append(
                f"{op.label} outputs {outcome.counters} != {self.counters[op.label]}")
        return wall

    def run_round(self, tracer=None) -> list:
        """(raw, normalised) seconds of each operation."""
        times = []
        before = reference_kernel()
        for i, op in enumerate(self.ops):
            raw = self.run_op(i, op, tracer)
            after = reference_kernel()
            times.append((raw, normalised(raw, before, after)))
            before = after
        return times


def timed_rounds(runner: Runner, seconds: float, tracer_factory=None) -> list:
    """Rounds until the next one would end after ``seconds``; each entry is
    (operation times, tracer or None)."""
    start = time.perf_counter()
    rounds = []
    while True:
        tracer = tracer_factory() if tracer_factory else None
        if tracer is None:
            walls = runner.run_round()
        else:
            with tracer.install():
                walls = runner.run_round(tracer)
        rounds.append((walls, tracer))
        elapsed = time.perf_counter() - start
        typical = statistics.median(sum(raw for raw, _ in w) for w, _ in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            return rounds


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def _geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def end_to_end(runner: Runner, rounds: list, setup: list) -> dict:
    """name -> (normalised value, unit, note with the raw value); every
    per-operation step time as well."""
    metrics = {}

    def add(name, unit, samples, scale=1.0, note=""):
        raw = statistics.median(r * scale for r, _ in samples)
        norm = [n * scale for _, n in samples]
        q1, q3 = quartiles(norm)
        metrics[name] = (statistics.median(norm), unit,
                         f"raw {raw:.6g}; q1 {q1:.6g} q3 {q3:.6g} of {len(norm)}{note}")
        return metrics[name][0], raw

    add("wall_s", "s", [(sum(r for r, _ in w), sum(n for _, n in w)) for w, _ in rounds],
        note=" rounds")
    steps = [add(f"step_us.{op.label}", "us", [w[i] for w, _ in rounds], 1e6 / op.path_steps,
                 f" rounds, {op.path_steps} path-steps; {runner.messages.get(op.label, '')}")
             for i, op in enumerate(runner.ops)]
    metrics["step_us.geomean"] = (_geomean(n for n, _ in steps), "us",
                                  f"raw {_geomean(r for _, r in steps):.6g}; geometric "
                                  "mean over the operations")
    add("setup_s", "s", setup, note=" fresh interpreters")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                              "MB", "this process")
    metrics["failed_frac"] = (runner.failed / runner.attempted, "1",
                              f"{runner.failed} of {runner.attempted} operations")
    return metrics


def _per_segment(stats: dict, key: str, per: str) -> float:
    den = stats.get(per, 0.0)
    return stats.get(key, 0.0) / den if den else 0.0


def per_layer(stats: dict, overhead_pct: float, n_spans: int) -> dict:
    """name -> (value, unit) from one traced round's per-segment stats."""
    def total(key):
        return sum(seg.get(key, 0.0) for seg in stats.values())

    m = {}
    for name in ("core.noise_grid", "core.step_windows", "splitflow.stage_increments",
                 "splitflow.apply_stages", "splitflow.flow_f1", "splitflow.flow_f2",
                 "splitflow.flow_f3", "modelzoo.grad", "modelzoo.invariant",
                 "project.solve", "project.full_newton", "project.continuation",
                 "baseline.midpoint", "baseline.sympeuler", "nls.step", "nls.subflow",
                 "nls.charge", "harness.ms_error", "cli.write_csv"):
        m[f"{name}.calls"] = (total(f"{name}.calls"), "count")
        m[f"{name}.busy_s"] = (total(f"{name}.busy_s"), "s")
    m["core.noise_grid.normals"] = (total("core.noise_grid.normals"), "count")
    m["splitflow.map_evals"] = (total("splitflow.apply_stages.calls"), "count")
    m["project.steps"] = (total("project.steps"), "count")
    m["project.solves"] = (total("project.solve.calls"), "count")
    m["project.map_evals"] = (total("project.map_evals"), "count")
    m["project.iterations_per_step.mean"] = (
        total("project.iterations") / total("project.steps")
        if total("project.steps") else 0.0, "1/step")
    m["project.iterations_per_step.max"] = (
        max((seg.get("project.iterations_per_step.max", 0.0) for seg in stats.values()),
            default=0.0), "count")
    for key in ("project.max_residual", "project.max_defect"):
        m[key] = (max((seg.get(key, 0.0) for seg in stats.values()), default=0.0), "norm")
    m["project.batch_retries"] = (total("project.batch_retries"), "count")
    m["project.fallback_steps"] = (total("project.fallback_steps"), "count")
    m["project.simulate.self_s"] = (total("project.simulate.self_s"), "s")
    m["nls.fallback_steps"] = (sum(seg.get("project.fallback_steps", 0.0)
                                   for label, seg in stats.items()
                                   if label.startswith("nls-")), "count")
    m["cli.write_csv.bytes"] = (total("cli.write_csv.bytes"), "B")
    m["harness.ref_run_s"] = (sum(
        seg.get("harness.ms_error.busy_s", 0.0) - seg.get("harness.coarse_wall_s", 0.0)
        - seg.get("core.noise_grid.busy_s", 0.0) for seg in stats.values()
        if seg.get("harness.ms_error.calls")), "s")

    # per-operation ratios, under every label a workload can have
    for label in ("ses-sp-1", "ses-sp-2", "midpoint", "sympeuler"):
        seg = stats.get(label, {})
        steps = seg.get("project.steps", 0.0) or seg.get(
            f"baseline.{label}.calls", 0.0)
        m[f"modelzoo.grad_calls_per_step.{label}"] = (
            seg.get("modelzoo.grad.calls", 0.0) / steps if steps else 0.0, "1/step")
    for label in ("ses-sp-1", "ses-sp-2", "nls-r0.01", "nls-r0.25", "nls-r1"):
        m[f"project.map_evals_per_step.{label}"] = (
            _per_segment(stats.get(label, {}), "project.map_evals", "project.steps"),
            "1/step")
    for label in ("r0.01", "r0.25", "r1"):
        m[f"nls.iterations_per_step.{label}"] = (
            _per_segment(stats.get(f"nls-{label}", {}), "project.iterations",
                         "project.steps"), "1/step")
    m["trace.overhead_pct"] = (overhead_pct, "%")
    m["trace.spans"] = (float(n_spans), "count")
    return m


def counts_only(stats: dict) -> dict:
    """The hardware-independent part of a traced round: every entry that is
    not a time."""
    return {label: {k: v for k, v in seg.items() if not k.endswith("_s")}
            for label, seg in stats.items()}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    return {"end_to_end": bench["end_to_end"], "per_layer": bench["per_layer"]}


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Returns (correct, attempted, failed, metrics as name -> (value, unit))."""
    setup = measure_setup(workload)
    print(f"workload {workload}: {wl.INPUT_SIZE[workload]}; "
          f"program seed {wl.program_seed(seed)}")
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as scratch:
        runner = Runner(workload, seed, scratch)
        if not trace:
            rounds = timed_rounds(runner, seconds)
            metrics = end_to_end(runner, rounds, setup)
        else:
            from tracing import Tracer

            base = runner.run_round()
            rounds = timed_rounds(runner, seconds - sum(r for r, _ in base), Tracer)
            tracers = [t for _, t in rounds]
            for k, t in enumerate(tracers[1:], 2):
                if counts_only(t.stats) != counts_only(tracers[0].stats):
                    runner.nondeterminism.append(f"traced round {k} counters differ "
                                                 "from traced round 1")
            traced = statistics.median(sum(n for _, n in w) for w, _ in rounds)
            overhead = (traced / sum(n for _, n in base) - 1) * 100
            per_round = [per_layer(t.stats, overhead, len(t.spans)) for t in tracers]
            # counts repeat exactly (checked above); times are medians over rounds
            metrics = {k: (statistics.median(r[k][0] for r in per_round), unit)
                       for k, (_, unit) in per_round[0].items()}
            print_segments(tracers[0].stats)
            path = os.path.join(SPANS_DIR, f"spans-{workload}-s{seed}.json")
            write_spans(path, tracers)
            print(f"spans of {len(tracers)} traced rounds -> {os.path.relpath(path, ROOT)}")
    for line in runner.nondeterminism:
        print(f"NONDETERMINISM {workload}: {line}")
    correct = runner.failed == 0 and not runner.nondeterminism
    print_metrics(metrics)
    return correct, runner.attempted, runner.failed, metrics


def print_segments(stats: dict) -> None:
    for label, seg in stats.items():
        print(f"  segment {label}:")
        for key in sorted(seg):
            print(f"    {key:<40} {seg[key]:.6g}")


def print_metrics(metrics: dict) -> None:
    print(f"  {'metric':<42} {'value':>14}  unit  (times normalised to a "
          f"{REF_NOMINAL_S} s reference kernel; raw alongside)")
    for name, entry in metrics.items():
        value, unit = entry[0], entry[1]
        note = f"  ({entry[2]})" if len(entry) > 2 else ""
        print(f"  {name:<42} {value:>14.6g}  {unit}{note}")


def write_spans(path: str, tracers) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op"],
                   "rounds": [t.spans for t in tracers]}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(wl.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    try:
        import_program()
        declared = declared_metrics()
    except (ImportError, OSError, ValueError) as err:
        return fail(str(err))
    print("env " + json.dumps(environment()))

    names = list(wl.WORKLOADS) if args.workload == "all" else [args.workload]
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        correct, attempted, failed, metrics = run_workload(
            name, args.seed, args.seconds, bool(args.trace))
        result["correct"] = result["correct"] and correct
        result["attempted"] += attempted
        result["failed"] += failed
        prefix = f"{name}/" if len(names) > 1 else ""
        for m in wanted:
            if m["name"] not in metrics:
                return fail(f"metric {m['name']} not measured")
            value, unit = metrics[m["name"]][:2]
            if unit != m["unit"]:
                return fail(f"metric {m['name']} in {unit}, declared in {m['unit']}")
            result["metrics"][prefix + m["name"]] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
