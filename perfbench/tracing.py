"""Traced mode: per-layer counters, busy times and spans, recorded from
outside the program by wrapping the module attributes its callers look up.

Nothing under ``src/`` is edited.  ``Tracer.install()`` replaces, for the
duration of a ``with`` block, the names each module resolves at call time
(``harness.projection_step``, ``project.apply_stages``, ``splitflow.flow_f1``,
``nls.subflow_a``, ``cli.write_csv`` ...), and wraps the example's gradient
and invariant callables through ``dataclasses.replace`` on the model that
``cli.get_example`` returns.

Every wrapped call adds to ``calls`` and ``busy_s`` (inclusive time) of its
name and to the child time of its caller, so self time is busy minus
children.  Calls at layer boundaries also record a span (name, start, end,
parent, operation); hot callables (flows, gradients, windowing) are only
counted.  Counters are kept per segment, the label of the running operation.
"""

from __future__ import annotations

import contextlib
import dataclasses
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np
from stosymp import baseline, cli, core, harness, nls, project, splitflow

import workloads


class Tracer:
    def __init__(self):
        self.spans: List[Tuple] = []     # (id, name, start, end, parent id, op id)
        self.stats: Dict[str, Dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.segment = "-"
        self.op_id = -1
        self._stack: List[list] = [[None, 0.0]]   # [span id, child time] per open call

    # -- recording -----------------------------------------------------------

    def add(self, name: str, value: float = 1.0) -> None:
        self.stats[self.segment][name] += value

    def peak(self, name: str, value: float) -> None:
        seg = self.stats[self.segment]
        seg[name] = max(seg.get(name, 0.0), value)

    def wrap(self, name: str, fn: Callable, span: bool = False,
             after: Optional[Callable] = None) -> Callable:
        """``after(args, kwargs, result)`` runs once the call has returned."""
        tracer = self

        def traced(*args, **kwargs):
            frame = [None, 0.0]
            if span:
                frame[0] = len(tracer.spans)
                tracer.spans.append(None)
            parent = tracer._stack[-1][0]
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dt = t1 - t0
                tracer._stack[-1][1] += dt
                seg = tracer.stats[tracer.segment]
                seg[name + ".calls"] += 1
                seg[name + ".busy_s"] += dt
                seg[name + ".self_s"] += dt - frame[1]
                if span:
                    tracer.spans[frame[0]] = (frame[0], name, t0, t1, parent, tracer.op_id)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def operation(self, op_id: int, label: str):
        self.segment, self.op_id = label, op_id
        try:
            yield
        finally:
            self.segment, self.op_id = "-", -1

    # -- patching ------------------------------------------------------------

    @contextlib.contextmanager
    def install(self):
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, new in patches:
                setattr(mod, attr, new)
            yield self
        finally:
            for mod, attr, old in saved:
                setattr(mod, attr, old)

    def _patches(self) -> list:
        w = self.wrap
        add = self.add

        # core: noise grids and per-step windowing
        def count_normals(args, kwargs, result):
            add("core.noise_grid.normals", result.size)

        grid = w("core.noise_grid", core.build_noise_grid, span=True)
        grid_batch = w("core.noise_grid", core.build_noise_grid_batch, span=True)
        windows = w("core.step_windows", core.step_windows)

        # project: solves, map evaluations, fallbacks
        def step_report(args, kwargs, result):
            rep = result[1]
            add("project.steps")
            add("project.iterations", rep.iterations)
            self.peak("project.iterations_per_step.max", rep.iterations)
            self.peak("project.max_residual", rep.residual)
            self.peak("project.max_defect", rep.defect_pre)
            if rep.used_fallback:
                add("project.fallback_steps")

        def counted_map(fn):
            def map_fn(s):
                add("project.map_evals")
                return fn(s)
            return map_fn

        solve = w("project.solve", project.project_map, span=True)

        def project_map(map_fn, s0, cfg, map_at_scale=None):
            scaled = None
            if map_at_scale is not None:
                def scaled(theta):
                    return counted_map(map_at_scale(theta))
            try:
                return solve(counted_map(map_fn), s0, cfg, scaled)
            except project.NoConvergence:
                if np.ndim(s0.x) == 2:
                    add("project.batch_retries")
                raise

        def coarse_walls(args, kwargs, report):
            add("harness.coarse_wall_s", float(sum(report.wall)))

        # cli: CSV output, with the example's callables wrapped
        def csv_bytes(args, kwargs, result):
            add("cli.write_csv.bytes",
                sum(len(line) for line in workloads.stable_csv_lines(args[0])))

        _get_example = cli.get_example

        def get_example(name, c=None, **kwargs):
            ex = _get_example(name, c=c, **kwargs)
            model = ex.model
            grads = [w("modelzoo.grad", g) for g in model.grad_x + model.grad_y]
            model = dataclasses.replace(model, grad_x=tuple(grads[:model.m + 1]),
                                        grad_y=tuple(grads[model.m + 1:]))
            invariants = {k: w("modelzoo.invariant", f) for k, f in ex.invariants.items()}
            return dataclasses.replace(ex, model=model, invariants=invariants)

        return [
            (core, "_channel_normals", w("core.channel_normals", core._channel_normals,
                                         after=count_normals)),
            (harness, "build_noise_grid", grid),
            (harness, "build_noise_grid_batch", grid_batch),
            (cli, "build_noise_grid", grid),
            (splitflow, "step_windows", windows),
            (harness, "step_windows", windows),
            (nls, "step_windows", windows),
            (project, "stage_increments", w("splitflow.stage_increments",
                                            splitflow.stage_increments)),
            (project, "apply_stages", w("splitflow.apply_stages", splitflow.apply_stages)),
            (splitflow, "flow_f1", w("splitflow.flow_f1", splitflow.flow_f1)),
            (splitflow, "flow_f2", w("splitflow.flow_f2", splitflow.flow_f2)),
            (splitflow, "flow_f3", w("splitflow.flow_f3", splitflow.flow_f3)),
            (harness, "projection_step", w("project.projection_step",
                                           project.projection_step, after=step_report)),
            (project, "project_map", project_map),
            (nls, "project_map", project_map),
            (project, "_full_newton", w("project.full_newton", project._full_newton,
                                        span=True)),
            (project, "_continuation", w("project.continuation", project._continuation,
                                         span=True)),
            (harness, "simulate", w("project.simulate", project.simulate, span=True)),
            (harness, "midpoint_step", w("baseline.midpoint", baseline.midpoint_step,
                                         span=True)),
            (harness, "symplectic_euler_step", w("baseline.sympeuler",
                                                 baseline.symplectic_euler_step, span=True)),
            (harness, "ms_error", w("harness.ms_error", harness.ms_error, span=True,
                                       after=coarse_walls)),
            (nls, "nls_step", w("nls.step", nls.nls_step, span=True, after=step_report)),
            (nls, "subflow_a", w("nls.subflow", nls.subflow_a)),
            (nls, "subflow_b", w("nls.subflow", nls.subflow_b)),
            (nls, "charge", w("nls.charge", nls.charge)),
            (cli, "write_csv", w("cli.write_csv", cli.write_csv, span=True, after=csv_bytes)),
            (cli, "get_example", get_example),
        ]

