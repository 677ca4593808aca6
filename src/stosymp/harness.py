"""Mean-square convergence estimation and invariant tracking.

Every path draws one fine-resolution noise grid; the reference solution (the
same scheme at the reference step) and all coarse solutions consume windows of
that same grid, so errors are measured with common random numbers.  Paths are
vectorized along a trailing batch axis and reduced in fixed path order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .baseline import midpoint_step, symplectic_euler_step
# step_windows and build_noise_grid_batch are not called here;
# perfbench/tracing.py patches the names on this module
from .core import PhaseState, build_noise_grid, build_noise_grid_batch, step_windows
from .modelzoo import ExampleSpec
from .project import (NoConvergence, ProjectionConfig, linearised_config, projection_step,
                      simulate, step_plan)
from .splitflow import lie_recipe, stage_bounds, strang_recipe

SCHEMES = ("ses-sp-1", "ses-sp-2", "midpoint", "sympeuler")
FINE_STEPS = 2   # noise-grid steps per reference step: >= 2 for half windows


def make_stepper(scheme: str, example: ExampleSpec, grid: np.ndarray, substeps: int,
                 gamma, cfg: ProjectionConfig = ProjectionConfig()) -> Callable:
    """Bind a scheme id to a one-step callable ``(z, step) -> (z', report)``
    on ``(2, d[, n_paths])`` states, for a run from ``example.z0``; the
    window bounds and the projection's simplified-Newton matrix are found
    here, once, and the steps' increments (and F3 rotations) by a
    ``step_plan``, one block of steps at a time."""
    model = example.model
    if scheme in ("ses-sp-1", "ses-sp-2"):
        gammas = np.full(model.m + 1, gamma) if np.ndim(gamma) == 0 else np.asarray(gamma)
        recipe = lie_recipe(gammas) if scheme == "ses-sp-1" else strang_recipe(gammas)
        bounds = stage_bounds(recipe, substeps)
        cfg = linearised_config(cfg, model, recipe, example.z0, bounds, grid[0].flat[0])
        plan = step_plan(grid, substeps, bounds, recipe)

        def stepper(z, step):
            return projection_step(model, recipe, z, *plan(step), cfg)
    elif scheme in ("midpoint", "sympeuler"):
        implicit = midpoint_step if scheme == "midpoint" else symplectic_euler_step
        plan = step_plan(grid, substeps, ((0, substeps),))

        def stepper(z, step):
            (delta,), _ = plan(step)
            return implicit(model, z, delta, cfg), None
    else:
        raise KeyError(f"unknown scheme {scheme!r}; choose from {SCHEMES}")
    return stepper


@dataclass(frozen=True)
class ConvergenceSpec:
    example: ExampleSpec
    scheme: str
    t_end: float
    dt_list: tuple
    ref_dt: float
    paths: int
    seed: int
    gamma: float = 0.0
    cfg: ProjectionConfig = ProjectionConfig()

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("at least 1 path required")
        problem = grid_mismatch(self.t_end, self.dt_list, self.ref_dt)
        if problem:
            raise ValueError(problem)


def grid_mismatch(t_end: float, dt_list: Sequence[float], ref_dt: float) -> Optional[str]:
    """Why ``ref_dt`` does not tile [0, t_end], or a step of ``dt_list`` cannot run
    on its grid of ``FINE_STEPS`` fine steps per ``ref_dt``, or None."""
    if min(dt_list) <= 0 or ref_dt <= 0:
        return f"steps must be positive (dt {list(dt_list)}, ref_dt {ref_dt})"
    if abs(round(t_end / ref_dt) - t_end / ref_dt) > 1e-9:
        return f"t_end {t_end} is not a whole number of steps of {ref_dt}"
    n_fine = int(round(t_end / ref_dt)) * FINE_STEPS
    for dt in dt_list:
        if abs(round(dt / ref_dt) - dt / ref_dt) > 1e-9:
            return f"ref_dt {ref_dt} does not divide dt {dt}"
        n_steps = int(round(t_end / dt))
        if n_steps < 1 or n_fine % n_steps:
            return f"dt {dt} does not tile t_end {t_end} on the ref_dt {ref_dt} grid"
    return None


@dataclass
class OrderReport:
    scheme: str
    dts: np.ndarray
    err_x: np.ndarray
    err_y: np.ndarray
    err_norm: np.ndarray
    se_x: np.ndarray          # jackknife standard errors
    se_y: np.ndarray
    wall: np.ndarray
    slope_x: float = np.nan
    slope_y: float = np.nan


def fit_slope(dts: Sequence[float], errs: Sequence[float]) -> float:
    """Ordinary least squares slope of log(err) against log(dt)."""
    ld = np.log(np.asarray(dts, dtype=float))
    le = np.log(np.asarray(errs, dtype=float))
    a = np.vstack([ld, np.ones_like(ld)]).T
    slope, _ = np.linalg.lstsq(a, le, rcond=None)[0]
    return float(slope)


def _run_final(spec: ConvergenceSpec, grid: np.ndarray, dt: float) -> tuple:
    n_steps = int(round(spec.t_end / dt))
    substeps = grid.shape[1] // n_steps   # exact: ConvergenceSpec checked the tiling
    stepper = make_stepper(spec.scheme, spec.example, grid, substeps, spec.gamma, spec.cfg)
    z = PhaseState(*np.repeat(spec.example.z0.stacked()[..., None], spec.paths, axis=-1))
    t_start = time.perf_counter()
    try:
        traj = simulate(stepper, z, n_steps, dt, keep_states=False)
    except NoConvergence as err:
        raise NoConvergence(f"{spec.scheme} at dt={dt:g}: {err}", err.report,
                            err.step) from err
    return traj.z[-1], time.perf_counter() - t_start


def ms_error(spec: ConvergenceSpec) -> OrderReport:
    """Root-mean-square endpoint errors against a coupled fine-mesh reference."""
    n_ref = int(round(spec.t_end / spec.ref_dt))
    n_fine = n_ref * FINE_STEPS
    grid = build_noise_grid(spec.seed, range(spec.paths), spec.example.model.m, spec.t_end,
                            n_fine)
    z_ref, _ = _run_final(spec, grid, spec.ref_dt)

    err_x, err_y, err_norm, se_x, se_y, walls = [], [], [], [], [], []
    for dt in spec.dt_list:
        z, wall = _run_final(spec, grid, dt)
        dx2, dy2 = np.sum((z - z_ref) ** 2, axis=1)   # per-path squared errors
        err_x.append(np.sqrt(np.mean(dx2)))
        err_y.append(np.sqrt(np.mean(dy2)))
        err_norm.append(np.sqrt(np.mean(dx2 + dy2)))
        se_x.append(_jackknife_se(dx2))
        se_y.append(_jackknife_se(dy2))
        walls.append(wall)

    report = OrderReport(spec.scheme, np.asarray(spec.dt_list, dtype=float),
                         np.asarray(err_x), np.asarray(err_y), np.asarray(err_norm),
                         np.asarray(se_x), np.asarray(se_y), np.asarray(walls))
    if len(spec.dt_list) >= 2 and np.all(report.err_x > 0) and np.all(report.err_y > 0):
        report.slope_x = fit_slope(report.dts, report.err_x)
        report.slope_y = fit_slope(report.dts, report.err_y)
    return report


def _jackknife_se(sq: np.ndarray) -> float:
    """Delete-one jackknife standard error of sqrt(mean(sq))."""
    n = sq.shape[0]
    if n < 2:
        return float("nan")
    total = np.sum(sq)
    loo = np.sqrt((total - sq) / (n - 1))
    return float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))


def track(example: ExampleSpec, scheme: str, t_end: float, dt: float,
          invariants: Sequence[str], seed: int = 0, gamma: float = 0.0,
          cfg: ProjectionConfig = ProjectionConfig(), keep_states: bool = False) -> tuple:
    """One path's trajectory and the relative-deviation series
    (I(t) - I(0)) / |I(0)| of the named invariants; a ``dt`` that does not
    tile ``t_end`` (``grid_mismatch``) is a ``ValueError``."""
    for name in invariants:
        if name not in example.invariants:
            raise KeyError(f"unknown invariant {name!r} on {example.name}; "
                           f"registered: {sorted(example.invariants)}")
    problem = grid_mismatch(t_end, [dt], dt)
    if problem:
        raise ValueError(problem)
    n_steps = int(round(t_end / dt))
    grid = build_noise_grid(seed, 0, example.model.m, n_steps * dt, n_steps * FINE_STEPS)
    stepper = make_stepper(scheme, example, grid, FINE_STEPS, gamma, cfg)
    trackers = {name: example.invariants[name] for name in invariants}
    traj = simulate(stepper, example.z0, n_steps, dt, trackers, keep_states=keep_states)
    series = {}
    for name in invariants:
        vals = traj.tracked[name]
        ref = vals[0]
        series[name] = (vals - ref) / abs(ref) if ref != 0 else vals - ref
    return traj, series
