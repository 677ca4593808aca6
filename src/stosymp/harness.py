"""Mean-square convergence estimation, CPU timing, and invariant tracking.

Every path draws one fine-resolution noise grid; the reference solution (the
same scheme at the reference step) and all coarse solutions consume windows of
that same grid, so errors are measured with common random numbers.  Paths are
vectorized along a trailing batch axis and reduced in fixed path order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence

import numpy as np

from .baseline import midpoint_step, symplectic_euler_step
from .core import NoiseGrid, PhaseState, build_noise_grid, build_noise_grid_batch, step_windows
from .modelzoo import ExampleSpec
from .project import ProjectionConfig, Trajectory, projection_step, simulate
from .splitflow import lie_recipe, strang_recipe

SCHEMES = ("ses-sp-1", "ses-sp-2", "midpoint", "sympeuler")


def make_stepper(scheme: str, example: ExampleSpec, grid: NoiseGrid, substeps: int,
                 gamma, tol: float = 1e-12, max_iter: int = 50) -> Callable:
    """Bind a scheme id to a one-step callable ``(z, step) -> (z', report)``."""
    model = example.model
    cfg = ProjectionConfig(tol=tol, max_iter=max_iter)
    if scheme in ("ses-sp-1", "ses-sp-2"):
        gammas = np.full(model.m + 1, gamma) if np.ndim(gamma) == 0 else np.asarray(gamma)
        recipe = lie_recipe(gammas) if scheme == "ses-sp-1" else strang_recipe(gammas)

        def stepper(z, step):
            return projection_step(model, recipe, z, grid, step, cfg, substeps)
    elif scheme in ("midpoint", "sympeuler"):
        def stepper(z, step):
            (inc,) = step_windows(grid, step, [1], substeps)
            implicit = midpoint_step if scheme == "midpoint" else symplectic_euler_step
            return implicit(model, z, inc, cfg), None
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
    tol: float = 1e-12
    max_iter: int = 50
    fine_factor: int = 2   # fine steps per reference step (>= 2 for half windows)

    def __post_init__(self):
        if self.paths < 1:
            raise ValueError("at least 1 path required")
        problem = grid_mismatch(self.t_end, self.dt_list, self.ref_dt, self.fine_factor)
        if problem:
            raise ValueError(problem)


def grid_mismatch(t_end: float, dt_list: Sequence[float], ref_dt: float,
                  fine_factor: int = 2) -> Optional[str]:
    """Why a step of ``dt_list`` cannot run on the shared noise grid of
    ``fine_factor`` fine steps per ``ref_dt`` over [0, t_end], or None."""
    if min(dt_list) <= 0 or ref_dt <= 0:
        return f"steps must be positive (dt {list(dt_list)}, ref_dt {ref_dt})"
    n_fine = int(round(t_end / ref_dt)) * fine_factor
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
    slope_norm: float = np.nan
    endpoint_slope_x: float = np.nan
    endpoint_slope_y: float = np.nan


def fit_slope(dts: Sequence[float], errs: Sequence[float]) -> float:
    """Ordinary least squares slope of log(err) against log(dt)."""
    ld = np.log(np.asarray(dts, dtype=float))
    le = np.log(np.asarray(errs, dtype=float))
    a = np.vstack([ld, np.ones_like(ld)]).T
    slope, _ = np.linalg.lstsq(a, le, rcond=None)[0]
    return float(slope)


def _run_final(spec: ConvergenceSpec, grid: NoiseGrid, dt: float) -> tuple:
    n_steps = int(round(spec.t_end / dt))
    substeps = grid.n_fine // n_steps   # exact: ConvergenceSpec checked the tiling
    stepper = make_stepper(spec.scheme, spec.example, grid, substeps, spec.gamma,
                           spec.tol, spec.max_iter)
    z = PhaseState(np.repeat(spec.example.z0.x[:, None], spec.paths, axis=1),
                   np.repeat(spec.example.z0.y[:, None], spec.paths, axis=1))
    t_start = time.perf_counter()
    for n in range(n_steps):
        z, _ = stepper(z, n)
    wall = time.perf_counter() - t_start
    return z, wall


def ms_error(spec: ConvergenceSpec) -> OrderReport:
    """Root-mean-square endpoint errors against a coupled fine-mesh reference."""
    n_ref = int(round(spec.t_end / spec.ref_dt))
    n_fine = n_ref * spec.fine_factor
    grid = build_noise_grid_batch(spec.seed, range(spec.paths), spec.example.model.m,
                                  0.0, spec.t_end, n_fine)
    z_ref, _ = _run_final(spec, grid, spec.ref_dt)

    err_x, err_y, err_norm, se_x, se_y, walls = [], [], [], [], [], []
    for dt in spec.dt_list:
        z, wall = _run_final(spec, grid, dt)
        dx2 = np.sum((z.x - z_ref.x) ** 2, axis=0)   # per-path squared errors
        dy2 = np.sum((z.y - z_ref.y) ** 2, axis=0)
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
        report.slope_norm = fit_slope(report.dts, report.err_norm)
        l0, l1 = 0, len(spec.dt_list) - 1
        span = np.log(report.dts[l0] / report.dts[l1])
        report.endpoint_slope_x = float(np.log(report.err_x[l0] / report.err_x[l1]) / span)
        report.endpoint_slope_y = float(np.log(report.err_y[l0] / report.err_y[l1]) / span)
    return report


def _jackknife_se(sq: np.ndarray) -> float:
    """Delete-one jackknife standard error of sqrt(mean(sq))."""
    n = sq.shape[0]
    if n < 2:
        return float("nan")
    total = np.sum(sq)
    loo = np.sqrt((total - sq) / (n - 1))
    return float(np.sqrt((n - 1) / n * np.sum((loo - np.mean(loo)) ** 2)))


@dataclass
class TimingRow:
    scheme: str
    dt: float
    err_norm: float
    wall: float


def cpu_compare(example: ExampleSpec, schemes: Sequence[str], dt_list: Sequence[float],
                paths: int, t_end: float, seed: int, gamma: float = 0.0,
                ref_dt: Optional[float] = None, tol: float = 1e-12) -> list:
    """Wall-clock and error per scheme per step size on identical noise.

    Noise generation is excluded from the timed region; runs are sequential in
    a single worker.
    """
    rows = []
    ref_dt = ref_dt if ref_dt is not None else min(dt_list) / 16.0
    for scheme in schemes:
        spec = ConvergenceSpec(example, scheme, t_end, tuple(dt_list), ref_dt,
                               paths, seed, gamma, tol)
        rep = ms_error(spec)
        for dt, err, wall in zip(rep.dts, rep.err_norm, rep.wall):
            rows.append(TimingRow(scheme, float(dt), float(err), float(wall)))
    return rows


def track(example: ExampleSpec, scheme: str, t_end: float, dt: float,
          invariants: Sequence[str], seed: int = 0, gamma: float = 0.0,
          tol: float = 1e-12, path_index: int = 0, fine_factor: int = 2,
          keep_states: bool = False) -> tuple:
    """Relative-deviation series (I(t) - I(0)) / |I(0)| for named invariants,
    plus the per-step pre-projection defect norm."""
    for name in invariants:
        if name not in example.invariants:
            raise KeyError(f"unknown invariant {name!r} on {example.name}; "
                           f"registered: {sorted(example.invariants)}")
    n_steps = int(round(t_end / dt))
    grid = build_noise_grid(seed, path_index, example.model.m, 0.0, n_steps * dt,
                            n_steps * fine_factor)
    stepper = make_stepper(scheme, example, grid, fine_factor, gamma, tol)
    trackers = {name: example.invariants[name] for name in invariants}
    traj = simulate(stepper, example.z0, n_steps, dt, trackers, keep_states=keep_states)
    series = {}
    for name in invariants:
        vals = traj.tracked[name]
        ref = vals[0]
        series[name] = (vals - ref) / abs(ref) if ref != 0 else vals - ref
    return traj, series
