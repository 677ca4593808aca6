"""Symmetric projection: semi-explicit symplectic stepping on the original
phase space.

The lifted state is perturbed by A'lambda, pushed through the extended-space
integrator with frozen noise, and corrected by the same A'lambda so the result
returns to the diagonal ker(A), with A = [I -I 0 0; 0 0 I -I].  lambda is
found by a simplified Newton iteration with the constant Jacobian
approximation 4I (note AA' = 2I), falling back to ``newton``, the one
finite-difference Newton solver that the implicit baselines use as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .core import (ExtendedState, HamiltonianModel, NoiseGrid, PhaseState, StepIncrements,
                   fd_jacobian)
from .splitflow import CompositionRecipe, apply_stages, f3_trig, stage_increments


FD_STEP = 1e-7  # central-difference step of every Newton Jacobian


@dataclass(frozen=True)
class ProjectionConfig:
    """Stopping rule of every implicit solve: the projection iteration, its
    Newton fallback and the implicit baselines."""

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class ProjectionReport:
    lam: np.ndarray
    iterations: int
    final_delta: float
    defect_pre: float
    residual: float
    used_fallback: bool = False


class NoConvergence(RuntimeError):
    def __init__(self, message: str, report: Optional[ProjectionReport] = None,
                 step: Optional[int] = None):
        super().__init__(message)
        self.report = report
        self.step = step


def lift(z: PhaseState) -> ExtendedState:
    """Duplicate (x, y) onto the diagonal of the extended space."""
    return ExtendedState(z.x, z.x.copy(), z.y, z.y.copy())


def restrict(s: ExtendedState) -> PhaseState:
    """Mean of the two copies; exact on the diagonal and halves the Newton
    residual off it."""
    return PhaseState(0.5 * (s.x + s.u), 0.5 * (s.y + s.v))


def _max_norm(a: np.ndarray, b: np.ndarray) -> float:
    # Euclidean norm over state components, max over any batch axis.
    sq = (a * a).sum(axis=0) + (b * b).sum(axis=0)
    return float(np.sqrt(sq.max() if sq.ndim else sq))


def _perturbed(map_fn, s0: ExtendedState, l1, l2):
    """Map output at s0 + A'lambda and the x, y blocks of A out + 2 lambda."""
    out = map_fn(ExtendedState(s0.x + l1, s0.u - l1, s0.y + l2, s0.v - l2))
    return out, out.x - out.u + 2.0 * l1, out.y - out.v + 2.0 * l2


def newton(residual: Callable, w0: np.ndarray, cfg: ProjectionConfig):
    """Newton iteration with a central-difference Jacobian, solved per path;
    ``w0`` is (k,) or (k, n_paths).  Converged when every path's Euclidean
    residual norm is below ``cfg.tol``; a non-finite norm or a singular
    Jacobian stops it unconverged.  Returns (w, converged, iterations)."""
    w = w0.copy()
    batched = w.ndim == 2
    with np.errstate(all="ignore"):
        for it in range(cfg.max_iter + 1):
            r = residual(w)
            norm = math.sqrt((r * r).sum(axis=0).max() if batched else r.dot(r))
            if not math.isfinite(norm) or norm < cfg.tol or it == cfg.max_iter:
                return w, norm < cfg.tol, it
            jac = fd_jacobian(residual, w, FD_STEP)
            try:
                if batched:   # jac[i, j, p] = dr_i/dw_j for path p: one system per path
                    step = np.linalg.solve(np.moveaxis(jac, -1, 0), r.T[..., None])[..., 0].T
                else:
                    step = np.linalg.solve(jac, r)
            except np.linalg.LinAlgError:
                return w, False, it
            w = w - step


def project_map(map_fn: Callable[[ExtendedState], ExtendedState], s0: ExtendedState,
                cfg: ProjectionConfig, map_at_scale: Optional[Callable] = None):
    """Solve the symmetric-projection equation for an arbitrary extended map.

    ``map_fn`` must re-evaluate with the same frozen noise at every iterate.
    A batch whose simplified Newton iteration diverges or stalls goes, as a
    whole, to full Newton and then, when ``map_at_scale(theta)`` is given
    (the map with all step increments scaled by theta), to a homotopy that
    follows the solution branch from the identity.
    Returns (corrected extended state on ker(A), report).
    """
    l1 = np.zeros_like(s0.x)
    l2 = np.zeros_like(s0.y)
    guard = 1e6 * (1.0 + _max_norm(s0.x, s0.y))
    iterations = 0

    def finish(l1, l2, iterations, delta, used_fallback):
        out, g1, g2 = _perturbed(map_fn, s0, l1, l2)
        defect_pre = _max_norm(out.x - out.u, out.y - out.v)
        residual = _max_norm(g1, g2)
        corrected = ExtendedState(out.x + l1, out.u - l1, out.y + l2, out.v - l2)
        rep = ProjectionReport(np.concatenate([l1, l2]), iterations, delta,
                               defect_pre, residual, used_fallback)
        return corrected, rep

    with np.errstate(all="ignore"):
        for _ in range(cfg.max_iter):
            _, g1, g2 = _perturbed(map_fn, s0, l1, l2)
            delta = 0.25 * _max_norm(g1, g2)   # update size of l -= g/4
            l1 = l1 - 0.25 * g1
            l2 = l2 - 0.25 * g2
            iterations += 1
            bad = _max_norm(l1, l2)
            if bad > guard or not np.isfinite(bad):
                l1 = np.zeros_like(s0.x)   # restart the fallback from zero
                l2 = np.zeros_like(s0.y)
                break
            if delta < cfg.tol:
                corrected, rep = finish(l1, l2, iterations, delta, False)
                if rep.residual <= 10.0 * cfg.tol:
                    return corrected, rep
                break

    d = s0.x.shape[0]
    lam, ok, extra = _full_newton(map_fn, s0, np.concatenate([l1, l2]), cfg)
    if not ok and map_at_scale is not None:
        lam, ok, more = _continuation(map_at_scale, s0, cfg)
        extra += more
    if ok:
        corrected, rep = finish(lam[:d], lam[d:], iterations + extra, 0.0, True)
        if rep.residual <= 10.0 * cfg.tol:
            return corrected, rep
    rep = ProjectionReport(lam, iterations + extra, np.nan, np.nan, np.nan, True)
    raise NoConvergence("full Newton fallback did not converge", rep)


def _full_newton(map_fn, s0: ExtendedState, lam0, cfg: ProjectionConfig):
    """Newton on the projection residual A map(s0 + A'lambda) + 2 lambda;
    returns (lam, converged, iterations)."""
    d = s0.x.shape[0]

    def g(lam):
        return np.concatenate(_perturbed(map_fn, s0, lam[:d], lam[d:])[1:])

    return newton(g, lam0, cfg)


def _continuation(map_at_scale, s0: ExtendedState, cfg: ProjectionConfig):
    """Homotopy in the increment scale: follow lambda from the identity map
    (theta = 0, lambda = 0) up to the full step (theta = 1), with one theta
    schedule for the whole batch."""
    lam = np.zeros((2 * s0.x.shape[0],) + s0.x.shape[1:])
    theta = 0.0
    h = 0.5
    total = 0
    while theta < 1.0:
        trial = min(1.0, theta + h)
        cand, ok, used = _full_newton(map_at_scale(trial), s0, lam, cfg)
        total += used
        if ok:
            theta = trial
            lam = cand
            h = min(2.0 * h, 1.0 - theta) if theta < 1.0 else h
        else:
            h *= 0.5
            if h < 2.0 ** -10:
                return lam, False, total
    return lam, True, total


def projection_step(model: HamiltonianModel, recipe: CompositionRecipe, z: PhaseState,
                    grid: NoiseGrid, step: int, cfg: ProjectionConfig,
                    substeps: Optional[int] = None):
    """One semi-explicit symplectic step on the original phase space; ``z``
    may carry a trailing batch axis."""
    incs = stage_increments(recipe, grid, step, substeps)  # frozen for all iterates
    trig = f3_trig(recipe, incs)

    def map_fn(s):
        return apply_stages(recipe, model, s, incs, trig)

    def map_at_scale(theta):
        scaled = [StepIncrements(theta * inc.delta) for inc in incs]
        strig = f3_trig(recipe, incs, theta)
        return lambda s: apply_stages(recipe, model, s, scaled, strig)

    corrected, rep = project_map(map_fn, lift(z), cfg, map_at_scale)
    return restrict(corrected), rep


# ---------------------------------------------------------------------------
# Trajectory driver
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    states: list                      # PhaseState per step, including z0
    reports: list                     # ProjectionReport or None per step
    tracked: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def final(self) -> PhaseState:
        return self.states[-1]

    def defect_series(self) -> np.ndarray:
        return np.array([r.defect_pre if r is not None else np.nan
                         for r in self.reports])

    def iteration_series(self) -> np.ndarray:
        return np.array([r.iterations if r is not None else 0 for r in self.reports])


def simulate(stepper: Callable, z0: PhaseState, n_steps: int, dt: float,
             trackers: Optional[Dict[str, Callable]] = None,
             keep_states: bool = True) -> Trajectory:
    """Drive a one-step map ``stepper(z, step) -> (z', report|None)``.

    Tracked functionals are evaluated at every stored state.  Deterministic
    given its inputs; NoConvergence is re-raised with the offending step
    index attached.
    """
    trackers = trackers or {}
    times = dt * np.arange(n_steps + 1)
    z = z0
    states = [z0]
    reports = []
    series = {name: [fn(z0)] for name, fn in trackers.items()}
    for n in range(n_steps):
        try:
            z, rep = stepper(z, n)
        except NoConvergence as err:
            err.step = n
            raise
        if keep_states:
            states.append(z)
        reports.append(rep)
        for name, fn in trackers.items():
            series[name].append(fn(z))
    if not keep_states:
        states.append(z)
    return Trajectory(times, states, reports,
                      {k: np.asarray(v) for k, v in series.items()})
