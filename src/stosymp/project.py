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

import contextlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

import numpy as np

from .core import (ExtendedState, HamiltonianModel, NoiseGrid, PhaseState, StepIncrements,
                   fd_jacobian, ordered_sum)
from .splitflow import CompositionRecipe, apply_stages, f3_trig, stage_increments


FD_STEP = 1e-7  # central-difference step of every Newton Jacobian


@dataclass(frozen=True)
class ProjectionConfig:
    """Stopping rule of every implicit solve: the projection iteration, its
    Newton fallback and the implicit baselines."""

    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if not self.tol > 0:   # NaN fails this test too
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass
class ProjectionReport:
    """One solve; iterations, defect and residual are maxima over the paths."""

    lam: np.ndarray
    iterations: int
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


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm per path: shape () for one path, (n_paths,) for a batch."""
    return np.sqrt(ordered_sum(a * a))


def _perturbed(map_fn, s0: ExtendedState, lam: np.ndarray):
    """Map output at s0 + A'lambda and the projection residual A out + 2 lambda."""
    d = s0.x.shape[0]
    l1, l2 = lam[:d], lam[d:]
    out = map_fn(ExtendedState(s0.x + l1, s0.u - l1, s0.y + l2, s0.v - l2))
    return out, np.concatenate([out.x - out.u, out.y - out.v]) + 2.0 * lam


def _newton_steps(jac: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Solve jac[:, :, p] step[:, p] = r[:, p] for every path p; a path whose
    Jacobian is singular gets a NaN step."""
    k = len(r)
    a = jac.reshape(k, k, -1).transpose(2, 0, 1)   # one (k, k) system per path
    b = r.reshape(k, 1, -1).transpose(2, 0, 1)
    try:
        steps = np.linalg.solve(a, b)
    except np.linalg.LinAlgError:   # find the singular paths one at a time
        steps = np.full_like(b, np.nan)
        for p in range(len(a)):
            with contextlib.suppress(np.linalg.LinAlgError):
                steps[p] = np.linalg.solve(a[p], b[p])
    return steps.transpose(1, 2, 0).reshape(r.shape)


def newton(residual: Callable, w0: np.ndarray, cfg: ProjectionConfig, live=True):
    """Newton iteration with a central-difference Jacobian, one system per
    path; ``w0`` is (k,) or (k, n_paths).  A path stops once its residual norm
    is below ``cfg.tol`` or not finite (as after a singular Jacobian); paths
    outside ``live`` keep ``w0``.  Returns (w, residual norm per path, iterations)."""
    w = w0.copy()
    live = np.full(w.shape[1:], live)
    with np.errstate(all="ignore"):
        for it in range(cfg.max_iter + 1):
            r = residual(w)
            norm = _norm(r)
            live &= (norm >= cfg.tol) & (norm < np.inf)
            if it == cfg.max_iter or not np.count_nonzero(live):
                return w, norm, it
            step = _newton_steps(fd_jacobian(residual, w, FD_STEP), r)
            np.subtract(w, step, out=w, where=live)


def project_map(map_fn: Callable[[ExtendedState], ExtendedState], s0: ExtendedState,
                cfg: ProjectionConfig, map_at_scale: Optional[Callable] = None):
    """Solve the symmetric-projection equation for an arbitrary extended map.

    ``map_fn`` must re-evaluate with the same frozen noise at every iterate.
    Each path stops once its own update is below ``cfg.tol``.  A path whose
    simplified Newton iteration diverges (restarting from zero) or stalls goes
    to full Newton and then, when ``map_at_scale(theta)`` is given (the map
    with all step increments scaled by theta), to a homotopy that follows the
    solution branch from the identity, with one theta schedule for all such
    paths.
    Returns (corrected extended state on ker(A), report).
    """
    d = s0.x.shape[0]
    lam = np.zeros((2 * d,) + s0.x.shape[1:])
    guard = 1e6 * (1.0 + _norm(np.concatenate([s0.x, s0.y])))
    live = np.ones(guard.shape, dtype=bool)    # still iterating
    done = np.zeros(guard.shape, dtype=bool)   # last update below tol
    iterations = 0

    def finish(lam):
        """Corrected state, pre-projection defect and residual per path."""
        out, g = _perturbed(map_fn, s0, lam)
        l1, l2 = lam[:d], lam[d:]
        corrected = ExtendedState(out.x + l1, out.u - l1, out.y + l2, out.v - l2)
        return corrected, _norm(np.concatenate([out.x - out.u, out.y - out.v])), _norm(g)

    with np.errstate(all="ignore"):
        while iterations < cfg.max_iter and np.count_nonzero(live):
            g = _perturbed(map_fn, s0, lam)[1]
            lam = np.where(live, lam - 0.25 * g, lam)
            iterations += 1
            live &= _norm(lam) <= guard   # a diverged or non-finite path leaves
            done |= live & (0.25 * _norm(g) < cfg.tol)   # size of lam -= g/4
            live &= ~done
        lam = np.where(live | done, lam, 0.0)   # diverged paths restart from zero
        if done.any():
            corrected, defect, residual = finish(lam)
            done &= residual <= 10.0 * cfg.tol
        fallback = not done.all()
        if fallback:
            lam, norm, extra = _full_newton(map_fn, s0, lam, cfg, ~done)
            solved = done | (norm < cfg.tol)
            if not solved.all() and map_at_scale is not None:
                cont, reached, more = _continuation(map_at_scale, s0, cfg, ~solved)
                lam = np.where(solved, lam, cont)
                solved |= reached
                extra += more
            iterations += extra
            corrected, defect, residual = finish(lam)
            solved &= residual <= 10.0 * cfg.tol
    rep = ProjectionReport(lam, iterations, float(defect.max()), float(residual.max()),
                           fallback)
    if fallback and not solved.all():
        raise NoConvergence("full Newton fallback did not converge", rep)
    return corrected, rep


def _full_newton(map_fn, s0: ExtendedState, lam0, cfg: ProjectionConfig, live=True):
    """Newton on the projection residual A map(s0 + A'lambda) + 2 lambda for
    the ``live`` paths; returns (lam, residual norm per path, iterations)."""
    return newton(lambda lam: _perturbed(map_fn, s0, lam)[1], lam0, cfg, live)


def _continuation(map_at_scale, s0: ExtendedState, cfg: ProjectionConfig, live=True):
    """Homotopy in the increment scale: follow lambda from the identity map
    (theta = 0, lambda = 0) up to the full step (theta = 1), with one theta
    schedule for the ``live`` paths; returns (lam, reached 1, iterations)."""
    lam = np.zeros((2 * s0.x.shape[0],) + s0.x.shape[1:])
    theta = 0.0
    h = 0.5
    total = 0
    while theta < 1.0:
        trial = min(1.0, theta + h)
        cand, norm, used = _full_newton(map_at_scale(trial), s0, lam, cfg, live)
        total += used
        if np.all((norm < cfg.tol) | ~live):
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
                    substeps: Optional[int] = None, bounds: Optional[tuple] = None):
    """One semi-explicit symplectic step on the original phase space; ``z``
    may carry a trailing batch axis.  A stepper passes the recipe's
    ``stage_bounds`` at ``substeps`` as ``bounds``, found once for all steps."""
    incs = stage_increments(recipe, grid, step, substeps, bounds)  # frozen for all iterates
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
