"""Symmetric projection: semi-explicit symplectic stepping on the original
phase space.

The lifted state, one ``(4, d[, n_paths])`` array in (x, u, y, v) row order,
is perturbed by A'lambda, pushed through the extended-space integrator with
frozen noise, and corrected by the same A'lambda so the result returns to the
diagonal ker(A), with A = [I -I 0 0; 0 0 I -I].  lambda is found by a
simplified Newton iteration with one constant matrix per stepper
(``linearised_config``): the identity map's Jacobian 4I (AA' = 2I), or,
where the drift's linear part at the run's initial state outweighs the
noise's and the nonlinear terms', as the lattice Laplacian does, the
inverse P of the Jacobian linearised there at zero noise.  Where the cubic term dominates, as on the
h = 0.5 lattice at dt = 0.25, P's iteration count grows from step to step
(4I falls back on every step there).  Paths the iteration does not solve
fall back to ``newton``, the one finite-difference Newton solver that the
implicit baselines use as well.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional

import numpy as np

from .core import HamiltonianModel, NoiseGrid, PhaseState, fd_jacobian, ordered_sum
from .splitflow import CompositionRecipe, apply_stages, f3_trig, stage_increments


FD_STEP = 1e-7  # central-difference step of every Newton Jacobian


@dataclass(frozen=True)
class ProjectionConfig:
    """Stopping rule of every implicit solve: the projection iteration, its
    Newton fallback and the implicit baselines.  ``newton_matrix`` is the
    projection's simplified-Newton matrix P, set by the steppers through
    ``linearised_config``; None stands for the inverse of 4I."""

    tol: float = 1e-12
    max_iter: int = 50
    newton_matrix: Optional[np.ndarray] = field(default=None, compare=False, repr=False)

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


def lift(z: PhaseState) -> np.ndarray:
    """Duplicate (x, y) onto the diagonal of the extended space."""
    return np.stack((z.x, z.x, z.y, z.y))


def restrict(s: np.ndarray) -> PhaseState:
    """Mean of the two copies; exact on the diagonal and halves the Newton
    residual off it."""
    return PhaseState(0.5 * (s[0] + s[1]), 0.5 * (s[2] + s[3]))


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm per path: shape () for one path, (n_paths,) for a batch."""
    return np.sqrt(ordered_sum(a * a))


def _copy_gap(s: np.ndarray) -> np.ndarray:
    """A s = (x - u, y - v) as one (2d[, n_paths]) vector."""
    gap = s[0::2] - s[1::2]
    return gap.reshape((-1,) + gap.shape[2:])


def _shifted(s: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """s + A'lambda: x and y move by lambda's halves, u and v by their negatives."""
    shift = lam.reshape((2,) + s.shape[1:])
    out = s.copy()
    out[0::2] += shift
    out[1::2] -= shift
    return out


def _perturbed(map_fn, s0: np.ndarray, lam: np.ndarray):
    """Map output at s0 + A'lambda and the projection residual A out + 2 lambda."""
    out = map_fn(_shifted(s0, lam))
    return out, _copy_gap(out) + 2.0 * lam


def _simplified_step(P: Optional[np.ndarray], g: np.ndarray) -> np.ndarray:
    """P g, or g / 4 when P is None.  For a short lambda (2d <= 8, ex1-ex4) the
    products P[:, j] g[j] are summed left to right, so a batch column rounds
    as the path alone (a matrix-matrix product would not); a long lambda (the
    lattice, run as one path) takes one matrix-vector product."""
    if P is None:
        return 0.25 * g
    if len(g) <= 8:
        return ordered_sum(P.T.reshape(P.shape + (1,) * (g.ndim - 1)) * g[:, None])
    return P @ g


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


def project_map(map_fn: Callable[[np.ndarray], np.ndarray], s0: np.ndarray,
                cfg: ProjectionConfig, map_at_scale: Optional[Callable] = None):
    """Solve the symmetric-projection equation for an arbitrary extended map.

    ``map_fn`` must re-evaluate with the same frozen noise at every iterate.
    The simplified Newton update is lambda -= P g with P = ``cfg.newton_matrix``
    (g / 4 when None), and each path stops once its own update is below
    ``cfg.tol``.  A path whose simplified Newton iteration diverges
    (restarting from zero) or stalls goes to full Newton and then, when
    ``map_at_scale(theta)`` is given (the map with all step increments scaled
    by theta), to a homotopy that follows the solution branch from the
    identity, with one theta schedule for all such paths.
    Returns (corrected extended state on ker(A), report).
    """
    lam = np.zeros((2 * s0.shape[1],) + s0.shape[2:])
    # the loop tests squared norms against squared bounds, so it takes no sqrt;
    # lambda's bound grows with the norm of (x, y)
    guard = (1e6 * (1.0 + _norm(s0[0::2].reshape(lam.shape)))) ** 2
    live = np.ones(guard.shape, dtype=bool)    # still iterating
    done = np.zeros(guard.shape, dtype=bool)   # last update below tol
    iterations = 0

    def finish(lam):
        """Corrected state, pre-projection defect and residual per path."""
        out, g = _perturbed(map_fn, s0, lam)
        return _shifted(out, lam), _norm(_copy_gap(out)), _norm(g)

    with np.errstate(all="ignore"):
        while iterations < cfg.max_iter and np.count_nonzero(live):
            step = _simplified_step(cfg.newton_matrix, _perturbed(map_fn, s0, lam)[1])
            np.subtract(lam, step, out=lam, where=live)
            iterations += 1
            live &= ordered_sum(lam * lam) <= guard   # a diverged or non-finite path leaves
            stop = live & (ordered_sum(step * step) < cfg.tol ** 2)
            done |= stop
            live ^= stop
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


def _full_newton(map_fn, s0: np.ndarray, lam0, cfg: ProjectionConfig, live=True):
    """Newton on the projection residual A map(s0 + A'lambda) + 2 lambda for
    the ``live`` paths; returns (lam, residual norm per path, iterations)."""
    return newton(lambda lam: _perturbed(map_fn, s0, lam)[1], lam0, cfg, live)


def _continuation(map_at_scale, s0: np.ndarray, cfg: ProjectionConfig, live=True):
    """Homotopy in the increment scale: follow lambda from the identity map
    (theta = 0, lambda = 0) up to the full step (theta = 1), with one theta
    schedule for the ``live`` paths; returns (lam, reached 1, iterations)."""
    lam = np.zeros((2 * s0.shape[1],) + s0.shape[2:])
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


def linearised_config(cfg: ProjectionConfig, model: HamiltonianModel,
                      recipe: CompositionRecipe, z0: PhaseState, bounds: tuple,
                      dt_fine: float) -> ProjectionConfig:
    """``cfg`` with a stepper's simplified-Newton matrix P (``linearised_matrix``)
    where the linear part of the drift outweighs what it leaves out, else
    ``cfg`` itself (4I).

    The sizes compared are those of the projection residual's Jacobian minus
    4I at zero noise (the drift's part at the run's initial state z0) against
    the sum of the same at zero drift with every noise increment at one
    standard deviation (the noise's part) and of the drift's change between
    the origin and z0 (what the nonlinear terms add at z0), each estimated by
    ``_size``.  The lattice Laplacian outweighs both, so the NLS steppers get
    P; on ex1-ex4 with noise (c = 0.5 on the command line) the noise does,
    and a matrix linearised at zero noise gains nothing on 4I.  A NaN
    estimate (stages not finite at z0 or at the origin) keeps 4I."""
    s0 = lift(z0)
    at_start = _stage_residual(recipe, model, s0, bounds, dt_fine, 1.0, 0.0)
    at_origin = _stage_residual(recipe, model, np.zeros_like(s0), bounds, dt_fine, 1.0, 0.0)
    noise = _stage_residual(recipe, model, s0, bounds, dt_fine, 0.0, 1.0)
    k = 2 * model.d
    with np.errstate(all="ignore"):
        drift = _size(lambda v: _jvp(at_start, v) - 4.0 * v, k)
        rest = (_size(lambda v: _jvp(noise, v) - 4.0 * v, k)
                + _size(lambda v: _jvp(at_start, v) - _jvp(at_origin, v), k))
    if not drift > rest:
        return cfg
    return replace(cfg, newton_matrix=linearised_matrix(model, recipe, z0, bounds, dt_fine))


def linearised_matrix(model: HamiltonianModel, recipe: CompositionRecipe, z0: PhaseState,
                      bounds: tuple, dt_fine: float) -> np.ndarray:
    """The inverse of the central-difference Jacobian of lambda ->
    A map(lift(z0) + A'lambda) + 2 lambda at lambda = 0, with map the
    recipe's stages over the windows ``bounds`` at zero noise.  The fixed
    point, and so the scheme, does not depend on it; a singular Jacobian
    raises ``LinAlgError``."""
    drift = _stage_residual(recipe, model, lift(z0), bounds, dt_fine, 1.0, 0.0)
    return np.linalg.inv(fd_jacobian(drift, np.zeros(2 * model.d), FD_STEP))


def _stage_residual(recipe: CompositionRecipe, model: HamiltonianModel, s0: np.ndarray,
                    bounds: tuple, dt_fine: float, drift: float, noise: float) -> Callable:
    """lambda -> A map(s0 + A'lambda) + 2 lambda, with map the recipe's stages
    at frozen increments: ``drift`` times each window's length in channel 0
    and ``noise`` times its square root in every noise channel."""
    incs = []
    for lo, hi in bounds:
        delta = np.full(model.m + 1, noise * np.sqrt((hi - lo) * dt_fine))
        delta[0] = drift * (hi - lo) * dt_fine
        incs.append(delta)
    trig = f3_trig(recipe, incs)

    def map_fn(s):
        return apply_stages(recipe, model, s, incs, trig)
    return lambda lam: _perturbed(map_fn, s0, lam)[1]


def _jvp(residual: Callable, v: np.ndarray) -> np.ndarray:
    """J v by a central difference, J the Jacobian of ``residual`` at 0."""
    return (residual(FD_STEP * v) - residual(-FD_STEP * v)) / (2 * FD_STEP)


def _size(apply: Callable, k: int) -> float:
    """Size of the linear map ``apply`` on length-k vectors, from four power
    iterations started at the normalised ones vector: enough to order sizes
    that differ severalfold, which is all ``linearised_config`` asks."""
    v = np.full(k, 1.0 / np.sqrt(k))
    size = 0.0
    for _ in range(4):
        w = apply(v)
        size = np.sqrt(w @ w)
        if not size > 0:   # zero, or not finite
            break
        v = w / size
    return size


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
        scaled = [theta * delta for delta in incs]
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
