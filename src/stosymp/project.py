"""Symmetric projection: semi-explicit symplectic stepping on the original
phase space.

A state (x, y) is one ``(2, d[, n_paths])`` array; ``lift`` doubles it to
the ``(4, d[, n_paths])`` array (x, u, y, v), which is perturbed by A'lambda,
pushed through the extended-space integrator with frozen noise, and
corrected by the same A'lambda so the result returns to the diagonal ker(A),
with A = [I -I 0 0; 0 0 I -I].  ``project_map`` finds lambda by a simplified
Newton iteration whose matrix ``linearised_config`` chooses per stepper: the
per-step chord for a short lambda (ex1-ex4), the constant P for a long one
(the lattice, where a per-step Jacobian would cost more than it saves; where
its cubic term dominates, as at h = 0.5 and dt = 0.25, P's iteration count
grows from step to step).  Paths it does not solve fall back to ``newton``,
full Newton by the same per-path inverse as the chord's.

A stepper takes each step's increments and F3 rotations from a ``step_plan``,
which builds them one block of steps at a time.  ``simulate``, the one loop
that drives a stepper, one path or a batch, carries the state from step to
step as one array and keeps each step's solver numbers in arrays; a
``PhaseState`` is built only for trackers and for ``Trajectory``'s readers.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from functools import lru_cache
from typing import Callable, Dict, Optional

import numpy as np

from .core import HamiltonianModel, PhaseState, fd_jacobian, grid_windows, ordered_sum
from .splitflow import CompositionRecipe, apply_stages, f3_trig, stage_increments


FD_STEP = 1e-7  # central-difference step of every Newton Jacobian
SHORT_LAMBDA = 8  # longest lambda whose projection takes a per-step chord Jacobian
PLAN_BLOCK = 2**16   # entries (steps x windows x channels x paths) per step-plan block
_COPIES = np.array([0, 0, 1, 1])   # the rows of (x, y) that make (x, u, y, v)
_SIGNS = np.array([1.0, -1.0, 1.0, -1.0])   # A' row by row: +x, -u, +y, -v


@dataclass(frozen=True)
class ProjectionConfig:
    """Stopping rule of every implicit solve: the projection iteration, its
    Newton fallback and the implicit baselines.  ``newton_matrix`` is the
    projection's matrix P, set through ``linearised_config`` by the steppers
    of a long lambda; None stands for the per-step chord.  A projection path
    stops at the lambda whose update is below ``tol``, leaving that update
    unapplied, and its residual there must be at most 10 ``tol``; a
    ``chord_newton`` or ``newton`` path stops once its residual is below
    ``tol``.  ``max_iter`` bounds each loop on its own: projection
    iterations, chord updates, Newton steps."""

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


def lift(z: np.ndarray) -> np.ndarray:
    """Duplicate the state (x, y) onto the diagonal of the extended space."""
    return z.take(_COPIES, axis=0)


def restrict(s: np.ndarray) -> np.ndarray:
    """Mean of the two copies, a state (x, y); exact on the diagonal and
    halves the Newton residual off it."""
    return 0.5 * (s[0::2] + s[1::2])


def _norm(a: np.ndarray) -> np.ndarray:
    """Euclidean norm per path: shape () for one path, (n_paths,) for a batch."""
    return np.sqrt(ordered_sum(a * a))


def _copy_gap(s: np.ndarray) -> np.ndarray:
    """A s = (x - u, y - v) as one (2d[, n_paths]) vector."""
    gap = s[0::2] - s[1::2]
    return gap.reshape((-1,) + gap.shape[2:])


def _shifted(s: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """s + A'lambda: x and y move by lambda's halves, u and v by their negatives
    (u + (-l) rounds as u - l).  Points that ``fd_jacobian`` stacks on
    lambda's axis 1 share one s."""
    shift = lam.reshape((2, s.shape[1]) + lam.shape[1:]).take(_COPIES, axis=0)
    if shift.ndim > s.ndim:
        s = s[:, :, None]
    return s + (shift.T * _SIGNS).T


def _perturbed(map_fn, s0: np.ndarray, lam: np.ndarray):
    """Map output at s0 + A'lambda and the projection residual A out + 2 lambda."""
    out = map_fn(_shifted(s0, lam))
    return out, _copy_gap(out) + 2.0 * lam


def _inverse_t(jac: np.ndarray) -> np.ndarray:
    """The transposed inverse of each path's Jacobian in ``jac`` (k, k[, n_paths]),
    in the same layout with [j, i] = J^-1[i, j]; a path whose Jacobian is
    singular gets NaN.  For k <= 2 it is the closed form, 1/a or the adjugate
    over the determinant, elementwise over the paths, so a batch column rounds
    as the path alone; a larger k takes LAPACK's inverse one matrix per path."""
    k = len(jac)
    if k == 1:
        return 1.0 / np.where(jac == 0, np.nan, jac)
    if k == 2:
        (a, b), (c, d) = jac
        det = a * d - b * c
        return np.array([[d, -c], [-b, a]]) / np.where(det == 0, np.nan, det)
    mats = jac.reshape(k, k, -1).transpose(2, 0, 1)   # one (k, k) matrix per path
    try:
        inv = np.linalg.inv(mats)
    except np.linalg.LinAlgError:   # find the singular paths one at a time
        inv = np.full_like(mats, np.nan)
        for p in range(len(mats)):
            with contextlib.suppress(np.linalg.LinAlgError):
                inv[p] = np.linalg.inv(mats[p])
    return inv.transpose(2, 1, 0).reshape(jac.shape)


@lru_cache(maxsize=None)
def _fd_steps(k: int, ndim: int) -> np.ndarray:
    """``_chord_start``'s steps +FD_STEP e_j, then -FD_STEP e_j (w + (-h) rounds
    as w - h), on axis 1 of a read-only (k, 2k) array with a unit axis per
    path axis; one per shape."""
    e = FD_STEP * np.eye(k)
    steps = np.concatenate((e, -e), axis=1).reshape((k, 2 * k) + (1,) * (ndim - 1))
    steps.flags.writeable = False
    return steps


def _chord_start(evaluate: Callable, w: np.ndarray):
    """The residual at ``w`` and ``_inverse_t`` of its central-difference
    Jacobian there, the start of every chord and every ``newton`` iterate,
    from one call of ``evaluate`` -> (output, residual) on 2k + 1 points
    stacked on ``w``'s axis 1: ``w``, then ``_fd_steps`` from it as
    ``fd_jacobian`` stacks them, so it must broadcast over them as
    ``fd_jacobian``'s ``fn`` does.  Returns (output, residual, matrix)."""
    k = len(w)
    at = w[:, None]
    out, r = evaluate(np.concatenate((at, at + _fd_steps(k, w.ndim)), axis=1))
    return out, r[:, 0], _inverse_t((r[:, 1:k + 1] - r[:, k + 1:]) / (2 * FD_STEP))


def _settled(out: np.ndarray, lam: np.ndarray):
    """Corrected state, pre-projection defect and residual per path, from the
    map output ``out`` at s0 + A'lambda."""
    gap = _copy_gap(out)
    return _shifted(out, lam), _norm(gap), _norm(gap + 2.0 * lam)


def newton(residual: Callable, w0: np.ndarray, cfg: ProjectionConfig, live=True):
    """Newton iteration, one system per path; ``w0`` is (k,) or (k, n_paths).
    Each iterate's residual and Jacobian inverse come from one ``_chord_start``
    call; the step J^-1 r adds left to right.  A path stops once its residual
    norm is below ``cfg.tol`` or not finite (as after a singular Jacobian);
    paths outside ``live`` keep ``w0``.  Returns (w, norm per path, iterations)."""
    w = w0.copy()
    live = np.full(w.shape[1:], live)
    with np.errstate(all="ignore"):
        for it in range(cfg.max_iter + 1):
            _, r, inv_t = _chord_start(lambda v: (None, residual(v)), w)
            norm = _norm(r)
            live &= (norm >= cfg.tol) & (norm < np.inf)
            if it == cfg.max_iter or not np.count_nonzero(live):
                return w, norm, it
            np.subtract(w, ordered_sum(inv_t * r[:, None]), out=w, where=live)


def chord_newton(residual: Callable, w0: np.ndarray, cfg: ProjectionConfig):
    """Solve residual(w) = 0 from ``w0``, (k,) or (k, n_paths), by the chord
    w -= J^-1 r with ``_chord_start``'s J^-1 at w0, until a path's residual
    norm is below ``cfg.tol``.  A path whose norm does not decrease, is not
    finite, or is still too large after ``cfg.max_iter`` updates leaves the
    chord and restarts in ``newton`` from ``w0``; returns (w, norm per path)."""
    w = w0.copy()
    with np.errstate(all="ignore"):
        _, r, inv_t = _chord_start(lambda v: (None, residual(v)), w)
        norm = _norm(r)
        live = norm >= cfg.tol
        for _ in range(cfg.max_iter):
            if not np.count_nonzero(live):
                break
            np.subtract(w, ordered_sum(inv_t * r[:, None]), out=w, where=live)
            r = residual(w)
            last, norm = norm, _norm(r)
            live &= (norm >= cfg.tol) & (norm < last)
    left = ~(norm < cfg.tol)
    if np.count_nonzero(left):
        restart, again, _ = newton(residual, w0, cfg, left)
        w, norm = np.where(left, restart, w), np.where(left, again, norm)
    return w, norm


def project_map(map_fn: Callable[[np.ndarray], np.ndarray], s0: np.ndarray,
                cfg: ProjectionConfig, map_at_scale: Optional[Callable] = None):
    """Solve the symmetric-projection equation for an arbitrary extended map.

    ``map_fn`` must re-evaluate with the same frozen noise at every iterate,
    and must broadcast over points stacked on axis 2 of the state (axis 1 of
    lambda), as ``fd_jacobian``'s ``fn`` does.  The simplified Newton update
    is lambda -= P g with P = ``cfg.newton_matrix``, or, when that is None,
    with the chord's P = J^-1: J is the central-difference Jacobian at lambda
    = 0, one per path, evaluated in the same map call as the first g.  Each
    path stops at the lambda whose own update is below ``cfg.tol``, without
    applying it: its corrected state, pre-projection defect and residual come
    from the map output at that lambda, and the residual must be at
    most 10 ``cfg.tol``.  A path whose simplified Newton iteration diverges
    (restarting from zero), stalls or meets a singular J goes to full Newton
    and then, when ``map_at_scale(theta)`` is given (the map with all step
    increments scaled by theta, a scale per path), to a homotopy that follows
    each such path's solution branch from the identity on its own theta
    schedule.
    Returns (corrected extended state on ker(A), report).
    """
    lam = np.zeros((2 * s0.shape[1],) + s0.shape[2:])
    # the loop tests squared norms against squared bounds, so it takes no sqrt;
    # lambda's bound grows with the norm of (x, y)
    guard = (1e6 * (1.0 + _norm(s0[0::2].reshape(lam.shape)))) ** 2
    done = np.zeros(guard.shape, dtype=bool)   # update below tol, lambda kept
    live = ~done                               # still iterating
    iterations = 0

    chord = cfg.newton_matrix is None
    with np.errstate(all="ignore"):
        if chord:
            out, g, inv_t = _chord_start(lambda points: _perturbed(map_fn, s0, points), lam)
            out = out[:, :, 0]   # lambda's own point
        else:
            out, g = _perturbed(map_fn, s0, lam)
        while True:
            # the chord's J^-1 g sums left to right, so a batch column rounds
            # as the path run alone does
            step = ordered_sum(inv_t * g[:, None]) if chord else cfg.newton_matrix @ g
            iterations += 1
            stop = live & (ordered_sum(step * step) < cfg.tol ** 2)
            done |= stop
            live ^= stop
            np.subtract(lam, step, out=lam, where=live)
            live &= ordered_sum(lam * lam) <= guard   # a diverged or non-finite path leaves
            if iterations == cfg.max_iter or not np.count_nonzero(live):
                break
            out, g = _perturbed(map_fn, s0, lam)
        lam = np.where(live | done, lam, 0.0)   # diverged paths restart from zero
        # done paths keep lambda, so out holds their outputs while calls still evaluate them
        corrected, defect, residual = _settled(out, lam)
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
            corrected, defect, residual = _settled(map_fn(_shifted(s0, lam)), lam)
            solved &= residual <= 10.0 * cfg.tol
    rep = ProjectionReport(lam, iterations, float(np.maximum.reduce(defect, axis=None)),
                           float(np.maximum.reduce(residual, axis=None)), fallback)
    if fallback and not solved.all():
        raise NoConvergence("full Newton fallback did not converge", rep)
    return corrected, rep


def _full_newton(map_fn, s0: np.ndarray, lam0, cfg: ProjectionConfig, live=True):
    """Newton on the projection residual A map(s0 + A'lambda) + 2 lambda for
    the ``live`` paths; returns (lam, residual norm per path, iterations)."""
    return newton(lambda lam: _perturbed(map_fn, s0, lam)[1], lam0, cfg, live)


def _continuation(map_at_scale, s0: np.ndarray, cfg: ProjectionConfig, live=True):
    """Homotopy in the increment scale: follow lambda from the identity map
    (theta = 0, lambda = 0) up to the full step (theta = 1), each ``live`` path
    on its own theta schedule; returns (lam, reached 1 per path, iterations)."""
    lam = np.zeros((2 * s0.shape[1],) + s0.shape[2:])
    theta = np.zeros(lam.shape[1:])
    h = np.full(lam.shape[1:], 0.5)
    live = np.full(lam.shape[1:], live)   # still stepping
    total = 0
    while np.count_nonzero(live):
        trial = np.minimum(1.0, theta + h)
        cand, norm, used = _full_newton(map_at_scale(trial), s0, lam, cfg, live)
        total += used
        ok = live & (norm < cfg.tol)
        theta = np.where(ok, trial, theta)
        lam = np.where(ok, cand, lam)
        h = np.where(ok, np.minimum(2.0 * h, 1.0 - theta), 0.5 * h)
        live &= (theta < 1.0) & (h >= 2.0 ** -10)   # below 2^-10 a path drops out
    return lam, theta == 1.0, total


def linearised_config(cfg: ProjectionConfig, model: HamiltonianModel,
                      recipe: CompositionRecipe, z0: PhaseState, bounds: tuple,
                      dt_fine: float) -> ProjectionConfig:
    """``cfg`` itself (the per-step chord) for a lambda of length
    ``2 * model.d <= SHORT_LAMBDA`` (ex1-ex4), else ``cfg`` with the stepper's
    ``linearised_matrix`` P (the lattice, whose per-step Jacobian would cost
    more than P's extra iterations)."""
    if 2 * model.d <= SHORT_LAMBDA:
        return cfg
    return replace(cfg, newton_matrix=linearised_matrix(model, recipe, z0, bounds, dt_fine))


def linearised_matrix(model: HamiltonianModel, recipe: CompositionRecipe, z0: PhaseState,
                      bounds: tuple, dt_fine: float) -> np.ndarray:
    """The inverse of the central-difference Jacobian of lambda ->
    A map(lift(z0) + A'lambda) + 2 lambda at lambda = 0, with map the
    recipe's stages over the windows ``bounds`` at zero noise.  The fixed
    point, and so the scheme, does not depend on it; a singular Jacobian
    raises ``LinAlgError``."""
    drift = _stage_residual(recipe, model, lift(z0.stacked()), bounds, dt_fine)
    return np.linalg.inv(fd_jacobian(drift, np.zeros(2 * model.d), FD_STEP))


def _stage_residual(recipe: CompositionRecipe, model: HamiltonianModel, s0: np.ndarray,
                    bounds: tuple, dt_fine: float) -> Callable:
    """lambda -> A map(s0 + A'lambda) + 2 lambda, with map the recipe's stages
    over ``grid_windows`` of one step of fine steps ``dt_fine`` at zero noise."""
    grid = np.zeros((model.m + 1, max(hi for _, hi in bounds)))
    grid[0] = dt_fine
    map_fn = _stage_map(recipe, model, grid_windows(grid, grid.shape[1], bounds)[0])
    return lambda lam: _perturbed(map_fn, s0, lam)[1]


def _stage_map(recipe: CompositionRecipe, model: HamiltonianModel, incs: list,
               theta: float = 1.0) -> Callable:
    """s -> the recipe's stages at the frozen increments ``incs`` scaled by
    ``theta``, with F3's rotations found once; the map of a projection solve,
    and at theta < 1 of its continuation.  ``theta`` may hold one scale per
    state column, also where the columns share one ``(m+1,)`` increment."""
    trig = f3_trig(recipe, incs, theta)
    incs = [theta * (delta if delta.ndim > np.ndim(theta) else delta[:, None]) for delta in incs]
    return lambda s: apply_stages(recipe, model, s, incs, trig)


def step_plan(grid: np.ndarray, substeps: int, bounds: tuple,
              recipe: Optional[CompositionRecipe] = None) -> Callable:
    """step -> (its increments over the windows ``bounds``, an (n_windows,
    m+1[, n_paths]) array, and F3's (cos, sin) per F3 stage of ``recipe``)
    for a run on ``grid`` of ``substeps`` fine steps per step.
    ``stage_increments`` builds them one block of steps at a time, at most
    ``PLAN_BLOCK`` entries or one step, whenever a step falls outside the
    block in hand; a step indexes its block."""
    per_step = len(bounds) * grid[:, 0].size
    block = max(1, PLAN_BLOCK // per_step)
    held = [-1, None, None]   # first step, increments and trig of the block in hand

    def plan(step):
        j = step % block
        if held[0] != step - j:
            first = step - j
            held[:] = first, *stage_increments(
                recipe, grid[:, first * substeps:(first + block) * substeps], substeps, bounds)
        trig = held[2]   # no F3 stage: the block's empty dict serves every step
        return held[1][j], {i: (c[j], sn[j]) for i, (c, sn) in trig.items()} if trig else trig
    return plan


def projection_step(model: HamiltonianModel, recipe: CompositionRecipe, z: np.ndarray,
                    incs: np.ndarray, trig: dict, cfg: ProjectionConfig):
    """One semi-explicit symplectic step on the original phase space, from
    and to a ``(2, d[, n_paths])`` state.  ``incs`` and ``trig`` are the
    step's entry of a ``step_plan`` of the recipe, frozen for all iterates."""
    corrected, rep = project_map(lambda s: apply_stages(recipe, model, s, incs, trig), lift(z),
                                 cfg, lambda theta: _stage_map(recipe, model, incs, theta))
    return restrict(corrected), rep


# ---------------------------------------------------------------------------
# Trajectory driver
# ---------------------------------------------------------------------------

@dataclass
class Trajectory:
    times: np.ndarray
    z: np.ndarray                     # (kept, 2, d[, n_paths]): z0 and each step, or the last
    iterations: np.ndarray            # per step; 0 where the stepper reports none
    defect: np.ndarray                # pre-projection, per step; NaN there
    fallback_steps: int = 0           # steps that left the simplified iteration
    tracked: Dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def states(self) -> list:
        return [PhaseState(z[0], z[1]) for z in self.z]

    @property
    def final(self) -> PhaseState:
        return PhaseState(self.z[-1, 0], self.z[-1, 1])


def simulate(stepper: Callable, z0: PhaseState, n_steps: int, dt: float,
             trackers: Optional[Dict[str, Callable]] = None,
             keep_states: bool = True) -> Trajectory:
    """Drive a one-step map ``stepper(z, step) -> (z', report|None)`` on the
    ``(2, d[, n_paths])`` state of ``z0``.

    Tracked functionals are evaluated, on a ``PhaseState``, at z0 and after
    every step; without ``keep_states`` only the final state is kept.
    Deterministic given its inputs; NoConvergence is re-raised with the
    offending step index attached.
    """
    trackers = trackers or {}
    times = dt * np.arange(n_steps + 1)
    z = z0.stacked()
    if keep_states:
        kept = np.empty((n_steps + 1,) + z.shape)
        kept[0] = z
    iterations = np.zeros(n_steps, dtype=int)
    defect = np.full(n_steps, np.nan)
    fallback_steps = 0
    series = {name: [fn(z0)] for name, fn in trackers.items()}
    tracked = [(series[name].append, fn) for name, fn in trackers.items()]
    for n in range(n_steps):
        try:
            z, rep = stepper(z, n)
        except NoConvergence as err:
            err.step = n
            raise
        if keep_states:
            kept[n + 1] = z
        if rep is not None:
            iterations[n] = rep.iterations
            defect[n] = rep.defect_pre
            fallback_steps += rep.used_fallback
        if tracked:
            state = PhaseState(z[0], z[1])
            for append, fn in tracked:
                append(fn(state))
    return Trajectory(times, kept if keep_states else z[None], iterations, defect,
                      fallback_steps, {k: np.asarray(v) for k, v in series.items()})
