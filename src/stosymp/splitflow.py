"""Closed-form extended phase-space flows and their compositions.

Three explicit maps act on the doubled state (x, u, y, v), one
``(4, d[, n_paths])`` array in that row order: two cross-coupled shear maps
driven by the model Hamiltonians and a rotation of the copy difference driven
by the restraint constants.  The shears take the increments of their window
as one ``(m+1[, n_paths])`` array (row 0 the window length, of either sign);
the rotation takes the (cos, sin) of its angle, which ``f3_trig`` finds from
its window's increments.  Each flow returns a new array.  A recipe (Lie,
Strang, or any user stage list) is applied by ``apply_stages`` over the
windows of one scheme step, which ``stage_increments`` builds for a block of
steps at once, with their (cos, sin), for ``project.step_plan``.
``symplectic_residual_phase`` checks a map on the original phase space for
symplecticity at frozen noise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

# step_windows is not called here; perfbench/tracing.py patches the name on
# this module
from .core import (HamiltonianModel, fd_jacobian, grid_windows, ordered_sum, step_windows,
                   window_bounds)


class FlowId(enum.Enum):
    F1 = "f1"
    F2 = "f2"
    F3 = "f3"


@dataclass(frozen=True)
class CompositionRecipe:
    """Ordered stage list with per-channel restraint constants.

    Each stage is (flow, fraction); per flow family the fractions must sum
    to 1.  Stages execute left to right, leftmost first.  The i-th occurrence
    of a flow consumes the i-th consecutive time window of that family's
    fraction sequence; the windows tile the full step.  With every restraint
    constant 0 (``restrained`` false) F3 is the identity, and the engine
    skips it.
    """

    stages: tuple
    gammas: np.ndarray
    restrained: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=float))
        object.__setattr__(self, "restrained", bool(np.any(self.gammas)))
        if not self.stages:
            raise ValueError("stage list must be non-empty")
        stages = tuple((FlowId(f), Fraction(frac)) for f, frac in self.stages)
        object.__setattr__(self, "stages", stages)
        for flow in FlowId:
            fracs = self.family_fractions(flow)
            if fracs and sum(fracs) != 1:
                raise ValueError(f"fractions of {flow} must sum to 1, got {fracs}")

    def family_fractions(self, flow: FlowId):
        return [frac for f, frac in self.stages if f is flow]


def lie_recipe(gammas) -> CompositionRecipe:
    return CompositionRecipe(
        ((FlowId.F1, Fraction(1)), (FlowId.F2, Fraction(1)), (FlowId.F3, Fraction(1))), gammas)


def strang_recipe(gammas) -> CompositionRecipe:
    half = Fraction(1, 2)
    return CompositionRecipe(
        ((FlowId.F1, half), (FlowId.F2, half), (FlowId.F3, Fraction(1)),
         (FlowId.F2, half), (FlowId.F1, half)),
        gammas)


# ---------------------------------------------------------------------------
# The three exact flows
# ---------------------------------------------------------------------------

def flow_f1(model: HamiltonianModel, s: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Shear driven by H_r(x, v): updates (u, y), freezes (x, v)."""
    du, dy = model.field(s[0], s[3], delta)
    out = s.copy()
    out[1] += du
    out[2] += dy
    return out


def flow_f2(model: HamiltonianModel, s: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Shear driven by H_r(u, y): updates (x, v), freezes (u, y)."""
    dx, dv = model.field(s[1], s[2], delta)
    out = s.copy()
    out[0] += dx
    out[3] += dv
    return out


def flow_f3(s: np.ndarray, trig: tuple) -> np.ndarray:
    """Restraint rotation: sums x+u, y+v are preserved exactly; the copy
    differences rotate by the angle 4*sum_r gamma_r*delta_r, whose (cos, sin)
    ``trig`` is, as ``f3_trig`` gives it.  The angle depends only on the
    noise, so a projection solve finds it once per step."""
    c, sn = trig
    dx, dy = s[0::2] - s[1::2]   # copy differences x - u and y - v
    total = s[0::2] + s[1::2]
    turned = np.empty_like(total)
    turned[0] = c * dx + sn * dy
    turned[1] = -sn * dx + c * dy
    out = np.empty_like(s)
    out[0::2] = 0.5 * (total + turned)
    out[1::2] = 0.5 * (total - turned)
    return out


# ---------------------------------------------------------------------------
# Composition engine
# ---------------------------------------------------------------------------

def stage_bounds(recipe: CompositionRecipe, substeps: int) -> tuple:
    """Fine-grid window (lo, hi) of every stage within one scheme step of
    ``substeps`` fine steps, with the allocation described in
    CompositionRecipe; a stepper finds them once and reuses them every step."""
    windows = {}
    for flow in FlowId:
        fracs = recipe.family_fractions(flow)
        if fracs:
            windows[flow] = iter(window_bounds(tuple(fracs), substeps))
    return tuple(next(windows[flow]) for flow, _ in recipe.stages)


def stage_increments(recipe: Optional[CompositionRecipe], grid: np.ndarray, substeps: int,
                     bounds: tuple) -> tuple:
    """One block of a step plan: ``grid_windows`` of the grid slice ``grid``,
    (n_steps, n_windows, m+1[, n_paths]), and ``f3_trig`` of every step at
    once, each F3 stage's (cos, sin) an (n_steps[, n_paths]) array.  A
    ``recipe`` of None (no stages, as for the implicit baselines) plans the
    windows alone."""
    incs = grid_windows(grid, substeps, bounds)
    # f3_trig reads a window's channels on axis 0, so the steps go after them
    return incs, {} if recipe is None else f3_trig(recipe, np.moveaxis(incs, 0, 2))


def f3_trig(recipe: CompositionRecipe, incs: Sequence[np.ndarray],
            scale: float = 1.0) -> dict:
    """(cos, sin) of the restraint angle 4 * scale * sum_r gamma_r * delta_r
    per F3 stage of increments delta, channels on delta's axis 0, valid for
    every iterate of a projection solve at frozen noise; empty when the
    recipe has no restraint (F3 skipped)."""
    angles = {i: 4 * scale * ordered_sum((incs[i].T * recipe.gammas).T)
              for i, (flow, _) in enumerate(recipe.stages)
              if flow is FlowId.F3 and recipe.restrained}
    return {i: (np.cos(a), np.sin(a)) for i, a in angles.items()}


def apply_stages(recipe: CompositionRecipe, model: HamiltonianModel, s: np.ndarray,
                 incs: Sequence[np.ndarray], trig: dict) -> np.ndarray:
    """The recipe's stages at the frozen increments ``incs``, F3 left out
    when the recipe has no restraint; ``trig`` is ``f3_trig`` of ``incs``."""
    for i, ((flow, _), delta) in enumerate(zip(recipe.stages, incs)):
        if flow is FlowId.F1:
            s = flow_f1(model, s, delta)
        elif flow is FlowId.F2:
            s = flow_f2(model, s, delta)
        elif recipe.restrained:
            s = flow_f3(s, trig[i])
    return s


# ---------------------------------------------------------------------------
# Symplecticity diagnostic (finite-difference Jacobian test)
# ---------------------------------------------------------------------------

def phase_form_matrix(d: int) -> np.ndarray:
    """Standard symplectic matrix for z = (x, y)."""
    J = np.zeros((2 * d, 2 * d))
    J[0:d, d:2 * d] = np.eye(d)
    J[d:2 * d, 0:d] = -np.eye(d)
    return J


SYMPLECTIC_FD_STEP = 1e-5


def symplectic_residual_phase(map_fn: Callable, z: np.ndarray) -> float:
    """max |M' J M - J| for the 2d x 2d central-difference Jacobian M, step
    SYMPLECTIC_FD_STEP, of a map on the original phase space at the (2, d)
    state ``z``, with J the standard matrix of dx^dy; ``map_fn`` takes and
    returns a state array, as a stepper does, and must accept a batch:
    ``fd_jacobian`` passes its points as one (2, d, n_points) state."""
    d = z.shape[1]

    def vec_map(v):
        return map_fn(v.reshape((2, d) + v.shape[1:])).reshape(v.shape)

    jac = fd_jacobian(vec_map, z.reshape(-1), SYMPLECTIC_FD_STEP)
    if not np.all(np.isfinite(jac)):
        raise FloatingPointError("non-finite Jacobian")
    form = phase_form_matrix(d)
    return float(np.max(np.abs(jac.T @ form @ jac - form)))
