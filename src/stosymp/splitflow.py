"""Closed-form extended phase-space flows and their compositions.

Three explicit maps act on the doubled state (x, u, y, v): two cross-coupled
shear maps driven by the model Hamiltonians and a rotation of the copy
difference driven by the restraint constants.  Compositions (Lie, Strang, or
any user recipe) yield explicit symplectic one-step maps on the extended
space.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .core import (ExtendedState, HamiltonianModel, NoiseGrid, PhaseState, StepIncrements,
                   fd_jacobian, ordered_sum, step_windows)


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
    fraction sequence; the windows tile the full step.
    """

    stages: tuple
    gammas: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gammas", np.asarray(self.gammas, dtype=float))
        if not self.stages:
            raise ValueError("stage list must be non-empty")
        stages = tuple((FlowId(f), Fraction(frac)) for f, frac in self.stages)
        object.__setattr__(self, "stages", stages)
        for flow in FlowId:
            fracs = [frac for f, frac in stages if f is flow]
            if fracs and sum(fracs) != 1:
                raise ValueError(f"fractions of {flow} must sum to 1, got {fracs}")

    def family_fractions(self, flow: FlowId):
        return [frac for f, frac in self.stages if f is flow]


def lie_recipe(gammas) -> CompositionRecipe:
    return CompositionRecipe(
        ((FlowId.F1, Fraction(1)), (FlowId.F2, Fraction(1)), (FlowId.F3, Fraction(1))),
        np.asarray(gammas, dtype=float))


def strang_recipe(gammas) -> CompositionRecipe:
    half = Fraction(1, 2)
    return CompositionRecipe(
        ((FlowId.F1, half), (FlowId.F2, half), (FlowId.F3, Fraction(1)),
         (FlowId.F2, half), (FlowId.F1, half)),
        np.asarray(gammas, dtype=float))


# ---------------------------------------------------------------------------
# The three exact flows
# ---------------------------------------------------------------------------

def flow_f1(model: HamiltonianModel, s: ExtendedState, inc: StepIncrements) -> ExtendedState:
    """Shear driven by H_r(x, v): updates (u, y), freezes (x, v)."""
    du, dy = model.field(s.x, s.v, inc.delta)
    return ExtendedState(s.x, s.u + du, s.y + dy, s.v)


def flow_f2(model: HamiltonianModel, s: ExtendedState, inc: StepIncrements) -> ExtendedState:
    """Shear driven by H_r(u, y): updates (x, v), freezes (u, y)."""
    dx, dv = model.field(s.u, s.y, inc.delta)
    return ExtendedState(s.x + dx, s.u, s.y, s.v + dv)


def flow_f3(gammas, s: ExtendedState, inc: StepIncrements,
            trig: Optional[tuple] = None) -> ExtendedState:
    """Restraint rotation: sums x+u, y+v are preserved exactly; the copy
    differences rotate by the angle 4*sum_r gamma_r*delta_r.  ``trig`` may
    carry precomputed (cos, sin) of that angle; it depends only on the noise,
    so callers iterating a projection solve compute it once per step."""
    if trig is None:
        gammas = np.asarray(gammas, dtype=float)
        theta = 4.0 * ordered_sum((inc.delta.T * gammas).T)
        c, sn = np.cos(theta), np.sin(theta)
    else:
        c, sn = trig
    dx = s.x - s.u
    dy = s.y - s.v
    sx = s.x + s.u
    sy = s.y + s.v
    ndx = c * dx + sn * dy
    ndy = -sn * dx + c * dy
    return ExtendedState(0.5 * (sx + ndx), 0.5 * (sx - ndx),
                         0.5 * (sy + ndy), 0.5 * (sy - ndy))


# ---------------------------------------------------------------------------
# Composition engine
# ---------------------------------------------------------------------------

def stage_increments(recipe: CompositionRecipe, grid: NoiseGrid, step: int,
                     substeps: Optional[int] = None):
    """Per-stage increments for one scheme step, with the window allocation
    described in CompositionRecipe."""
    windows = {}
    for flow in FlowId:
        fracs = recipe.family_fractions(flow)
        if fracs:
            windows[flow] = iter(step_windows(grid, step, fracs, substeps))
    return [next(windows[flow]) for flow, _ in recipe.stages]


def f3_trig(recipe: CompositionRecipe, incs: Sequence[StepIncrements],
            scale: float = 1.0) -> dict:
    """Precomputed (cos, sin) of the restraint rotation angle per F3 stage;
    valid for every iterate of a projection solve at frozen noise."""
    gammas = np.asarray(recipe.gammas, dtype=float)
    out = {}
    for i, (flow, _) in enumerate(recipe.stages):
        if flow is FlowId.F3:
            theta = 4.0 * scale * ordered_sum((incs[i].delta.T * gammas).T)
            out[i] = (np.cos(theta), np.sin(theta))
    return out


def apply_stages(recipe: CompositionRecipe, model: HamiltonianModel, s: ExtendedState,
                 incs: Sequence[StepIncrements],
                 trig: Optional[dict] = None) -> ExtendedState:
    for i, ((flow, _), inc) in enumerate(zip(recipe.stages, incs)):
        if flow is FlowId.F1:
            s = flow_f1(model, s, inc)
        elif flow is FlowId.F2:
            s = flow_f2(model, s, inc)
        else:
            s = flow_f3(recipe.gammas, s, inc,
                        None if trig is None else trig.get(i))
    return s


def compose(recipe: CompositionRecipe, model: HamiltonianModel, s: ExtendedState,
            grid: NoiseGrid, step: int, substeps: Optional[int] = None) -> ExtendedState:
    """Apply the recipe over scheme step ``step`` of the grid."""
    out = apply_stages(recipe, model, s, stage_increments(recipe, grid, step, substeps))
    if not (np.all(np.isfinite(out.x)) and np.all(np.isfinite(out.u))
            and np.all(np.isfinite(out.y)) and np.all(np.isfinite(out.v))):
        raise FloatingPointError("non-finite state after composition")
    return out


# ---------------------------------------------------------------------------
# Symplecticity diagnostics (finite-difference Jacobian tests)
# ---------------------------------------------------------------------------

def _two_form_residual(vec_map: Callable, v0: np.ndarray, fd_step: float,
                       form: np.ndarray) -> float:
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    jac = fd_jacobian(vec_map, v0, fd_step)
    if not np.all(np.isfinite(jac)):
        raise FloatingPointError("non-finite Jacobian")
    return float(np.max(np.abs(jac.T @ form @ jac - form)))


def extended_form_matrix(d: int) -> np.ndarray:
    """Matrix of dx^dy + du^dv in (x, u, y, v) coordinate order."""
    J = np.zeros((4 * d, 4 * d))
    eye = np.eye(d)
    J[0:d, 2 * d:3 * d] = eye        # dx ^ dy
    J[2 * d:3 * d, 0:d] = -eye
    J[d:2 * d, 3 * d:4 * d] = eye    # du ^ dv
    J[3 * d:4 * d, d:2 * d] = -eye
    return J


def phase_form_matrix(d: int) -> np.ndarray:
    """Standard symplectic matrix for z = (x, y)."""
    J = np.zeros((2 * d, 2 * d))
    J[0:d, d:2 * d] = np.eye(d)
    J[d:2 * d, 0:d] = -np.eye(d)
    return J


def symplectic_residual_extended(map_fn: Callable[[ExtendedState], ExtendedState],
                                 s: ExtendedState, fd_step: float) -> float:
    """max |M' J M - J| for the 4d x 4d finite-difference Jacobian M of the
    one-step extended map at fixed noise."""
    d = s.x.shape[0]

    def vec_map(v):
        st = ExtendedState(v[0:d], v[d:2 * d], v[2 * d:3 * d], v[3 * d:4 * d])
        out = map_fn(st)
        return np.concatenate([out.x, out.u, out.y, out.v])

    v0 = np.concatenate([s.x, s.u, s.y, s.v])
    return _two_form_residual(vec_map, v0, fd_step, extended_form_matrix(d))


def symplectic_residual_phase(map_fn: Callable, z, fd_step: float) -> float:
    """Same test for a map on the original phase space; ``map_fn`` takes and
    returns a PhaseState."""
    d = z.x.shape[0]

    def vec_map(v):
        out = map_fn(PhaseState(v[0:d], v[d:2 * d]))
        return np.concatenate([out.x, out.y])

    v0 = np.concatenate([z.x, z.y])
    return _two_form_residual(vec_map, v0, fd_step, phase_form_matrix(d))
