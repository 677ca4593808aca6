"""Fully-discrete semi-explicit multi-symplectic scheme for the stochastic
cubic Schrodinger equation with multiplicative Q-Wiener noise.

Interior-node finite differences in space (one-sided bidiagonal operators
with homogeneous Dirichlet data) turn the equation into a stochastic
Hamiltonian system in (Q, P).  ``NlsModel`` is that system as a
``HamiltonianModel`` with d = n_interior and one noise channel per mode, and
the scheme is the shared engine applied to it: an F1/F2 composition recipe
with no restraint stage (gamma = 0, which keeps the discrete charge) and the
symmetric projection of ``projection_step``.  The lattice state is a
``PhaseState`` with (x, y) = (Q, P), as for ex1-ex4.  The spatial derivative
fields are always recomputed from (Q, P); they are never independent state.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Callable, Tuple

import numpy as np

# step_windows and project_map are not called here; perfbench/tracing.py
# patches those names on this module
from .core import HamiltonianModel, PhaseState, ordered_sum, step_windows
from .project import (ProjectionConfig, ProjectionReport, linearised_config, project_map,
                      projection_step, step_plan)
from .splitflow import CompositionRecipe, FlowId, flow_f1, flow_f2, stage_bounds


@dataclass(frozen=True)
class NlsLattice:
    n_interior: int
    h: float
    nodes: np.ndarray
    modes: int
    emat: np.ndarray      # (n_interior, modes) spectral basis at the nodes
    lam_sqrt: np.ndarray  # sqrt of the covariance eigenvalues, k^-3

    def dplus(self, v: np.ndarray) -> np.ndarray:
        """Forward difference with zero boundary value past the last node."""
        out = np.empty_like(v)
        out[:-1] = v[1:] - v[:-1]
        out[-1] = -v[-1]
        return out / self.h

    def dminus(self, v: np.ndarray) -> np.ndarray:
        """Backward difference with zero boundary value before the first node."""
        out = np.empty_like(v)
        out[0] = v[0]
        out[1:] = v[1:] - v[:-1]
        return out / self.h

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        return self.dplus(self.dminus(v))

    @cached_property
    def model(self) -> NlsModel:
        """The lattice as a Hamiltonian model, built once per lattice."""
        lap = self.laplacian
        hs = [lambda x, y: (0.5 * (x @ lap(x) + y @ lap(y))
                            + 0.25 * np.sum((x * x + y * y) ** 2))]
        gxs = [lambda x, y: lap(x) + (x * x + y * y) * x]
        gys = [lambda x, y: lap(y) + (x * x + y * y) * y]
        for g in (self.emat * self.lam_sqrt).T:
            hs.append(lambda x, y, g=g: -0.5 * ((x * x + y * y) @ g))
            gxs.append(lambda x, y, g=g: -x * g)
            gys.append(lambda x, y, g=g: -y * g)
        return NlsModel(d=self.n_interior, m=self.modes, h=tuple(hs), grad_x=tuple(gxs),
                        grad_y=tuple(gys), lattice=self)


def build_lattice(x_left: float = -5.0, x_right: float = 5.0, n_interior: int = 9,
                  modes: int = 10) -> NlsLattice:
    if not x_right > x_left:
        raise ValueError("degenerate domain")
    if n_interior < 1 or modes < 1:
        raise ValueError("n_interior and modes must be at least 1")
    h = (x_right - x_left) / (n_interior + 1)
    nodes = x_left + h * np.arange(1, n_interior + 1)
    k = np.arange(1, modes + 1)
    emat = np.sin(np.pi * np.outer(nodes, k)) / np.sqrt(5.0)
    lam_sqrt = k.astype(float) ** -3
    return NlsLattice(int(n_interior), h, nodes, int(modes), emat, lam_sqrt)


def noise_vector(lattice: NlsLattice, dbeta: np.ndarray) -> np.ndarray:
    """Spatial noise increment E * diag(sqrt(lambda)) * dbeta."""
    dbeta = np.asarray(dbeta, dtype=float)
    if dbeta.shape[0] != lattice.modes:
        raise ValueError("dimension mismatch")
    return lattice.emat @ (lattice.lam_sqrt * dbeta)


@dataclass(frozen=True, kw_only=True)
class NlsModel(HamiltonianModel):
    """The lattice in (x, y) = (Q, P), single path:
    H_0 = 1/2 q'Lq + 1/2 p'Lp + 1/4 sum (q^2+p^2)^2 and
    H_r = -1/2 sum (q^2+p^2) e_r sqrt(lambda_r), r = 1..modes, with L the
    discrete Laplacian and e_r the r-th spectral basis vector at the nodes."""

    lattice: NlsLattice

    def field(self, x, y, delta):
        """The channel sums fused: one Laplacian per block and the noise as
        one mat-vec, shared by the points ``fd_jacobian`` stacks on axis 1."""
        lat = self.lattice
        w = noise_vector(lat, delta[1:]).reshape((-1,) + (1,) * (x.ndim - 1))
        cubic = x * x + y * y
        return (delta[0] * (lat.laplacian(y) + cubic * y) - y * w,
                x * w - delta[0] * (lat.laplacian(x) + cubic * x))


def subflow_a(lattice: NlsLattice, s: np.ndarray, tau: float,
              dbeta: np.ndarray) -> np.ndarray:
    """F1 of the lattice model: freezes (q, v); advances (u, y).  Extended
    rows are laid out as (x, u, y, v) = (Q, X, P, Y); ``tau`` may be
    negative."""
    return flow_f1(lattice.model, s, np.concatenate(([tau], dbeta)))


def subflow_b(lattice: NlsLattice, s: np.ndarray, tau: float,
              dbeta: np.ndarray) -> np.ndarray:
    """F2 of the lattice model: freezes (u, y); advances (q, v)."""
    return flow_f2(lattice.model, s, np.concatenate(([tau], dbeta)))


_A, _B, _HALF = FlowId.F1, FlowId.F2, Fraction(1, 2)
# no F3 stage, so the restraint constants are never read
RECIPES = {name: CompositionRecipe(stages, ()) for name, stages in {
    "lie-ab": ((_A, 1), (_B, 1)),
    "lie-ba": ((_B, 1), (_A, 1)),
    "strang-ab": ((_A, _HALF), (_B, 1), (_A, _HALF)),
    "strang-ba": ((_B, _HALF), (_A, 1), (_B, _HALF)),
}.items()}


def nls_step(lattice: NlsLattice, recipe: str, s: PhaseState, incs: np.ndarray, trig: dict,
             cfg: ProjectionConfig) -> Tuple[PhaseState, ProjectionReport]:
    """One projected multi-symplectic step on (x, y) = (Q, P); ``incs`` and
    ``trig`` as in ``projection_step``."""
    if recipe not in RECIPES:
        raise KeyError(f"unknown recipe {recipe!r}; choose from {sorted(RECIPES)}")
    return projection_step(lattice.model, RECIPES[recipe], s, incs, trig, cfg)


def nls_stepper(lattice: NlsLattice, recipe: str, grid: np.ndarray, cfg: ProjectionConfig,
                substeps: int) -> Callable:
    """Bind ``nls_step`` to a one-step callable ``(s, step) -> (s', report)``
    for a run from ``nls_initial(lattice)``; the stage windows and the
    projection's simplified-Newton matrix are found here, once, and the
    steps' increments by a ``step_plan``, one block of steps at a time."""
    bounds = stage_bounds(RECIPES[recipe], substeps)
    cfg = linearised_config(cfg, lattice.model, RECIPES[recipe], nls_initial(lattice),
                            bounds, grid[0].flat[0])
    plan = step_plan(grid, substeps, bounds, RECIPES[recipe])

    def stepper(s, step):
        return nls_step(lattice, recipe, s, *plan(step), cfg)
    return stepper


def charge(z: PhaseState) -> float:
    """Discrete charge sum_i (P_i^2 + Q_i^2), fixed index order."""
    return ordered_sum(z.y * z.y + z.x * z.x)


def nls_initial(lattice: NlsLattice) -> PhaseState:
    x = lattice.nodes
    sech = 1.0 / np.cosh(x)
    return PhaseState(np.sin(2.0 * x) * sech, np.cos(2.0 * x) * sech)
