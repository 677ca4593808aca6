"""Comparison schemes: stochastic midpoint and stochastic symplectic Euler.

Both are implicit; the nonlinear systems are solved by ``project.newton``,
the finite-difference Newton solver the projection fallback uses (robust for
stiff nonseparable products at moderate step * increment sizes).  States may
carry a trailing batch axis; every path is then solved on its own.
"""

from __future__ import annotations

import numpy as np

from .core import HamiltonianModel, PhaseState, fd_jacobian
from .project import NoConvergence, ProjectionConfig, newton


def _solve(residual, w0: np.ndarray, cfg: ProjectionConfig) -> np.ndarray:
    w, norm, _ = newton(residual, w0, cfg)
    if not (norm < cfg.tol).all():
        raise NoConvergence(f"implicit solver stalled at residual {np.max(norm):.3e}")
    return w


def midpoint_step(model: HamiltonianModel, z: PhaseState, delta: np.ndarray,
                  cfg: ProjectionConfig = ProjectionConfig()) -> PhaseState:
    """Stochastic midpoint rule: all H-derivatives at the state average.
    ``delta`` holds the step's increments, as a window of ``core.grid_windows``."""
    d = model.d
    w0 = np.concatenate([z.x, z.y])

    def residual(w):
        mid = 0.5 * (w0 + w)
        return w - w0 - np.concatenate(model.field(mid[:d], mid[d:], delta))

    # explicit Euler predictor
    w = _solve(residual, w0 + np.concatenate(model.field(z.x, z.y, delta)), cfg)
    return PhaseState(w[:d], w[d:])


def _hessians(model: HamiltonianModel, x, y, step_scale: float = 1e-6):
    """Second-derivative blocks of H_1, analytic when supplied, otherwise
    central differences of the gradients with a step scaled per path."""
    if model.hess_xx is not None:
        return (np.asarray(model.hess_xx(x, y), dtype=float),
                np.asarray(model.hess_yy(x, y), dtype=float),
                np.asarray(model.hess_yx(x, y), dtype=float))
    h = step_scale * (1.0 + np.sqrt(x * x + y * y).max(axis=0))
    gx, gy = model.grad_x[1], model.grad_y[1]
    hxx = fd_jacobian(lambda v: gx(v, y), x, h)
    hyy = fd_jacobian(lambda v: gy(x, v), y, h)
    hyx = fd_jacobian(lambda v: gy(v, y), x, h)   # (i, j): d^2 H1 / (dy_i dx_j)
    return hxx, hyy, hyx


def symplectic_euler_step(model: HamiltonianModel, z: PhaseState, delta: np.ndarray,
                          cfg: ProjectionConfig = ProjectionConfig()) -> PhaseState:
    """Symplectic Euler with the printed drift-correction terms; single noise
    channel only.  Implicit in the x-update, explicit in the y-update."""
    if model.m != 1:
        raise ValueError("symplectic Euler baseline requires exactly one noise channel")
    x0, y0 = z.x, z.y
    dt = delta[0]

    def x_residual(x1):
        fx = model.field(x1, y0, delta)[0]
        hxx, hyy, hyx = _hessians(model, x1, y0)
        g1x = model.grad_x[1](x1, y0)
        g1y = model.grad_y[1](x1, y0)
        corr = 0.5 * (np.einsum("ij...,j...->i...", hyy, g1x)
                      - 0.5 * np.einsum("ij...,j...->i...", hyx, g1y))
        return x1 - x0 - fx + corr * dt

    x1 = _solve(x_residual, x0, cfg)

    fy = model.field(x1, y0, delta)[1]
    hxx, hyy, hyx = _hessians(model, x1, y0)
    g1x = model.grad_x[1](x1, y0)
    g1y = model.grad_y[1](x1, y0)
    corr = 0.5 * (np.einsum("ij...,j...->i...", hxx, g1y)
                  - 0.5 * np.einsum("ij...,j...->i...", hyx, g1x))
    y1 = y0 + fy - corr * dt
    return PhaseState(x1, y1)
