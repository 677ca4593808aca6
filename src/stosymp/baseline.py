"""Comparison schemes: stochastic midpoint and stochastic symplectic Euler.

Both are implicit; the nonlinear systems are solved by ``project.newton``,
the finite-difference Newton solver the projection fallback uses (robust for
stiff nonseparable products at moderate step * increment sizes).  States may
carry a trailing batch axis; the Jacobian solve is then batched.
"""

from __future__ import annotations

import numpy as np

from .core import HamiltonianModel, PhaseState, StepIncrements, fd_jacobian
from .project import NoConvergence, ProjectionConfig, newton


# one config for every implicit solve; the old name stays importable
ImplicitSolverConfig = ProjectionConfig


def _solve(residual, w0: np.ndarray, cfg: ProjectionConfig) -> np.ndarray:
    w, converged, _ = newton(residual, w0, cfg)
    if not converged:
        with np.errstate(all="ignore"):
            r = float(np.max(np.abs(residual(w))))
        raise NoConvergence(f"implicit solver stalled at residual {r:.3e}")
    return w


def midpoint_step(model: HamiltonianModel, z: PhaseState, inc: StepIncrements,
                  cfg: ProjectionConfig = ProjectionConfig()) -> PhaseState:
    """Stochastic midpoint rule: all H-derivatives at the state average."""
    d = model.d
    x0, y0 = z.x, z.y

    def residual(w):
        x1, y1 = w[:d], w[d:]
        mx, my = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        fx, fy = model.field(mx, my, inc.delta)
        return np.concatenate([x1 - x0 - fx, y1 - y0 - fy])

    fx0, fy0 = model.field(x0, y0, inc.delta)  # explicit Euler predictor
    w = _solve(residual, np.concatenate([x0 + fx0, y0 + fy0]), cfg)
    return PhaseState(w[:d], w[d:])


def _hessians(model: HamiltonianModel, x, y, step_scale: float = 1e-6):
    """Second-derivative blocks of H_1, analytic when supplied, otherwise
    central differences of the gradients."""
    if model.hess_xx is not None:
        return (np.asarray(model.hess_xx(x, y), dtype=float),
                np.asarray(model.hess_yy(x, y), dtype=float),
                np.asarray(model.hess_yx(x, y), dtype=float))
    h = step_scale * (1.0 + float(np.max(np.sqrt(x * x + y * y))))
    gx, gy = model.grad_x[1], model.grad_y[1]
    hxx = fd_jacobian(lambda v: gx(v, y), x, h)
    hyy = fd_jacobian(lambda v: gy(x, v), y, h)
    hyx = fd_jacobian(lambda v: gy(v, y), x, h)   # (i, j): d^2 H1 / (dy_i dx_j)
    return hxx, hyy, hyx


def symplectic_euler_step(model: HamiltonianModel, z: PhaseState, inc: StepIncrements,
                          cfg: ProjectionConfig = ProjectionConfig()) -> PhaseState:
    """Symplectic Euler with the printed drift-correction terms; single noise
    channel only.  Implicit in the x-update, explicit in the y-update."""
    if model.m != 1:
        raise ValueError("symplectic Euler baseline requires exactly one noise channel")
    x0, y0 = z.x, z.y
    dt = inc.delta[0]

    def x_residual(x1):
        sx = 0.0
        for r in range(model.m + 1):
            sx = sx + model.grad_y[r](x1, y0) * inc.delta[r]
        hxx, hyy, hyx = _hessians(model, x1, y0)
        g1x = model.grad_x[1](x1, y0)
        g1y = model.grad_y[1](x1, y0)
        corr = 0.5 * (np.einsum("ij...,j...->i...", hyy, g1x)
                      - 0.5 * np.einsum("ij...,j...->i...", hyx, g1y))
        return x1 - x0 - sx + corr * dt

    x1 = _solve(x_residual, x0, cfg)

    sy = 0.0
    for r in range(model.m + 1):
        sy = sy + model.grad_x[r](x1, y0) * inc.delta[r]
    hxx, hyy, hyx = _hessians(model, x1, y0)
    g1x = model.grad_x[1](x1, y0)
    g1y = model.grad_y[1](x1, y0)
    corr = 0.5 * (np.einsum("ij...,j...->i...", hxx, g1y)
                  - 0.5 * np.einsum("ij...,j...->i...", hyx, g1x))
    y1 = y0 - sy - corr * dt
    return PhaseState(x1, y1)
