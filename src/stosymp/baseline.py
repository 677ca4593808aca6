"""Comparison schemes: stochastic midpoint and stochastic symplectic Euler.

Both are implicit; the nonlinear systems are solved by Newton iteration with
finite-difference Jacobians (robust for stiff nonseparable products at
moderate step * increment sizes).  States may carry a trailing batch axis;
the Jacobian solve is then batched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import HamiltonianModel, PhaseState, StepIncrements
from .project import NoConvergence


@dataclass(frozen=True)
class ImplicitSolverConfig:
    tol: float = 1e-12
    max_iter: int = 50
    fd_step: float = 1e-7

    def __post_init__(self):
        if self.tol <= 0 or self.max_iter < 1 or self.fd_step <= 0:
            raise ValueError("solver parameters must be positive")


def _res_norm(r: np.ndarray) -> float:
    return float(np.max(np.abs(r)))


def _newton(residual, w0: np.ndarray, cfg: ImplicitSolverConfig) -> np.ndarray:
    """Damped-free Newton with batched finite-difference Jacobian.

    ``w0`` has shape (k,) or (k, n); the Jacobian is built column by column
    and solved per batch element.
    """
    w = w0.copy()
    k = w.shape[0]
    for _ in range(cfg.max_iter):
        r = residual(w)
        if _res_norm(r) <= cfg.tol:
            return w
        jac = np.empty((k,) + r.shape)
        for j in range(k):
            e = np.zeros_like(w)
            e[j] = cfg.fd_step
            jac[j] = (residual(w + e) - residual(w - e)) / (2 * cfg.fd_step)
        if w.ndim == 1:
            step = np.linalg.solve(jac.T, r)
        else:
            # jac[j, i, p] = dr_i/dw_j for path p -> (p, i, j)
            jt = np.transpose(jac, (2, 1, 0))
            step = np.linalg.solve(jt, r.T[..., None])[..., 0].T
        w = w - step
    r = residual(w)
    if _res_norm(r) <= cfg.tol:
        return w
    raise NoConvergence(f"implicit solver stalled at residual {_res_norm(r):.3e}")


def midpoint_step(model: HamiltonianModel, z: PhaseState, inc: StepIncrements,
                  cfg: ImplicitSolverConfig = ImplicitSolverConfig()) -> PhaseState:
    """Stochastic midpoint rule: all H-derivatives at the state average."""
    d = model.d
    x0, y0 = z.x, z.y

    def residual(w):
        x1, y1 = w[:d], w[d:]
        mx, my = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        fx, fy = model.field(mx, my, inc.delta)
        return np.concatenate([x1 - x0 - fx, y1 - y0 - fy])

    fx0, fy0 = model.field(x0, y0, inc.delta)  # explicit Euler predictor
    w = _newton(residual, np.concatenate([x0 + fx0, y0 + fy0]), cfg)
    return PhaseState(w[:d], w[d:])


def _hessians(model: HamiltonianModel, x, y, step_scale: float = 1e-6):
    """Second-derivative blocks of H_1, analytic when supplied, otherwise
    central differences of the gradients."""
    if model.hess_xx is not None:
        return (np.asarray(model.hess_xx(x, y), dtype=float),
                np.asarray(model.hess_yy(x, y), dtype=float),
                np.asarray(model.hess_yx(x, y), dtype=float))
    d = model.d
    h = step_scale * (1.0 + float(np.max(np.sqrt(x * x + y * y))))
    gx, gy = model.grad_x[1], model.grad_y[1]
    hxx = np.empty((d, d) + x.shape[1:])
    hyy = np.empty((d, d) + x.shape[1:])
    hyx = np.empty((d, d) + x.shape[1:])
    for j in range(d):
        e = np.zeros_like(x)
        e[j] = h
        hxx[:, j] = (gx(x + e, y) - gx(x - e, y)) / (2 * h)
        hyy[:, j] = (gy(x, y + e) - gy(x, y - e)) / (2 * h)
        # (i, j) entry: d^2 H1 / (dy_i dx_j)
        hyx[:, j] = (gy(x + e, y) - gy(x - e, y)) / (2 * h)
    return hxx, hyy, hyx


def symplectic_euler_step(model: HamiltonianModel, z: PhaseState, inc: StepIncrements,
                          cfg: ImplicitSolverConfig = ImplicitSolverConfig()) -> PhaseState:
    """Symplectic Euler with the printed drift-correction terms; single noise
    channel only.  Implicit in the x-update, explicit in the y-update."""
    if model.m != 1:
        raise ValueError("symplectic Euler baseline requires exactly one noise channel")
    d = model.d
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

    x1 = _newton(x_residual, x0.copy(), cfg)

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
