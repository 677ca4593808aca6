"""Comparison schemes: stochastic midpoint and stochastic symplectic Euler.

Both are implicit.  Each solve is ``project.chord_newton`` from the
explicit Euler predictor of its unknowns ((x, y) for midpoint, x for
symplectic Euler): the chord with one central-difference Jacobian per path
at that start, from the same stacked first residual call as the projection's
chord, until the residual norm is below tol.  A path whose norm does not
decrease, is not finite, or is still too large after ``max_iter`` chord
updates leaves the chord and restarts full ``project.newton`` from the
start, itself bounded by ``max_iter`` steps.  States may carry a trailing
batch axis; every path is then solved on its own.
"""

from __future__ import annotations

import numpy as np

from .core import HamiltonianModel, PhaseState, fd_jacobian, fd_shared
from .project import NoConvergence, ProjectionConfig, chord_newton


def _solve(residual, w0: np.ndarray, cfg: ProjectionConfig) -> np.ndarray:
    w, norm = chord_newton(residual, w0, cfg)
    if not (norm < cfg.tol).all():
        raise NoConvergence(f"implicit solver stalled at residual {np.max(norm):.3e}")
    return w


def midpoint_step(model: HamiltonianModel, z: PhaseState, delta: np.ndarray,
                  cfg: ProjectionConfig = ProjectionConfig()) -> PhaseState:
    """Stochastic midpoint rule: all H-derivatives at the state average.
    ``delta`` holds the step's increments, the one window of a ``project.step_plan``."""
    d = model.d
    w0 = np.concatenate([z.x, z.y])

    def residual(w):
        start = fd_shared(w0, w)
        mid = 0.5 * (start + w)
        return w - start - np.concatenate(model.field(mid[:d], mid[d:], delta))

    # explicit Euler predictor
    w = _solve(residual, w0 + np.concatenate(model.field(z.x, z.y, delta)), cfg)
    return PhaseState(w[:d], w[d:])


def _hessian(model: HamiltonianModel, block: str, x, y):
    """Second-derivative block ``block`` of H_1: "xx", "yy", or "yx", whose
    (i, j) entry is d^2 H1 / (dy_i dx_j).  Analytic when supplied, otherwise
    central differences of a gradient with a step scaled per path."""
    analytic = getattr(model, "hess_" + block)
    if analytic is not None:
        return np.asarray(analytic(x, y), dtype=float)
    h = 1e-6 * (1.0 + np.sqrt(x * x + y * y).max(axis=0))
    gx, gy = model.grad_x[1], model.grad_y[1]
    if block == "xx":
        return fd_jacobian(lambda v: gx(v, fd_shared(y, v)), x, h)
    if block == "yy":
        return fd_jacobian(lambda v: gy(fd_shared(x, v), v), y, h)
    return fd_jacobian(lambda v: gy(v, fd_shared(y, v)), x, h)


def symplectic_euler_step(model: HamiltonianModel, z: PhaseState, delta: np.ndarray,
                          cfg: ProjectionConfig = ProjectionConfig()) -> PhaseState:
    """Symplectic Euler with the printed drift-correction terms; single noise
    channel only.  Implicit in the x-update, explicit in the y-update."""
    if model.m != 1:
        raise ValueError("symplectic Euler baseline requires exactly one noise channel")
    x0, y0 = z.x, z.y
    dt = delta[0]

    def x_residual(x1):
        y = fd_shared(y0, x1)
        fx = model.field(x1, y, delta)[0]
        hyy = _hessian(model, "yy", x1, y)
        hyx = _hessian(model, "yx", x1, y)
        g1x = model.grad_x[1](x1, y)
        g1y = model.grad_y[1](x1, y)
        corr = 0.5 * (np.einsum("ij...,j...->i...", hyy, g1x)
                      - 0.5 * np.einsum("ij...,j...->i...", hyx, g1y))
        return x1 - fd_shared(x0, x1) - fx + corr * dt

    # explicit Euler predictor
    x1 = _solve(x_residual, x0 + model.field(x0, y0, delta)[0], cfg)

    fy = model.field(x1, y0, delta)[1]
    hxx = _hessian(model, "xx", x1, y0)
    hyx = _hessian(model, "yx", x1, y0)
    g1x = model.grad_x[1](x1, y0)
    g1y = model.grad_y[1](x1, y0)
    corr = 0.5 * (np.einsum("ij...,j...->i...", hxx, g1y)
                  - 0.5 * np.einsum("ij...,j...->i...", hyx, g1x))
    y1 = y0 + fy - corr * dt
    return PhaseState(x1, y1)
