"""Domain types: Hamiltonian models, phase states, invariants, and Brownian noise.

States may carry a trailing batch axis, i.e. ``x`` has shape ``(d,)`` for a
single sample or ``(d, n_paths)`` for a vectorized Monte Carlo batch.  All
model callbacks are expected to broadcast over that axis, and over the axis of
points that ``fd_jacobian`` inserts after the state axis.  Inside the stepping
core the doubled state (x, u, y, v) is one ``(4, d[, n_paths])`` array in that
row order, and a window's increments are one ``(m+1[, n_paths])`` array whose
row 0 is the window length and row r the Brownian increment of channel r.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import reduce
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import ndtri


# ---------------------------------------------------------------------------
# Models and states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianModel:
    """Canonical stochastic Hamiltonian model.

    ``h[r]``, ``grad_x[r]``, ``grad_y[r]`` are callables ``(x, y) -> value``
    for the drift Hamiltonian (r = 0) and each noise channel Hamiltonian
    (r = 1..m).  Gradients return arrays shaped like ``x``.  The optional
    second-derivative blocks of the first noise Hamiltonian are only needed by
    the symplectic Euler baseline; when absent they are approximated by finite
    differences of the gradients.
    """

    d: int
    m: int
    h: tuple
    grad_x: tuple
    grad_y: tuple
    hess_xx: Optional[Callable] = None
    hess_yy: Optional[Callable] = None
    hess_yx: Optional[Callable] = None

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("state dimension must be positive")
        if self.m < 0:
            raise ValueError("channel count must be non-negative")
        for name, fns in (("h", self.h), ("grad_x", self.grad_x), ("grad_y", self.grad_y)):
            if len(fns) != self.m + 1:
                raise ValueError(f"{name} must have m+1 = {self.m + 1} entries")

    def field(self, x, y, delta):
        """Vector-field increment ``(sum_r delta_r dH_r/dy, -sum_r delta_r dH_r/dx)``
        at (x, y), summed in channel order.  Subclasses may override it with a
        fused evaluation of the same sums."""
        fx = 0.0
        fy = 0.0
        for r in range(self.m + 1):
            w = delta[r]
            fx = fx + self.grad_y[r](x, y) * w
            fy = fy - self.grad_x[r](x, y) * w
        return fx, fy


@dataclass(frozen=True, kw_only=True)
class ScaledNoiseModel(HamiltonianModel):
    """A model whose noise Hamiltonians are multiples of the drift,
    H_r = c[r-1] * H_0.  ``scaled`` derives the per-channel tuples from H_0,
    so per-channel readers see every channel; ``field`` needs one gradient
    pair, ``grad_x[0]`` and ``grad_y[0]``, weighted by
    delta_0 + sum_r c_r delta_r."""

    c: tuple

    def __post_init__(self):
        super().__post_init__()
        if len(self.c) != self.m:
            raise ValueError(f"c must have m = {self.m} entries")

    @classmethod
    def scaled(cls, d: int, h0: Callable, grad_x0: Callable, grad_y0: Callable, c,
               **kwargs) -> "ScaledNoiseModel":
        """The model with drift H_0 and one noise channel per entry of ``c``."""
        c = tuple(float(cr) for cr in np.atleast_1d(c))

        def channels(fn):
            return (fn,) + tuple((lambda x, y, cr=cr: cr * fn(x, y)) for cr in c)

        return cls(d=d, m=len(c), h=channels(h0), grad_x=channels(grad_x0),
                   grad_y=channels(grad_y0), c=c, **kwargs)

    def field(self, x, y, delta):
        w = delta[0]
        for r, cr in enumerate(self.c, 1):
            w = w + cr * delta[r]
        return self.grad_y[0](x, y) * w, -(self.grad_x[0](x, y) * w)


@dataclass(frozen=True)
class PhaseState:
    x: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("x and y must have identical shapes")


# ---------------------------------------------------------------------------
# Invariant functionals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearInvariant:
    a_x: np.ndarray
    a_y: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a_x", np.asarray(self.a_x, dtype=float))
        object.__setattr__(self, "a_y", np.asarray(self.a_y, dtype=float))
        if not (np.any(self.a_x) or np.any(self.a_y)):
            raise ValueError("linear invariant must not be identically zero")


@dataclass(frozen=True)
class QuadraticInvariant:
    """Blocks of the symmetric matrix defining (1/2) z' K z.

    Symmetry of the diagonal blocks is required; positive definiteness is not
    (singular invariants occur in practice).
    """

    k11: np.ndarray
    k12: np.ndarray
    k22: np.ndarray

    def __post_init__(self):
        for name in ("k11", "k12", "k22"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if not np.array_equal(self.k11, self.k11.T):
            raise ValueError("k11 must be symmetric")
        if not np.array_equal(self.k22, self.k22.T):
            raise ValueError("k22 must be symmetric")


def eval_linear(inv: LinearInvariant, z: PhaseState):
    if inv.a_x.shape[0] != z.x.shape[0]:
        raise ValueError("dimension mismatch")
    return np.tensordot(inv.a_x, z.x, axes=(0, 0)) + np.tensordot(inv.a_y, z.y, axes=(0, 0))


def eval_quadratic(inv: QuadraticInvariant, z: PhaseState):
    if inv.k11.shape[0] != z.x.shape[0]:
        raise ValueError("dimension mismatch")
    x, y = z.x, z.y
    return (0.5 * np.einsum("i...,ij,j...->...", x, inv.k11, x)
            + np.einsum("i...,ij,j...->...", x, inv.k12, y)
            + 0.5 * np.einsum("i...,ij,j...->...", y, inv.k22, y))


# ---------------------------------------------------------------------------
# Brownian noise with multi-resolution access
# ---------------------------------------------------------------------------

def _channel_normals(seed: int, path_index: int, channel: int, size: int) -> np.ndarray:
    # Philox counter-based stream keyed by (seed, path, channel); uniforms on
    # the open unit interval mapped through the inverse normal CDF.
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_index), int(channel)))
    rng = np.random.Generator(np.random.Philox(ss))
    u = (rng.integers(0, 1 << 53, size=size).astype(float) + 0.5) * 2.0**-53
    return ndtri(u)


def build_noise_grid(seed: int, path_index, m: int, t0: float, t_end: float,
                     n_fine: int) -> np.ndarray:
    """Sample a reproducible noise grid: the ``(m+1, n_fine)`` array of fine
    increments of one path (an int ``path_index``), or ``(m+1, n_fine, n_paths)``
    for a batch (a sequence of ints).  Row 0 is the clock channel, the fine step
    throughout.  Identical arguments give bit-identical grids, and batch column
    j is bit-identical to path ``path_index[j]`` built alone."""
    if not t_end > t0:
        raise ValueError("invalid time range")
    if n_fine < 1:
        raise ValueError("n_fine must be at least 1")
    paths = np.asarray(path_index, dtype=np.int64)
    if paths.size == 0:
        raise ValueError("at least one path required")
    dt = (t_end - t0) / n_fine
    inc = np.empty((m + 1, n_fine, paths.size))   # filled in place: no per-path copy
    inc[0] = dt
    sd = np.sqrt(dt)
    for j, p in enumerate(paths.reshape(-1)):
        for r in range(1, m + 1):
            np.multiply(sd, _channel_normals(seed, p, r, n_fine), out=inc[r, :, j])
    return inc if paths.ndim else inc[..., 0]


build_noise_grid_batch = build_noise_grid   # the batch's older name


def ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis left to right, in any layout; ``np.sum`` is
    pairwise along a contiguous axis, so one path would round differently."""
    if len(a) > 8:   # one call for a long sum; row by row is cheaper for a short one
        return np.add.accumulate(a)[-1]
    return reduce(lambda total, row: total + row, a)


def window_bounds(split: tuple, substeps: int) -> tuple:
    """Integer fine-grid offsets (lo, hi) of the windows that ``split``, a
    tuple of positive fractions summing to 1, cuts from one scheme step of
    ``substeps`` fine steps; each boundary must land on a fine-grid point."""
    fracs = [Fraction(f).limit_denominator(10**9) if not isinstance(f, Fraction) else f
             for f in split]
    if any(f <= 0 for f in fracs):
        raise ValueError("window fractions must be positive")
    if sum(fracs) != 1:
        raise ValueError("window fractions must sum to 1")
    bounds = []
    cum = Fraction(0)
    for f in fracs:
        lo = cum * substeps
        cum += f
        hi = cum * substeps
        if lo.denominator != 1 or hi.denominator != 1:
            raise ValueError(f"window boundary {cum} not representable on the fine grid")
        bounds.append((int(lo), int(hi)))
    return tuple(bounds)


def grid_windows(grid: np.ndarray, step: int, substeps: int, bounds: Sequence) -> list:
    """Increments, one ``(m+1[, n_paths])`` array per window, of scheme step
    ``step`` (``substeps`` fine steps) over the fine-grid windows ``bounds`` of
    ``window_bounds``.  Windows sum left to right, so a batch column gets the
    same increments as the path alone."""
    start = step * substeps
    if start < 0 or start + substeps > grid.shape[1]:
        raise ValueError("step index outside the grid")
    return [ordered_sum(grid[:, start + lo:start + hi].swapaxes(0, 1)) for lo, hi in bounds]


def step_windows(grid: np.ndarray, step: int, split: Sequence, substeps: Optional[int] = None):
    """Extract sub-interval increments of scheme step ``step``.

    ``substeps`` is the number of fine increments per scheme step (defaults to
    the whole grid).  ``split`` lists positive fractions summing to 1; each
    window boundary must land on a fine-grid point.
    """
    substeps = grid.shape[1] if substeps is None else int(substeps)
    return grid_windows(grid, step, substeps, window_bounds(tuple(split), substeps))


# ---------------------------------------------------------------------------
# Finite differences and gradient verification
# ---------------------------------------------------------------------------

FD_BLOCK = 2**13   # entries of w times columns per fd_jacobian call


def fd_jacobian(fn: Callable, w: np.ndarray, step) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``w``: column j is
    (fn(w + step e_j) - fn(w - step e_j)) / (2 step).  ``w`` and ``fn(w)``
    have shape (k,) or (k, n_paths), and ``step`` is a scalar or one value per
    path; the Jacobian is (k, k), or (k, k, n_paths) with one matrix per path.

    ``fn`` is called once per block of b = max(1, FD_BLOCK // w.size)
    columns, on the block's 2b points stacked on a new axis 1, after the
    state axis and before the path axis: shape (k, 2b[, n_paths]), the points
    w + step e_j first, then w - step e_j, j in column order.  It must
    broadcast over that axis and return the same shape; a point gets the
    operands and operations a call on it alone would."""
    k = len(w)
    block = max(1, FD_BLOCK // w.size)
    jac = np.empty(w.shape[:1] + w.shape)
    at = w[:, None]
    for j0 in range(0, k, block):
        b = min(block, k - j0)
        e = np.zeros((k, b) + w.shape[1:])
        e[np.arange(j0, j0 + b), np.arange(b)] = step
        f = fn(np.concatenate((at + e, at - e), axis=1))
        jac[:, j0:j0 + b] = (f[:, :b] - f[:, b:]) / (2 * step)
    return jac


def fd_shared(a: np.ndarray, like: np.ndarray) -> np.ndarray:
    """``a`` as an operand of ``like``: ``a`` itself for one point, or, when
    ``like`` holds the points ``fd_jacobian`` stacks on axis 1, ``a``
    broadcast to its shape, shared by every point."""
    if like.ndim == a.ndim:
        return a
    return np.broadcast_to(a[:, None], like.shape)


@dataclass
class GradientReport:
    passed: bool
    worst: float
    failures: list = field(default_factory=list)


def verify_gradients(model: HamiltonianModel, samples: int = 100, fd_step: float = 1e-5,
                     tol: float = 1e-6, seed: int = 0,
                     center: Optional[PhaseState] = None, radius: float = 1.0) -> GradientReport:
    """Check supplied gradients against central differences of H at random points.

    Report-only: never raises.  Points are drawn from a Gaussian ball around
    ``center`` (origin by default) so constrained models can be probed near
    their admissible region.
    """
    if fd_step <= 0:
        raise ValueError("fd_step must be positive")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    cx = np.zeros(model.d) if center is None else center.x
    cy = np.zeros(model.d) if center is None else center.y
    report = GradientReport(passed=True, worst=0.0)
    for _ in range(samples):
        x = cx + radius * rng.standard_normal(model.d)
        y = cy + radius * rng.standard_normal(model.d)
        for r in range(model.m + 1):
            for block, grad in (("x", model.grad_x[r]), ("y", model.grad_y[r])):
                g = np.asarray(grad(x, y), dtype=float)
                fd = np.empty(model.d)
                for i in range(model.d):
                    e = np.zeros(model.d)
                    e[i] = fd_step
                    if block == "x":
                        fd[i] = (model.h[r](x + e, y) - model.h[r](x - e, y)) / (2 * fd_step)
                    else:
                        fd[i] = (model.h[r](x, y + e) - model.h[r](x, y - e)) / (2 * fd_step)
                dev = float(np.max(np.abs(g - fd)))
                report.worst = max(report.worst, dev)
                if dev > tol:
                    report.passed = False
                    report.failures.append((r, block, PhaseState(x, y), dev))
    return report
