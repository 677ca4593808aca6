"""Domain types: Hamiltonian models, phase states, invariants, and Brownian noise.

States may carry a trailing batch axis, i.e. ``x`` has shape ``(d,)`` for a
single sample or ``(d, n_paths)`` for a vectorized Monte Carlo batch.  All
model callbacks are expected to broadcast over that axis.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache, reduce
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
    label: str = ""

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


@dataclass(frozen=True)
class ExtendedState:
    """Doubled phase-space state (x, u, y, v); (u, v) is the second copy."""

    x: np.ndarray
    u: np.ndarray
    y: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        for name in ("x", "u", "y", "v"):
            val = getattr(self, name)
            if not (isinstance(val, np.ndarray) and val.dtype == np.float64):
                object.__setattr__(self, name, np.asarray(val, dtype=float))

    def on_diagonal(self, tol: float = 0.0) -> bool:
        return (np.max(np.abs(self.x - self.u)) <= tol
                and np.max(np.abs(self.y - self.v)) <= tol)


@dataclass(frozen=True)
class StepIncrements:
    """Per-window increments; ``delta[0]`` is the window length, ``delta[r]``
    the Brownian increment of channel r over the window."""

    delta: np.ndarray

    def __post_init__(self):
        if not (isinstance(self.delta, np.ndarray) and self.delta.dtype == np.float64):
            object.__setattr__(self, "delta", np.asarray(self.delta, dtype=float))
        if np.any(self.delta[0] < 0):
            raise ValueError("window length must be non-negative")


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

@dataclass(frozen=True)
class NoiseGrid:
    """Fine-resolution Brownian increments per channel.

    Channel 0 is the clock channel: ``inc[0][k] = dt_fine`` always.  ``inc``
    has shape ``(m+1, n_fine)`` or ``(m+1, n_fine, n_paths)`` for a batch.
    """

    m: int
    t0: float
    dt_fine: float
    n_fine: int
    inc: np.ndarray
    seed: int
    path_index: object  # int or array of ints for a batch


def _channel_normals(seed: int, path_index: int, channel: int, size: int) -> np.ndarray:
    # Philox counter-based stream keyed by (seed, path, channel); uniforms on
    # the open unit interval mapped through the inverse normal CDF.
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(int(path_index), int(channel)))
    rng = np.random.Generator(np.random.Philox(ss))
    u = (rng.integers(0, 1 << 53, size=size).astype(float) + 0.5) * 2.0**-53
    return ndtri(u)


def build_noise_grid(seed: int, path_index: int, m: int, t0: float, t_end: float,
                     n_fine: int, truncate: bool = False) -> NoiseGrid:
    """Sample a reproducible noise grid for one path.

    Identical arguments give bit-identical grids.  ``truncate`` clips each
    fine increment at 2*sqrt(dt*|ln dt|) (off by default; raw increments are
    the norm here).
    """
    if not t_end > t0:
        raise ValueError("invalid time range")
    if n_fine < 1:
        raise ValueError("n_fine must be at least 1")
    dt = (t_end - t0) / n_fine
    inc = np.empty((m + 1, n_fine))
    inc[0] = dt
    sd = np.sqrt(dt)
    bound = 2.0 * np.sqrt(dt * abs(np.log(dt))) if truncate else None
    for r in range(1, m + 1):
        w = sd * _channel_normals(seed, path_index, r, n_fine)
        if bound is not None:
            np.clip(w, -bound, bound, out=w)
        inc[r] = w
    return NoiseGrid(m, float(t0), dt, int(n_fine), inc, int(seed), int(path_index))


def build_noise_grid_batch(seed: int, path_indices: Sequence[int], m: int, t0: float,
                           t_end: float, n_fine: int, truncate: bool = False) -> NoiseGrid:
    """Stack per-path grids along a trailing batch axis.

    Column j is bit-identical to ``build_noise_grid(seed, path_indices[j], ...)``.
    """
    paths = np.asarray(path_indices, dtype=np.int64)
    cols = [build_noise_grid(seed, int(p), m, t0, t_end, n_fine, truncate) for p in paths]
    inc = np.stack([g.inc for g in cols], axis=2)
    return NoiseGrid(m, float(t0), cols[0].dt_fine, int(n_fine), inc, int(seed), paths)


def ordered_sum(a: np.ndarray) -> np.ndarray:
    """Sum over the first axis left to right, in any layout; ``np.sum`` is
    pairwise along a contiguous axis, so one path would round differently."""
    if len(a) > 8:   # one call for a long sum; row by row is cheaper for a short one
        return np.add.accumulate(a)[-1]
    return reduce(lambda total, row: total + row, a)


def coarsen(grid: NoiseGrid, factor: int) -> NoiseGrid:
    """Merge groups of ``factor`` fine increments, summed left to right."""
    if factor < 1 or grid.n_fine % factor != 0:
        raise ValueError(f"factor {factor} does not divide n_fine {grid.n_fine}")
    n_coarse = grid.n_fine // factor
    shape = (grid.inc.shape[0], n_coarse, factor) + grid.inc.shape[2:]
    inc = ordered_sum(np.moveaxis(grid.inc.reshape(shape), 2, 0))
    return NoiseGrid(grid.m, grid.t0, grid.dt_fine * factor, n_coarse, inc,
                     grid.seed, grid.path_index)


@lru_cache(maxsize=256)
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


def grid_windows(grid: NoiseGrid, step: int, substeps: int, bounds: Sequence) -> list:
    """Increments of scheme step ``step`` (``substeps`` fine steps) over the
    fine-grid windows ``bounds`` of ``window_bounds``.  Windows sum left to
    right, so a batch column gets the same increments as the path alone."""
    start = step * substeps
    if start < 0 or start + substeps > grid.n_fine:
        raise ValueError("step index outside the grid")
    inc = grid.inc
    return [StepIncrements(ordered_sum(inc[:, start + lo:start + hi].swapaxes(0, 1)))
            for lo, hi in bounds]


def step_windows(grid: NoiseGrid, step: int, split: Sequence, substeps: Optional[int] = None):
    """Extract sub-interval increments of scheme step ``step``.

    ``substeps`` is the number of fine increments per scheme step (defaults to
    the whole grid).  ``split`` lists positive fractions summing to 1; each
    window boundary must land on a fine-grid point.
    """
    substeps = grid.n_fine if substeps is None else int(substeps)
    return grid_windows(grid, step, substeps, window_bounds(tuple(split), substeps))


# ---------------------------------------------------------------------------
# Finite differences and gradient verification
# ---------------------------------------------------------------------------

def fd_jacobian(fn: Callable, w: np.ndarray, step: float) -> np.ndarray:
    """Central-difference Jacobian of ``fn`` at ``w``: column j is d fn / d w_j.
    ``w`` and ``fn(w)`` have shape (k,) or (k, n_paths); the Jacobian is
    (k, k), or (k, k, n_paths) with one matrix per path."""
    jac = np.empty(w.shape[:1] + w.shape)
    e = np.zeros_like(w)
    for j in range(len(w)):
        e[j] = step
        jac[:, j] = (fn(w + e) - fn(w - e)) / (2 * step)
        e[j] = 0.0
    return jac


@dataclass
class GradientReport:
    passed: bool
    worst: float
    worst_channel: int = -1
    worst_block: str = ""
    worst_point: Optional[PhaseState] = None
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
                if dev > report.worst:
                    report.worst = dev
                    report.worst_channel = r
                    report.worst_block = block
                    report.worst_point = PhaseState(x, y)
                if dev > tol:
                    report.passed = False
                    report.failures.append((r, block, PhaseState(x, y), dev))
    return report
