import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from stosymp import core
from stosymp.core import (HamiltonianModel, LinearInvariant, PhaseState,
                          QuadraticInvariant, build_noise_grid, eval_linear,
                          eval_quadratic, fd_jacobian, grid_windows, step_windows,
                          verify_gradients, window_bounds)
from stosymp.modelzoo import make_example1


def test_clock_channel_deterministic():
    g = build_noise_grid(1, 0, 0, 1.0, 4)
    assert np.array_equal(g[0], np.full(4, 0.25))


def test_noise_grid_bit_identical():
    g1 = build_noise_grid(7, 3, 2, 1.0, 64)
    g2 = build_noise_grid(7, 3, 2, 1.0, 64)
    assert np.array_equal(g1, g2)


def test_noise_grid_invalid_args():
    with pytest.raises(ValueError, match="t_end must be positive"):
        build_noise_grid(0, 0, 1, 0.0, 4)
    with pytest.raises(ValueError):
        build_noise_grid(0, 0, 1, 1.0, 0)


def test_increment_statistics():
    # variance of fine increments and normality of per-path sums
    n = 2**16
    g = build_noise_grid(42, 0, 1, 1.0, n)
    assert abs(np.var(g[1]) - 1.0 / n) < 0.05 / n
    sums = np.array([build_noise_grid(42, p, 1, 1.0, 256)[1].sum()
                     for p in range(1000)])
    assert stats.kstest(sums, "norm").pvalue > 0.01


def test_batch_columns_match_single_paths():
    gb = build_noise_grid(5, [0, 1, 2], 1, 1.0, 16)
    for j, p in enumerate([0, 1, 2]):
        g = build_noise_grid(5, p, 1, 1.0, 16)
        assert np.array_equal(gb[:, :, j], g)


def test_batch_grid_built_in_place():
    # a 200-path, 2048-step grid holds no second copy of itself while it is built
    tracemalloc.start()
    try:
        g = build_noise_grid(0, range(200), 1, 1.0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (2, 2048, 200)
    assert peak <= 1.25 * g.nbytes


def test_noise_grid_needs_a_path():
    with pytest.raises(ValueError, match="at least one path"):
        build_noise_grid(0, [], 1, 1.0, 4)


def test_step_windows_full_and_halves():
    g = build_noise_grid(0, 0, 1, 1.0, 4)
    (w,) = step_windows(g, 0, [1], substeps=2)
    assert np.isclose(w[1], g[1][:2].sum(), rtol=0, atol=0)
    h1, h2 = step_windows(g, 1, [0.5, 0.5], substeps=2)
    assert h1[1] == g[1][2]
    assert h2[1] == g[1][3]
    assert np.isclose(h1[1] + h2[1], step_windows(g, 1, [1], substeps=2)[0][1])


@pytest.mark.parametrize("split, message", [
    ((0.5, 0.0, 0.5), "window fractions must be positive"),
    ((1.5, -0.5), "window fractions must be positive"),
    ((0.5, 0.25), "window fractions must sum to 1"),
    ((0.5, 0.75), "window fractions must sum to 1"),
])
def test_window_bounds_rejects_bad_fractions(split, message):
    with pytest.raises(ValueError, match=message):
        window_bounds(split, 4)


def test_grid_windows_rejects_a_partial_step():
    g = build_noise_grid(0, 0, 1, 1.0, 6)
    assert grid_windows(g, 3, window_bounds((1,), 3)).shape == (2, 1, 2)
    for substeps in (4, 12):   # 1.5 steps; no whole step
        with pytest.raises(ValueError, match="the grid slice must hold whole steps"):
            grid_windows(g, substeps, window_bounds((1,), substeps))


def test_step_windows_unrepresentable_boundary():
    g = build_noise_grid(0, 0, 1, 1.0, 4)
    with pytest.raises(ValueError):
        step_windows(g, 0, [0.5, 0.5], substeps=3)


def test_eval_linear_oracles():
    inv = LinearInvariant([1.0], [0.0])
    assert eval_linear(inv, PhaseState([3.0], [7.0])) == 3.0
    # 2-d coordinates with only the leading pair active
    inv3 = LinearInvariant([0.2, 0.0], [-0.3, 0.0])
    z = PhaseState([-1.0, 2.0], [1.0, -1.0])
    assert np.isclose(eval_linear(inv3, z), -0.5)
    with pytest.raises(ValueError):
        LinearInvariant([0.0], [0.0])
    with pytest.raises(ValueError, match="dimension mismatch"):
        eval_linear(inv3, PhaseState([1.0], [1.0]))


def test_eval_quadratic_oracles():
    inv = QuadraticInvariant(np.eye(1), np.zeros((1, 1)), np.eye(1))
    assert eval_quadratic(inv, PhaseState([1.0], [1.0])) == 1.0
    inv3 = QuadraticInvariant(np.diag([0.0, 0.5]), np.zeros((2, 2)), np.diag([0.0, 1.0]))
    z = PhaseState([-1.0, 2.0], [1.0, -1.0])
    assert np.isclose(eval_quadratic(inv3, z), 1.5)
    assert eval_quadratic(inv, PhaseState([0.0], [0.0])) == 0.0
    with pytest.raises(ValueError, match="k11 must be symmetric"):
        QuadraticInvariant([[0, 1], [0, 0]], np.zeros((2, 2)), np.eye(2))
    with pytest.raises(ValueError, match="k22 must be symmetric"):
        QuadraticInvariant(np.eye(2), np.zeros((2, 2)), [[0, 1], [0, 0]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        eval_quadratic(inv3, PhaseState([1.0], [1.0]))


def test_eval_quadratic_matches_dense():
    rng = np.random.default_rng(3)
    k11 = rng.standard_normal((3, 3))
    k11 = k11 + k11.T
    k22 = rng.standard_normal((3, 3))
    k22 = k22 + k22.T
    k12 = rng.standard_normal((3, 3))
    inv = QuadraticInvariant(k11, k12, k22)
    kappa = np.block([[k11, k12], [k12.T, k22]])
    for _ in range(10):
        x = rng.standard_normal(3)
        y = rng.standard_normal(3)
        zz = np.concatenate([x, y])
        assert np.isclose(eval_quadratic(inv, PhaseState(x, y)),
                          0.5 * zz @ kappa @ zz)


def test_verify_gradients_pass_and_fail():
    ex = make_example1()
    assert verify_gradients(ex.model, seed=0).passed
    bad = HamiltonianModel(
        d=1, m=0,
        h=(ex.model.h[0],),
        grad_x=(lambda x, y: -ex.model.grad_x[0](x, y),),
        grad_y=(ex.model.grad_y[0],))
    rep = verify_gradients(bad, seed=0)
    assert not rep.passed and rep.failures


@pytest.mark.parametrize("broken, nan", [
    ("grad_x", lambda x, y: np.full_like(x, np.nan)),
    ("h", lambda x, y: np.nan),
], ids=["grad_x", "h"])
def test_verify_gradients_fails_on_nan(broken, nan):
    # a NaN deviation compares False with the tolerance; it must fail all the same
    ex1 = make_example1().model
    fns = {"h": ex1.h[0], "grad_x": ex1.grad_x[0], "grad_y": ex1.grad_y[0], broken: nan}
    model = HamiltonianModel(d=1, m=0, **{name: (fn,) for name, fn in fns.items()})
    rep = verify_gradients(model, seed=0)
    assert not rep.passed and rep.failures
    assert np.isnan(rep.worst)


def test_verify_gradients_constant_hamiltonian():
    model = HamiltonianModel(d=2, m=0,
                             h=(lambda x, y: 1.0,),
                             grad_x=(lambda x, y: np.zeros_like(x),),
                             grad_y=(lambda x, y: np.zeros_like(y),))
    assert verify_gradients(model).passed


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseState([1.0, 2.0], [1.0])


@pytest.mark.parametrize("d, m, n_fns, message", [
    (0, 0, (1, 1, 1), "state dimension must be positive"),
    (1, -1, (0, 0, 0), "channel count must be non-negative"),
    (1, 1, (1, 2, 2), "h must have m\\+1 = 2 entries"),
    (1, 1, (2, 1, 2), "grad_x must have m\\+1 = 2 entries"),
    (1, 0, (1, 1, 2), "grad_y must have m\\+1 = 1 entries"),
], ids=["d-zero", "m-negative", "h-short", "grad_x-short", "grad_y-long"])
def test_model_validation(d, m, n_fns, message):
    def fn(x, y):
        return x

    h, gx, gy = ((fn,) * n for n in n_fns)
    with pytest.raises(ValueError, match=message):
        HamiltonianModel(d=d, m=m, h=h, grad_x=gx, grad_y=gy)


def column_jacobian(fn, w, step):
    """The central-difference Jacobian one column, and two calls, at a time."""
    jac = np.empty(w.shape[:1] + w.shape)
    for j in range(len(w)):
        e = np.zeros_like(w)
        e[j] = step
        jac[:, j] = (fn(w + e) - fn(w - e)) / (2 * step)
    return jac


@pytest.mark.parametrize("shape, step", [
    ((3,), 1e-6),                                 # one path
    ((3, 3), 1e-6),                               # a batch
    ((2, 3), np.array([1e-6, 2e-6, 5e-7])),       # one step per path
    ((200,), 1e-7),                               # several blocks
])
def test_fd_jacobian_equals_column_by_column(shape, step):
    w = np.random.default_rng(4).standard_normal(shape)
    calls = []

    def fn(v):
        calls.append(v.shape)
        return np.sin(v * v[::-1]) + np.cumsum(v, axis=0) * v[0]

    jac = fd_jacobian(fn, w, step)
    block = max(1, core.FD_BLOCK // w.size)
    assert len(calls) == -(-len(w) // block)
    assert calls[0] == (len(w), 2 * min(block, len(w))) + shape[1:]
    assert np.array_equal(jac, column_jacobian(fn, w, step))


def test_package_exports_resolve():
    # a name deleted from the package but left in __all__ or its import line
    # fails here, not at a user's star import
    import stosymp

    missing = [name for name in stosymp.__all__ if not hasattr(stosymp, name)]
    assert not missing
    namespace = {}
    exec("from stosymp import *", namespace)
    assert all(namespace[name] is getattr(stosymp, name) for name in stosymp.__all__)


ORDERED_SUM_LAYOUTS = {"k": lambda k, n: (k,), "k1": lambda k, n: (k, 1),
                       "kn": lambda k, n: (k, n), "k1n": lambda k, n: (k, 1, n)}


@st.composite
def summands(draw):
    """An array of 1-12 rows of (), (1,), (n,) or (1, n) with n up to 64, so
    the row width falls on either side of ordered_sum's 32; its normal
    entries, drawn from a seed, span magnitudes 1e-8 to 1e8, where the order
    of the additions shows."""
    k, n = draw(st.integers(1, 12)), draw(st.integers(1, 64))
    shape = ORDERED_SUM_LAYOUTS[draw(st.sampled_from(sorted(ORDERED_SUM_LAYOUTS)))](k, n)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)


@settings(max_examples=200, deadline=None)
@given(summands())
@example(np.full((3, 32), 0.1))   # the widest row that takes np.add.accumulate
@example(np.full((3, 1, 33), 0.1))   # the narrowest that adds row by row
def test_ordered_sum_adds_left_to_right(a):
    want = a[0]
    for row in a[1:]:
        want = want + row
    got = core.ordered_sum(a)
    assert np.shape(got) == np.shape(want) and np.array_equal(got, want)
