import tracemalloc

import numpy as np
import pytest
from scipy import stats

from stosymp import core
from stosymp.core import (HamiltonianModel, LinearInvariant, PhaseState,
                          QuadraticInvariant, build_noise_grid,
                          build_noise_grid_batch, eval_linear,
                          eval_quadratic, fd_jacobian, step_windows, verify_gradients)
from stosymp.modelzoo import make_example1


def test_clock_channel_deterministic():
    g = build_noise_grid(1, 0, 0, 0.0, 1.0, 4)
    assert np.array_equal(g[0], np.full(4, 0.25))


def test_noise_grid_bit_identical():
    g1 = build_noise_grid(7, 3, 2, 0.0, 1.0, 64)
    g2 = build_noise_grid(7, 3, 2, 0.0, 1.0, 64)
    assert np.array_equal(g1, g2)


def test_noise_grid_invalid_args():
    with pytest.raises(ValueError):
        build_noise_grid(0, 0, 1, 1.0, 1.0, 4)
    with pytest.raises(ValueError):
        build_noise_grid(0, 0, 1, 0.0, 1.0, 0)


def test_increment_statistics():
    # variance of fine increments and normality of per-path sums
    n = 2**16
    g = build_noise_grid(42, 0, 1, 0.0, 1.0, n)
    assert abs(np.var(g[1]) - 1.0 / n) < 0.05 / n
    sums = np.array([build_noise_grid(42, p, 1, 0.0, 1.0, 256)[1].sum()
                     for p in range(1000)])
    assert stats.kstest(sums, "norm").pvalue > 0.01


def test_batch_columns_match_single_paths():
    gb = build_noise_grid_batch(5, [0, 1, 2], 1, 0.0, 1.0, 16)
    for j, p in enumerate([0, 1, 2]):
        g = build_noise_grid(5, p, 1, 0.0, 1.0, 16)
        assert np.array_equal(gb[:, :, j], g)
    # one builder for a path and a batch, under both names
    assert np.array_equal(build_noise_grid(5, [0, 1, 2], 1, 0.0, 1.0, 16), gb)


def test_batch_grid_built_in_place():
    # a 200-path, 2048-step grid holds no second copy of itself while it is built
    tracemalloc.start()
    try:
        g = build_noise_grid_batch(0, range(200), 1, 0.0, 1.0, 2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.shape == (2, 2048, 200)
    assert peak <= 1.25 * g.nbytes


def test_noise_grid_needs_a_path():
    with pytest.raises(ValueError, match="at least one path"):
        build_noise_grid_batch(0, [], 1, 0.0, 1.0, 4)


def test_step_windows_full_and_halves():
    g = build_noise_grid(0, 0, 1, 0.0, 1.0, 4)
    (w,) = step_windows(g, 0, [1], substeps=2)
    assert np.isclose(w[1], g[1][:2].sum(), rtol=0, atol=0)
    h1, h2 = step_windows(g, 1, [0.5, 0.5], substeps=2)
    assert h1[1] == g[1][2]
    assert h2[1] == g[1][3]
    assert np.isclose(h1[1] + h2[1], step_windows(g, 1, [1], substeps=2)[0][1])


def test_step_windows_unrepresentable_boundary():
    g = build_noise_grid(0, 0, 1, 0.0, 1.0, 4)
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


def test_eval_quadratic_oracles():
    inv = QuadraticInvariant(np.eye(1), np.zeros((1, 1)), np.eye(1))
    assert eval_quadratic(inv, PhaseState([1.0], [1.0])) == 1.0
    inv3 = QuadraticInvariant(np.diag([0.0, 0.5]), np.zeros((2, 2)), np.diag([0.0, 1.0]))
    z = PhaseState([-1.0, 2.0], [1.0, -1.0])
    assert np.isclose(eval_quadratic(inv3, z), 1.5)
    assert eval_quadratic(inv, PhaseState([0.0], [0.0])) == 0.0
    with pytest.raises(ValueError):
        QuadraticInvariant([[0, 1], [0, 0]], np.zeros((2, 2)), np.eye(2))


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
    assert verify_gradients(ex.model, 100, 1e-5, 1e-6, seed=0).passed
    bad = HamiltonianModel(
        d=1, m=0,
        h=(ex.model.h[0],),
        grad_x=(lambda x, y: -ex.model.grad_x[0](x, y),),
        grad_y=(ex.model.grad_y[0],))
    rep = verify_gradients(bad, 20, 1e-5, 1e-6, seed=0)
    assert not rep.passed and rep.failures


def test_verify_gradients_constant_hamiltonian():
    model = HamiltonianModel(d=2, m=0,
                             h=(lambda x, y: 1.0,),
                             grad_x=(lambda x, y: np.zeros_like(x),),
                             grad_y=(lambda x, y: np.zeros_like(y),))
    assert verify_gradients(model, 20, 1e-5, 1e-6).passed


def test_state_validation():
    with pytest.raises(ValueError):
        PhaseState([1.0, 2.0], [1.0])


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
