import numpy as np
import pytest

from stosymp import baseline, project
from stosymp.baseline import midpoint_step, symplectic_euler_step
from stosymp.core import HamiltonianModel, PhaseState, build_noise_grid
from stosymp.harness import make_stepper, track
from stosymp.modelzoo import get_example
from stosymp.project import NoConvergence, ProjectionConfig, chord_newton, simulate
from stosymp.splitflow import symplectic_residual_phase


def osc_model():
    return HamiltonianModel(d=1, m=0,
                            h=(lambda x, y: 0.5 * (x[0] ** 2 + y[0] ** 2),),
                            grad_x=(lambda x, y: x.copy(),),
                            grad_y=(lambda x, y: y.copy(),))


def test_midpoint_cayley_oracle():
    z = midpoint_step(osc_model(), np.array([[1.0], [0.0]]), np.array([2.0]))
    assert np.allclose(z[:, 0], [0.0, -1.0], atol=1e-11)


def test_midpoint_identity_on_zero_increments():
    z = midpoint_step(osc_model(), np.array([[0.4], [-1.2]]), np.array([0.0]))
    assert np.allclose(z[:, 0], [0.4, -1.2], atol=1e-14)


def test_midpoint_preserves_circle():
    rng = np.random.default_rng(0)
    z = np.array([[0.8], [0.6]])
    r_prev = 1.0
    for _ in range(50):
        z = midpoint_step(osc_model(), z, np.array([rng.uniform(0, 1)]))
        r = z[0, 0] ** 2 + z[1, 0] ** 2
        assert abs(r - r_prev) <= 1e-12  # per-step preservation
        r_prev = r


def test_midpoint_preserves_example3_quadratic():
    ex = get_example("ex3")
    g = build_noise_grid(1, 0, 1, 10.0, 1000)
    z = ex.z0.stacked()
    q0 = ex.invariants["quadratic"](ex.z0)
    for n in range(1000):
        z = midpoint_step(ex.model, z, g[:, n])
    assert abs(ex.invariants["quadratic"](PhaseState(*z)) - q0) <= 1e-10 * abs(q0)


def test_midpoint_symplectic_at_fixed_noise():
    ex = get_example("ex1")
    inc = np.array([0.01, 0.037])
    res = symplectic_residual_phase(lambda z: midpoint_step(ex.model, z, inc), ex.z0.stacked())
    assert res <= 1e-5


def test_midpoint_solver_independence():
    ex = get_example("ex1")
    inc = np.array([0.01, 0.02])
    tol = 1e-10
    a = midpoint_step(ex.model, ex.z0.stacked(), inc, ProjectionConfig(tol=tol))
    b = midpoint_step(ex.model, ex.z0.stacked(), inc, ProjectionConfig(tol=tol / 2))
    assert np.max(np.abs(a - b)) <= 10 * tol


def xy_with_silent_noise():
    zero = lambda x, y: np.zeros_like(x)
    return HamiltonianModel(d=1, m=1,
                            h=(lambda x, y: x[0] * y[0], lambda x, y: 0.0),
                            grad_x=(lambda x, y: y.copy(), zero),
                            grad_y=(lambda x, y: x.copy(), zero))


def test_sympeuler_hand_oracle():
    # H0 = XY, H1 = 0, dt = 0.5: X' = X/(1-dt), Y' = Y(1-dt)
    z = symplectic_euler_step(xy_with_silent_noise(), np.array([[1.0], [1.0]]),
                              np.array([0.5, 0.0]))
    assert np.allclose(z[:, 0], [2.0, 0.5], atol=1e-11)
    assert abs(z[0, 0] * z[1, 0] - 1.0) <= 1e-10


def test_sympeuler_identity_on_zero_increments():
    z = symplectic_euler_step(xy_with_silent_noise(), np.array([[0.3], [-0.7]]),
                              np.array([0.0, 0.0]))
    assert np.allclose(z[:, 0], [0.3, -0.7], atol=1e-13)


def test_sympeuler_rejects_multichannel():
    zero = lambda x, y: np.zeros_like(x)
    model = HamiltonianModel(d=1, m=2,
                             h=(lambda x, y: 0.0,) * 3,
                             grad_x=(zero,) * 3, grad_y=(zero,) * 3)
    with pytest.raises(ValueError):
        symplectic_euler_step(model, np.zeros((2, 1)), np.array([0.1, 0.0, 0.0]))


def test_sympeuler_fd_hessians_match_analytic():
    ex = get_example("ex1")  # has analytic second derivatives
    stripped = HamiltonianModel(d=1, m=1, h=ex.model.h, grad_x=ex.model.grad_x,
                                grad_y=ex.model.grad_y)
    inc = np.array([0.01, 0.015])
    z0 = np.array([[0.3], [-2.0]])
    a = symplectic_euler_step(ex.model, z0, inc)
    b = symplectic_euler_step(stripped, z0, inc)
    assert np.max(np.abs(a - b)) <= 1e-8


def test_midpoint_singular_jacobian_is_noconvergence():
    # H0 = xy with dt = 2: the x-row of the midpoint residual is -2 x0 for
    # every x1, so its Jacobian is singular
    model = HamiltonianModel(d=1, m=0, h=(lambda x, y: x[0] * y[0],),
                             grad_x=(lambda x, y: y.copy(),),
                             grad_y=(lambda x, y: x.copy(),))
    with pytest.raises(NoConvergence):
        midpoint_step(model, np.array([[1.0], [1.0]]), np.array([2.0]))


def test_invalid_solver_config():
    with pytest.raises(ValueError, match="tol must be positive"):
        ProjectionConfig(tol=0.0)
    with pytest.raises(ValueError, match="max_iter must be at least 1"):
        ProjectionConfig(max_iter=0)


def counted_newton(monkeypatch, calls=()):
    """Patch ``project.newton`` to record, at every call, its start and how
    many entries ``calls`` had."""
    starts = []
    newton = project.newton
    monkeypatch.setattr(project, "newton", lambda residual, w0, cfg, live:
                        starts.append((len(calls), w0.copy())) or newton(residual, w0, cfg, live))
    return starts


def test_chord_hands_diverging_path_to_newton_from_start(monkeypatch):
    # w^3 = 8 from w = 1: the chord's slope 3 overshoots to 10/3, where the
    # residual grows from 7 to 29, so after that one update (two residual
    # calls, the first stacked) the path restarts full Newton from 1
    calls = []
    starts = counted_newton(monkeypatch, calls)
    w, norm = chord_newton(lambda w: calls.append(1) or w ** 3 - 8.0, np.array([1.0]),
                           ProjectionConfig())
    assert [(n, list(w0)) for n, w0 in starts] == [(2, [1.0])]
    assert norm < 1e-12 and abs(w[0] - 2.0) < 1e-12
    # beside a column that converges on the chord (w^3 = 1 from 1.1), each
    # column of a batch is its path solved alone
    target, w0 = np.array([[8.0, 1.0]]), np.array([[1.0, 1.1]])
    w, norm = chord_newton(lambda w: w ** 3 - target, w0, ProjectionConfig())
    assert np.all(norm < 1e-12) and np.array_equal(starts[-1][1], w0)
    for p in range(2):
        alone, _ = chord_newton(lambda w: w ** 3 - target[:, p], w0[:, p], ProjectionConfig())
        assert np.array_equal(alone, w[:, p])


@pytest.mark.parametrize("scheme", ["midpoint", "sympeuler"])
def test_batch_columns_equal_single_paths_through_newton(scheme, monkeypatch):
    # ex2 (c 0.5) at dt 2^-2: the chord leaves some columns of an 8-path
    # batch (midpoint: 2 and 6; sympeuler: 6 solves), which take full Newton
    # while the other columns stay put
    starts = counted_newton(monkeypatch)
    ex = get_example("ex2", c=0.5)
    m, paths, n, dt = ex.model.m, 8, 8, 0.25
    batch_grid = build_noise_grid(0, range(paths), m, n * dt, 2 * n)
    zb = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                    np.repeat(ex.z0.y[:, None], paths, axis=1))
    zb = simulate(make_stepper(scheme, ex, batch_grid, 2, 0.5), zb, n, dt).final
    assert starts
    for p in range(paths):
        grid = build_noise_grid(0, p, m, n * dt, 2 * n)
        z = simulate(make_stepper(scheme, ex, grid, 2, 0.5), ex.z0, n, dt).final
        assert np.array_equal(zb.x[:, p], z.x) and np.array_equal(zb.y[:, p], z.y), p


@pytest.mark.parametrize("scheme, calls", [("midpoint", (40, 80)), ("sympeuler", (96, 80))])
def test_residual_calls_per_step(scheme, calls, monkeypatch):
    # every residual call of the implicit solve, the chord's stacked first
    # call included: 8 steps of an 8-path ex1 batch (c 0.15, dt 2^-5; 29 / 37
    # calls with Newton alone, one stacked call per iterate), and the first
    # 40 steps of criterion 10's single path (c 0.1, dt 1e-4; 80 / 80 with
    # Newton alone).  Both schemes start from the explicit Euler predictor.
    counted = []
    solve = baseline._solve
    monkeypatch.setattr(baseline, "_solve", lambda residual, w0, cfg:
                        solve(lambda w: counted.append(1) or residual(w), w0, cfg))
    ex = get_example("ex1", c=0.15)
    paths, n, dt = 8, 8, 2.0 ** -5
    g = build_noise_grid(0, range(paths), 1, n * dt, 2 * n)
    z0 = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                    np.repeat(ex.z0.y[:, None], paths, axis=1))
    simulate(make_stepper(scheme, ex, g, 2, 0.01), z0, n, dt)
    batch = len(counted)
    counted.clear()
    track(get_example("ex1", c=0.1), scheme, 40 * 1e-4, 1e-4, [], seed=0, gamma=0.0)
    assert (batch, len(counted)) == calls
