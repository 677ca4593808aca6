import numpy as np
import pytest

from stosymp.baseline import (ImplicitSolverConfig, midpoint_step,
                              symplectic_euler_step)
from stosymp.core import (HamiltonianModel, PhaseState, StepIncrements,
                          build_noise_grid)
from stosymp.modelzoo import get_example
from stosymp.project import NoConvergence
from stosymp.splitflow import symplectic_residual_phase


def osc_model():
    return HamiltonianModel(d=1, m=0,
                            h=(lambda x, y: 0.5 * (x[0] ** 2 + y[0] ** 2),),
                            grad_x=(lambda x, y: x.copy(),),
                            grad_y=(lambda x, y: y.copy(),))


def test_midpoint_cayley_oracle():
    z = midpoint_step(osc_model(), PhaseState([1.0], [0.0]), StepIncrements([2.0]))
    assert np.allclose([z.x[0], z.y[0]], [0.0, -1.0], atol=1e-11)


def test_midpoint_identity_on_zero_increments():
    z0 = PhaseState([0.4], [-1.2])
    z = midpoint_step(osc_model(), z0, StepIncrements([0.0]))
    assert np.allclose([z.x[0], z.y[0]], [0.4, -1.2], atol=1e-14)


def test_midpoint_preserves_circle():
    rng = np.random.default_rng(0)
    z = PhaseState([0.8], [0.6])
    r_prev = 1.0
    for _ in range(50):
        z = midpoint_step(osc_model(), z, StepIncrements([rng.uniform(0, 1)]))
        r = z.x[0] ** 2 + z.y[0] ** 2
        assert abs(r - r_prev) <= 1e-12  # per-step preservation
        r_prev = r


def test_midpoint_preserves_example3_quadratic():
    ex = get_example("ex3")
    g = build_noise_grid(1, 0, 1, 0.0, 10.0, 1000)
    z = ex.z0
    q0 = ex.invariants["quadratic"](z)
    for n in range(1000):
        z = midpoint_step(ex.model, z, StepIncrements(g.inc[:, n]))
    assert abs(ex.invariants["quadratic"](z) - q0) <= 1e-10 * abs(q0)


def test_midpoint_symplectic_at_fixed_noise():
    ex = get_example("ex1")
    inc = StepIncrements([0.01, 0.037])
    res = symplectic_residual_phase(
        lambda z: midpoint_step(ex.model, z, inc), ex.z0, 1e-5)
    assert res <= 1e-5


def test_midpoint_solver_independence():
    ex = get_example("ex1")
    inc = StepIncrements([0.01, 0.02])
    tol = 1e-10
    a = midpoint_step(ex.model, ex.z0, inc, ImplicitSolverConfig(tol=tol))
    b = midpoint_step(ex.model, ex.z0, inc, ImplicitSolverConfig(tol=tol / 2))
    assert max(abs(a.x[0] - b.x[0]), abs(a.y[0] - b.y[0])) <= 10 * tol


def xy_with_silent_noise():
    zero = lambda x, y: np.zeros_like(x)
    return HamiltonianModel(d=1, m=1,
                            h=(lambda x, y: x[0] * y[0], lambda x, y: 0.0),
                            grad_x=(lambda x, y: y.copy(), zero),
                            grad_y=(lambda x, y: x.copy(), zero))


def test_sympeuler_hand_oracle():
    # H0 = XY, H1 = 0, dt = 0.5: X' = X/(1-dt), Y' = Y(1-dt)
    z = symplectic_euler_step(xy_with_silent_noise(), PhaseState([1.0], [1.0]),
                              StepIncrements([0.5, 0.0]))
    assert np.allclose([z.x[0], z.y[0]], [2.0, 0.5], atol=1e-11)
    assert abs(z.x[0] * z.y[0] - 1.0) <= 1e-10


def test_sympeuler_identity_on_zero_increments():
    z = symplectic_euler_step(xy_with_silent_noise(), PhaseState([0.3], [-0.7]),
                              StepIncrements([0.0, 0.0]))
    assert np.allclose([z.x[0], z.y[0]], [0.3, -0.7], atol=1e-13)


def test_sympeuler_rejects_multichannel():
    zero = lambda x, y: np.zeros_like(x)
    model = HamiltonianModel(d=1, m=2,
                             h=(lambda x, y: 0.0,) * 3,
                             grad_x=(zero,) * 3, grad_y=(zero,) * 3)
    with pytest.raises(ValueError):
        symplectic_euler_step(model, PhaseState([0.0], [0.0]),
                              StepIncrements([0.1, 0.0, 0.0]))


def test_sympeuler_fd_hessians_match_analytic():
    ex = get_example("ex1")  # has analytic second derivatives
    stripped = HamiltonianModel(d=1, m=1, h=ex.model.h, grad_x=ex.model.grad_x,
                                grad_y=ex.model.grad_y)
    inc = StepIncrements([0.01, 0.015])
    z0 = PhaseState([0.3], [-2.0])
    a = symplectic_euler_step(ex.model, z0, inc)
    b = symplectic_euler_step(stripped, z0, inc)
    assert max(abs(a.x[0] - b.x[0]), abs(a.y[0] - b.y[0])) <= 1e-8


def test_midpoint_singular_jacobian_is_noconvergence():
    # H0 = xy with dt = 2: the x-row of the midpoint residual is -2 x0 for
    # every x1, so its Jacobian is singular
    model = HamiltonianModel(d=1, m=0, h=(lambda x, y: x[0] * y[0],),
                             grad_x=(lambda x, y: y.copy(),),
                             grad_y=(lambda x, y: x.copy(),))
    with pytest.raises(NoConvergence):
        midpoint_step(model, PhaseState([1.0], [1.0]), StepIncrements([2.0]))


def test_invalid_solver_config():
    with pytest.raises(ValueError):
        ImplicitSolverConfig(tol=0.0)
