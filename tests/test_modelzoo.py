import dataclasses

import numpy as np
import pytest

from stosymp.core import PhaseState, ScaledNoiseModel, verify_gradients
from stosymp.modelzoo import get_example


def test_example1_oracles():
    ex = get_example("ex1")
    x, y = np.array([0.0]), np.array([-3.0])
    assert np.isclose(ex.model.h[0](x, y), 5.0)
    assert np.isclose(ex.model.grad_x[0](x, y)[0], 0.0)


def test_example1_noise_proportionality():
    ex = get_example("ex1", c=0.15)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.standard_normal(1)
        y = rng.standard_normal(1)
        assert ex.model.h[1](x, y) == 0.15 * ex.model.h[0](x, y)
        assert np.array_equal(ex.model.grad_x[1](x, y), 0.15 * ex.model.grad_x[0](x, y))


@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
def test_replaced_gradients_reach_the_field(name):
    # a tracer swaps the gradient tuples this way and counts what field calls
    model = get_example(name).model
    calls = []

    def counted(fn):
        def grad(x, y):
            calls.append(fn)
            return fn(x, y)
        return grad

    swapped = dataclasses.replace(model, grad_x=tuple(map(counted, model.grad_x)),
                                  grad_y=tuple(map(counted, model.grad_y)))
    assert isinstance(swapped, ScaledNoiseModel) and swapped.c == model.c
    x, y = np.full(model.d, 0.3), np.full(model.d, -0.2)
    delta = np.array([0.01, -0.05])
    for got, want in zip(swapped.field(x, y, delta), model.field(x, y, delta)):
        assert np.array_equal(got, want)
    assert calls == [model.grad_y[0], model.grad_x[0]]


def test_scaled_model_checks_channel_count():
    model = get_example("ex1").model
    with pytest.raises(ValueError, match="c must have"):
        dataclasses.replace(model, c=(0.1, 0.2))


def test_example2_casimir_constant_value():
    ex = get_example("ex2")
    assert np.isclose(ex.params["casimir"], np.log(0.95), atol=1e-12)


def test_example2_forward_hits_initial_populations():
    ex = get_example("ex2")
    assert np.allclose(ex.forward(ex.z0), [1.0, 1.9, 0.5], atol=1e-12)


def test_example2_casimir_is_identically_constant():
    ex = get_example("ex2")
    rng = np.random.default_rng(1)
    for _ in range(100):
        z = PhaseState(ex.z0.x + 0.5 * rng.standard_normal(1),
                       ex.z0.y + 0.5 * rng.standard_normal(1))
        assert abs(ex.invariants["casimir"](z) - ex.params["casimir"]) <= 1e-12


def test_example2_round_trip():
    ex = get_example("ex2")
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = PhaseState(ex.z0.x + 0.3 * rng.standard_normal(1),
                       ex.z0.y + 0.3 * rng.standard_normal(1))
        back = ex.inverse(ex.forward(z))
        assert np.allclose(back.x, z.x, atol=1e-12)
        assert np.allclose(back.y, z.y, atol=1e-12)


def test_example3_oracles():
    ex = get_example("ex3")
    zero = np.zeros(2)
    assert np.isclose(ex.model.h[0](zero, zero), 1.0)
    # linear functional at the initial state
    from stosymp.core import eval_linear
    assert np.isclose(eval_linear(ex.linear, ex.z0), -0.5)


def test_example3_linear_invariant_condition():
    # a'J grad H(X,V) + a'J grad H(U,Y) = 0 for both channels
    ex = get_example("ex3")
    a_x, a_y = ex.linear.a_x, ex.linear.a_y
    rng = np.random.default_rng(3)
    for _ in range(100):
        x, u, y, v = rng.standard_normal((4, 2))
        for r in range(2):
            t1 = a_x @ ex.model.grad_y[r](x, v) - a_y @ ex.model.grad_x[r](x, v)
            t2 = a_x @ ex.model.grad_y[r](u, y) - a_y @ ex.model.grad_x[r](u, y)
            assert abs(t1 + t2) <= 1e-12


def test_example4_oracles():
    ex = get_example("ex4")
    assert np.isclose(ex.params["c1"], 0.5)
    assert np.allclose([ex.z0.x[0], ex.z0.y[0]], [1.0 / np.sqrt(2.0), 0.0])


def test_example4_casimir_telescopes():
    ex = get_example("ex4")
    rng = np.random.default_rng(4)
    for _ in range(100):
        x = np.array([rng.uniform(-0.9, 0.9)])  # keep x^2 < 2*C1 = 1
        y = rng.standard_normal(1)
        z = PhaseState(x, y)
        assert abs(ex.invariants["casimir"](z) - 0.5) <= 1e-12
        # the rigid body's kinetic energy, in body coordinates, is its H_0
        h0 = ex.invariants["hamiltonian"](z)
        assert abs(ex.invariants["kinetic"](z) - h0) <= 1e-14 * abs(h0)


def test_example4_round_trip_and_singularity():
    ex = get_example("ex4")
    rng = np.random.default_rng(5)
    for _ in range(20):
        z = PhaseState(np.array([rng.uniform(-0.9, 0.9)]),
                       np.array([rng.uniform(-1.5, 1.5)]))
        back = ex.inverse(ex.forward(z))
        assert np.allclose(back.x, z.x, atol=1e-12)
        assert np.allclose(back.y, z.y, atol=1e-12)
    with pytest.raises(ValueError):
        ex.forward(PhaseState([1.5], [0.0]))


@pytest.mark.parametrize("name,radius", [("ex1", 1.0), ("ex2", 0.3),
                                         ("ex3", 1.0), ("ex4", 0.3)])
def test_gradient_verification_all_examples(name, radius):
    ex = get_example(name)
    rep = verify_gradients(ex.model, seed=0, center=ex.z0, radius=radius)
    assert rep.passed, f"{name}: worst {rep.worst}"


def test_registry_rejects_unknown():
    with pytest.raises(KeyError):
        get_example("ex9")
