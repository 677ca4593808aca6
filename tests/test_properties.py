"""Structure and layout properties of the schemes.

Hypothesis draws states around each example's start point and the frozen
noise of one step.  The projected step must be symplectic, must keep the
example-3 invariants and the lattice charge to solver tolerance, and a
batched column must equal the same path run alone, bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stosymp.core import (NoiseGrid, PhaseState, build_noise_grid, build_noise_grid_batch,
                          eval_linear, eval_quadratic)
from stosymp.harness import SCHEMES, make_stepper
from stosymp.modelzoo import get_example
from stosymp.nls import RECIPES, build_lattice, nls_initial
from stosymp.project import ProjectionConfig, projection_step
from stosymp.splitflow import lie_recipe, strang_recipe, symplectic_residual_phase

CFG = ProjectionConfig(tol=1e-13, max_iter=100)
SCALE = {"ex1": 0.3, "ex2": 0.15, "ex3": 0.3, "ex4": 0.15}   # state spread per example
PROPERTY = settings(max_examples=15, deadline=None)


def one_step_grid(m: int, dt: float, normals) -> NoiseGrid:
    """One scheme step of length dt as two fine steps; ``normals`` holds the
    2m standard normals of the channels' fine increments."""
    inc = np.empty((m + 1, 2))
    inc[0] = dt / 2
    inc[1:] = np.sqrt(dt / 2) * np.reshape(normals, (m, 2))
    return NoiseGrid(m, 0.0, dt / 2, 2, inc, 0, 0)


@st.composite
def ode_steps(draw, names=tuple(SCALE), gamma=None):
    """(example, recipe, start state, one-step grid) for a projected ODE step."""
    ex = get_example(draw(st.sampled_from(names)))
    d, m = ex.model.d, ex.model.m
    unit = st.floats(-1.0, 1.0)
    offset = np.array(draw(st.lists(unit, min_size=2 * d, max_size=2 * d)))
    z = PhaseState(ex.z0.x + SCALE[ex.name] * offset[:d], ex.z0.y + SCALE[ex.name] * offset[d:])
    g = draw(st.floats(0.0, 0.5)) if gamma is None else gamma
    recipe = draw(st.sampled_from([lie_recipe, strang_recipe]))(np.full(m + 1, g))
    dt = draw(st.floats(1e-3, 1e-2))
    normals = draw(st.lists(st.floats(-3.0, 3.0), min_size=2 * m, max_size=2 * m))
    return ex, recipe, z, one_step_grid(m, dt, normals)


@st.composite
def lattice_steps(draw):
    """(lattice model, recipe, start state, one-step grid) on a 5-node lattice."""
    lat = build_lattice(-5.0, 5.0, 5, modes=3)
    s0 = nls_initial(lat)
    offset = np.array(draw(st.lists(st.floats(-0.3, 0.3), min_size=10, max_size=10)))
    z = PhaseState(s0.q + offset[:5], s0.p + offset[5:])
    recipe = RECIPES[draw(st.sampled_from(sorted(RECIPES)))]
    dt = draw(st.floats(1e-3, 1e-2))
    normals = draw(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
    return lat.model, recipe, z, one_step_grid(lat.modes, dt, normals)


def projected(model, recipe, grid):
    return lambda z: projection_step(model, recipe, z, grid, 0, CFG, 2)[0]


@PROPERTY
@given(ode_steps())
def test_projected_step_symplectic(case):
    ex, recipe, z, grid = case
    assert symplectic_residual_phase(projected(ex.model, recipe, grid), z, 1e-5) <= 1e-8


@PROPERTY
@given(lattice_steps())
def test_projected_lattice_step_symplectic(case):
    model, recipe, z, grid = case
    assert symplectic_residual_phase(projected(model, recipe, grid), z, 1e-5) <= 1e-8


@PROPERTY
@given(ode_steps(names=("ex3",), gamma=0.0))
def test_example3_quadratic_invariant_at_zero_gamma(case):
    ex, recipe, z, grid = case
    q0 = eval_quadratic(ex.quadratic, z)
    q1 = eval_quadratic(ex.quadratic, projected(ex.model, recipe, grid)(z))
    assert abs(q1 - q0) <= 1e-12 * max(1.0, abs(q0))


@PROPERTY
@given(ode_steps(names=("ex3",)))
def test_example3_linear_invariant(case):
    ex, recipe, z, grid = case
    l0 = eval_linear(ex.linear, z)
    l1 = eval_linear(ex.linear, projected(ex.model, recipe, grid)(z))
    assert abs(l1 - l0) <= 1e-12 * max(1.0, abs(l0))


@PROPERTY
@given(lattice_steps())
def test_lattice_charge(case):
    model, recipe, z, grid = case
    out = projected(model, recipe, grid)(z)
    c0 = np.sum(z.x * z.x + z.y * z.y)
    assert abs(np.sum(out.x * out.x + out.y * out.y) - c0) <= 1e-12 * c0


@pytest.mark.parametrize("substeps", [2, 64])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
def test_batch_columns_equal_single_paths(name, substeps):
    ex = get_example(name)
    m, paths, n_steps, dt = ex.model.m, 4, 4, 0.01
    t_end = n_steps * dt
    batch_grid = build_noise_grid_batch(3, range(paths), m, 0.0, t_end, n_steps * substeps)
    for scheme in SCHEMES:
        step = make_stepper(scheme, ex, batch_grid, substeps, 0.2)
        zb = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                        np.repeat(ex.z0.y[:, None], paths, axis=1))
        for n in range(n_steps):
            zb, _ = step(zb, n)
        for p in range(paths):
            grid = build_noise_grid(3, p, m, 0.0, t_end, n_steps * substeps)
            step = make_stepper(scheme, ex, grid, substeps, 0.2)
            z = ex.z0
            for n in range(n_steps):
                z, _ = step(z, n)
            assert np.array_equal(zb.x[:, p], z.x) and np.array_equal(zb.y[:, p], z.y), \
                (scheme, p)
