"""Structure and layout properties of the schemes.

Hypothesis draws states around each example's start point and the frozen
noise of one step.  The projected step must be symplectic, must keep the
example-3 invariants and the lattice charge to solver tolerance, must not
depend on the simplified-Newton matrix beyond that tolerance, and a batched
column must equal the same path run alone, bit for bit.  The fused
field of the examples must equal the generic channel sum.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stosymp.core import (HamiltonianModel, NoiseGrid, PhaseState, ScaledNoiseModel,
                          build_noise_grid, build_noise_grid_batch, eval_linear,
                          eval_quadratic)
from stosymp.harness import SCHEMES, make_stepper
from stosymp.modelzoo import get_example
from stosymp.nls import RECIPES, build_lattice, nls_initial
from stosymp.project import ProjectionConfig, linearised_matrix, projection_step
from stosymp.splitflow import (lie_recipe, stage_bounds, strang_recipe,
                               symplectic_residual_phase)

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


@st.composite
def field_points(draw):
    """(model, x, y, delta) of an example, one path or a batch of 3, with
    increments of either sign."""
    ex = get_example(draw(st.sampled_from(sorted(SCALE))), c=draw(st.floats(-2.0, 2.0)))
    d, m = ex.model.d, ex.model.m
    batch = draw(st.sampled_from([(), (3,)]))
    paths = int(np.prod(batch))
    n = d * paths
    unit = st.floats(-1.0, 1.0)
    offset = np.array(draw(st.lists(unit, min_size=2 * n, max_size=2 * n)))
    x0 = ex.z0.x.reshape((d,) + (1,) * len(batch))
    y0 = ex.z0.y.reshape((d,) + (1,) * len(batch))
    x = x0 + SCALE[ex.name] * offset[:n].reshape((d,) + batch)
    y = y0 + SCALE[ex.name] * offset[n:].reshape((d,) + batch)
    k = (m + 1) * paths
    delta = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=k, max_size=k)))
    return ex.model, x, y, delta.reshape((m + 1,) + batch)


@PROPERTY
@given(field_points())
def test_fused_field_equals_channel_sum(case):
    model, x, y, delta = case
    assert isinstance(model, ScaledNoiseModel)
    fused = model.field(x, y, delta)
    generic = HamiltonianModel.field(model, x, y, delta)
    weight = np.abs(delta[0]) + sum(abs(cr) * np.abs(delta[r])
                                    for r, cr in enumerate(model.c, 1))
    for f, g, grad in zip(fused, generic, (model.grad_y[0], model.grad_x[0])):
        assert f.shape == g.shape
        assert np.all(np.abs(f - g) <= 1e-14 * np.abs(grad(x, y)) * weight)


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


@st.composite
def linearised_steps(draw):
    """(model, recipe, start state, one-step grid, the run's initial state)
    of an example at gamma 0 or 0.3, or of the 5-node lattice."""
    if draw(st.booleans()):
        model, recipe, z, grid = draw(lattice_steps())
        s0 = nls_initial(model.lattice)
        return model, recipe, z, grid, PhaseState(s0.q, s0.p)
    ex, recipe, z, grid = draw(ode_steps(gamma=draw(st.sampled_from([0.0, 0.3]))))
    return ex.model, recipe, z, grid, ex.z0


@PROPERTY
@given(linearised_steps())
def test_linearised_matrix_keeps_the_fixed_point(case):
    model, recipe, z, grid, z0 = case
    cfg = replace(CFG, newton_matrix=linearised_matrix(model, recipe, z0,
                                                       stage_bounds(recipe, 2), grid.dt_fine))
    out = projection_step(model, recipe, z, grid, 0, cfg, 2)[0]
    ref = projected(model, recipe, grid)(z)   # the identity's 4I
    assert np.max(np.abs(out.x - ref.x)) <= 10 * CFG.tol
    assert np.max(np.abs(out.y - ref.y)) <= 10 * CFG.tol


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
