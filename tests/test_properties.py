"""Structure and layout properties of the schemes.

Hypothesis draws states around each example's start point and the frozen
noise of one step.  The projected step must be symplectic, must keep the
example-3 invariants and the lattice charge to solver tolerance, must not
depend on the simplified-Newton matrix (the chord, 4I or P) beyond that
tolerance, and a batched column must equal the same path run alone, bit for
bit.  The fused field of the examples must equal the generic channel sum, and
the closed-form 2x2 inverse must equal LAPACK's.  A step plan, built one
block of steps at a time, must hand each step the window sums and F3
rotations of that step's own slice, bit for bit.
"""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from stosymp import project
from stosymp.core import (HamiltonianModel, PhaseState, ScaledNoiseModel,
                          build_noise_grid, eval_linear, eval_quadratic, ordered_sum)
from stosymp.harness import SCHEMES, make_stepper
from stosymp.modelzoo import get_example
from stosymp.nls import RECIPES, build_lattice, nls_initial
from stosymp.project import ProjectionConfig, linearised_matrix, projection_step, step_plan
from stosymp.splitflow import (f3_trig, lie_recipe, stage_bounds, strang_recipe,
                               symplectic_residual_phase)

CFG = ProjectionConfig(tol=1e-13, max_iter=100)
SCALE = {"ex1": 0.3, "ex2": 0.15, "ex3": 0.3, "ex4": 0.15}   # state spread per example
PROPERTY = settings(max_examples=15, deadline=None)


def one_step_grid(m: int, dt: float, normals) -> np.ndarray:
    """One scheme step of length dt as two fine steps; ``normals`` holds the
    2m standard normals of the channels' fine increments."""
    inc = np.empty((m + 1, 2))
    inc[0] = dt / 2
    inc[1:] = np.sqrt(dt / 2) * np.reshape(normals, (m, 2))
    return inc


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
    z = PhaseState(s0.x + offset[:5], s0.y + offset[5:])
    recipe = RECIPES[draw(st.sampled_from(sorted(RECIPES)))]
    dt = draw(st.floats(1e-3, 1e-2))
    normals = draw(st.lists(st.floats(-3.0, 3.0), min_size=6, max_size=6))
    return lat.model, recipe, z, one_step_grid(lat.modes, dt, normals)


def projected(model, recipe, grid):
    bounds = stage_bounds(recipe, 2)
    return lambda z: projection_step(model, recipe, z, *step_plan(grid, 2, bounds, recipe)(0),
                                     CFG)[0]


@st.composite
def field_points(draw):
    """(model, x, y, delta) of an example, one path or a batch of 3, with
    increments of either sign."""
    ex = get_example(draw(st.sampled_from(sorted(SCALE))), c=draw(st.floats(-2.0, 2.0)))
    d, m = ex.model.d, ex.model.m
    batch = draw(st.sampled_from([(), (3,)]))
    paths = int(np.prod(batch))
    n = d * paths
    # a subnormal offset puts the bound below the smallest subnormal (a
    # subnormal delta may still be drawn; the test's bound has a floor for it)
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
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
# subnormal increments: the sums differ by one subnormal ulp, while the
# relative bound underflows to 0 or to the smallest subnormal
@example((get_example("ex3", c=0.5).model, np.array([-1.0, 2.225]), np.array([1.0, -1.0]),
          np.full(2, 2.2250738585072014e-309)))
def test_fused_field_equals_channel_sum(case):
    model, x, y, delta = case
    assert isinstance(model, ScaledNoiseModel)
    fused = model.field(x, y, delta)
    generic = HamiltonianModel.field(model, x, y, delta)
    weight = np.abs(delta[0]) + sum(abs(cr) * np.abs(delta[r])
                                    for r, cr in enumerate(model.c, 1))
    # subnormals carry fewer significant bits, so the bound has an absolute floor
    floor = 4 * np.finfo(float).smallest_subnormal
    for f, g, grad in zip(fused, generic, (model.grad_y[0], model.grad_x[0])):
        assert f.shape == g.shape
        assert np.all(np.abs(f - g) <= 1e-14 * np.abs(grad(x, y)) * weight + floor)


@st.composite
def jacobian_stacks(draw):
    """A (k, k[, n_paths]) stack of well-conditioned Jacobians, k 1 or 2, one
    path or a batch of 4: diagonally dominant, at a scale of 1e-3 to 1e3."""
    k = draw(st.sampled_from([1, 2]))
    batch = draw(st.sampled_from([(), (4,)]))
    n = k * k * int(np.prod(batch))
    entries = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    diag = 3.0 * np.eye(k).reshape((k, k) + (1,) * len(batch))
    return draw(st.floats(1e-3, 1e3)) * (entries.reshape((k, k) + batch) + diag)


@PROPERTY
@given(jacobian_stacks())
def test_closed_form_inverse(jac):
    k, batch = len(jac), jac.shape[2:]
    inv_t = project._inverse_t(jac)
    ref = np.linalg.inv(np.moveaxis(jac, (0, 1), (-2, -1)))   # [..., i, j] = J^-1[i, j]
    ref_t = np.moveaxis(ref, (-1, -2), (0, 1))                # [j, i, ...]
    assert inv_t.shape == jac.shape
    assert np.all(np.abs(inv_t - ref_t) <= 1e-13 * np.abs(ref_t).max(axis=(0, 1)))
    if not batch:
        return
    for p in range(batch[0]):
        assert np.array_equal(project._inverse_t(jac[..., p]), inv_t[..., p])
    # a singular first column (zero, or two equal rows) gets NaN, the others keep theirs
    singular = jac.copy()
    singular[-1, :, 0] = 0.0 if k == 1 else singular[0, :, 0]
    out = project._inverse_t(singular)
    assert np.all(np.isnan(out[..., 0]))
    assert np.array_equal(out[..., 1:], inv_t[..., 1:])


@PROPERTY
@given(ode_steps())
def test_projected_step_symplectic(case):
    ex, recipe, z, grid = case
    assert symplectic_residual_phase(projected(ex.model, recipe, grid), z) <= 1e-8


@PROPERTY
@given(lattice_steps())
def test_projected_lattice_step_symplectic(case):
    model, recipe, z, grid = case
    assert symplectic_residual_phase(projected(model, recipe, grid), z) <= 1e-8


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
        return model, recipe, z, grid, nls_initial(model.lattice)
    ex, recipe, z, grid = draw(ode_steps(gamma=draw(st.sampled_from([0.0, 0.3]))))
    return ex.model, recipe, z, grid, ex.z0


@PROPERTY
@given(linearised_steps())
def test_linearised_matrix_keeps_the_fixed_point(case):
    model, recipe, z, grid, z0 = case
    cfg = replace(CFG, newton_matrix=linearised_matrix(model, recipe, z0,
                                                       stage_bounds(recipe, 2), grid[0, 0]))
    out = projection_step(model, recipe, z,
                          *step_plan(grid, 2, stage_bounds(recipe, 2), recipe)(0), cfg)[0]
    ref = projected(model, recipe, grid)(z)   # the chord on ex1-ex4, P on the lattice
    assert np.max(np.abs(out.x - ref.x)) <= 10 * CFG.tol
    assert np.max(np.abs(out.y - ref.y)) <= 10 * CFG.tol


@PROPERTY
@given(st.sampled_from([0.0, 0.3]).flatmap(lambda gamma: ode_steps(gamma=gamma)))
def test_chord_keeps_the_4i_fixed_point(case):
    # 4I, the identity map's Jacobian, stays reachable as a constant matrix
    ex, recipe, z, grid = case
    cfg = replace(CFG, newton_matrix=0.25 * np.eye(2 * ex.model.d))
    ref = projection_step(ex.model, recipe, z,
                          *step_plan(grid, 2, stage_bounds(recipe, 2), recipe)(0), cfg)[0]
    out = projected(ex.model, recipe, grid)(z)
    assert np.max(np.abs(out.x - ref.x)) <= 10 * CFG.tol
    assert np.max(np.abs(out.y - ref.y)) <= 10 * CFG.tol


@pytest.mark.parametrize("substeps", [2, 64])
@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4"])
def test_batch_columns_equal_single_paths(name, substeps):
    ex = get_example(name)
    m, paths, n_steps, dt = ex.model.m, 4, 4, 0.01
    t_end = n_steps * dt
    batch_grid = build_noise_grid(3, range(paths), m, t_end, n_steps * substeps)
    for scheme in SCHEMES:
        step = make_stepper(scheme, ex, batch_grid, substeps, 0.2)
        zb = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                        np.repeat(ex.z0.y[:, None], paths, axis=1))
        for n in range(n_steps):
            zb, _ = step(zb, n)
        for p in range(paths):
            grid = build_noise_grid(3, p, m, t_end, n_steps * substeps)
            step = make_stepper(scheme, ex, grid, substeps, 0.2)
            z = ex.z0
            for n in range(n_steps):
                z, _ = step(z, n)
            assert np.array_equal(zb.x[:, p], z.x) and np.array_equal(zb.y[:, p], z.y), \
                (scheme, p)


def test_batch_columns_equal_single_paths_through_continuation(monkeypatch):
    # ex2 at gamma 0.5 with two chord (and two Newton) iterations sends a path
    # of the ses-sp-1 batch to the homotopy at step 13, on its own theta
    # schedule while the other columns stay put
    ex = get_example("ex2", c=0.5)
    m, paths, n_steps, dt = ex.model.m, 16, 16, 2.0 ** -5
    cfg = ProjectionConfig(max_iter=2)
    calls = []
    continuation = project._continuation
    monkeypatch.setattr(project, "_continuation",
                        lambda *args: calls.append(1) or continuation(*args))
    batch_grid = build_noise_grid(0, range(paths), m, n_steps * dt, 2 * n_steps)
    for scheme in ("ses-sp-1", "ses-sp-2"):
        step = make_stepper(scheme, ex, batch_grid, 2, 0.5, cfg)
        zb = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                        np.repeat(ex.z0.y[:, None], paths, axis=1))
        for n in range(n_steps):
            zb, _ = step(zb, n)
        for p in range(paths):
            grid = build_noise_grid(0, p, m, n_steps * dt, 2 * n_steps)
            step = make_stepper(scheme, ex, grid, 2, 0.5, cfg)
            z = ex.z0
            for n in range(n_steps):
                z, _ = step(z, n)
            assert np.array_equal(zb.x[:, p], z.x) and np.array_equal(zb.y[:, p], z.y), \
                (scheme, p)
    assert calls


@st.composite
def plan_cases(draw):
    """(recipe, substeps, channels m, paths or None, steps, block in steps,
    grid seed) of a step plan."""
    make = draw(st.sampled_from([lie_recipe, strang_recipe]))
    half = make is strang_recipe   # Strang's half windows need an even count
    substeps = draw(st.integers(1, 150 if half else 300)) * (2 if half else 1)
    m = draw(st.integers(1, 2))
    recipe = make(np.full(m + 1, draw(st.sampled_from([0.0, 0.3]))))
    n_steps = draw(st.integers(1, 6))
    return (recipe, substeps, m, draw(st.sampled_from([None, 3])), n_steps,
            draw(st.integers(1, n_steps + 1)), draw(st.integers(0, 99)))


@settings(max_examples=60, deadline=None)
@given(plan_cases())
@example((strang_recipe([0.3, 0.3]), 18, 1, None, 5, 2, 1))   # one path, 0-d angles
@example((lie_recipe([0.0, 0.0]), 300, 1, 3, 3, 1, 2))
def test_step_plan_equals_per_step_sums(case):
    # every planned window and F3 (cos, sin) equals ordered_sum / f3_trig on
    # the step's own slice: windows above 8 fine steps, where ordered_sum
    # switches to np.add.accumulate, Lie and Strang, restrained and gamma 0,
    # blocks of 1 step up to the whole run, and one path, whose angle per
    # step is 0-d (scalar cos and sin), or a batch
    recipe, substeps, m, paths, n_steps, block, seed = case
    bounds = stage_bounds(recipe, substeps)
    grid = build_noise_grid(seed, 0 if paths is None else range(paths), m,
                            n_steps * 0.01, n_steps * substeps)
    per_step = len(bounds) * (m + 1) * (paths or 1)
    with mock.patch.object(project, "PLAN_BLOCK", block * per_step):
        plan = step_plan(grid, substeps, bounds, recipe)
        planned = [plan(n) for n in range(n_steps)]
    for n, (incs, trig) in enumerate(planned):
        fine = grid[:, n * substeps:(n + 1) * substeps]
        ref = [ordered_sum(fine[:, lo:hi].swapaxes(0, 1)) for lo, hi in bounds]
        assert len(incs) == len(ref)
        assert all(np.array_equal(a, b) for a, b in zip(incs, ref)), n
        ref_trig = f3_trig(recipe, ref)
        assert trig.keys() == ref_trig.keys() and bool(trig) == recipe.restrained
        for i, (c, sn) in ref_trig.items():
            assert np.shape(c) == np.shape(trig[i][0]) == np.shape(grid[0, 0])
            assert np.array_equal(trig[i][0], c) and np.array_equal(trig[i][1], sn), (n, i)
