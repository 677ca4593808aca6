import numpy as np
import pytest

from stosymp.core import HamiltonianModel, PhaseState, build_noise_grid
from stosymp import splitflow
from stosymp.project import _stage_map, step_plan
from stosymp.splitflow import (CompositionRecipe, FlowId, apply_stages, f3_trig, flow_f1,
                               flow_f2, flow_f3, lie_recipe, stage_bounds,
                               stage_increments, strang_recipe, symplectic_residual_phase)
from stosymp.modelzoo import get_example


def xy_model():
    return HamiltonianModel(d=1, m=0,
                            h=(lambda x, y: x[0] * y[0],),
                            grad_x=(lambda x, y: y.copy(),),
                            grad_y=(lambda x, y: x.copy(),))


def osc_model():
    return HamiltonianModel(d=1, m=0,
                            h=(lambda x, y: 0.5 * (x[0] ** 2 + y[0] ** 2),),
                            grad_x=(lambda x, y: x.copy(),),
                            grad_y=(lambda x, y: y.copy(),))


def S(x, u, y, v):
    return np.array([[x], [u], [y], [v]], dtype=float)


def assert_state(s, x, u, y, v, tol=1e-14):
    got = s[:, 0]
    assert np.allclose(got, [x, u, y, v], rtol=0, atol=tol), got


def stepped(recipe, model, s, grid, step, substeps):
    """The recipe's map over scheme step ``step``, as a projection solve
    iterates it."""
    incs = step_plan(grid, substeps, stage_bounds(recipe, substeps))(step)[0]
    return _stage_map(recipe, model, incs)(s)


def extended_residual(map_fn, s):
    """``symplectic_residual_phase`` of a map on the doubled state (x, u, y, v)
    at the single-path ``s``, viewed as a phase map on ((x, u), (y, v)): the
    form is dx^dy + du^dv."""
    def phase_map(z):
        out = map_fn(np.concatenate([z.x, z.y]).reshape(s.shape + z.x.shape[1:]))
        return PhaseState(out[0:2].reshape(z.x.shape), out[2:4].reshape(z.y.shape))

    return symplectic_residual_phase(phase_map, PhaseState(s[0:2].reshape(-1),
                                                           s[2:4].reshape(-1)))


def f3_recipe(gammas):
    """The one-stage recipe F3 alone, with restraint constants ``gammas``."""
    return CompositionRecipe(((FlowId.F3, 1),), gammas)


def rotated(gammas, s, delta):
    """F3 over the increments ``delta``, its angle from ``f3_trig``."""
    return flow_f3(s, f3_trig(f3_recipe(gammas), [delta])[0])


def test_flow_f1_hand_oracle():
    out = flow_f1(xy_model(), S(1, 0, 0, 2), np.array([0.5]))
    assert_state(out, 1, 0.5, -1, 2)


def test_flow_f1_zero_increment_identity():
    s = S(1.3, -0.4, 0.2, 2.0)
    out = flow_f1(xy_model(), s, np.array([0.0]))
    assert_state(out, 1.3, -0.4, 0.2, 2.0)


def test_flow_f1_semigroup_in_increments():
    m = xy_model()
    s = S(0.7, -1.1, 0.4, 0.9)
    once = flow_f1(m, flow_f1(m, s, np.array([0.3])), np.array([0.2]))
    direct = flow_f1(m, s, np.array([0.5]))
    assert_state(once, *direct[:, 0])


def test_flow_f2_hand_oracle():
    out = flow_f2(xy_model(), S(1, 2, 3, 0), np.array([0.5]))
    assert_state(out, 2, 2, 3, -1.5)


def test_flow_f2_semigroup():
    m = xy_model()
    s = S(0.7, -1.1, 0.4, 0.9)
    once = flow_f2(m, flow_f2(m, s, np.array([0.3])), np.array([0.2]))
    direct = flow_f2(m, s, np.array([0.5]))
    assert_state(once, *direct[:, 0])


def test_flow_f3_zero_gamma_identity():
    # gamma = 0 gives no rotation to find, and the rotation by angle 0 is the identity
    assert f3_trig(f3_recipe([0.0]), [np.array([0.7])]) == {}
    out = flow_f3(S(1, 2, 3, 4), (1.0, 0.0))
    assert_state(out, 1, 2, 3, 4)


def test_flow_f3_quarter_rotation_oracle():
    out = rotated([np.pi / 8], S(1, 0, 0, 0), np.array([1.0]))
    assert_state(out, 0.5, 0.5, -0.5, 0.5)


def test_flow_f3_full_rotation_identity():
    out = rotated([np.pi / 2], S(0.3, -0.8, 1.1, 0.2), np.array([1.0]))
    assert_state(out, 0.3, -0.8, 1.1, 0.2, tol=1e-15)


def test_flow_f3_preserves_sums_and_difference_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = rng.standard_normal((4, 3))
        out = rotated([0.37, -0.8], s, np.array([0.5, 1.2]))
        assert np.allclose(out[0] + out[1], s[0] + s[1], rtol=0, atol=1e-14)
        assert np.allclose(out[2] + out[3], s[2] + s[3], rtol=0, atol=1e-14)
        n0 = np.sum((s[0] - s[1]) ** 2 + (s[2] - s[3]) ** 2)
        n1 = np.sum((out[0] - out[1]) ** 2 + (out[2] - out[3]) ** 2)
        assert abs(n1 - n0) <= 1e-13 * n0


def test_recipe_validation():
    with pytest.raises(ValueError):
        CompositionRecipe((), [0.0])
    with pytest.raises(ValueError):
        CompositionRecipe(((FlowId.F1, 0.5),), [0.0])


def test_lie_reduces_to_f2_after_f1_at_zero_gamma():
    m = xy_model()
    g = build_noise_grid(0, 0, 0, 0.5, 1)
    s = S(0.4, 0.1, -0.7, 1.2)
    lie = stepped(lie_recipe([0.0]), m, s, g, 0, 1)
    inc = g[:, 0]
    byhand = flow_f2(m, flow_f1(m, s, inc), inc)
    assert_state(lie, *byhand[:, 0])


def test_lie_hand_computed_two_stage():
    # harmonic oscillator, dt = 0.1, lifted from (1, 0):
    # F1: u=1, y=-0.1; F2 at (u,y)=(1,-0.1): x=1-0.01, v=-0.1
    m = osc_model()
    g = build_noise_grid(0, 0, 0, 0.1, 1)
    out = stepped(lie_recipe([0.0]), m, S(1, 1, 0, 0), g, 0, 1)
    assert_state(out, 0.99, 1.0, -0.1, -0.1)


def test_strang_is_palindrome():
    m = osc_model()
    g = build_noise_grid(0, 0, 0, 0.2, 2)
    rec = strang_recipe([0.0])
    rev = CompositionRecipe(tuple(reversed(rec.stages)), [0.0])
    s = S(0.9, 0.9, -0.4, -0.4)
    a = stepped(rec, m, s, g, 0, 2)
    b = stepped(rev, m, s, g, 0, 2)
    assert np.allclose(a, b, rtol=0, atol=1e-14)


def test_symplectic_residual_identity_zero():
    res = extended_residual(lambda s: s, S(0.0, 0.0, 0.0, 0.0))
    assert res == 0.0


def test_symplectic_residual_rotation_exact():
    def rot(s):
        return rotated([np.pi / 3], s, np.array([1.0]))

    res = extended_residual(rot, S(0.3, 0.1, -0.2, 0.5))
    assert res <= 1e-9


def test_symplectic_residual_doubling_map():
    def double(s):
        return 2 * s

    res = extended_residual(double, S(0.3, 0.1, -0.2, 0.5))
    assert np.isclose(res, 3.0, atol=1e-8)


def test_symplectic_residual_rejects_non_finite_jacobian():
    z = PhaseState([0.3], [-0.2])
    with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError, match="non-finite"):
        symplectic_residual_phase(lambda zz: PhaseState(zz.x * np.inf, zz.y), z)


@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_composed_map_is_symplectic(name):
    ex = get_example(name)
    rng = np.random.default_rng(1)
    g = build_noise_grid(2, 0, ex.model.m, 0.01, 2)
    for recipe in (lie_recipe(np.full(ex.model.m + 1, 0.4)),
                   strang_recipe(np.full(ex.model.m + 1, 0.4))):
        for _ in range(50):
            base = np.concatenate([ex.z0.x, ex.z0.x, ex.z0.y, ex.z0.y])
            v = base + 0.3 * rng.standard_normal(base.size)
            d = ex.model.d
            s = v.reshape(4, d)
            res = extended_residual(lambda st: stepped(recipe, ex.model, st, g, 0, 2), s)
            assert res <= 1e-6


def test_defect_growth_first_order():
    # splitting desynchronizes the copies at O(dt) from the diagonal
    ex = get_example("ex1")
    defects = []
    dts = [1e-2, 1e-3, 1e-4]
    for dt in dts:
        sq = []
        for path in range(32):   # RMS over paths smooths increment cancellations
            g = build_noise_grid(3, path, ex.model.m, dt, 2)
            s = np.stack((ex.z0.x, ex.z0.x, ex.z0.y, ex.z0.y))
            out = stepped(lie_recipe([0.0, 0.0]), ex.model, s, g, 0, 2)
            sq.append(np.sum((out[0] - out[1]) ** 2 + (out[2] - out[3]) ** 2))
        defects.append(np.sqrt(np.mean(sq)))
    slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
    assert slope >= 0.9


def test_linear_invariant_preserved_by_recipes():
    ex = get_example("ex3")
    a_x, a_y = ex.linear.a_x, ex.linear.a_y
    g = build_noise_grid(4, 0, 1, 0.02, 2)
    rng = np.random.default_rng(5)
    for recipe in (lie_recipe([0.3, 0.1]), strang_recipe([0.3, 0.1])):
        for _ in range(20):
            s = 0.5 * rng.standard_normal((4, 2))
            out = stepped(recipe, ex.model, s, g, 0, 2)
            before = a_x @ (s[0] + s[1]) + a_y @ (s[2] + s[3])
            after = a_x @ (out[0] + out[1]) + a_y @ (out[2] + out[3])
            assert abs(after - before) <= 1e-12 * max(1.0, abs(before))


@pytest.mark.parametrize("make", [lie_recipe, strang_recipe])
def test_unrestrained_recipe_skips_f3(make, monkeypatch):
    ex = get_example("ex3")
    model = ex.model
    recipe = make([0.0, 0.0])
    assert not recipe.restrained and make([0.0, 0.1]).restrained
    g = build_noise_grid(5, 0, 1, 0.02, 2)
    (incs,), _ = stage_increments(None, g, 2, stage_bounds(recipe, 2))
    s = np.stack((ex.z0.x, ex.z0.x + [0.3, -0.1], ex.z0.y, ex.z0.y + [-0.2, 0.4]))
    explicit = s
    for (flow, _), inc in zip(recipe.stages, incs):
        if flow is FlowId.F1:
            explicit = flow_f1(model, explicit, inc)
        elif flow is FlowId.F2:
            explicit = flow_f2(model, explicit, inc)
        else:   # rotation by angle 0, which f3_trig leaves out at gamma = 0
            explicit = flow_f3(explicit, (1.0, 0.0))

    def not_called(*args):
        raise AssertionError("F3 evaluated at gamma = 0")

    monkeypatch.setattr(splitflow, "flow_f3", not_called)
    skipped = apply_stages(recipe, model, s, incs, f3_trig(recipe, incs))
    for name, a, b in zip("xuyv", skipped, explicit):
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b)), name


def test_stage_bounds_tile_each_family():
    # F1 and F2 take half windows in turn, F3 the whole step
    assert stage_bounds(strang_recipe([0.0]), 4) == ((0, 2), (0, 2), (0, 4), (2, 4), (2, 4))
    assert stage_bounds(lie_recipe([0.0]), 3) == ((0, 3),) * 3
    with pytest.raises(ValueError, match="not representable"):
        stage_bounds(strang_recipe([0.0]), 3)
