import numpy as np
import pytest

from stosymp.core import (ExtendedState, HamiltonianModel, StepIncrements,
                          build_noise_grid)
from stosymp import splitflow
from stosymp.splitflow import (CompositionRecipe, FlowId, apply_stages, compose, flow_f1,
                               flow_f2, flow_f3, lie_recipe, stage_bounds,
                               stage_increments, strang_recipe,
                               symplectic_residual_extended)
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
    return ExtendedState([x], [u], [y], [v])


def assert_state(s, x, u, y, v, tol=1e-14):
    got = np.array([s.x[0], s.u[0], s.y[0], s.v[0]])
    assert np.allclose(got, [x, u, y, v], rtol=0, atol=tol), got


def test_flow_f1_hand_oracle():
    out = flow_f1(xy_model(), S(1, 0, 0, 2), StepIncrements([0.5]))
    assert_state(out, 1, 0.5, -1, 2)


def test_flow_f1_zero_increment_identity():
    s = S(1.3, -0.4, 0.2, 2.0)
    out = flow_f1(xy_model(), s, StepIncrements([0.0]))
    assert_state(out, 1.3, -0.4, 0.2, 2.0)


def test_flow_f1_semigroup_in_increments():
    m = xy_model()
    s = S(0.7, -1.1, 0.4, 0.9)
    once = flow_f1(m, flow_f1(m, s, StepIncrements([0.3])), StepIncrements([0.2]))
    direct = flow_f1(m, s, StepIncrements([0.5]))
    assert_state(once, direct.x[0], direct.u[0], direct.y[0], direct.v[0])


def test_flow_f2_hand_oracle():
    out = flow_f2(xy_model(), S(1, 2, 3, 0), StepIncrements([0.5]))
    assert_state(out, 2, 2, 3, -1.5)


def test_flow_f2_semigroup():
    m = xy_model()
    s = S(0.7, -1.1, 0.4, 0.9)
    once = flow_f2(m, flow_f2(m, s, StepIncrements([0.3])), StepIncrements([0.2]))
    direct = flow_f2(m, s, StepIncrements([0.5]))
    assert_state(once, direct.x[0], direct.u[0], direct.y[0], direct.v[0])


def test_flow_f3_zero_gamma_identity():
    out = flow_f3([0.0], S(1, 2, 3, 4), StepIncrements([0.7]))
    assert_state(out, 1, 2, 3, 4)


def test_flow_f3_quarter_rotation_oracle():
    out = flow_f3([np.pi / 8], S(1, 0, 0, 0), StepIncrements([1.0]))
    assert_state(out, 0.5, 0.5, -0.5, 0.5)


def test_flow_f3_full_rotation_identity():
    out = flow_f3([np.pi / 2], S(0.3, -0.8, 1.1, 0.2), StepIncrements([1.0]))
    assert_state(out, 0.3, -0.8, 1.1, 0.2, tol=1e-15)


def test_flow_f3_preserves_sums_and_difference_norm():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = ExtendedState(*rng.standard_normal((4, 3)))
        out = flow_f3([0.37, -0.8], s, StepIncrements([0.5, 1.2]))
        assert np.allclose(out.x + out.u, s.x + s.u, rtol=0, atol=1e-14)
        assert np.allclose(out.y + out.v, s.y + s.v, rtol=0, atol=1e-14)
        n0 = np.sum((s.x - s.u) ** 2 + (s.y - s.v) ** 2)
        n1 = np.sum((out.x - out.u) ** 2 + (out.y - out.v) ** 2)
        assert abs(n1 - n0) <= 1e-13 * n0


def test_recipe_validation():
    with pytest.raises(ValueError):
        CompositionRecipe((), [0.0])
    with pytest.raises(ValueError):
        CompositionRecipe(((FlowId.F1, 0.5),), [0.0])


def test_lie_reduces_to_f2_after_f1_at_zero_gamma():
    m = xy_model()
    g = build_noise_grid(0, 0, 0, 0.0, 0.5, 1)
    s = S(0.4, 0.1, -0.7, 1.2)
    lie = compose(lie_recipe([0.0]), m, s, g, 0)
    inc = StepIncrements(g.inc[:, 0])
    byhand = flow_f2(m, flow_f1(m, s, inc), inc)
    assert_state(lie, byhand.x[0], byhand.u[0], byhand.y[0], byhand.v[0])


def test_lie_hand_computed_two_stage():
    # harmonic oscillator, dt = 0.1, lifted from (1, 0):
    # F1: u=1, y=-0.1; F2 at (u,y)=(1,-0.1): x=1-0.01, v=-0.1
    m = osc_model()
    g = build_noise_grid(0, 0, 0, 0.0, 0.1, 1)
    out = compose(lie_recipe([0.0]), m, S(1, 1, 0, 0), g, 0)
    assert_state(out, 0.99, 1.0, -0.1, -0.1)


def test_strang_is_palindrome():
    m = osc_model()
    g = build_noise_grid(0, 0, 0, 0.0, 0.2, 2)
    rec = strang_recipe([0.0])
    rev = CompositionRecipe(tuple(reversed(rec.stages)), [0.0])
    s = S(0.9, 0.9, -0.4, -0.4)
    a = compose(rec, m, s, g, 0, substeps=2)
    b = compose(rev, m, s, g, 0, substeps=2)
    for blk in ("x", "u", "y", "v"):
        assert np.allclose(getattr(a, blk), getattr(b, blk), rtol=0, atol=1e-14)


def test_symplectic_residual_identity_zero():
    res = symplectic_residual_extended(lambda s: s, S(0.0, 0.0, 0.0, 0.0), 1e-5)
    assert res == 0.0


def test_symplectic_residual_rotation_exact():
    def rot(s):
        return flow_f3([np.pi / 3], s, StepIncrements([1.0]))

    res = symplectic_residual_extended(rot, S(0.3, 0.1, -0.2, 0.5), 1e-5)
    assert res <= 1e-9


def test_symplectic_residual_doubling_map():
    def double(s):
        return ExtendedState(2 * s.x, 2 * s.u, 2 * s.y, 2 * s.v)

    res = symplectic_residual_extended(double, S(0.3, 0.1, -0.2, 0.5), 1e-5)
    assert np.isclose(res, 3.0, atol=1e-8)


@pytest.mark.parametrize("name", ["ex1", "ex3"])
def test_composed_map_is_symplectic(name):
    ex = get_example(name)
    rng = np.random.default_rng(1)
    g = build_noise_grid(2, 0, ex.model.m, 0.0, 0.01, 2)
    for recipe in (lie_recipe(np.full(ex.model.m + 1, 0.4)),
                   strang_recipe(np.full(ex.model.m + 1, 0.4))):
        for _ in range(50):
            base = np.concatenate([ex.z0.x, ex.z0.x, ex.z0.y, ex.z0.y])
            v = base + 0.3 * rng.standard_normal(base.size)
            d = ex.model.d
            s = ExtendedState(v[:d], v[d:2 * d], v[2 * d:3 * d], v[3 * d:])
            res = symplectic_residual_extended(
                lambda st: compose(recipe, ex.model, st, g, 0, substeps=2), s, 1e-5)
            assert res <= 1e-6


def test_defect_growth_first_order():
    # splitting desynchronizes the copies at O(dt) from the diagonal
    ex = get_example("ex1")
    defects = []
    dts = [1e-2, 1e-3, 1e-4]
    for dt in dts:
        sq = []
        for path in range(32):   # RMS over paths smooths increment cancellations
            g = build_noise_grid(3, path, ex.model.m, 0.0, dt, 2)
            s = ExtendedState(ex.z0.x, ex.z0.x.copy(), ex.z0.y, ex.z0.y.copy())
            out = compose(lie_recipe([0.0, 0.0]), ex.model, s, g, 0, substeps=2)
            sq.append(np.sum((out.x - out.u) ** 2 + (out.y - out.v) ** 2))
        defects.append(np.sqrt(np.mean(sq)))
    slope = np.polyfit(np.log(dts), np.log(defects), 1)[0]
    assert slope >= 0.9


def test_linear_invariant_preserved_by_recipes():
    ex = get_example("ex3")
    a_x, a_y = ex.linear.a_x, ex.linear.a_y
    g = build_noise_grid(4, 0, 1, 0.0, 0.02, 2)
    rng = np.random.default_rng(5)
    for recipe in (lie_recipe([0.3, 0.1]), strang_recipe([0.3, 0.1])):
        for _ in range(20):
            s = ExtendedState(*(0.5 * rng.standard_normal((4, 2))))
            out = compose(recipe, ex.model, s, g, 0, substeps=2)
            before = a_x @ (s.x + s.u) + a_y @ (s.y + s.v)
            after = a_x @ (out.x + out.u) + a_y @ (out.y + out.v)
            assert abs(after - before) <= 1e-12 * max(1.0, abs(before))


@pytest.mark.parametrize("make", [lie_recipe, strang_recipe])
def test_unrestrained_recipe_skips_f3(make, monkeypatch):
    ex = get_example("ex3")
    model = ex.model
    recipe = make([0.0, 0.0])
    assert not recipe.restrained and make([0.0, 0.1]).restrained
    g = build_noise_grid(5, 0, 1, 0.0, 0.02, 2)
    incs = stage_increments(recipe, g, 0, 2)
    s = ExtendedState(ex.z0.x, ex.z0.x + [0.3, -0.1], ex.z0.y, ex.z0.y + [-0.2, 0.4])
    explicit = s
    for (flow, _), inc in zip(recipe.stages, incs):
        if flow is FlowId.F1:
            explicit = flow_f1(model, explicit, inc)
        elif flow is FlowId.F2:
            explicit = flow_f2(model, explicit, inc)
        else:   # rotation by angle 0
            explicit = flow_f3(recipe.gammas, explicit, inc)

    def not_called(*args):
        raise AssertionError("F3 evaluated at gamma = 0")

    monkeypatch.setattr(splitflow, "flow_f3", not_called)
    skipped = apply_stages(recipe, model, s, incs)
    for name in ("x", "u", "y", "v"):
        a, b = getattr(skipped, name), getattr(explicit, name)
        assert np.max(np.abs(a - b)) <= 1e-15 * np.max(np.abs(b)), name


def test_stage_bounds_tile_each_family():
    # F1 and F2 take half windows in turn, F3 the whole step
    assert stage_bounds(strang_recipe([0.0]), 4) == ((0, 2), (0, 2), (0, 4), (2, 4), (2, 4))
    assert stage_bounds(lie_recipe([0.0]), 3) == ((0, 3),) * 3
    with pytest.raises(ValueError, match="not representable"):
        stage_bounds(strang_recipe([0.0]), 3)
