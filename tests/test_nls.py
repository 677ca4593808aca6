import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stosymp.core import HamiltonianModel, PhaseState, build_noise_grid, verify_gradients
from stosymp.nls import (build_lattice, charge, nls_initial, nls_step, nls_stepper,
                         noise_vector, subflow_a, subflow_b, RECIPES)
from stosymp.project import ProjectionConfig, _stage_map
from stosymp.splitflow import phase_form_matrix, stage_bounds, stage_increments


def unit_lattice():
    # one interior node at x = 1 with spacing h = 1
    return build_lattice(0.0, 2.0, 1, modes=1)


def test_one_node_laplacian():
    lat = unit_lattice()
    assert np.isclose(lat.laplacian(np.array([1.0]))[0], -1.0)


def test_dminus_transpose_is_negative_dplus():
    lat = build_lattice(-5.0, 5.0, 9, modes=3)
    rng = np.random.default_rng(0)
    for _ in range(20):
        u = rng.standard_normal(9)
        w = rng.standard_normal(9)
        assert abs(w @ lat.dminus(u) + u @ lat.dplus(w)) <= 1e-12


def test_discrete_laplacian_symmetric():
    lat = build_lattice(-5.0, 5.0, 9, modes=3)
    rng = np.random.default_rng(1)
    for _ in range(20):
        u = rng.standard_normal(9)
        w = rng.standard_normal(9)
        lhs = w @ lat.laplacian(u)
        rhs = u @ lat.laplacian(w)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_noise_vector_oracles():
    lat = build_lattice(0.0, 1.0, 1, modes=1)  # node at 0.5
    assert np.allclose(noise_vector(lat, np.zeros(1)), 0.0)
    out = noise_vector(lat, np.array([1.0]))
    assert np.isclose(out[0], 1.0 / np.sqrt(5.0))
    a = np.array([0.3])
    b = np.array([-1.2])
    assert np.allclose(noise_vector(lat, a + b),
                       noise_vector(lat, a) + noise_vector(lat, b), atol=1e-15)
    with pytest.raises(ValueError):
        noise_vector(lat, np.zeros(2))


def E(q, x, p, y):
    return np.array([[q], [x], [p], [y]], dtype=float)


def test_subflow_a_hand_oracles():
    lat = unit_lattice()
    out = subflow_a(lat, E(1, 0, 0, 0), 0.1, np.zeros(1))
    assert np.allclose(out[:, 0], [1, 0, 0, 0], atol=1e-14)
    out2 = subflow_a(lat, E(2, 0, 0, 0), 0.1, np.zeros(1))
    assert np.isclose(out2[2, 0], -0.6)
    ident = subflow_a(lat, E(0.3, -0.1, 0.7, 0.2), 0.0, np.zeros(1))
    assert np.allclose(ident[:, 0], [0.3, -0.1, 0.7, 0.2], atol=1e-15)


def test_subflow_b_hand_oracle():
    lat = unit_lattice()
    out = subflow_b(lat, E(0, 1, 1, 0), 0.1, np.zeros(1))
    assert np.isclose(out[0, 0], 0.1)
    assert np.isclose(out[3, 0], -0.1)


def test_subflow_swap_symmetry():
    # subflow_b on (Q,X,P,Y) equals subflow_a on the swapped layout (P,Y,Q,X)
    # with reversed step and noise signs
    lat = build_lattice(-5.0, 5.0, 9, modes=4)
    rng = np.random.default_rng(2)
    q, x, p, y = rng.standard_normal((4, 9))
    db = rng.standard_normal(4)
    b_out = subflow_b(lat, np.stack((q, x, p, y)), 0.05, db)
    a_out = subflow_a(lat, np.stack((p, y, q, x)), -0.05, -db)
    assert np.allclose(b_out[0], a_out[2], atol=1e-14)   # Q' matches P'-slot
    assert np.allclose(b_out[3], a_out[1], atol=1e-14)   # Y' matches X'-slot


def zero_grid(modes, n=2):
    return np.zeros((modes + 1, n))


def test_nls_step_zero_increments_identity():
    lat = build_lattice(-5.0, 5.0, 9, modes=10)
    s = nls_initial(lat)
    out, rep = nls_step(lat, "strang-ab", s, zero_grid(10), 0,
                        ProjectionConfig(tol=1e-13), 2, stage_bounds(RECIPES["strang-ab"], 2))
    assert np.allclose(out.x, s.x, atol=1e-13)
    assert np.allclose(out.y, s.y, atol=1e-13)
    assert np.allclose(rep.lam, 0.0, atol=1e-13)


def test_unknown_recipe_rejected():
    lat = unit_lattice()
    with pytest.raises(KeyError):
        nls_step(lat, "lie-xy", nls_initial(lat), zero_grid(1), 0, ProjectionConfig(), 2,
                 ((0, 2), (0, 2)))


@pytest.mark.parametrize("recipe", sorted(RECIPES))
def test_single_step_charge_conservation(recipe):
    lat = build_lattice(-5.0, 5.0, 9, modes=10)
    g = build_noise_grid(3, 0, 10, 0.0, 1e-3, 2)
    s = nls_initial(lat)
    c0 = charge(s)
    out, rep = nls_step(lat, recipe, s, g, 0, ProjectionConfig(tol=1e-13), 2,
                        stage_bounds(RECIPES[recipe], 2))
    assert abs(charge(out) - c0) <= 1e-12 * c0


def test_projected_step_symplectic():
    lat = build_lattice(-5.0, 5.0, 9, modes=10)
    g = build_noise_grid(7, 0, 10, 0.0, 1e-3, 2)
    cfg = ProjectionConfig(tol=1e-13)
    bounds = stage_bounds(RECIPES["strang-ab"], 2)
    s0 = nls_initial(lat)

    def vec_map(v):
        st = PhaseState(v[:9], v[9:])
        out, _ = nls_step(lat, "strang-ab", st, g, 0, cfg, 2, bounds)
        return np.concatenate([out.x, out.y])

    v0 = np.concatenate([s0.x, s0.y])
    n = 18
    jac = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1e-5
        jac[:, j] = (vec_map(v0 + e) - vec_map(v0 - e)) / 2e-5
    J = phase_form_matrix(9)
    assert np.max(np.abs(jac.T @ J @ jac - J)) <= 1e-5


def test_unprojected_defect_grows_projected_does_not():
    lat = build_lattice(-5.0, 5.0, 9, modes=10)
    n_steps = 50
    g = build_noise_grid(5, 0, 10, 0.0, n_steps * 1e-2, 2 * n_steps)
    s = nls_initial(lat)
    ext = np.stack((s.x, s.x, s.y, s.y))
    cfg = ProjectionConfig(tol=1e-13)
    recipe = RECIPES["strang-ab"]
    bounds = stage_bounds(recipe, 2)
    max_proj_defect = 0.0
    for n in range(n_steps):
        ext = _stage_map(recipe, lat.model, stage_increments(recipe, g, n, 2, bounds))(ext)
        s, rep = nls_step(lat, "strang-ab", s, g, n, cfg, 2, bounds)
        max_proj_defect = max(max_proj_defect, rep.residual)
    raw_defect = np.sqrt(np.sum((ext[0] - ext[1]) ** 2 + (ext[2] - ext[3]) ** 2))
    assert raw_defect > 1e-6          # splitting desynchronizes the copies
    assert max_proj_defect <= 1e-11   # projection keeps them together


def test_charge_oracles():
    assert charge(PhaseState(np.zeros(2), np.array([3.0, 4.0]))) == 25.0
    assert charge(PhaseState(np.zeros(3), np.zeros(3))) == 0.0


def test_nls_initial_oracles():
    lat = build_lattice(-5.0, 5.0, 9, modes=10)
    i0 = list(lat.nodes).index(0.0)
    s = nls_initial(lat)
    assert np.isclose(s.y[i0], 1.0)
    assert np.isclose(s.x[i0], 0.0)
    assert charge(s) > 0
    s2 = nls_initial(lat)
    assert np.array_equal(s.y, s2.y) and np.array_equal(s.x, s2.x)


def test_build_lattice_validation():
    with pytest.raises(ValueError):
        build_lattice(1.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        build_lattice(0.0, 1.0, 0, 2)


def test_lattice_model_gradients_match_hamiltonians():
    lat = build_lattice(-5.0, 5.0, 9, modes=4)
    model = lat.model
    assert (model.d, model.m) == (9, 4)
    rep = verify_gradients(model, samples=20, seed=3)
    assert rep.passed, rep.worst


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fused_field_matches_channel_sum(data):
    n = data.draw(st.integers(1, 12))
    modes = data.draw(st.integers(1, 6))
    coords = st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)
    x, y = np.array(data.draw(coords)), np.array(data.draw(coords))
    tau = data.draw(st.floats(-0.2, 0.2))
    dbeta = data.draw(st.lists(st.floats(-1.0, 1.0), min_size=modes, max_size=modes))
    delta = np.array([tau] + dbeta)
    model = build_lattice(-5.0, 5.0, n, modes).model
    fused = model.field(x, y, delta)
    generic = HamiltonianModel.field(model, x, y, delta)
    for a, b in zip(fused, generic):
        assert np.max(np.abs(a - b)) <= 1e-13


def test_stiff_lattice_steps_without_fallback():
    # h = 0.25 on [-5, 5] at dt/h^2 = 1: with the identity's 4I as the
    # simplified-Newton matrix every step falls back to full Newton
    lat = build_lattice(-5.0, 5.0, 39, modes=10)
    dt = lat.h ** 2
    g = build_noise_grid(0, 0, 10, 0.0, 4 * dt, 8)
    stepper = nls_stepper(lat, "strang-ab", g, ProjectionConfig(tol=1e-13), 2)
    s = s0 = nls_initial(lat)
    for n in range(4):
        s, rep = stepper(s, n)
        assert not rep.used_fallback, n
    assert abs(charge(s) - charge(s0)) <= 1e-12 * charge(s0)
