import numpy as np
import pytest

from stosymp.core import HamiltonianModel, PhaseState, build_noise_grid
from stosymp.project import (NoConvergence, ProjectionConfig, lift, linearised_config,
                             newton, project_map, projection_step, restrict, simulate)
from stosymp.splitflow import stage_bounds, strang_recipe, lie_recipe
from stosymp.harness import make_stepper
from stosymp.modelzoo import get_example
from stosymp.nls import RECIPES, build_lattice, nls_initial


def test_lift_restrict_oracles():
    z = PhaseState([1.0], [2.0])
    s = lift(z)
    assert np.array_equal(s[:, 0], [1, 1, 2, 2])
    back = restrict(s)
    assert back.x[0] == 1.0 and back.y[0] == 2.0
    avg = restrict(np.array([[1.0], [3.0], [0.0], [4.0]]))
    assert avg.x[0] == 2.0 and avg.y[0] == 2.0


def test_project_identity_map():
    s0 = lift(PhaseState([0.7], [-0.2]))
    out, rep = project_map(lambda s: s, s0, ProjectionConfig())
    assert rep.iterations == 1
    assert np.all(rep.lam == 0.0)
    assert np.array_equal(out[0], s0[0]) and np.array_equal(out[2], s0[2])


def test_project_constant_defect_fixed_point():
    # map with constant copy separation 4 in x: lambda converges to (-2, 0)
    s0 = lift(PhaseState([0.0], [0.0]))

    def map_fn(s):
        return np.stack(([2.0], [-2.0], s[2], s[3]))

    out, rep = project_map(map_fn, s0, ProjectionConfig(tol=1e-14))
    assert np.allclose(rep.lam, [-2.0, 0.0], atol=1e-12)
    assert rep.residual <= 1e-12
    # corrected state back on the diagonal
    assert abs(out[0, 0] - out[1, 0]) <= 1e-12


@pytest.mark.filterwarnings("error")
def test_no_solution_raises():
    # the copy gap 1 - (x - u) keeps the residual at 1 whatever lambda is, so
    # the simplified iteration stalls and the Newton Jacobian is singular
    def map_fn(s):
        val = 1.0 - (s[0] - s[1])
        return np.stack((0.5 * val, -0.5 * val, s[2], s[3]))

    for shape in ((1,), (1, 3)):
        s0 = lift(PhaseState(np.zeros(shape), np.zeros(shape)))
        with pytest.raises(NoConvergence) as err:
            project_map(map_fn, s0, ProjectionConfig())
        assert err.value.report.used_fallback


def test_linearised_config_chooses_between_p_and_4i():
    # ex1 at the CLI's c = 0.5: the noise outweighs the drift's linear part,
    # so 4I stays; on the 39-node lattice at dt/h^2 = 1 the Laplacian
    # outweighs the noise and the cubic term, so the stepper gets P
    recipe = strang_recipe(np.zeros(2))
    bounds = stage_bounds(recipe, 2)
    ex = get_example("ex1", c=0.5)
    cfg = linearised_config(ProjectionConfig(), ex.model, recipe, ex.z0, bounds, 2.0 ** -6)
    assert cfg.newton_matrix is None
    lat = build_lattice(-5.0, 5.0, 39, modes=10)
    s0 = nls_initial(lat)
    cfg = linearised_config(ProjectionConfig(), lat.model, RECIPES["strang-ab"],
                            PhaseState(s0.q, s0.p), stage_bounds(RECIPES["strang-ab"], 2),
                            lat.h ** 2 / 2)
    assert cfg.newton_matrix.shape == (2 * lat.n_interior, 2 * lat.n_interior)
    # a start where the stages are not finite gives NaN estimates, which keep 4I
    nan_start = PhaseState([np.nan], [-3.0])
    cfg = linearised_config(ProjectionConfig(), ex.model, recipe, nan_start, bounds, 2.0 ** -6)
    assert cfg.newton_matrix is None


def test_full_newton_fallback():
    # the simplified iteration diverges (factor 3); Newton finds lambda = 0.5
    def map_fn(s):
        val = -5.0 * (s[0] - s[1]) + 4.0
        return np.stack((0.5 * val, -0.5 * val, s[2], s[3]))

    for shape in ((1,), (1, 3)):
        s0 = lift(PhaseState(np.zeros(shape), np.zeros(shape)))
        out, rep = project_map(map_fn, s0, ProjectionConfig())
        assert rep.used_fallback
        assert rep.lam.shape == (2,) + shape[1:]
        assert np.allclose(rep.lam[0], 0.5, atol=1e-10)
        assert np.allclose(rep.lam[1], 0.0, atol=1e-10)


def test_paths_stop_on_their_own():
    # per-column gain k: the simplified iteration contracts by (1 + k) / 2, so
    # the columns converge at different iterations and k = -5 diverges into
    # the Newton fallback; each column must match its own single-path solve
    gains = np.array([0.0, -0.5, 0.6, -5.0])

    def solve(k, shape):
        def map_fn(s):
            val = 1.0 - k * (s[0] - s[1])
            return np.stack((0.5 * val, -0.5 * val, s[2], s[3]))
        return project_map(map_fn, lift(PhaseState(np.zeros(shape), np.zeros(shape))),
                           ProjectionConfig())

    batch, rep = solve(gains, (1, 4))
    assert rep.used_fallback
    for p, k in enumerate(gains):
        single, _ = solve(k, (1,))
        assert np.array_equal(batch[..., p], single)


def test_newton_skips_finished_singular_column():
    # w^2 = a: the first column starts at its root, where the Jacobian is 0
    target = np.array([[0.0, 4.0]])
    w, norm, _ = newton(lambda w: w * w - target, np.array([[0.0, 1.0]]),
                        ProjectionConfig())
    assert np.all(norm < 1e-12)
    assert w[0, 0] == 0.0 and abs(w[0, 1] - 2.0) < 1e-12


def test_rotation_oracle_strang():
    # harmonic oscillator, deterministic: exact flow is a clockwise rotation
    model = HamiltonianModel(d=1, m=0,
                             h=(lambda x, y: 0.5 * (x[0] ** 2 + y[0] ** 2),),
                             grad_x=(lambda x, y: x.copy(),),
                             grad_y=(lambda x, y: y.copy(),))
    g = build_noise_grid(0, 0, 0, 0.0, 0.1, 2)
    z, rep = projection_step(model, strang_recipe([0.0]), PhaseState([1.0], [0.0]),
                             g, 0, ProjectionConfig(tol=1e-13), substeps=2)
    assert abs(z.x[0] - np.cos(0.1)) < 1e-4
    assert abs(z.y[0] + np.sin(0.1)) < 1e-4


def test_kernel_membership_and_defect_symmetry():
    ex = get_example("ex1")
    g = build_noise_grid(9, 0, 1, 0.0, 0.01, 2)
    cfg = ProjectionConfig(tol=1e-13)
    recipe = lie_recipe([0.5, 0.5])
    z = ex.z0
    incs_consumed, rep = projection_step(ex.model, recipe, z, g, 0, cfg, 2)
    lam = rep.lam
    # reconstruct the perturbed input/output to check the symmetry identity
    l1, l2 = lam[:1], lam[1:]
    from stosymp.splitflow import stage_increments, apply_stages
    incs = stage_increments(recipe, g, 0, 2)
    s_in = np.stack((z.x + l1, z.x - l1, z.y + l2, z.y - l2))
    s_out = apply_stages(recipe, ex.model, s_in, incs)
    assert abs((s_out[1, 0] - s_out[0, 0]) - (s_in[0, 0] - s_in[1, 0])) <= 4 * cfg.tol
    assert abs((s_out[3, 0] - s_out[2, 0]) - (s_in[2, 0] - s_in[3, 0])) <= 4 * cfg.tol
    # corrected output is on ker(A) within 2 tol
    corr = np.stack((s_out[0] + l1, s_out[1] - l1, s_out[2] + l2, s_out[3] - l2))
    assert abs(corr[0, 0] - corr[1, 0]) <= 2 * cfg.tol
    assert abs(corr[2, 0] - corr[3, 0]) <= 2 * cfg.tol


def test_simulate_zero_steps():
    ex = get_example("ex1")
    g = build_noise_grid(0, 0, 1, 0.0, 0.01, 2)
    st = make_stepper("ses-sp-1", ex, g, 2, 0.0)
    traj = simulate(st, ex.z0, 0, 0.01)
    assert len(traj.states) == 1
    assert traj.final is ex.z0


def test_defect_series_bounded():
    ex = get_example("ex1")
    n = 100
    g = build_noise_grid(11, 0, 1, 0.0, n * 1e-2, 2 * n)
    st = make_stepper("ses-sp-1", ex, g, 2, 1.0, cfg=ProjectionConfig(tol=1e-12))
    traj = simulate(st, ex.z0, n, 1e-2)
    ds = traj.defect_series()
    assert np.all(np.isfinite(ds))
    assert np.max(ds) < 1.0  # bounded along the run


def test_noconvergence_carries_step_index():
    ex = get_example("ex1")
    g = build_noise_grid(0, 0, 1, 0.0, 0.1, 4)
    st = make_stepper("ses-sp-1", ex, g, 2, 0.0,
                      cfg=ProjectionConfig(tol=1e-12, max_iter=1))

    def bad(z, step):
        raise NoConvergence("forced")

    with pytest.raises(NoConvergence) as err:
        simulate(bad, ex.z0, 2, 0.05)
    assert err.value.step == 0
