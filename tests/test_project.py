import numpy as np
import pytest

from stosymp import project
from stosymp.core import HamiltonianModel, PhaseState, build_noise_grid, build_noise_grid_batch
from stosymp.project import (FD_STEP, NoConvergence, ProjectionConfig, ProjectionReport,
                             _stage_residual, lift, linearised_config, linearised_matrix, newton,
                             project_map, projection_step, restrict, simulate)
from stosymp.splitflow import stage_bounds, strang_recipe, lie_recipe
from stosymp.harness import make_stepper, track
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

    def map_fn(s):   # broadcasts over the points the chord stacks on axis 2
        return np.stack((np.full_like(s[0], 2.0), np.full_like(s[1], -2.0), s[2], s[3]))

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
    # ex1 at the CLI's c = 0.5: a 4-long lambda keeps the chord; on the 39-node
    # lattice at dt/h^2 = 1 the 78-long lambda gets P
    recipe = strang_recipe(np.zeros(2))
    bounds = stage_bounds(recipe, 2)
    ex = get_example("ex1", c=0.5)
    cfg = linearised_config(ProjectionConfig(), ex.model, recipe, ex.z0, bounds, 2.0 ** -6)
    assert cfg.newton_matrix is None
    lat = build_lattice(-5.0, 5.0, 39, modes=10)
    cfg = linearised_config(ProjectionConfig(), lat.model, RECIPES["strang-ab"],
                            nls_initial(lat), stage_bounds(RECIPES["strang-ab"], 2),
                            lat.h ** 2 / 2)
    assert cfg.newton_matrix.shape == (2 * lat.n_interior, 2 * lat.n_interior)
    # a short lambda never builds P, so a start where the stages are not
    # finite keeps the chord
    nan_start = PhaseState([np.nan], [-3.0])
    cfg = linearised_config(ProjectionConfig(), ex.model, recipe, nan_start, bounds, 2.0 ** -6)
    assert cfg.newton_matrix is None
    # ex1 with no noise, where P takes more iterations than 4I, keeps the chord
    ex0 = get_example("ex1", c=0.0)
    cfg = linearised_config(ProjectionConfig(), ex0.model, recipe, ex0.z0, bounds, 2.0 ** -6)
    assert cfg.newton_matrix is None
    # the boundary: a 4-node lattice (2d = 8) keeps the chord, a 5-node one gets P
    for n in (4, 5):
        lat = build_lattice(-5.0, 5.0, n, modes=2)
        cfg = linearised_config(ProjectionConfig(), lat.model, RECIPES["strang-ab"],
                                nls_initial(lat), stage_bounds(RECIPES["strang-ab"], 2),
                                lat.h ** 2 / 2)
        assert (cfg.newton_matrix is None) == (n == 4)


def test_linearised_matrix_equals_column_by_column_inverse():
    # the blocked sweep evaluates every central-difference point as a call on
    # it alone would, so P is the parent's bit for bit
    lat = build_lattice(-5.0, 5.0, 39, modes=10)
    z0 = nls_initial(lat)
    recipe = RECIPES["strang-ab"]
    bounds = stage_bounds(recipe, 2)
    dt_fine = lat.h ** 2 / 2
    residual = _stage_residual(recipe, lat.model, lift(z0), bounds, dt_fine)
    lam = np.zeros(2 * lat.n_interior)
    jac = np.empty((len(lam), len(lam)))
    for j in range(len(lam)):
        e = np.zeros_like(lam)
        e[j] = FD_STEP
        jac[:, j] = (residual(lam + e) - residual(lam - e)) / (2 * FD_STEP)
    P = linearised_matrix(lat.model, recipe, z0, bounds, dt_fine)
    assert np.array_equal(P, np.linalg.inv(jac))


def test_full_newton_fallback():
    # residual lambda + 4 lambda^3 - 1 in x: the chord keeps the Jacobian 1 of
    # lambda = 0, a quarter of the Jacobian at the root, so it diverges
    # (factor 3); Newton finds lambda = 0.5
    def map_fn(s):
        w = s[0] - s[1]
        val = 0.5 * w ** 3 - 0.5 * w - 1.0
        return np.stack((0.5 * val, -0.5 * val, s[2], s[3]))

    for shape in ((1,), (1, 3)):
        s0 = lift(PhaseState(np.zeros(shape), np.zeros(shape)))
        out, rep = project_map(map_fn, s0, ProjectionConfig())
        assert rep.used_fallback
        assert rep.lam.shape == (2,) + shape[1:]
        assert np.allclose(rep.lam[0], 0.5, atol=1e-10)
        assert np.allclose(rep.lam[1], 0.0, atol=1e-10)


def test_paths_stop_on_their_own():
    # residual lambda + 4 k lambda^3 - 1 in x with a per-column k: the chord
    # contracts by 12 k lambda*^2 at the root lambda*, so the columns converge
    # at different iterations (3, 19 and 35) and k = 1 diverges into
    # the Newton fallback; each column must match its own single-path solve
    gains = np.array([0.0, 0.02, 0.05, 1.0])

    def solve(k, shape):
        def map_fn(s):
            w = s[0] - s[1]
            val = 0.5 * k * w ** 3 - 0.5 * w - 1.0
            return np.stack((0.5 * val, -0.5 * val, s[2], s[3]))
        return project_map(map_fn, lift(PhaseState(np.zeros(shape), np.zeros(shape))),
                           ProjectionConfig())

    batch, rep = solve(gains, (1, 4))
    assert rep.used_fallback
    for p, k in enumerate(gains):
        single, _ = solve(k, (1,))
        assert np.array_equal(batch[..., p], single)


def test_solve_ends_at_its_last_evaluated_lambda():
    # a path stops at the lambda its last map call was made at, so the
    # corrected state is that map output shifted by A'lambda and the reported
    # residual is the residual there, bit for bit: on ex1's Strang map for
    # one path (at dt 0.05 the chord iterates more than once), on the identity
    # map (it stops at lambda = 0, whose output is column 0 of the chord's
    # stacked first call), and on an 8-path batch whose last column leaves
    # the chord for the full Newton fallback
    def check(map_fn, s0, fallback):
        corrected, rep = project_map(map_fn, s0, ProjectionConfig())
        assert rep.used_fallback == fallback
        out = map_fn(project._shifted(s0, rep.lam))
        assert np.array_equal(corrected, project._shifted(out, rep.lam))
        gap = project._copy_gap(out)
        assert rep.residual == float(np.max(project._norm(gap + 2.0 * rep.lam)))
        assert rep.defect_pre == float(np.max(project._norm(gap)))
        return corrected, rep

    ex = get_example("ex1", c=0.5)
    recipe = strang_recipe(np.array([0.5]))
    incs = project.stage_increments(recipe, build_noise_grid(3, 0, 1, 0.0, 0.05, 2), 0, 2,
                                    stage_bounds(recipe, 2))
    _, rep = check(project._stage_map(recipe, ex.model, incs), lift(ex.z0), False)
    assert rep.iterations > 1
    _, rep = check(lambda s: s, lift(PhaseState([0.7], [-0.2])), False)
    assert rep.iterations == 1

    gains = np.array([0.0, 0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 1.0])

    def cubic(gain):   # residual lambda + 4 k lambda^3 - 1 in x, as above
        def map_fn(s):
            w = s[0] - s[1]
            val = 0.5 * gain * w ** 3 - 0.5 * w - 1.0
            return np.stack((0.5 * val, -0.5 * val, s[2], s[3]))
        return map_fn

    def zeros(*shape):
        return lift(PhaseState(np.zeros(shape), np.zeros(shape)))

    # a column that stops early keeps its output through the batch's later
    # map calls: in the whole batch, whose fallback evaluates every column
    # once more, and in its 7 chord-only columns, which settle from the
    # loop's last map call; the iteration counts are each column's alone
    singles = [project_map(cubic(gain), zeros(1), ProjectionConfig()) for gain in gains]
    counts = [rep.iterations for _, rep in singles]
    early = int(np.argmin(counts))
    for n, fallback in ((8, True), (7, False)):
        batch, _ = check(cubic(gains[:n]), zeros(1, n), fallback)
        assert counts[early] <= max(counts[:n]) - 2
        assert np.array_equal(batch[..., early], singles[early][0])


def test_singular_chord_jacobian_goes_to_the_fallback(monkeypatch):
    # where swap = 1 the map swaps the copies x and u, so the residual's x
    # entry is 0 for every lambda and the chord's Jacobian is exactly
    # singular: that path gets a NaN step, leaves through the guard, and full
    # Newton stops at lambda = 0, where its first residual is 0; where
    # swap = 0 the copy gap 1 + (x - u) gives lambda = (-0.25, 0) under the
    # chord alone.  Each column must match its own single-path solve.
    def solve(swap, shape):
        def map_fn(s):
            val = 1.0 + (s[0] - s[1])
            return np.stack((swap * s[1] + (1 - swap) * 0.5 * val,
                             swap * s[0] - (1 - swap) * 0.5 * val, s[2], s[3]))
        return project_map(map_fn, lift(PhaseState(np.zeros(shape), np.zeros(shape))),
                           ProjectionConfig())

    _, rep = solve(0.0, (1,))
    assert not rep.used_fallback
    _, rep = solve(1.0, (1,))
    assert rep.used_fallback and np.array_equal(rep.lam, [0.0, 0.0])
    swaps = np.array([1.0, 0.0, 1.0])
    live = []
    full_newton = project._full_newton
    monkeypatch.setattr(project, "_full_newton",
                        lambda *args: live.append(args[-1]) or full_newton(*args))
    batch, rep = solve(swaps, (1, 3))
    assert rep.used_fallback
    assert len(live) == 1 and np.array_equal(live[0], swaps == 1.0)   # the singular columns
    assert np.allclose(rep.lam[0], [0.0, -0.25, 0.0], rtol=0, atol=1e-12)
    for p, swap in enumerate(swaps):
        single, _ = solve(swap, (1,))
        assert np.array_equal(batch[..., p], single)


@pytest.mark.parametrize("scheme, calls", [("ses-sp-1", (35, 80)), ("ses-sp-2", (30, 80))])
def test_map_calls_per_step(scheme, calls, monkeypatch):
    # every map call of the projection, the chord's stacked first call
    # included: 8 steps of an 8-path ex1 batch (c 0.15, gamma 0.01, dt 2^-5;
    # 105 / 101 calls with the 4I iteration, 43 / 38 when a final evaluation
    # followed the last update), and the first 40 steps of criterion 10's
    # single path (c 0.1, gamma 0, dt 1e-4; 182 / 184 with 4I, 120 with that
    # final evaluation, where the chord now takes 2 per step)
    counted = []
    apply_stages = project.apply_stages
    monkeypatch.setattr(project, "apply_stages",
                        lambda *args: counted.append(1) or apply_stages(*args))
    ex = get_example("ex1", c=0.15)
    paths, n, dt = 8, 8, 2.0 ** -5
    g = build_noise_grid_batch(0, range(paths), 1, 0.0, n * dt, 2 * n)
    z0 = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                    np.repeat(ex.z0.y[:, None], paths, axis=1))
    simulate(make_stepper(scheme, ex, g, 2, 0.01), z0, n, dt)
    batch = len(counted)
    counted.clear()
    track(get_example("ex1", c=0.1), scheme, 40 * 1e-4, 1e-4, [], seed=0, gamma=0.0)
    assert (batch, len(counted)) == calls


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
    recipe = strang_recipe([0.0])
    z, rep = projection_step(model, recipe, PhaseState([1.0], [0.0]), g, 0,
                             ProjectionConfig(tol=1e-13), 2, stage_bounds(recipe, 2))
    assert abs(z.x[0] - np.cos(0.1)) < 1e-4
    assert abs(z.y[0] + np.sin(0.1)) < 1e-4


def test_kernel_membership_and_defect_symmetry():
    ex = get_example("ex1")
    g = build_noise_grid(9, 0, 1, 0.0, 0.01, 2)
    cfg = ProjectionConfig(tol=1e-13)
    recipe = lie_recipe([0.5, 0.5])
    z = ex.z0
    bounds = stage_bounds(recipe, 2)
    incs_consumed, rep = projection_step(ex.model, recipe, z, g, 0, cfg, 2, bounds)
    lam = rep.lam
    # reconstruct the perturbed input/output to check the symmetry identity
    l1, l2 = lam[:1], lam[1:]
    incs = project.stage_increments(recipe, g, 0, 2, bounds)
    s_in = np.stack((z.x + l1, z.x - l1, z.y + l2, z.y - l2))
    s_out = project._stage_map(recipe, ex.model, incs)(s_in)
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
    ds = traj.defect
    assert np.all(np.isfinite(ds))
    assert np.max(ds) < 1.0  # bounded along the run


def _recording(stepper):
    """``stepper`` and the list of the reports it returned, in step order."""
    reports = []

    def recorded(z, step):
        z, rep = stepper(z, step)
        reports.append(rep)
        return z, rep
    return recorded, reports


def _fake_fallback_stepper(z, step):
    return z, ProjectionReport(np.zeros(2), step + 1, 0.1 * step, 0.0, step % 3 == 1)


@pytest.mark.parametrize("case", ["ses-sp-1", "ses-sp-1-batch", "midpoint", "fake"])
def test_simulate_records_each_step(case):
    # the run record equals what the stepper returned, step by step; a step
    # without a report reads 0 iterations and a NaN defect.  gamma is 0.4: at
    # 0.5 step 2 sits at a branch end where rounding decides whether ses-sp-1
    # has a solution (README, "Solver failures")
    ex = get_example("ex1", c=0.5)
    n, paths = 12, 3
    z0 = ex.z0
    if case == "ses-sp-1-batch":
        g = build_noise_grid_batch(4, range(paths), 1, 0.0, n * 0.05, 2 * n)
        z0 = PhaseState(np.repeat(z0.x[:, None], paths, axis=1),
                        np.repeat(z0.y[:, None], paths, axis=1))
    else:
        g = build_noise_grid(4, 0, 1, 0.0, n * 0.05, 2 * n)
    if case == "fake":
        stepper = _fake_fallback_stepper
    else:
        stepper = make_stepper(case.removesuffix("-batch"), ex, g, 2, 0.4)
    recorded, reports = _recording(stepper)
    traj = simulate(recorded, z0, n, 0.05)
    assert len(reports) == n
    if case == "midpoint":
        assert all(rep is None for rep in reports)
        assert np.array_equal(traj.iterations, np.zeros(n))
        assert np.all(np.isnan(traj.defect)) and traj.fallback_steps == 0
        return
    assert np.array_equal(traj.iterations, [rep.iterations for rep in reports])
    assert np.array_equal(traj.defect, [rep.defect_pre for rep in reports])
    assert traj.fallback_steps == sum(rep.used_fallback for rep in reports)
    if case == "fake":
        assert traj.fallback_steps == 4


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
