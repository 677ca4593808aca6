"""End-to-end acceptance checks.

One test per criterion; each prints a single ``criterion N: PASS/FAIL`` line
with the measured numbers before asserting.  Convergence-order runs use the
experiment parameters of the corresponding figure; invariant and structure
checks use the stated tolerances directly.
"""

import time

import numpy as np

from stosymp.baseline import midpoint_step, symplectic_euler_step
from stosymp.core import (HamiltonianModel, LinearInvariant, PhaseState,
                          QuadraticInvariant, build_noise_grid, eval_linear, eval_quadratic)
from stosymp.harness import ConvergenceSpec, make_stepper, ms_error, track
from stosymp.modelzoo import get_example
from stosymp.nls import (RECIPES, build_lattice, charge, nls_initial, nls_step, noise_vector,
                         subflow_a)
from stosymp.project import NoConvergence, ProjectionConfig, projection_step, step_plan
from stosymp.splitflow import (CompositionRecipe, FlowId, f3_trig, flow_f1, flow_f2, flow_f3,
                               lie_recipe, phase_form_matrix, stage_bounds, strang_recipe,
                               symplectic_residual_phase)

ORDER_DTS = tuple(2.0 ** -s for s in range(5, 9))
ORDER_BAND = (0.85, 1.15)


def report(num, ok, detail):
    print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def order_slopes(example, gamma, seed=0, paths=200):
    """Fitted mean-square slopes for the three convergent schemes on the
    2^-5..2^-8 grid against a 2^-12 coupled reference."""
    out = {}
    for scheme in ("ses-sp-1", "ses-sp-2", "midpoint"):
        spec = ConvergenceSpec(example, scheme, 1.0, ORDER_DTS, 2.0 ** -12,
                               paths, seed, gamma=gamma)
        try:
            rep = ms_error(spec)
            out[scheme] = (rep.slope_x, rep.slope_y)
        except NoConvergence as err:
            out[scheme] = err
    return out


def order_ok(slopes):
    lo, hi = ORDER_BAND
    return all(not isinstance(v, Exception) and lo <= v[0] <= hi and lo <= v[1] <= hi
               for v in slopes.values())


def order_detail(slopes):
    parts = []
    for scheme, v in slopes.items():
        if isinstance(v, Exception):
            where = f" at step {v.step}" if v.step is not None else " on some path"
            parts.append(f"{scheme}: no solution{where}")
        else:
            parts.append(f"{scheme}: ({v[0]:.3f}, {v[1]:.3f})")
    return "; ".join(parts)


def test_criterion_01_convergence_order_example1():
    t0 = time.perf_counter()
    slopes = order_slopes(get_example("ex1", c=0.15), gamma=0.01)
    elapsed = time.perf_counter() - t0
    ok = order_ok(slopes) and elapsed <= 180.0
    detail = f"{order_detail(slopes)}; elapsed {elapsed:.0f}s (limit 180s)"
    assert report(1, ok, detail), detail


def test_criterion_02_convergence_order_example2():
    slopes = order_slopes(get_example("ex2", c=0.5), gamma=0.5)
    ok = order_ok(slopes)
    assert report(2, ok, order_detail(slopes)), order_detail(slopes)


def test_criterion_03_convergence_order_example4():
    slopes = order_slopes(get_example("ex4", c=1.0), gamma=0.2)
    ok = order_ok(slopes)
    assert report(3, ok, order_detail(slopes)), order_detail(slopes)


def test_criterion_04_projected_map_symplecticity():
    cfg = ProjectionConfig(tol=1e-13, max_iter=100)
    scale = {"ex1": 0.3, "ex2": 0.15, "ex3": 0.3, "ex4": 0.15}
    worst = 0.0
    rng = np.random.default_rng(41)
    for name in ("ex1", "ex2", "ex3", "ex4"):
        ex = get_example(name)
        gammas = np.full(ex.model.m + 1, 0.3)
        for recipe in (lie_recipe(gammas), strang_recipe(gammas)):
            bounds = stage_bounds(recipe, 2)
            for k in range(50):
                grid = build_noise_grid(17, k, ex.model.m, 0.01, 2)
                z = np.stack((ex.z0.x + scale[name] * rng.standard_normal(ex.model.d),
                              ex.z0.y + scale[name] * rng.standard_normal(ex.model.d)))

                def step(zz):
                    out, _ = projection_step(ex.model, recipe, zz,
                                             *step_plan(grid, 2, bounds, recipe)(0), cfg)
                    return out

                worst = max(worst, symplectic_residual_phase(step, z))
    ok = worst <= 1e-5
    assert report(4, ok, f"max Jacobian residual {worst:.2e} (limit 1e-5)"), worst


def drift_limit(example, scheme, gamma, invariant, n_steps, dt):
    _, series = track(example, scheme, n_steps * dt, dt, [invariant], seed=0,
                      gamma=gamma)
    return float(np.max(np.abs(series[invariant])))


def test_criterion_05_quadratic_invariant_example3():
    ex = get_example("ex3")
    drifts = {s: drift_limit(ex, s, 0.0, "quadratic", 10 ** 4, 1e-2)
              for s in ("ses-sp-1", "ses-sp-2")}
    ok = all(v <= 1e-9 for v in drifts.values())
    detail = "; ".join(f"{s}: {v:.2e}" for s, v in drifts.items()) + " (limit 1e-9)"
    assert report(5, ok, detail), detail


def test_criterion_06_linear_invariant_example3():
    ex = get_example("ex3")
    drifts = {s: drift_limit(ex, s, 0.5, "linear", 10 ** 4, 1e-2)
              for s in ("ses-sp-1", "ses-sp-2")}
    ok = all(v <= 1e-9 for v in drifts.values())
    detail = "; ".join(f"{s}: {v:.2e}" for s, v in drifts.items()) + " (limit 1e-9)"
    assert report(6, ok, detail), detail


def test_criterion_07_nls_charge_conservation():
    lat = build_lattice(-5.0, 5.0, 9, modes=10)
    cfg = ProjectionConfig(tol=1e-13)
    n_steps = 1000
    grid = build_noise_grid(0, 0, lat.modes, 1.0, 2 * n_steps)
    drifts = {}
    for recipe in ("lie-ab", "strang-ab"):
        bounds = stage_bounds(RECIPES[recipe], 2)
        plan = step_plan(grid, 2, bounds, RECIPES[recipe])
        s = nls_initial(lat).stacked()
        c0 = charge(PhaseState(*s))
        worst = 0.0
        for n in range(n_steps):
            s, _ = nls_step(lat, recipe, s, *plan(n), cfg)
            worst = max(worst, abs(charge(PhaseState(*s)) - c0) / c0)
        drifts[recipe] = worst
    ok = all(v <= 1e-8 for v in drifts.values())
    detail = "; ".join(f"{r}: {v:.2e}" for r, v in drifts.items()) + " (limit 1e-8)"
    assert report(7, ok, detail), detail


def test_criterion_08_nls_projected_map_symplecticity():
    lat = build_lattice(-5.0, 5.0, 9, modes=10)
    cfg = ProjectionConfig(tol=1e-13)
    J = phase_form_matrix(9)
    bounds = stage_bounds(RECIPES["strang-ab"], 2)
    worst = 0.0
    for k in range(20):
        grid = build_noise_grid(11, k, lat.modes, 1e-3, 2)

        def vec_map(v):
            out, _ = nls_step(lat, "strang-ab", v.reshape(2, 9),
                              *step_plan(grid, 2, bounds, RECIPES["strang-ab"])(0), cfg)
            return out.reshape(-1)

        s0 = nls_initial(lat)
        v0 = np.concatenate([s0.x, s0.y])
        jac = np.empty((18, 18))
        for j in range(18):
            e = np.zeros(18)
            e[j] = 1e-5
            jac[:, j] = (vec_map(v0 + e) - vec_map(v0 - e)) / 2e-5
        worst = max(worst, float(np.max(np.abs(jac.T @ J @ jac - J))))
    ok = worst <= 1e-5
    assert report(8, ok, f"max Jacobian residual {worst:.2e} (limit 1e-5)"), worst


def wall_time(example, scheme, dt, paths=8, reps=3, gamma=0.5):
    n_steps = int(round(1.0 / dt))
    grid = build_noise_grid(0, range(paths), example.model.m, 1.0, 2 * n_steps)
    stepper = make_stepper(scheme, example, grid, 2, gamma)
    best = np.inf
    for _ in range(reps):
        z = np.repeat(example.z0.stacked()[..., None], paths, axis=-1)
        t0 = time.perf_counter()
        for n in range(n_steps):
            z, _ = stepper(z, n)
        best = min(best, time.perf_counter() - t0)
    return best


def test_criterion_09_cpu_time_ordering():
    ex = get_example("ex1", c=0.4)
    ok = True
    parts = []
    for dt in (2.0 ** -8, 2.0 ** -10):
        walls = {s: wall_time(ex, s, dt) for s in ("ses-sp-1", "ses-sp-2", "midpoint")}
        ok = ok and walls["ses-sp-1"] < walls["ses-sp-2"] < walls["midpoint"]
        parts.append(f"dt=2^{int(np.log2(dt))}: " +
                     ", ".join(f"{s} {w:.2f}s" for s, w in walls.items()))
    detail = "; ".join(parts)
    assert report(9, ok, detail), detail


def linear_trend(t, y):
    """OLS slope of y against t and the standard error of that slope."""
    tb = t - np.mean(t)
    denom = float(tb @ tb)
    b = float(tb @ y) / denom
    resid = y - np.mean(y) - b * tb
    se = np.sqrt(float(resid @ resid) / (t.size - 2) / denom)
    return b, float(se)


def test_criterion_10_energy_drift_contrast():
    ex = get_example("ex1", c=0.1)
    n_steps, dt = 200000, 1e-4
    keep = slice(0, n_steps + 1, 1000)
    ok = True
    parts = []
    for scheme in ("ses-sp-1", "ses-sp-2", "midpoint", "sympeuler"):
        traj, series = track(ex, scheme, n_steps * dt, dt, ["hamiltonian"],
                             seed=0, gamma=0.0)
        y = series["hamiltonian"][keep]
        b, se = linear_trend(traj.times[keep], y)
        if scheme == "sympeuler":
            good = b > 3.0 * se
            parts.append(f"{scheme}: trend {b:.2e} ({b / se:+.1f} SE)")
        else:
            good = np.max(np.abs(y)) <= 1e-2 and b <= 3.0 * se
            parts.append(f"{scheme}: max |dH/H| {np.max(np.abs(y)):.2e}, "
                         f"trend {b:.2e} ({b / se:+.1f} SE)")
        ok = ok and good
    detail = "; ".join(parts)
    assert report(10, ok, detail), detail


def test_criterion_11_scheme_pairwise_consistency():
    ex = get_example("ex1", c=0.15)
    n_steps, dt = 10, 1e-5
    grid = build_noise_grid(0, 0, 1, n_steps * dt, 2 * n_steps)
    finals = {}
    for scheme in ("ses-sp-1", "ses-sp-2", "midpoint"):
        stepper = make_stepper(scheme, ex, grid, 2, 0.0)
        z = ex.z0.stacked()
        for n in range(n_steps):
            z, _ = stepper(z, n)
        finals[scheme] = z.reshape(-1)
    names = sorted(finals)
    worst = max(float(np.max(np.abs(finals[a] - finals[b])))
                for i, a in enumerate(names) for b in names[i + 1:])
    ok = worst <= 1e-7
    assert report(11, ok, f"max pairwise difference {worst:.2e} (limit 1e-7)"), worst


def test_criterion_12_unit_oracles():
    checks = []

    def close(tag, got, want, tol=1e-11):
        checks.append((tag, bool(np.allclose(got, want, rtol=0, atol=tol))))

    xy = HamiltonianModel(d=1, m=0, h=(lambda x, y: x[0] * y[0],),
                          grad_x=(lambda x, y: y.copy(),),
                          grad_y=(lambda x, y: x.copy(),))
    s = flow_f1(xy, np.array([[1.0], [0.0], [0.0], [2.0]]), np.array([0.5]))
    close("subflow one", s[:, 0], [1, 0.5, -1, 2])
    s = flow_f2(xy, np.array([[1.0], [2.0], [3.0], [0.0]]), np.array([0.5]))
    close("subflow two", s[:, 0], [2, 2, 3, -1.5])
    rotation = CompositionRecipe(((FlowId.F3, 1),), [np.pi / 8])
    s = flow_f3(np.array([[1.0], [0.0], [0.0], [0.0]]),
                f3_trig(rotation, [np.array([1.0])])[0])
    close("copy rotation", s[:, 0], [0.5, 0.5, -0.5, 0.5])

    osc = HamiltonianModel(d=1, m=0, h=(lambda x, y: 0.5 * (x[0] ** 2 + y[0] ** 2),),
                           grad_x=(lambda x, y: x.copy(),),
                           grad_y=(lambda x, y: y.copy(),))
    z = midpoint_step(osc, np.array([[1.0], [0.0]]), np.array([2.0]))
    close("Cayley map", z[:, 0], [0.0, -1.0])

    silent = HamiltonianModel(d=1, m=1,
                              h=(lambda x, y: x[0] * y[0], lambda x, y: 0.0),
                              grad_x=(lambda x, y: y.copy(),
                                      lambda x, y: np.zeros_like(x)),
                              grad_y=(lambda x, y: x.copy(),
                                      lambda x, y: np.zeros_like(x)))
    z = symplectic_euler_step(silent, np.array([[1.0], [1.0]]), np.array([0.5, 0.0]))
    close("one-sided Euler map", z[:, 0], [2.0, 0.5])

    lin = LinearInvariant(np.array([0.2, 0.0]), np.array([-0.3, 0.0]))
    close("linear functional", eval_linear(lin, PhaseState([-1.0, 2.0], [1.0, -1.0])),
          -0.5, tol=1e-14)
    quad = QuadraticInvariant(np.diag([0.0, 0.5]), np.zeros((2, 2)),
                              np.diag([0.0, 1.0]))
    close("quadratic functional",
          eval_quadratic(quad, PhaseState([-1.0, 2.0], [1.0, -1.0])), 1.5, tol=1e-14)

    ex2 = get_example("ex2")
    close("population transform", ex2.forward(ex2.z0), [1.0, 1.9, 0.5], tol=1e-12)
    close("conserved label", ex2.invariants["casimir"](ex2.z0), np.log(0.95),
          tol=1e-12)
    ex4 = get_example("ex4")
    close("sphere radius", ex4.invariants["casimir"](ex4.z0), 0.5, tol=1e-14)
    rt = ex4.inverse(ex4.forward(ex4.z0))
    close("angle round trip", [rt.x[0], rt.y[0]], [ex4.z0.x[0], ex4.z0.y[0]],
          tol=1e-14)

    lat = build_lattice(0.0, 2.0, 1, modes=1)
    close("spectral noise basis", noise_vector(lat, np.array([1.0])),
          np.sin(np.pi) / np.sqrt(5.0), tol=1e-14)
    close("node charge", charge(PhaseState(np.array([3.0]), np.array([4.0]))), 25.0,
          tol=1e-14)
    lat9 = build_lattice(-5.0, 5.0, 9, modes=10)
    sa = subflow_a(lat9, np.stack((np.ones(9), np.zeros(9), np.zeros(9), np.zeros(9))),
                   0.1, np.zeros(10))
    close("frozen components", np.concatenate([sa[0] - 1.0, sa[3]]), np.zeros(18),
          tol=1e-14)

    failed = [tag for tag, good in checks if not good]
    ok = not failed
    detail = (f"{len(checks)} oracle groups checked" if ok
              else f"failed: {', '.join(failed)}")
    assert report(12, ok, detail), detail
