import cProfile
import os
import pstats

import numpy as np
import pytest
from scipy.integrate import solve_ivp

import stosymp
from stosymp import project
from stosymp.baseline import midpoint_step
from stosymp.core import PhaseState, build_noise_grid, ordered_sum
from stosymp.harness import (FINE_STEPS, SCHEMES, ConvergenceSpec, fit_slope, make_stepper,
                             ms_error, track)
from stosymp.modelzoo import get_example
from stosymp.project import ProjectionConfig, projection_step, simulate
from stosymp.splitflow import f3_trig, stage_bounds, strang_recipe


def test_fit_slope_synthetic():
    assert np.isclose(fit_slope([0.1, 0.01], [0.1, 0.01]), 1.0)
    assert np.isclose(fit_slope([0.1, 0.01, 0.001], [0.01, 1e-4, 1e-6]), 2.0)


def test_spec_validation():
    ex = get_example("ex1")
    with pytest.raises(ValueError):
        ConvergenceSpec(ex, "ses-sp-1", 1.0, (0.1,), 0.03, 4, 0)
    with pytest.raises(ValueError):
        ConvergenceSpec(ex, "ses-sp-1", 1.0, (0.1,), 0.05, 0, 0)
    with pytest.raises(ValueError, match="not a whole number"):   # ref_dt must tile t_end
        ConvergenceSpec(ex, "ses-sp-1", 0.1025, (0.02, 0.01), 0.005, 4, 0)


def test_make_stepper_unknown_scheme():
    ex = get_example("ex1")
    g = build_noise_grid(0, 0, 1, 0.1, 4)
    with pytest.raises(KeyError):
        make_stepper("heun", ex, g, 2, 0.0)


def test_coupling_zero_error_at_reference_step():
    ex = get_example("ex1")
    spec = ConvergenceSpec(ex, "ses-sp-1", 0.125, (0.03125,), 0.03125, 4, 1)
    rep = ms_error(spec)
    assert rep.err_x[0] == 0.0 and rep.err_y[0] == 0.0


def test_ms_error_bit_reproducible():
    ex = get_example("ex1")
    spec = ConvergenceSpec(ex, "ses-sp-2", 0.125, (0.03125, 0.015625), 0.0078125,
                           8, 3, gamma=0.1)
    a = ms_error(spec)
    b = ms_error(spec)
    assert np.array_equal(a.err_x, b.err_x)
    assert np.array_equal(a.err_y, b.err_y)
    assert a.slope_x == b.slope_x


def test_jackknife_se_positive():
    ex = get_example("ex1")
    spec = ConvergenceSpec(ex, "midpoint", 0.125, (0.03125,), 0.0078125, 8, 3)
    rep = ms_error(spec)
    assert rep.se_x[0] > 0 and rep.se_y[0] > 0


def test_track_unknown_invariant():
    ex = get_example("ex1")
    with pytest.raises(KeyError):
        track(ex, "ses-sp-1", 0.1, 0.01, ["unknown"], seed=0)


@pytest.mark.parametrize("t_end, dt", [(0.1, 0.03), (0.006, 0.01)])
def test_track_rejects_a_step_that_does_not_tile(t_end, dt):
    # rounding t_end / dt would stop the run early (0.09) or late (0.01)
    with pytest.raises(ValueError, match="not a whole number of steps"):
        track(get_example("ex1"), "midpoint", t_end, dt, [])


def test_track_starts_at_zero():
    ex = get_example("ex3")
    traj, series = track(ex, "ses-sp-1", 0.2, 0.01, ["quadratic", "linear"], seed=0)
    assert series["quadratic"][0] == 0.0
    assert series["linear"][0] == 0.0
    assert len(series["quadratic"]) == 21


def test_constant_tracker_yields_zero_series():
    from stosymp.project import simulate
    ex = get_example("ex1")
    g = build_noise_grid(0, 0, 1, 0.1, 20)
    st = make_stepper("ses-sp-1", ex, g, 2, 0.0)
    traj = simulate(st, ex.z0, 10, 0.01, trackers={"const": lambda z: 1.0})
    assert np.all(traj.tracked["const"] == 1.0)


def exact_endpoint(example, grid):
    """The exact endpoints at t = 1 of a batch grid's paths.  Every noise
    Hamiltonian is c_r H_0, so a path ends where the H_0 flow takes z0 in the
    time tau = 1 + sum_r c_r W_r(1) (Doss 1977; Sussmann 1978): one DOP853
    solve of dz/ds = tau f(z) over s in [0, 1] for all paths together."""
    model = example.model
    d, paths = model.d, grid.shape[2]
    totals = grid.sum(axis=1)
    clock = np.zeros_like(totals)   # the H_0 flow at speed tau, no noise
    clock[0] = totals[0] + sum(cr * totals[r] for r, cr in enumerate(model.c, 1))

    def rhs(_, v):
        dx, dy = model.field(v[:d * paths].reshape(d, paths), v[d * paths:].reshape(d, paths),
                             clock)
        return np.concatenate([dx.ravel(), dy.ravel()])

    z0 = np.concatenate([np.repeat(example.z0.x, paths), np.repeat(example.z0.y, paths)])
    end = solve_ivp(rhs, (0.0, 1.0), z0, method="DOP853", rtol=1e-13, atol=1e-13).y[:, -1]
    return PhaseState(end[:d * paths].reshape(d, paths), end[d * paths:].reshape(d, paths))


@pytest.mark.parametrize("name, c, gamma", [("ex1", 0.15, 0.01), ("ex3", 0.5, 0.0),
                                            ("ex4", 1.0, 0.2)])
def test_schemes_converge_to_the_exact_endpoint(name, c, gamma):
    # measured with this recipe, ses-sp-1 / ses-sp-2 / midpoint: ex1 1.351 /
    # 1.261 / 1.240, ex3 1.058 / 1.074 / 1.058, ex4 1.056 / 1.175 / 1.056
    ex = get_example(name, c=c)
    paths, dts = 32, [2.0 ** -k for k in range(4, 9)]
    grid = build_noise_grid(0, range(paths), ex.model.m, 1.0,
                            round(1 / dts[-1]) * FINE_STEPS)
    exact = exact_endpoint(ex, grid)
    z0 = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                    np.repeat(ex.z0.y[:, None], paths, axis=1))
    for scheme in ("ses-sp-1", "ses-sp-2", "midpoint"):
        errs = []
        for dt in dts:
            n_steps = round(1 / dt)
            stepper = make_stepper(scheme, ex, grid, grid.shape[1] // n_steps, gamma)
            z = simulate(stepper, z0, n_steps, dt, keep_states=False).final
            sq = np.sum((z.x - exact.x) ** 2 + (z.y - exact.y) ** 2, axis=0)
            errs.append(np.sqrt(np.mean(sq)))
        assert all(b < a for a, b in zip(errs, errs[1:])), (scheme, errs)
        assert fit_slope(dts, errs) >= 0.9, (scheme, errs)


def per_step_stepper(scheme, ex, grid, substeps, gamma):
    """``make_stepper``'s ses-sp-2 or midpoint stepper on ex1, with each
    step's windows summed on that step's own slice by ``ordered_sum``."""
    def windows(step, bounds):
        fine = grid[:, step * substeps:(step + 1) * substeps]
        return [ordered_sum(fine[:, lo:hi].swapaxes(0, 1)) for lo, hi in bounds]

    if scheme == "midpoint":
        return lambda z, step: (midpoint_step(ex.model, z, windows(step, ((0, substeps),))[0]),
                                None)
    recipe = strang_recipe(np.full(ex.model.m + 1, gamma))
    bounds = stage_bounds(recipe, substeps)

    def stepper(z, step):
        incs = windows(step, bounds)
        return projection_step(ex.model, recipe, z, incs, f3_trig(recipe, incs),
                               ProjectionConfig())
    return stepper


@pytest.mark.parametrize("scheme, windows", [("ses-sp-2", 5), ("midpoint", 1)])
def test_run_across_plan_blocks_matches_per_step_windows(scheme, windows, monkeypatch):
    # plan blocks of 7 steps: 17 steps cross two block boundaries and end
    # inside the third block, on an 8-path batch and on each path alone
    ex = get_example("ex1", c=0.15)
    paths, n, dt, gamma = 8, 17, 2.0 ** -5, 0.01
    blocks = []
    build = project.stage_increments
    monkeypatch.setattr(project, "stage_increments",
                        lambda *args: blocks.append(args[1].shape[1] // args[2]) or build(*args))

    def run(grid, z0, width):
        monkeypatch.setattr(project, "PLAN_BLOCK", 7 * windows * (ex.model.m + 1) * width)
        return simulate(make_stepper(scheme, ex, grid, 2, gamma), z0, n, dt).final

    g = build_noise_grid(4, range(paths), 1, n * dt, 2 * n)
    zb = PhaseState(np.repeat(ex.z0.x[:, None], paths, axis=1),
                    np.repeat(ex.z0.y[:, None], paths, axis=1))
    got = run(g, zb, paths)
    assert blocks == [7, 7, 3]
    ref = simulate(per_step_stepper(scheme, ex, g, 2, gamma), zb, n, dt).final
    assert np.array_equal(got.x, ref.x) and np.array_equal(got.y, ref.y)
    for p in range(paths):
        z = run(build_noise_grid(4, p, 1, n * dt, 2 * n), ex.z0, 1)
        assert np.array_equal(got.x[:, p], z.x) and np.array_equal(got.y[:, p], z.y), p
    assert blocks[3:] == [7, 7, 3] * paths


# stosymp function calls per step on criterion 10's recipe; they were 63,
# 79, 33 and 59.2 when each step built its finite-difference directions,
# summed short rows one Python call per row and stepped on PhaseState
CALLS_PER_STEP = {"ses-sp-1": 54, "ses-sp-2": 70, "midpoint": 30, "sympeuler": 59}


def own_calls_per_step(scheme: str, n: int) -> float:
    """cProfile's calls into stosymp's own functions per step of ``track`` on
    ex1 (c 0.1, gamma 0, dt 1e-4): the calls of 2n steps less those of n,
    over n, so the run's setup cancels.  Calls into numpy are left out, since
    numpy's Python-level wrappers differ between its versions."""
    package = os.path.dirname(stosymp.__file__)
    counts = []
    for steps in (n, 2 * n):
        prof = cProfile.Profile()
        prof.runcall(track, get_example("ex1", c=0.1), scheme, steps * 1e-4, 1e-4,
                     ["hamiltonian"], seed=1, gamma=0.0)
        counts.append(sum(stat[1] for (path, _, _), stat in pstats.Stats(prof).stats.items()
                          if path.startswith(package)))
    return (counts[1] - counts[0]) / n


@pytest.mark.parametrize("scheme", SCHEMES)
def test_python_calls_per_step(scheme):
    assert own_calls_per_step(scheme, 200) <= CALLS_PER_STEP[scheme]
