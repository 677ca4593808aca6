import numpy as np
import pytest

from stosymp.core import build_noise_grid
from stosymp.harness import ConvergenceSpec, fit_slope, make_stepper, ms_error, track
from stosymp.modelzoo import get_example


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
    g = build_noise_grid(0, 0, 1, 0.0, 0.1, 4)
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
    g = build_noise_grid(0, 0, 1, 0.0, 0.1, 20)
    st = make_stepper("ses-sp-1", ex, g, 2, 0.0)
    traj = simulate(st, ex.z0, 10, 0.01, trackers={"const": lambda z: 1.0})
    assert np.all(traj.tracked["const"] == 1.0)
