import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfmbe import (Grid2D, ModelParams, convergence_order, init_state,
                   loglinear_fit, make_history, powerlaw_fit, rl_weight,
                   singularity_slope, trajectory_observables)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(32)


def roughness(grid, phi):
    params = ModelParams()
    return trajectory_observables(init_state(grid, phi, params, make_history(1.0)))[2]


def test_roughness_constant_is_zero(grid):
    assert roughness(grid, np.full(grid.shape, 3.7)) == pytest.approx(0.0, abs=1e-12)


def test_roughness_sine(grid):
    phi = np.sin(grid.x) * np.ones_like(grid.y)
    assert roughness(grid, phi) == pytest.approx(math.sqrt(0.5), rel=1e-12)


@given(st.floats(-5.0, 5.0))
@settings(max_examples=30, deadline=None)
def test_roughness_shift_invariant(c):
    grid = Grid2D(16)
    phi = np.sin(2 * grid.x) * np.cos(grid.y)
    assert roughness(grid, phi + c) == pytest.approx(roughness(grid, phi),
                                                     rel=1e-10, abs=1e-12)


def test_convergence_order_exact_second():
    assert convergence_order([4e-3, 1e-3], [0.1, 0.05]) == [pytest.approx(2.0)]


def test_convergence_order_flat():
    assert convergence_order([1e-2, 1e-2], [0.1, 0.05]) == [pytest.approx(0.0)]


def test_convergence_order_validation():
    with pytest.raises(ValueError):
        convergence_order([1.0], [0.1])


def test_powerlaw_exact():
    t = np.geomspace(0.1, 100.0, 40)
    slope, intercept = powerlaw_fit(t, t ** 2)
    assert slope == pytest.approx(2.0, abs=1e-12)
    assert intercept == pytest.approx(0.0, abs=1e-12)
    resid = np.log10(t ** 2) - (intercept + slope * np.log10(t))
    assert np.max(np.abs(resid)) < 1e-12


def test_powerlaw_decay_maps_to_positive_exponent():
    t = np.geomspace(1.0, 500.0, 60)
    slope, intercept = powerlaw_fit(t, 5.0 * t ** (-1.0 / 3.0))
    assert slope == pytest.approx(-1.0 / 3.0, abs=1e-12)
    assert -slope == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert 10 ** intercept == pytest.approx(5.0, rel=1e-10)


@pytest.mark.parametrize("fit", [powerlaw_fit, loglinear_fit])
def test_fits_need_two_samples_in_the_window(fit):
    t = np.geomspace(1.0, 10.0, 5)
    assert np.isfinite(fit(t, t, window=(1.0, 1.8))[0])
    for window in [(1.0, 1.5), (20.0, 30.0)]:
        with pytest.raises(ValueError, match="window keeps fewer than 2 samples"):
            fit(t, t, window=window)


def test_powerlaw_window():
    t = np.geomspace(0.01, 1000.0, 200)
    y = t ** 1.5
    y[t < 1.0] = 1.0  # corrupt outside the window
    slope, _ = powerlaw_fit(t, y, window=(1.0, 1000.0))
    assert slope == pytest.approx(1.5, abs=1e-12)
    with pytest.raises(ValueError):
        powerlaw_fit(t, y, window=(2000.0, 3000.0))
    with pytest.raises(ValueError):
        powerlaw_fit(t, -y)


def test_loglinear_fit():
    t = np.geomspace(1.0, 100.0, 50)
    y = 3.0 - 2.0 * np.log10(t)
    slope, intercept = loglinear_fit(t, y)
    assert slope == pytest.approx(-2.0, abs=1e-12)
    assert intercept == pytest.approx(3.0, abs=1e-12)


@given(st.floats(0.6, 3.0), st.floats(0.1, 2.0))
@settings(max_examples=30, deadline=None)
def test_powerlaw_fit_recovers_random_exponent(p, scale):
    t = np.geomspace(0.5, 50.0, 30)
    slope, _ = powerlaw_fit(t, scale * t ** p)
    assert slope == pytest.approx(p, abs=1e-10)


def test_singularity_slope_fractional_trajectory():
    """Quotients of w_{1+a}(t) g(x) recover the exponent a - 1."""
    alpha = 0.4
    n = 200
    levels = np.linspace(0.0, 0.1, n + 1)
    vals = rl_weight(1 + alpha, levels)
    quot = np.diff(vals) / np.diff(levels)
    t_mid = 0.5 * (levels[:-1] + levels[1:])
    slope = singularity_slope(t_mid, quot)
    assert slope == pytest.approx(alpha - 1.0, abs=0.05)


def test_singularity_slope_smooth_trajectory():
    n = 200
    levels = np.linspace(0.0, 0.1, n + 1)
    vals = levels ** 2
    quot = np.diff(vals) / np.diff(levels)
    t_mid = 0.5 * (levels[:-1] + levels[1:])
    slope = singularity_slope(t_mid, quot)
    assert slope == pytest.approx(1.0, abs=0.05)


def test_singularity_slope_validation():
    with pytest.raises(ValueError):
        singularity_slope([1.0, 2.0], [1.0])
