"""Fits: convergence orders, power laws, the initial-layer slope."""

from __future__ import annotations

import numpy as np

__all__ = [
    "convergence_order",
    "powerlaw_fit",
    "loglinear_fit",
    "singularity_slope",
]

# initial-layer fit: fraction of the steps, skipped first cells, fewest points
_FIT_FRACTION, _FIT_SKIP, _FIT_MIN_POINTS = 0.1, 1, 5


def convergence_order(errors, taus):
    """Pairwise experimental orders log(e_i/e_{i+1}) / log(tau_i/tau_{i+1})."""
    errors = np.asarray(errors, dtype=float)
    taus = np.asarray(taus, dtype=float)
    if errors.size != taus.size or errors.size < 2:
        raise ValueError("need matching error/step lists with >= 2 entries")
    return list(np.log(errors[:-1] / errors[1:]) / np.log(taus[:-1] / taus[1:]))


def _windowed(times, values, window):
    """The (time, value) samples with times in ``window`` (all when None), at least 2."""
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if window is not None:
        lo, hi = window
        keep = (t >= lo) & (t <= hi)
        t, y = t[keep], y[keep]
    if t.size < 2:
        raise ValueError("window keeps fewer than 2 samples")
    return t, y


def powerlaw_fit(times, values, window=None):
    """Least-squares fit of log10(values) = intercept + slope * log10(times).

    Exact (zero residual) on exact power laws.  The raw OLS slope is
    returned: negate it for a decay exponent, keep it for a growth rate.
    """
    t, y = _windowed(times, values, window)
    if np.any(t <= 0) or np.any(y <= 0):
        raise ValueError("power-law fit needs positive times and values")
    slope, intercept = np.polyfit(np.log10(t), np.log10(y), 1)
    return float(slope), float(intercept)


def loglinear_fit(times, values, window=None):
    """OLS fit of values = intercept + slope * log10(times) (semilog decay)."""
    t, y = _windowed(times, values, window)
    slope, intercept = np.polyfit(np.log10(t), y, 1)
    return float(slope), float(intercept)


def singularity_slope(times_mid, quotients):
    """Slope of log|difference quotient| vs log(midpoint time) near t = 0.

    A trajectory behaving like d_t phi ~ t^(a-1) shows up as slope a - 1.
    The fit window is the earliest tenth of the steps, but at least five
    after the first (graded meshes put only ~10^(1/gamma) points per time
    decade, so windowing by step index keeps enough samples); the first
    cell is skipped since its cell average sits visibly off the asymptote.
    """
    times_mid = np.asarray(times_mid, dtype=float)
    quotients = np.asarray(quotients, dtype=float)
    if times_mid.size != quotients.size:
        raise ValueError("times and quotients must have equal length")
    hi = max(int(np.ceil(_FIT_FRACTION * times_mid.size)), _FIT_SKIP + _FIT_MIN_POINTS)
    hi = min(hi, times_mid.size)
    t = times_mid[_FIT_SKIP:hi]
    q = np.abs(quotients[_FIT_SKIP:hi])
    if t.size < 2:
        raise ValueError("not enough early steps to fit")
    slope, _ = np.polyfit(np.log(t), np.log(q), 1)
    return float(slope)
