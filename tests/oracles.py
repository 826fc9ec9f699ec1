"""Reference computations that only the tests use.

The ``*_row_reference`` rows are the package's closed forms before
``l1plus_row`` became ``l1plus_block``'s one-row case, in lag order (entry j
weighs the increment of level n - j).
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.integrate import quad

from tfmbe import kernels
from tfmbe.kernels import rl_weight


def l1_weight_quad(levels, alpha, n, k):
    """Cell average of w_{1-a}(t_n - s) over cell k, by adaptive quadrature."""
    ga = math.gamma(1.0 - alpha)
    tn = levels[n]
    a, b = levels[k - 1], levels[k]
    if k == n:
        # integrand (t_n - s)^(-alpha) is an endpoint weight (b == t_n)
        val, _ = quad(lambda s: 1.0, a, b, weight="alg", wvar=(0.0, -alpha))
    else:
        val, _ = quad(lambda s: (tn - s) ** (-alpha), a, b,
                      epsabs=1e-14, epsrel=1e-13, limit=200)
    return val / (ga * (b - a))


def l1plus_weight_quad(levels, alpha, n, k):
    """Double cell average of w_{1-a}(t - s), by nested adaptive quadrature."""
    ga = math.gamma(1.0 - alpha)
    tn1, tn = levels[n - 1], levels[n]
    sk1, sk = levels[k - 1], levels[k]

    def inner(t):
        hi = min(t, sk)
        if hi <= sk1:
            return 0.0
        if hi == t:
            v, _ = quad(lambda s: 1.0, sk1, t, weight="alg", wvar=(0.0, -alpha))
        else:
            v, _ = quad(lambda s: (t - s) ** (-alpha), sk1, hi,
                        epsabs=1e-14, epsrel=1e-13, limit=200)
        return v

    val, _ = quad(inner, tn1, tn, epsabs=1e-13, epsrel=1e-12, limit=200)
    return val / (ga * (tn - tn1) * (sk - sk1))


def l1_row_reference(levels, alpha, n):
    """Collocation row at t_n, local weight first."""
    t = np.asarray(levels, dtype=float)
    tn = t[n]
    hi, lo = rl_weight(2.0 - alpha, tn - t[:n]), rl_weight(2.0 - alpha, tn - t[1:n + 1])
    return ((hi - lo) / (t[1:n + 1] - t[:n]))[::-1]


def l1plus_row_reference(levels, alpha, n):
    """Cell-averaged row over (t_{n-1}, t_n), four powers of w_{3-a} per entry."""
    t = np.asarray(levels, dtype=float)
    tn, tn1, tk1, tk = t[n], t[n - 1], t[:n - 1], t[1:n]
    num = (rl_weight(3.0 - alpha, tn - tk1) - rl_weight(3.0 - alpha, tn - tk)
           - rl_weight(3.0 - alpha, tn1 - tk1) + rl_weight(3.0 - alpha, tn1 - tk))
    diagonal = (tn - tn1) ** (-alpha) / math.gamma(3.0 - alpha)
    return np.append(diagonal, (num / ((tn - tn1) * (tk - tk1)))[::-1])


def l1plus_row(mesh, alpha, n):
    """The package's cell-averaged row as ``.weights``, in lag order."""
    return SimpleNamespace(weights=kernels.l1plus_row(mesh, alpha, n)[::-1])


_ROW_FN = {"l1": kernels.l1_row, "l1plus": kernels.l1plus_row}


def apply_direct(mesh, alpha, increments, n, kind="l1plus"):
    """Direct summation sum_{k=1..n} a_{n-k} * increment_k.

    ``increments`` holds the level increments v^k - v^{k-1} (scalars or
    fields, stacked along the first axis) for k = 1..n at least.
    """
    incs = np.asarray(increments, dtype=float)
    if incs.shape[0] < n:
        raise ValueError(f"need {n} increments, got {incs.shape[0]}")
    return np.tensordot(_ROW_FN[kind](mesh, alpha, n), incs[:n], axes=1)


def quadratic_form(mesh, alpha, w, kind="l1plus"):
    """Bilinear energy sum_{k<=n} w_k sum_{j<=k} a_{k-j}^{(k)} w_j.

    Nonnegative for the l1plus family on any mesh.  For the l1 family on
    nonuniform meshes no sign is guaranteed; the value is returned for
    experimentation and never asserted.
    """
    w = np.asarray(w, dtype=float)
    total = 0.0
    for k in range(1, w.size + 1):
        total += w[k - 1] * float(np.dot(_ROW_FN[kind](mesh, alpha, k), w[:k]))
    return total


def fast_l1plus_apply(bank, tau_n, local_increment):
    """Fast cell-averaged Caputo value at the trial level n = committed + 1.

    Equals the exact direct summation up to the certified kernel tolerance:
    the two newest cells carry exact weights, older cells go through the
    exponential sum.
    """
    a0, hist = bank.read(tau_n)["cn"]
    return a0 * np.asarray(local_increment, dtype=float) + hist


def fast_l1_apply(bank, tau_n, local_increment):
    """Fast collocation (t_n) Caputo value at the trial level; shares the bank."""
    a0, hist = bank.read(tau_n)["be"]
    return a0 * np.asarray(local_increment, dtype=float) + hist


def energy_bound_violation(records, e0):
    """Worst exceedance of the dissipation bound E(n) <= E(0) over a trajectory."""
    worst = 0.0
    for r in records:
        if r.accepted:
            worst = max(worst, r.energy_mod - e0)
    return worst
