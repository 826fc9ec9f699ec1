"""Discrete convolution kernels for the Caputo derivative on nonuniform meshes.

Two kernel families are provided, both derived from the piecewise-linear
interpolant of the solution:

* ``l1``     - collocation at t_n (first-order accurate); the weight of the
  k-th increment is the cell average of w_{1-a}(t_n - s) over cell k.
* ``l1plus`` - the additional cell average over (t_{n-1}, t_n) in the
  evaluation variable (second-order accurate for any order a in (0,1));
  its quadratic form is positive semi-definite on arbitrary meshes, which
  is what makes energy-stable stepping possible on adaptive meshes.

All entries are evaluated in closed form through the fractional integral
weight w_b(t) = t^(b-1)/Gamma(b): one antiderivative for the l1 family and
a second antiderivative (a double difference) for the l1plus family.  The
closed forms are validated against adaptive quadrature of the defining
integrals in the test suite.

Numerical note: the l1plus history weights are double differences of
w_{3-a} at nearly equal arguments, with no compensated arithmetic, so
their relative error grows with the square of the lag (1e-10 to 5e-10 at
1e3 steps).  Against 50-digit mpmath, the worst of nine entries of the
last row of a uniform mesh at alpha = 0.7 (the oldest one) is 1.2e-7 at
T = 30, tau = 1e-3; 7.8e-4 at T = 200, tau = 1.25e-4; and 1.2e-2 at
T = 500, tau = 1e-4.

A row holds the n weights of level n in level order (entry k - 1 weighs the
increment of level k, the local weight last).  ``l1plus_row`` is
``l1plus_block``'s one-row case with the closed-form ``l1plus_diagonal``.
``CaputoHistory`` reads rows at level 1 and the estimator's ``l1_row``;
every other second-order row it reads comes from ``l1plus_block``.
"""

from __future__ import annotations

import math

import numpy as np

from .timemesh import TimeMesh

__all__ = [
    "rl_weight",
    "l1_row",
    "l1plus_row",
    "l1plus_diagonal",
    "l1plus_block",
]


def rl_weight(beta, t):
    """Fractional integral weight w_b(t) = t^(b-1) / Gamma(b)."""
    return np.asarray(t) ** (beta - 1.0) / math.gamma(beta)


def _require_order(alpha):
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0,1), got {alpha}")


def _levels_of(mesh):
    if isinstance(mesh, TimeMesh):
        return mesh.levels
    return np.asarray(mesh, dtype=float)


def l1_row(mesh, alpha, n):
    """Collocation kernel row at t_n: entry k - 1 averages w_{1-a}(t_n - s) over cell k."""
    _require_order(alpha)
    t = _levels_of(mesh)
    if not 1 <= n <= t.size - 1:
        raise ValueError(f"level {n} outside mesh with {t.size - 1} steps")
    tn = t[n]
    taus = t[1:n + 1] - t[:n]
    hi = rl_weight(2.0 - alpha, tn - t[:n])
    lo = rl_weight(2.0 - alpha, tn - t[1:n + 1])
    return (hi - lo) / taus


def l1plus_row(mesh, alpha, n):
    """Cell-averaged kernel row over (t_{n-1}, t_n): row n of ``l1plus_block``.

    The local weight, last, is ``l1plus_diagonal``'s closed form.
    """
    t = _levels_of(mesh)
    row = l1plus_block(t, alpha, range(n, n + 1), range(1, n + 1))[0]
    row[-1] = l1plus_diagonal(t[n] - t[n - 1], alpha)
    return row


def l1plus_diagonal(tau_n, alpha):
    """The local weight of a cell-averaged row, 1 / (Gamma(3-a) tau_n^a)."""
    return tau_n ** (-alpha) / math.gamma(3.0 - alpha)


def l1plus_block(mesh, alpha, rows, cols):
    """Cell-averaged weights of the increments ``cols`` in the rows ``rows``.

    ``rows`` and ``cols`` are ranges of levels.  Entry [i, j] is the weight
    of increment k = ``cols[j]`` in row n = ``rows[i]`` of the (causal)
    kernel matrix: for k < n the double difference
    [W(t_n - t_{k-1}) - W(t_n - t_k) - W(t_{n-1} - t_{k-1}) + W(t_{n-1} - t_k)]
    / (tau_n tau_k) of W = w_{3-a}, added in that order, from one power of W
    per (row, increment) pair; zero for k > n; and the local weight, to
    rounding, on the diagonal (W vanishes at negative times).
    """
    _require_order(alpha)
    t = _levels_of(mesh)
    if not (1 <= rows.start <= rows.stop <= t.size and 1 <= cols.start <= cols.stop <= t.size):
        raise ValueError(f"rows {rows} or increments {cols} outside a mesh with "
                         f"{t.size - 1} steps")
    beta = 3.0 - alpha
    t_rows, t_cols = t[rows.start - 1:rows.stop], t[cols.start - 1:cols.stop]
    # w[i, j] = w_b(t_{r-1+i} - t_{c-1+j}) (0 at negative times), as
    # rl_weight forms it, in place
    w = np.subtract.outer(t_rows, t_cols)
    np.maximum(w, 0.0, out=w)
    w **= beta - 1.0
    w /= math.gamma(beta)
    num = w[1:, :-1] - w[1:, 1:]
    num -= w[:-1, :-1]
    num += w[:-1, 1:]
    # the products tau_r tau_c, formed in w's storage
    num /= np.multiply.outer(np.diff(t_rows), np.diff(t_cols), out=w[:-1, :-1])
    return num
