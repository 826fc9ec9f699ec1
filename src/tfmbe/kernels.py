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
T = 500, tau = 1e-4.  ``CaputoHistory`` reads these rows at every level in
direct mode (``--soe-mode direct``, the tables, the initial-layer run),
and in fast mode only before its first step of at least dt_min.
"""

from __future__ import annotations

import math

import numpy as np

from .timemesh import TimeMesh

__all__ = [
    "L1",
    "L1PLUS",
    "rl_weight",
    "l1_row",
    "l1plus_row",
    "l1plus_diagonal",
    "l1plus_block",
    "apply_direct",
    "quadratic_form",
]

L1 = "l1"
L1PLUS = "l1plus"


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


class KernelRow:
    """Convolution weights of one time level.

    ``weights[j]`` multiplies the increment at level n - j; in particular
    ``weights[0]`` is the diagonal (local) coefficient.
    """

    __slots__ = ("level", "alpha", "kind", "weights")

    def __init__(self, level, alpha, kind, weights):
        self.level = level
        self.alpha = alpha
        self.kind = kind
        self.weights = weights

    def __repr__(self):
        return f"KernelRow(n={self.level}, alpha={self.alpha}, kind={self.kind!r})"


def l1_row(mesh, alpha, n):
    """Collocation kernel row at t_n: a_{n-k} = avg of w_{1-a}(t_n - s) over cell k."""
    _require_order(alpha)
    t = _levels_of(mesh)
    if not 1 <= n <= t.size - 1:
        raise ValueError(f"level {n} outside mesh with {t.size - 1} steps")
    tn = t[n]
    taus = t[1:n + 1] - t[:n]
    hi = rl_weight(2.0 - alpha, tn - t[:n])
    lo = rl_weight(2.0 - alpha, tn - t[1:n + 1])
    a = (hi - lo) / taus            # indexed by k = 1..n
    return KernelRow(n, alpha, L1, a[::-1].copy())


def l1plus_row(mesh, alpha, n):
    """Cell-averaged kernel row over (t_{n-1}, t_n).

    For k < n the weight is a double difference of w_{3-a} scaled by
    1/(tau_n tau_k); the diagonal weight collapses to
    1 / (Gamma(3-a) tau_n^a).
    """
    _require_order(alpha)
    t = _levels_of(mesh)
    if not 1 <= n <= t.size - 1:
        raise ValueError(f"level {n} outside mesh with {t.size - 1} steps")
    tn, tn1 = t[n], t[n - 1]
    tau_n = tn - tn1
    weights = np.empty(n)
    weights[0] = l1plus_diagonal(tau_n, alpha)
    if n > 1:
        tk1 = t[:n - 1]
        tk = t[1:n]
        taus = tk - tk1
        num = (rl_weight(3.0 - alpha, tn - tk1) - rl_weight(3.0 - alpha, tn - tk)
               - rl_weight(3.0 - alpha, tn1 - tk1) + rl_weight(3.0 - alpha, tn1 - tk))
        weights[1:] = (num / (tau_n * taus))[::-1]
    return KernelRow(n, alpha, L1PLUS, weights)


def l1plus_diagonal(tau_n, alpha):
    """The local weight of a cell-averaged row, 1 / (Gamma(3-a) tau_n^a)."""
    return tau_n ** (-alpha) / math.gamma(3.0 - alpha)


def l1plus_block(mesh, alpha, rows, cols):
    """Cell-averaged weights of the increments ``cols`` in the rows ``rows``.

    ``rows`` and ``cols`` are ranges of levels.  Entry [i, j] is the weight
    of increment ``cols[j]`` in row ``rows[i]`` of the (causal) kernel
    matrix: for an increment older than the row, ``l1plus_row``'s weight
    bit for bit (the same double difference in the same order, from one
    power of w_{3-a} per (row, increment) pair where a row takes four per
    entry); zero for an increment newer than the row; and the local weight,
    to rounding, on the diagonal (w_{3-a} vanishes at negative times).
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


_ROW_FN = {L1: l1_row, L1PLUS: l1plus_row}


def apply_direct(mesh, alpha, increments, n, kind=L1PLUS):
    """Direct summation sum_{k=1..n} a_{n-k} * increment_k.

    ``increments`` holds the level increments v^k - v^{k-1} (scalars or
    fields, stacked along the first axis) for k = 1..n at least.
    """
    incs = np.asarray(increments, dtype=float)
    if incs.shape[0] < n:
        raise ValueError(f"need {n} increments, got {incs.shape[0]}")
    row = _ROW_FN[kind](mesh, alpha, n)
    # weights[j] pairs with increment n-j; flip to run over k = 1..n
    return np.tensordot(row.weights[::-1], incs[:n], axes=1)


def quadratic_form(mesh, alpha, w, kind=L1PLUS):
    """Bilinear energy sum_{k<=n} w_k sum_{j<=k} a_{k-j}^{(k)} w_j.

    Nonnegative for the l1plus family on any mesh.  For the l1 family on
    nonuniform meshes no sign is guaranteed; the value is returned for
    experimentation and never asserted.
    """
    w = np.asarray(w, dtype=float)
    row_fn = _ROW_FN[kind]
    total = 0.0
    for k in range(1, w.size + 1):
        row = row_fn(mesh, alpha, k)
        total += w[k - 1] * float(np.dot(row.weights[::-1], w[:k]))
    return total
