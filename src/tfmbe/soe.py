"""Exponential-sum compression of the convolution kernel w_{1-a}.

The kernel has the Laplace representation

    w_{1-a}(t) = 1/(Gamma(a) Gamma(1-a)) * int_0^inf e^{-s t} s^(a-1) ds,

which is discretized by a Gauss-Jacobi rule on a base panel [0, s0]
(absorbing the s^(a-1) endpoint weight) followed by dyadically growing
Gauss-Legendre panels up to a truncation point s_max set by the target
tolerance and the cut-off time.  All nodes and weights are positive, and
the certified bound

    |w_{1-a}(t) - sum_l W_l exp(-theta_l t)| <= eps   on [dt_min, T]

is checked by ``verify_soe`` before an approximation is accepted.

``HistoryBank`` maintains the per-node exponential states
H_l(t_k) = int_0^{t_k} exp(-theta_l (t_k - s)) v'(s) ds via the one-step
recursion H_l(t_k) = exp(-theta_l tau_k) H_l(t_{k-1}) + c_l * (v^k -
v^{k-1}).  The bank lags one committed step behind: after committing
steps 1..k it stores H(t_{k-1}) plus the step-k increment.  The fast
formulas then treat the two newest mesh cells with exact closed-form
weights and use the compressed sum only for lags >= the previous step.
Keeping the adjacent cell exact matters: the exponential sum is accurate
only for arguments above dt_min, while the kernel mass of the adjacent
cell concentrates at arbitrarily small lags.

The commit folds the pending step into the bank in place, one block of
node rows at a time (a fixed number of bytes, sized to stay in cache),
through a scratch block allocated with the bank: each accepted step reads
and writes the bank once and allocates nothing the size of the bank.

The solver's history (``tfmbe.sav.CaputoHistory``) sums an exact prefix
first, for steps below dt_min, and then replays it into one bank that
carries every later level; ``--soe-mode direct`` keeps every level exact
and uses no bank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .errors import SOEConstructionError, StateError
from .kernels import rl_weight

__all__ = [
    "SOEApprox",
    "build_soe",
    "verify_soe",
    "HistoryBank",
    "fast_l1plus_apply",
    "fast_l1_apply",
]

# extra margin on the internal build target so that summing <=eps pointwise
# errors over an O(100)-cell history stays within a small multiple of eps
_BUILD_MARGIN = 16.0

# bytes of bank the commit updates per block: a block and its scratch stay
# in a 2 MiB per-core cache from the decay pass to the gain pass, and the
# per-block call overhead stays small next to the arithmetic
_COMMIT_BLOCK_BYTES = 1 << 19

# log-spaced sample count at which build_soe verifies each candidate rule
_BUILD_SAMPLES = 4001


@dataclass(frozen=True)
class SOEApprox:
    """Positive nodes/weights with sum_l W_l exp(-theta_l t) ~ w_{1-a}(t)."""

    alpha: float
    eps: float
    dt_min: float
    T: float
    nodes: np.ndarray = field(repr=False)
    weights: np.ndarray = field(repr=False)

    @property
    def n_terms(self):
        return self.nodes.size

    def evaluate(self, t):
        """Evaluate the exponential sum at times t (vectorized)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.n_terms == 0:
            return np.zeros_like(t)
        return np.exp(-np.multiply.outer(t, self.nodes)) @ self.weights


def _panel_rule(alpha, s0, s_max, n_base, n_panel):
    pref = 1.0 / (math.gamma(alpha) * math.gamma(1.0 - alpha))
    xj, wj = roots_jacobi(n_base, 0.0, alpha - 1.0)
    nodes = [s0 * (1.0 + xj) / 2.0]
    weights = [pref * (s0 / 2.0) ** alpha * wj]
    xl, wl = roots_legendre(n_panel)
    a = s0
    while a < s_max:
        b = 2.0 * a
        s = a + (b - a) * (xl + 1.0) / 2.0
        nodes.append(s)
        weights.append(pref * (b - a) / 2.0 * wl * s ** (alpha - 1.0))
        a = b
    return np.concatenate(nodes), np.concatenate(weights)


def build_soe(alpha, eps, dt_min, T):
    """Build a certified exponential-sum approximation of w_{1-a} on [dt_min, T].

    Panel orders are escalated until the verifier reports an error at or
    below eps (an internal target of eps/16 is attempted first).  Raises
    ``SOEConstructionError`` with the achieved error if even the largest
    rule misses eps.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0,1), got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"tolerance must lie in (0,1), got {eps}")
    if not 0.0 < dt_min < T:
        raise ValueError(f"need 0 < dt_min < T, got dt_min={dt_min}, T={T}")
    eps_target = eps / _BUILD_MARGIN
    pref = 1.0 / (math.gamma(alpha) * math.gamma(1.0 - alpha))
    s_max = max(math.log(2.0 * max(pref, 1.0) / (dt_min * eps_target)), 10.0) / dt_min
    s0 = 1.0 / T
    best_err, best = math.inf, None
    for n_base, n_panel in ((24, 10), (32, 14), (40, 18), (48, 22), (64, 28)):
        nodes, weights = _panel_rule(alpha, s0, s_max, n_base, n_panel)
        soe = SOEApprox(alpha, eps, dt_min, T, nodes, weights)
        err = verify_soe(soe, _BUILD_SAMPLES)
        if err < best_err:
            best_err, best = err, soe
        if err <= eps_target:
            return soe
    if best_err <= eps:
        return best
    raise SOEConstructionError(
        f"exponential-sum build reached {best_err:.3e} > eps={eps:.3e} "
        f"(alpha={alpha}, dt_min={dt_min}, T={T})", achieved=best_err)


def verify_soe(soe, samples=10000):
    """Max absolute kernel error over log-spaced samples of [dt_min, T]."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    t = np.exp(np.linspace(math.log(soe.dt_min), math.log(soe.T), samples))
    err = soe.evaluate(t) - rl_weight(1.0 - soe.alpha, t)
    return float(np.max(np.abs(err)))


def _relexp(x):
    """(1 - exp(-x))/x for x > 0, stable for small arguments."""
    return -np.expm1(-x) / x


class HistoryBank:
    """Exponential history states, lagged one committed step behind.

    After committing steps 1..k the bank holds H(t_{k-1}) together with the
    pending pair (tau_k, increment_k); H(t_0) = 0.  Commits must arrive in
    level order and only for accepted steps.  ``commit`` updates ``h`` in
    place, block by block: ``h`` keeps its buffer for the bank's lifetime.
    The bank keeps the increment array it is given, not a copy, until the
    next commit folds it in, so the caller must not modify it meanwhile.
    """

    def __init__(self, soe, shape=()):
        self.soe = soe
        self.shape = tuple(shape)
        self.h = np.zeros((soe.n_terms,) + self.shape)
        row_bytes = self.h.itemsize * math.prod(self.shape)
        rows = max(1, _COMMIT_BLOCK_BYTES // max(1, row_bytes))
        scratch = np.empty((min(rows, soe.n_terms),) + self.shape)
        # (node rows, their view of h, a scratch view of the same shape),
        # built once so that a commit allocates nothing per block
        self._blocks = [
            (slice(i, i + rows), self.h[i:i + rows], scratch[:soe.n_terms - i])
            for i in range(0, soe.n_terms, rows)]
        self.pending = None
        self.n_committed = 0

    def commit(self, tau, increment, level=None):
        if level is not None and level != self.n_committed + 1:
            raise StateError(
                f"commit for level {level} but bank holds {self.n_committed}")
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step size for level {self.n_committed + 1} must be "
                             f"finite and positive, got {tau}")
        inc = np.asarray(increment, dtype=float)
        if inc.shape != self.shape:
            raise ValueError(f"increment shape {inc.shape} != bank shape {self.shape}")
        if self.pending is not None:
            tau_p, inc_p = self.pending
            x = self.soe.nodes * tau_p
            pad = (-1,) + (1,) * len(self.shape)
            decay = np.exp(-x).reshape(pad)
            gain = _relexp(x).reshape(pad)
            for block, h, scratch in self._blocks:
                np.multiply(gain[block], inc_p, out=scratch)
                h *= decay[block]
                h += scratch
        self.pending = (float(tau), inc)
        self.n_committed += 1


def _l1plus_terms(bank, tau_n):
    """(local coefficient, history value) of the fast cell-averaged formula."""
    alpha = bank.soe.alpha
    a0 = tau_n ** (-alpha) / math.gamma(3.0 - alpha)
    hist = np.zeros(bank.shape)
    if bank.pending is not None:
        tau_p, inc_p = bank.pending
        a1 = (rl_weight(3.0 - alpha, tau_n + tau_p) - rl_weight(3.0 - alpha, tau_n)
              - rl_weight(3.0 - alpha, tau_p)) / (tau_n * tau_p)
        hist = hist + a1 * inc_p
        if bank.n_committed >= 2:
            th = bank.soe.nodes
            w = bank.soe.weights * (-np.expm1(-th * tau_n) / th) \
                * np.exp(-th * tau_p) / tau_n
            hist = hist + np.tensordot(w, bank.h, axes=1)
    return a0, hist


def _l1_terms(bank, tau_n):
    """(local coefficient, history value) of the fast collocation formula."""
    alpha = bank.soe.alpha
    a0 = tau_n ** (-alpha) / math.gamma(2.0 - alpha)
    hist = np.zeros(bank.shape)
    if bank.pending is not None:
        tau_p, inc_p = bank.pending
        a1 = (rl_weight(2.0 - alpha, tau_n + tau_p)
              - rl_weight(2.0 - alpha, tau_n)) / tau_p
        hist = hist + a1 * inc_p
        if bank.n_committed >= 2:
            th = bank.soe.nodes
            w = bank.soe.weights * np.exp(-th * (tau_n + tau_p))
            hist = hist + np.tensordot(w, bank.h, axes=1)
    return a0, hist


def fast_l1plus_apply(bank, tau_n, local_increment):
    """Fast cell-averaged Caputo value at the trial level n = committed + 1.

    Equals the exact direct summation up to the certified kernel tolerance:
    the two newest cells carry exact weights, older cells go through the
    exponential sum.
    """
    a0, hist = _l1plus_terms(bank, tau_n)
    return a0 * np.asarray(local_increment, dtype=float) + hist


def fast_l1_apply(bank, tau_n, local_increment):
    """Fast collocation (t_n) Caputo value at the trial level; shares the bank."""
    a0, hist = _l1_terms(bank, tau_n)
    return a0 * np.asarray(local_increment, dtype=float) + hist
