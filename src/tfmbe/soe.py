"""Exponential-sum compression of the convolution kernel w_{1-a}.

The kernel has the Laplace representation

    w_{1-a}(t) = 1/(Gamma(a) Gamma(1-a)) * int_0^inf e^{-s t} s^(a-1) ds,

which ``build_soe`` discretizes in three stages:

1. Panel rule.  A Gauss-Jacobi rule on a base panel [0, s0] (absorbing
   the s^(a-1) endpoint weight) is followed by dyadically growing
   Gauss-Legendre panels up to a truncation point s_max set by the target
   tolerance and the cut-off time.  Panel orders are raised until the
   rule meets eps/16 on [dt_min, T].  Such a rule overshoots that target
   by orders of magnitude and carries far more terms than it needs.
2. Reduction (exponential-sum reduction in the spirit of Beylkin and
   Monzon).  The weighted exponentials W_l exp(-theta_l t) are sampled at
   log-spaced times; pivoted Gram-Schmidt keeps the terms the others are
   combinations of, down to an absolute tolerance below eps/16, and a QR
   least-squares fit of the kernel gives the kept terms new weights.
   Terms whose weight comes out non-positive leave the candidates and the
   selection is repeated, so every weight stays positive and the
   compressed kernel stays completely monotone.
3. Certification.  ``verify_soe`` checks

       |w_{1-a}(t) - sum_l W_l exp(-theta_l t)| <= eps/16   on [dt_min, T]

   for the reduced sum; if it fails, the panel rule is returned as it is.

The Gauss rules are computed with numpy alone: Gauss-Jacobi by the
Golub-Welsch eigenvalue method (weights from the Christoffel function of
the orthonormal recurrence), Gauss-Legendre by
``numpy.polynomial.legendre.leggauss``.

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

The commit does not sweep the bank every step.  The bank keeps H at a
reference step, the per-node decay product P since then, and the last
``_FOLD_STEPS`` folded increments in a ring with coefficients Q, so that
H = P * H_ref + Q @ ring, and a read with node weights w takes
(w * P) . H_ref + (w . Q) . ring.  When the ring is full, the commit
sweeps the bank once, one block of node rows at a time (a fixed number of
bytes, sized to stay in cache), with one matrix product per block, whose
block-sized result is added in place: commits read and write the bank
once per ``_FOLD_STEPS`` accepted steps, none allocates anything the size
of the bank, and the bank keeps no scratch.

A read serves both fast formulas.  The two trials of an adaptive step
(second order, then the estimator) read the history at the same level and
step size, so one pass forms both schemes' node weights and takes the two
sums together: H_ref and the ring are the leading and trailing rows of one
buffer, and a two-row matrix product per column block of it (blocks of the
same byte size as the sweep's) writes both sums into an output buffer
allocated with the bank.  The bank keeps no sum between reads: the history
keeps both, in its one table of kept sums, for a read at the same level
and step, so an adaptive trial costs one pass over the bank, and so does a
fixed-mesh step, which asks for the second-order sum only.

The solver's history (``tfmbe.sav.CaputoHistory``) sums an exact prefix
first, up to its first step of at least dt_min, and then one bank carries
every later level; ``--soe-mode direct`` keeps every level exact and uses
no bank.  The bank takes over the prefix's store, one array made with
room for its rows: it folds the stored increments into H in place, one
column block at a time, with one matrix product of their closed-form
coefficients, so the history is never held twice.  A prefix that outgrew
the bank's rows is folded into a buffer of the bank's own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kernels import rl_weight

__all__ = [
    "SOEApprox",
    "build_soe",
    "verify_soe",
    "HistoryBank",
]

# extra margin on the internal build target so that summing <=eps pointwise
# errors over an O(100)-cell history stays within a small multiple of eps
_BUILD_MARGIN = 16.0

# bytes of bank a sweep updates per block (node rows), and a read reads per
# block (columns): a block and its scratch stay in a 2 MiB per-core cache
# from the matrix product to the update, and the per-block call overhead
# stays small next to the arithmetic
_COMMIT_BLOCK_BYTES = 1 << 19

# increments folded between two sweeps of the bank; the ring that holds
# them costs this many fields (1.1 MB at 128^2)
_FOLD_STEPS = 8

# log-spaced sample count at which build_soe verifies each candidate rule
_BUILD_SAMPLES = 4001
# and the count verify_soe checks by default
_VERIFY_SAMPLES = 10000
# kernel tolerance of every driver's exponential sum (run.json's soe_eps)
_SOE_EPS = 1e-10

# the reduction fits on every tenth verification sample (401 of them), so
# a fit that misses the target on its own samples cannot be certified
_REDUCE_STRIDE = 10

# Gram-Schmidt stops once every residual term is below this share of the
# build target (sample 2-norm), leaving the refit room under the target
_REDUCE_TOL = 0.1


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


def _gauss_jacobi(n, beta):
    """Gauss rule for the weight (1 + x)^beta on [-1, 1], beta > -1 (Golub-Welsch)."""
    k = np.arange(1.0, n)
    s = 2.0 * k + beta
    diag = np.empty(n)
    diag[0] = beta / (beta + 2.0)
    diag[1:] = beta * beta / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    # weights 1 / sum_j p_j(x)^2 over the orthonormal polynomials p_j (the
    # Christoffel function): unlike the squared first eigenvector
    # components, they keep full relative accuracy on the small weights
    off = np.concatenate(([0.0], off))
    p_prev, p = np.zeros(n), np.full(n, math.sqrt((beta + 1.0) / 2.0 ** (beta + 1.0)))
    total = p * p
    for j in range(n - 1):
        p_prev, p = p, ((x - diag[j]) * p - off[j] * p_prev) / off[j + 1]
        total += p * p
    return x, 1.0 / total


def _panel_rule(alpha, s0, s_max, n_base, n_panel):
    pref = 1.0 / (math.gamma(alpha) * math.gamma(1.0 - alpha))
    xj, wj = _gauss_jacobi(n_base, alpha - 1.0)
    nodes = [s0 * (1.0 + xj) / 2.0]
    weights = [pref * (s0 / 2.0) ** alpha * wj]
    xl, wl = np.polynomial.legendre.leggauss(n_panel)
    a = s0
    while a < s_max:
        b = 2.0 * a
        s = a + (b - a) * (xl + 1.0) / 2.0
        nodes.append(s)
        weights.append(pref * (b - a) / 2.0 * wl * s ** (alpha - 1.0))
        a = b
    return np.concatenate(nodes), np.concatenate(weights)


def _pivoted_gram_schmidt(rows, tol):
    """Indices of ``rows``, picked greedily until every residual norm is <= tol.

    Each step takes the row of largest residual norm and removes its
    direction from the others.  A row whose residual is already at or below
    ``tol`` is dropped for good: projections never lengthen it.
    """
    res, idx, picked = rows, np.arange(len(rows)), []
    while len(res):
        norms = np.einsum("ij,ij->i", res, res)
        j = int(np.argmax(norms))
        if norms[j] <= tol * tol:
            break
        picked.append(idx[j])
        q = res[j] / math.sqrt(norms[j])
        live = norms > tol * tol
        live[j] = False
        res, idx = res[live], idx[live]
        res -= np.multiply.outer(res @ q, q)
    return np.array(picked, dtype=int)


def _reduced(soe, target):
    """A sum with fewer positive terms certified at ``target``, else ``soe``."""
    t = _log_samples(soe.dt_min, soe.T, _BUILD_SAMPLES)[::_REDUCE_STRIDE]
    terms = soe.weights[:, None] * np.exp(-np.multiply.outer(soe.nodes, t))
    kernel = rl_weight(1.0 - soe.alpha, t)
    # Gram-Schmidt on the rows of R^T, R from a QR of the sampled terms: an
    # orthogonal change of coordinates, so every norm and inner product is
    # kept, and each row shrinks from 401 samples to at most n_terms entries
    coords = np.linalg.qr(terms.T, mode="r").T
    candidates = np.arange(soe.n_terms)
    while candidates.size:
        keep = np.sort(candidates[_pivoted_gram_schmidt(coords[candidates],
                                                        _REDUCE_TOL * target)])
        cols = terms[keep].T
        scale = np.linalg.norm(cols, axis=0)
        # R of [cols/scale, kernel] holds R of the scaled columns and Q^T kernel
        r = np.linalg.qr(np.column_stack((cols / scale, kernel)), mode="r")
        coef = np.linalg.solve(r[:-1, :-1], r[:-1, -1]) / scale
        # these samples are among the certification samples, and later fits
        # draw on fewer candidates: a fit that misses here ends the reduction
        if np.max(np.abs(cols @ coef - kernel)) > target:
            break
        weights = soe.weights[keep] * coef
        if np.all(weights > 0.0):
            reduced = SOEApprox(soe.alpha, soe.eps, soe.dt_min, soe.T,
                                soe.nodes[keep], weights)
            if verify_soe(reduced, _BUILD_SAMPLES) <= target:
                return reduced
            break
        candidates = np.setdiff1d(candidates, keep[weights <= 0.0])
    return soe


def build_soe(alpha, eps, dt_min, T):
    """Build a certified exponential-sum approximation of w_{1-a} on [dt_min, T].

    Panel orders are escalated until the verifier reports an error at or
    below eps (an internal target of eps/16 is attempted first).  A panel
    rule that meets eps/16 is then reduced to fewer terms; the reduced sum
    is returned only if it too is certified at eps/16.  Raises
    ``ValueError`` naming the achieved error if even the largest rule
    misses eps.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"fractional order must lie in (0,1), got {alpha}")
    if not 0.0 < eps < 1.0:
        raise ValueError(f"tolerance must lie in (0,1), got {eps}")
    if not 0.0 < dt_min < T < math.inf:  # an infinite T would add panels forever
        raise ValueError(f"need 0 < dt_min < T < inf, got dt_min={dt_min}, T={T}")
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
            return _reduced(soe, eps_target)
    if best_err <= eps:
        return best
    raise ValueError(f"exponential-sum build reached {best_err:.3e} > eps={eps:.3e} "
                     f"(alpha={alpha}, dt_min={dt_min}, T={T})")


def verify_soe(soe, samples=_VERIFY_SAMPLES):
    """Max absolute kernel error over log-spaced samples of [dt_min, T]."""
    if samples < 2:
        raise ValueError("need at least 2 samples")
    t = _log_samples(soe.dt_min, soe.T, samples)
    err = soe.evaluate(t) - rl_weight(1.0 - soe.alpha, t)
    return float(np.max(np.abs(err)))


def _log_samples(dt_min, T, samples):
    return np.exp(np.linspace(math.log(dt_min), math.log(T), samples))


def _relexp(x):
    """(1 - exp(-x))/x for x > 0, stable for small arguments."""
    return -np.expm1(-x) / x


class HistoryBank:
    """Exponential history states, lagged one committed step behind.

    After committing steps 1..k the bank holds H(t_{k-1}) together with the
    pending pair (tau_k, increment_k); H(t_0) = 0.  Commits must arrive in
    level order and only for accepted steps.  H is kept in deferred form,

        H = P * h + Q @ ring,

    with ``h`` the states at a reference step, P the per-node decay product
    since then and ``ring`` the increments folded since then, Q their
    coefficients.  Folding a step scales P and Q and fills a ring slot;
    the commit that fills the last slot sweeps ``h`` once, block by block,
    and makes that step the new reference.  ``h`` and the ring share one
    buffer for the bank's lifetime.  A commit copies its increment into the
    next free ring slot, where the next commit folds it in.

    ``read`` forms both schemes' sums in one column-blocked pass over ``h``
    and the ring (the pending increment included), into a two-row output
    buffer of the bank; it keeps nothing else between calls.

    A bank made with ``prefix=(levels, tau, store)`` takes over the store
    of an exact prefix: ``store`` holds the increments of levels 1..n in
    order, one per row, and if it has the bank's ``n_terms + _FOLD_STEPS``
    rows it becomes the bank's buffer; ``levels`` are the times
    t_0..t_{n-1} and ``tau`` the step of level n.  The increments are
    folded into H(t_{n-1}) in place, and increment n becomes the pending
    step, so the bank holds what n commits would have left in it without
    a buffer of its own.  A store with more rows (a prefix that outgrew
    the bank's) is folded into a buffer of the bank's own, and the bank
    keeps no reference to it.
    """

    def __init__(self, soe, shape=(), prefix=None):
        self.soe = soe
        self.shape = tuple(shape)
        n_terms, size = soe.n_terms, math.prod(self.shape)
        # h and the ring are the leading and trailing rows of one buffer, so
        # that a read is one product over the rows it needs
        if prefix is not None and len(prefix[2]) == n_terms + _FOLD_STEPS:
            store = prefix[2]
        else:
            store = np.zeros((n_terms + _FOLD_STEPS, size))
        self.h = store[:n_terms].reshape((n_terms,) + self.shape)
        self._store = store
        self._decay = np.ones(n_terms)
        self._coef = np.zeros((n_terms, _FOLD_STEPS))
        self._ring = store[n_terms:]
        self._n_ring = 0
        # node rows a sweep updates per block
        self._sweep_rows = max(1, _COMMIT_BLOCK_BYTES // max(1, store.itemsize * size))
        # a read: both schemes' sums, one row each, computed a column block
        # at a time into an output buffer of the bank.  Measured on
        # growth-slope-128: one product into a new array per read was slower
        # in 9 of 10 pairs (median +7%), and column-blocking the sweep as
        # well cost 0.3 MB and was slower in 7 of 10
        cols = max(1, _COMMIT_BLOCK_BYTES // (store.itemsize * store.shape[0]))
        self._read_cols = [slice(j, j + cols) for j in range(0, size, cols)]
        self._read_out = np.zeros((2, size))
        self.pending = None
        self.n_committed = 0
        if prefix is not None:
            self._fold_prefix(*prefix)

    def _fold_prefix(self, levels, tau, store):
        """h = H(t_{n-1}) from the increments in ``store``, increment n pending.

        h = C @ (increments 1..n-1) with C[l, j] = relexp(theta_l tau_j)
        exp(-theta_l (t_{n-1} - t_j)), formed a column block at a time: the
        block's columns of every increment are read before the newest
        increment's go to ring slot 0 and h's are written, over the
        increments' rows if the bank took ``store`` over.
        """
        th = self.soe.nodes
        n_terms, n, size = th.size, len(levels), store.shape[1]
        coef = (_relexp(np.multiply.outer(th, np.diff(levels)))
                * np.exp(-np.multiply.outer(th, levels[-1] - levels[1:])))
        incs, newest = store[:n - 1], store[n - 1]  # no rows if n = 1: h = 0
        # column blocks no larger than a sweep's row block
        width = min(self._sweep_rows, n_terms) * size // n_terms
        for j in range(0, size, width):
            cols = slice(j, j + width)
            out = coef @ incs[:, cols]
            self._ring[0, cols] = newest[cols]
            self._store[:n_terms, cols] = out
        self.pending = (float(tau), self._ring[0].reshape(self.shape))
        self.n_committed = n

    def commit(self, tau, increment, level=None):
        """Add a step's increment; a wrong ``level``, tau or shape is a ValueError."""
        if level is not None and level != self.n_committed + 1:
            raise ValueError(
                f"commit for level {level} but bank holds {self.n_committed}")
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step size for level {self.n_committed + 1} must be "
                             f"finite and positive, got {tau}")
        inc = np.asarray(increment, dtype=float)
        if inc.shape != self.shape:
            raise ValueError(f"increment shape {inc.shape} != bank shape {self.shape}")
        if self.pending is not None:  # fold it: its increment is in slot m
            x = self.soe.nodes * self.pending[0]
            decay, m = np.exp(-x), self._n_ring
            self._decay *= decay
            self._coef[:, :m] *= decay[:, None]
            self._coef[:, m] = _relexp(x)
            self._n_ring = m + 1
            if self._n_ring == _FOLD_STEPS:
                h, step = self._store[:len(self._decay)], self._sweep_rows
                for i in range(0, len(h), step):
                    block = slice(i, i + step)
                    rows = h[block]
                    rows *= self._decay[block, None]
                    rows += np.matmul(self._coef[block], self._ring)
                self._decay.fill(1.0)
                self._n_ring = 0
        slot = self._ring[self._n_ring]
        slot[:] = inc.ravel()
        self.pending = (float(tau), slot.reshape(self.shape))
        self.n_committed += 1

    def read(self, tau_n):
        """{"cn": (a0, hist), "be": (a0, hist)}: both fast formulas at the trial step.

        "cn" is the cell-averaged formula, "be" the collocation one, each
        the pair (local coefficient, history value) at the trial level
        n_committed + 1.  One pass over the bank forms both.  The history
        values are views of the bank's output buffer: they hold until the
        next read, and the caller must not modify them.
        """
        alpha = self.soe.alpha
        out = self._read_out
        orders = (3.0 - alpha, 2.0 - alpha)
        a0 = [tau_n ** (-alpha) / math.gamma(order) for order in orders]
        if self.pending is None:
            out.fill(0.0)
        else:
            tau_p = self.pending[0]
            cn, be = orders
            a1 = [(rl_weight(cn, tau_n + tau_p) - rl_weight(cn, tau_n)
                   - rl_weight(cn, tau_p)) / (tau_n * tau_p),
                  (rl_weight(be, tau_n + tau_p) - rl_weight(be, tau_n)) / tau_p]
            th, weights, m = self.soe.nodes, self.soe.weights, self._n_ring
            w = np.stack((weights * (-np.expm1(-th * tau_n) / th)
                          * np.exp(-th * tau_p) / tau_n,
                          weights * np.exp(-th * (tau_n + tau_p))))
            # weights of the rows h (w * P), the folded ring slots (w . Q) and
            # the pending increment in slot m; until the second commit h is
            # zero and the ring holds only the pending increment
            rows = np.column_stack((w * self._decay, w @ self._coef[:, :m], a1))
            store = self._store[:rows.shape[1]]
            for cols in self._read_cols:
                np.matmul(rows, store[:, cols], out=out[:, cols])
        return {scheme: (a0_s, out[i].reshape(self.shape))
                for i, (scheme, a0_s) in enumerate(zip(("cn", "be"), a0))}
