"""Scalar-auxiliary-variable time stepping for the fractional growth models.

The height equation d_t^a phi = -M (eps2 Lap^2 phi + f(grad phi)) is
reformulated with a scalar auxiliary variable (u for the slope model, v for
the no-slope model) so that every step solves a linear, constant-coefficient
system.  Both schemes are one theta-weighted linear solve:

* ``cn_sav_step``    - theta = 1/2, second order; the fractional derivative
  is replaced by its cell average over (t_{n-1}, t_n) (positive
  semi-definite kernels), the linear terms by midpoint values, and the
  nonlinear flux is frozen at a local extrapolation of phi to the midpoint.
  The resulting trajectory satisfies the discrete energy bound
  E(n) <= E(0) on arbitrary meshes.
* ``be_l1_sav_step`` - theta = 1, first order (backward Euler with the
  collocation kernels, flux frozen at phi^{n-1}); it serves as the
  embedded low-order estimator for adaptive step control.

``init_state(grid, phi0, params, history)`` makes the state, which keeps
the grid and the model parameters for the whole trajectory: the steps
(``cn_sav_step(state, tau_n, source=None)``, ``be_l1_sav_step(state,
tau_n)``) and ``trajectory_observables(state, head=None)`` read them
from it, so a trajectory cannot change either midway.  Both steps return
a candidate without touching the convolution history; ``commit_candidate``
advances the state, so rejected adaptive trials leave everything
bit-identical.

The convolution history is one object, ``CaputoHistory``: an exact prefix
(steps below the exponential sum's dt_min, summed through the kernel rows)
followed by the bank of ``tfmbe.soe``, which takes over the prefix's store
and folds it into its states in place.  ``make_history(mode="direct")``
(``--soe-mode direct``) keeps every level exact.  The history takes its
shape from the first committed increment.  A read is answered from one
table of kept sums, which the bank's read or a chunk of the exact prefix
fills with several sums at once: both schemes' at the trial level, so an
adaptive trial reads its history once.  A fixed mesh is announced to, and
binds, the history (``CaputoHistory.plan``, which ``run_fixed`` calls):
the exact prefix is summed a chunk of planned levels at a time, each
(level, increment) pair once, in a few large matrix products (dyadic
blocks), and a planned read makes no estimator row.

Each solve is decoupled by a rank-one correction: with
L = a0 I + theta M (eps2 Lap^2 - beta Lap) (diagonal in transform space)
and a frozen flux W, the implicit system L phi + c' M (W, phi) W = g,
c' = +-theta/2, reduces to two diagonal solves chi = L^{-1} W,
gam = L^{-1} g and a scalar division with denominator
1 + c' M (W, chi).  For the slope model c' > 0 and the
denominator is at least one; the no-slope auxiliary energy enters with the
opposite sign (its potential is the negative log), so c' < 0 there and the
denominator is checked at runtime (it stays near one for production
step sizes).  The W term of the right-hand side is never formed: it enters
the solve as a scalar, through chi and (W, chi).

The step runs in transform space: the state carries the half-spectrum of
phi^n and the grid gradients of phi^n and phi^{n-1}, each one (2, nx, nx)
array, the flux divergence and the right-hand side are formed as
half-spectra, and every inner product is taken by Parseval.  A
candidate's grid values and gradient are transformed back together on
first use, by one shared inverse pass (``Grid2D.field_and_gradient``).
The convolution history stores the increments of the half-spectrum (as
its float view, shape (nx, nx + 2)), so its sums are half-spectra too
and are never transformed.  The state caches the step operators of each
theta, a0 - (1 - theta) M lin_sym and 1 / (a0 + theta M lin_sym),
complex-typed, for the last a0 it was solved at
(``SAVState.step_operators``): one entry per theta, rebuilt when a0
changes, so a controller that stays at one step size builds them once.
A step weights W for Parseval once and takes every (W, .) as a plain dot,
and assembles its right-hand side in place.  An adaptive trial makes 3
transform calls: the second-order step's flux divergence (one forward
call on the stacked flux), the estimator's (it is never transformed
back), and the shared inverse pass that gives the second-order
candidate's grid values and the gradient that the observables and the
next step reuse; a fixed-mesh step makes 2.
"""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SolverError
from .kernels import l1_row, l1plus_block, l1plus_diagonal, l1plus_row
from .soe import _FOLD_STEPS, _SOE_EPS, HistoryBank, build_soe
from .spectral import (SLOPE, _noslope_radicand, _slope_radicand, _squared_slope,
                       sav_radicand, sav_u_functional, sav_v_functional)

__all__ = [
    "CaputoHistory",
    "make_history",
    "SAVState",
    "StepCandidate",
    "init_state",
    "cn_sav_step",
    "be_l1_sav_step",
    "commit_candidate",
    "trajectory_observables",
]


# ---------------------------------------------------------------------------
# Convolution history
# ---------------------------------------------------------------------------

# A planned history sums its exact prefix a chunk of levels at a time: the
# chunk's first read fills its rows with one product over every increment
# committed before it, and the commit at chunk position p (from 1) adds the
# d = p & -p increments just committed into the next d rows, so each
# (level, increment) pair is summed once, in a few large products (the
# dyadic splitting of Hairer, Lubich & Schlichte, SIAM J. Sci. Stat.
# Comput. 6, 1985, with dense products in place of FFTs).  A chunk's rows
# take at most _CHUNK_BYTES (62 levels at 64^2) and at most _CHUNK_LEVELS
# levels.  A product over the prefix costs less per row the more rows it
# writes, up to about 64: at 64^2 over 600 stored levels (OpenBLAS on one
# thread of a shared 2-vCPU x86-64 host), 0.18, 0.13, 0.11-0.12 and 0.11 ms
# per row for 16, 32, 64 and 128 rows.
_CHUNK_BYTES = 1 << 21
_CHUNK_LEVELS = 64
# bytes of the scratch through which a product adds into rows; it stays:
# numpy temporaries in its place raised graded-direct-64's peak RSS by
# 0.35 MB in 16 of 16 pairs and were slower in 10 of 16
_SCRATCH_BYTES = 1 << 18


def _store_block(shape):
    """A float array of zeros whose pages become resident as they are written.

    A private anonymous map, not ``np.empty``: numpy asks for 2 MiB pages
    for arrays of 4 MiB or more, and such a page is resident from the first
    level written into it, which adds up to 2 MiB to the peak memory.  The
    exact prefix's store has rows for levels a run may never reach (every
    planned level, or twice the levels it held when it grew), and the bank
    that takes over a fast history's store writes its rows as it needs
    them, so only the rows written become resident.
    """
    # copy access: a private map on POSIX, and accepted on Windows too
    buffer = mmap.mmap(-1, 8 * math.prod(shape), access=mmap.ACCESS_COPY)
    return np.frombuffer(buffer).reshape(shape)


class CaputoHistory:
    """Caputo convolution history: an exact prefix, then an exponential-sum bank.

    Increments are stored and summed exactly through the kernel rows until
    the first committed step of at least the ``soe``'s dt_min (less 1e-12
    relative, for uniform steps ulps short of it), in one store that grows
    by doubling, or holds every planned level.  That commit makes the
    bank: it takes over the store, which was made with room for its rows,
    and folds the stored increments into its states there, a column block
    at a time, so no commit holds the history twice; a prefix that
    outgrew the bank's rows is folded into a buffer of the bank's own and
    freed.  The bank's fast formulas see lags down to
    the newest committed step, so a bank read after a step below dt_min
    raises ``SolverError``.  With no ``soe``
    every level stays exact (O(n) work per level).
    ``alpha == 1`` is the memoryless classical limit (CN / backward Euler).
    The first committed increment fixes the shape of every later one, and
    a read before any commit has no sum to add.

    Every read with a sum is answered from one table of kept sums, keyed by
    (scheme, level, level time), or the trial step on the bank.  On a miss
    one producer fills the table: the bank's ``read`` (both schemes in one
    pass), or a chunk of the exact prefix, whose rows are summed by matrix
    products over the stored increments.  An unplanned read makes a chunk
    of one level with both schemes' rows, so an adaptive step's estimator
    trial reads the sum the second-order trial's pass formed.  ``plan(taus)``
    announces the next steps and binds the history to them: a read or
    commit at a planned level whose level time differs, bit for bit, from
    the planned one is a ``ValueError``, raised before anything changes,
    and the levels past the plan's end are unplanned.  A second-order read
    at a planned level makes a chunk of up to ``_CHUNK_LEVELS`` planned
    levels, second order only: one product at its first read and one after
    each commit, so a later planned read finds its row complete.  The
    returned history value is a view of a buffer the history owns: it holds
    until the history's next read or commit, and the caller must not modify
    it.
    """

    def __init__(self, alpha, soe=None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"fractional order must lie in (0,1], got {alpha}")
        if soe is not None and soe.alpha != alpha:
            raise ValueError("exponential sum was built for a different order")
        self.alpha = alpha
        self.shape = None  # the first committed increment's
        self.soe = soe
        self._floor = math.inf if soe is None else soe.dt_min * (1.0 - 1e-12)
        self.n_committed = 0
        self.bank = None
        # exact prefix: the committed increments, one per row of the store
        # (replaced by one with at least twice the rows when full), and the
        # level times t_0..t_n, then the planned ones up to level
        # ``_plan_end`` (0: no plan), with a slot more for the trial level
        # (grown by doubling)
        self._store = self._chunk_levels = None
        self._levels = np.zeros(18)
        self._plan_end = 0
        # the first level of the planned chunk and the weights of its own
        # increments, or None
        self._chunk = self._chunk_weights = None
        # the kept sums, {(scheme, level, level time or trial step): (a0,
        # sum)}, and the buffers of the prefix's rows of sums and of the
        # scratch
        self._kept = {}
        self._rows = self._scratch = None

    def plan(self, taus):
        """Announce the step sizes of the levels after the committed ones, and bind them.

        A later read or commit at a planned level that misses its planned
        time is a ``ValueError``, and so is a step here that is not finite
        and positive (before anything changes).  A history with an
        exponential sum plans chunks of one level (a pass per read, with no
        estimator row): its exact prefix holds only the steps below dt_min
        (the drivers' 30-step graded start), where longer chunks would save
        little time and their rows would add 2 MB (4%) to growth-slope-128's
        peak memory.  Once the bank holds the history, plans are ignored.
        """
        n, taus = self.n_committed, np.asarray(taus, dtype=float)
        bad = np.flatnonzero(~(np.isfinite(taus) & (taus > 0)))
        if bad.size:
            raise ValueError(f"planned step size for level {n + 1 + bad[0]} must be "
                             f"finite and positive, got {taus[bad[0]]}")
        if self.bank is not None or self.alpha == 1.0:
            return
        # np.cumsum adds in order, as commit accumulates the level times
        levels = np.cumsum(np.append(self._levels[n], taus))
        self._levels = np.concatenate((self._levels[:n], levels, [0.0]))  # and a trial slot
        # the rows of a chunk of the old plan assumed its level times
        self._plan_end, self._chunk, self._kept = n + len(taus), None, {}

    def _off_plan(self, n, tau, t_n):
        """Raise the ValueError of a step tau that takes level n to t_n, not its planned time."""
        raise ValueError(f"level {n} is off the plan: a step of {float(tau)!r} reaches "
                         f"t = {float(t_n)!r}, planned t = {float(self._levels[n])!r}")

    def _bank_if_due(self, tau):
        """At the first step of at least dt_min, fold the prefix into a bank in place."""
        if self.bank is not None or tau < self._floor:
            return
        self._kept, self._rows, self._scratch = {}, None, None
        # the newest step as given, not via the level times: reads check it
        prefix = (self._levels[:self.n_committed], tau, self._store)
        self.bank = HistoryBank(self.soe, self.shape, prefix=prefix)
        self._levels = self._store = None

    def caputo_terms(self, scheme, tau_n):
        """Local coefficient and known history sum at the trial level.

        scheme "cn" uses the cell-averaged kernels, "be" the collocation
        kernels; the returned pair (a0, hist) satisfies
        caputo_value = a0 * (new increment) + hist.  hist is None when there
        is no sum to add: the history is memoryless (alpha = 1) or holds no
        level yet.
        """
        if self.alpha == 1.0:
            return 1.0 / tau_n, None
        n = self.n_committed + 1
        if self.bank is not None:
            tau_p = self.bank.pending[0]
            if tau_p < self._floor:
                raise SolverError(f"history read at level {n} after a step of "
                                  f"{tau_p:.6g} at level {n - 1}, below the exponential "
                                  f"sum's dt_min = {self.soe.dt_min:.6g}")
            key = (scheme, n, tau_n)
            if key not in self._kept:
                self._kept = {(s, n, tau_n): pair for s, pair in self.bank.read(tau_n).items()}
            return self._kept[key]
        levels = self._levels
        t_n = levels[n - 1] + tau_n
        if n <= self._plan_end and levels[n] != t_n:
            self._off_plan(n, tau_n, t_n)
        levels[n] = t_n  # the trial level; a commit overwrites it
        if n == 1:
            return (l1plus_row if scheme == "cn" else l1_row)(levels, self.alpha, 1)[-1], None
        key = (scheme, n, t_n)
        if key not in self._kept:
            self._start_chunk(n, scheme == "cn" and n <= self._plan_end)
        return self._kept[key]

    def _start_chunk(self, n, planned):
        """Fill the kept sums from the increments committed so far, from level n on.

        A planned chunk holds the second-order rows of up to
        ``_chunk_levels`` planned levels; an unplanned one, level n's rows
        of both schemes.
        """
        levels, alpha = self._levels, self.alpha
        k = min(self._chunk_levels, self._plan_end + 1 - n) if planned else 1
        if self._rows is None:
            self._rows = np.empty((max(2, self._chunk_levels), math.prod(self.shape)))
        # the rows on every increment they sum, the chunk's own included
        weights = l1plus_block(levels, alpha, range(n, n + k), range(1, n + k - 1))
        self._kept = {("cn", m, levels[m]): (l1plus_diagonal(levels[m] - levels[m - 1], alpha),
                                             self._rows[m - n].reshape(self.shape))
                      for m in range(n, n + k)}
        if planned:
            # the weights of the chunk's own increments, [row, increment - n]
            self._chunk, self._chunk_weights = n, weights[:, n - 1:].copy()
            weights = weights[:, :n - 1]
        else:
            row = l1_row(levels, alpha, n)
            self._kept[("be", n, levels[n])] = (row[-1], self._rows[1].reshape(self.shape))
            self._chunk = None
            weights = np.vstack((weights, row[:-1]))
        np.matmul(weights, self._store[:n - 1], out=self._rows[:len(weights)])

    def _add_committed(self, level):
        """Add the increments just committed into the chunk's next rows (dyadic blocks).

        The product is added a few rows at a time through the scratch buffer.
        """
        p = level - self._chunk + 1
        d = p & -p
        weights = self._chunk_weights[p:p + d, p - d:p]
        if not len(weights):
            return
        out, incs = self._rows[p:p + len(weights)], self._store[level - d:level]
        if self._scratch is None:
            rows = _SCRATCH_BYTES // (8 * incs.shape[1])
            self._scratch = np.empty((max(2, min(self._chunk_levels, rows)), incs.shape[1]))
        step = len(self._scratch)
        for i in range(0, len(out), step):
            rows = out[i:i + step]
            rows += np.matmul(weights[i:i + step], incs, out=self._scratch[:len(rows)])

    def commit(self, tau, increment, level=None):
        """Append an accepted step's increment; a bad input is a ValueError, before any change."""
        n = self.n_committed
        if level is not None and level != n + 1:
            raise ValueError(f"commit for level {level} but history holds {n}")
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step size for level {n + 1} must be finite and "
                             f"positive, got {tau}")
        if self.bank is None and self.alpha < 1.0:
            t_next = self._levels[n] + float(tau)
            if n < self._plan_end and self._levels[n + 1] != t_next:
                self._off_plan(n + 1, tau, t_next)
        if n == 0:
            self.shape = np.shape(increment)
            self._chunk_levels = 1 if self.soe is not None else \
                max(1, min(_CHUNK_LEVELS, _CHUNK_BYTES // (8 * math.prod(self.shape))))
        elif np.shape(increment) != self.shape:
            raise ValueError(f"increment shape {np.shape(increment)} for level {n + 1} "
                             f"!= history shape {self.shape}")
        if self.bank is not None:
            self.bank.commit(tau, increment)
        elif self.alpha < 1.0:
            if n == 0 or n == len(self._store):
                self._grow_store(n)
            self._store[n] = np.reshape(increment, -1)
            if self._levels.size < n + 3:
                self._levels = np.concatenate((self._levels, np.zeros(self._levels.size)))
            self._levels[n + 1] = t_next
            if self._chunk is not None:
                self._add_committed(n + 1)
        self.n_committed = n + 1
        self._bank_if_due(tau)

    def _grow_store(self, n):
        """Make the first store, or replace the full store of n levels by one of twice the rows.

        The new store holds every planned level too; a fast history's first
        store, plan or not, holds the bank's ``n_terms + _FOLD_STEPS`` rows,
        so that the bank takes it over as its buffer.
        """
        if self.soe is not None and n == 0:
            rows = self.soe.n_terms + _FOLD_STEPS
        else:
            rows = max(1, 2 * n, self._plan_end)
        store = _store_block((rows, math.prod(self.shape)))
        if n:
            store[:n] = self._store
        self._store = store


def make_history(alpha, mode="direct", dt_min=None, T=None):
    """History factory.

    mode "direct" keeps every level exact; mode "fast" builds an
    exponential-sum approximation certified on [dt_min, T] to the drivers'
    tolerance ``_SOE_EPS``, which the history reads from its first committed
    step of at least dt_min on (graded prefixes step far below it), so with
    0 < T <= dt_min it keeps every level exact.  alpha = 1 always yields
    the memoryless classical history.
    """
    if mode not in ("direct", "fast"):
        raise ValueError(f"unknown history mode {mode!r}")
    if alpha == 1.0 or mode == "direct":
        return CaputoHistory(alpha)
    if dt_min is None or T is None:
        raise ValueError("fast mode needs dt_min and T")
    if 0.0 < T <= dt_min:
        return CaputoHistory(alpha)
    return CaputoHistory(alpha, soe=build_soe(alpha, _SOE_EPS, dt_min, T))


# ---------------------------------------------------------------------------
# State, observables
# ---------------------------------------------------------------------------

@dataclass
class SAVState:
    """Committed trajectory head, with the grid, model and history it runs on.

    phi^n as grid values and as a half-spectrum, the grid gradients of
    phi^n and phi^{n-1}, (2, nx, nx) arrays (the second-order step
    extrapolates the flux from them), the auxiliary scalar and the
    convolution history.  The grid and the model parameters are the ones
    ``init_state`` was given: every step, observable and loop reads them
    from here.  ``energy0`` is the modified energy at ``init_state``,
    which bounds every accepted step's.  ``records`` holds the
    ``StepRecord`` of every trial the time loops made from this state,
    rejected trials included.  ``step_operators`` keeps the linear
    operators of the last step size each theta was solved at.
    """

    grid: object = field(repr=False)
    params: object
    phi: np.ndarray
    phi_h: np.ndarray
    grad: np.ndarray
    aux: float
    history: object
    n: int = 0
    t: float = 0.0
    prev_grad: Optional[np.ndarray] = None
    prev_tau: Optional[float] = None
    energy0: float = math.nan
    records: list = field(default_factory=list, init=False, repr=False)
    # theta -> (a0, explicit part, inverse symbol) of ``step_operators``
    _operators: dict = field(default_factory=dict, init=False, repr=False)

    @cached_property
    def lin_sym(self):
        """Symbol eps2 k^4 + beta k^2 of the linear terms, on the state's grid."""
        return self.params.eps2 * self.grid.k4 + self.params.beta * self.grid.k2

    def step_operators(self, theta, a0):
        """(explicit part, inverse symbol) of the theta-weighted step with coefficient a0.

        The explicit part a0 - (1 - theta) M lin_sym multiplies phi^n on the
        right-hand side; theta = 1 has none (None: it is a0 itself).  The
        inverse symbol is 1 / (a0 + theta M lin_sym).  Both are complex, so
        they multiply a half-spectrum without a cast.  One entry is kept
        per theta and rebuilt when a0 changes: a controller that stays at
        one step size reuses it.
        """
        ops = self._operators.get(theta)
        if ops is None or ops[0] != a0:
            m = self.params.M
            explicit = (None if theta == 1.0 else
                        (a0 - (1.0 - theta) * m * self.lin_sym).astype(complex))
            inverse = (1.0 / (a0 + theta * m * self.lin_sym)).astype(complex)
            ops = self._operators[theta] = (a0, explicit, inverse)
        return ops[1], ops[2]


@dataclass(frozen=True)
class StepCandidate:
    """Result of one trial step; harmless to discard.

    The new field is its half-spectrum ``phi_h``; its grid values ``phi``
    and gradient ``grad`` are transformed back together on first use, by
    one shared inverse pass, so a candidate that is only compared costs
    no inverse transform.
    """

    grid: object = field(repr=False)
    phi_h: np.ndarray = field(repr=False)
    dphi_h: np.ndarray = field(repr=False)   # phi_h minus the stepped state's
    aux: float
    tau: float
    caputo_dot: float   # (discrete Caputo value, phi^n - phi^{n-1}), for audits

    @cached_property
    def _values(self):
        return self.grid.field_and_gradient(self.phi_h)

    @property
    def phi(self):
        return self._values[0]

    @property
    def grad(self):
        return self._values[1]


def _functional(params):
    return sav_u_functional if params.model == SLOPE else sav_v_functional


def init_state(grid, phi0, params, history):
    """Initial state with the auxiliary scalar set to sqrt(radicand(phi0)).

    The state keeps ``grid`` and ``params`` for the whole trajectory;
    ``history`` sums the increments of the half-spectrum (its float view).
    """
    phi0 = np.array(phi0, dtype=float, copy=True)
    if phi0.shape != grid.shape:
        raise ValueError(f"field shape {phi0.shape} does not match grid {grid.shape}")
    phi_h = grid.fft(phi0)
    _, grad = grid.field_and_gradient(phi_h)
    radicand = sav_radicand(grid, _squared_slope(grad), params)
    state = SAVState(grid=grid, params=params, phi=phi0, phi_h=phi_h, grad=grad,
                     aux=math.sqrt(radicand), history=history)
    state.energy0 = trajectory_observables(state)[0]
    return state


def trajectory_observables(state, head=None):
    """(modified energy, physical energy, roughness, SAV drift) of a field.

    ``head`` is the ``state`` itself (the default) or a ``StepCandidate``
    of it: the field's half-spectrum, grid values and gradient, and its
    auxiliary scalar, on the state's grid and model.
    modified (the energy the schemes provably dissipate):
        slope:    int(eps2/2 |Lap phi|^2 + beta/2 |grad phi|^2) + aux^2 - C0
        no-slope: same integral - aux^2 + C0
    The integral is taken by Parseval, with the full Laplacian symbol,
    Nyquist modes included (the pointwise gradient would drop them and
    break the bound on fields that carry them).  With aux consistent with
    phi the no-slope form equals the physical energy, and the slope form
    exceeds it by the constant (beta/2 + beta^2/4)|Omega|.
    physical: int(eps2/2 |Lap phi|^2 + F(grad phi)), pointwise gradient.
    roughness: the spatial standard deviation of phi, by Parseval over
    every mode but the mean.
    SAV drift: |aux - sqrt(radicand(phi))| / sqrt(radicand(phi)), how far
    the auxiliary scalar has moved from the functional it stands for (0 at
    ``init_state``).
    """
    grid, params = state.grid, state.params
    head = state if head is None else head
    fh = head.phi_h
    x2 = _squared_slope(head.grad)
    k2fh = grid.k2 * fh
    weighted = grid.weigh(k2fh)
    bend = 0.5 * params.eps2 * grid.dot(weighted, k2fh)
    quad = bend + 0.5 * params.beta * grid.dot(weighted, fh)
    aux = head.aux
    if params.model == SLOPE:
        e_mod = quad + aux * aux - params.C0
        x2 -= 1.0
        flat = x2.reshape(-1)
        e_orig = bend + 0.25 * (float(np.dot(flat, flat)) * grid.hx * grid.hy)
        x2 -= params.beta
        radicand = _slope_radicand(grid, x2, params)
    else:
        e_mod = quad - aux * aux + params.C0
        log_integral = grid.integrate(np.log1p(x2))
        e_orig = bend - 0.5 * log_integral
        radicand = _noslope_radicand(grid, x2, log_integral, params)
    root = math.sqrt(radicand)
    weighted = grid.weigh(fh)
    weighted[:2] = 0.0  # the mean mode
    rough = math.sqrt(grid.dot(weighted, fh) / grid.area)
    return e_mod, e_orig, rough, abs(aux - root) / root


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def _rank_one_solve(grid, inv_symbol, rhs_h, w_h, w_weighted, coupling, w_coef):
    """Solve (L + coupling * (W, .) W) phi = rhs + w_coef * W, L diagonal, 1/L given.

    Takes and returns half-spectra, and solves in the storage of
    ``rhs_h``; ``w_weighted`` is ``grid.weigh(w_h)``, so the products
    (W, .) are plain dots.  The W term of the right-hand side is never
    formed: with gam = L^-1 rhs and chi = L^-1 W,
    phi = gam + (w_coef - coupling (W, phi)) chi and
    (W, phi) = ((W, gam) + w_coef (W, chi)) / (1 + coupling (W, chi)).
    """
    chi_h = w_h * inv_symbol
    w_chi = grid.dot(w_weighted, chi_h)
    denom = 1.0 + coupling * w_chi
    if denom <= 0.0:
        raise SolverError(f"rank-one denominator {denom} <= 0")
    gam_h = rhs_h
    gam_h *= inv_symbol
    w_phi = (grid.dot(w_weighted, gam_h) + w_coef * w_chi) / denom
    chi_h *= w_coef - coupling * w_phi
    gam_h += chi_h
    return gam_h


def _extrapolated(g, g_prev, r):
    """g + (g - g_prev) * r, in one new array."""
    out = g - g_prev
    out *= r
    out += g
    return out


def _sav_step(state, tau_n, source, theta):
    """Theta-weighted SAV trial step of size tau_n from the committed state.

    theta = 1/2 takes the cell-averaged Caputo kernels ("cn"), theta = 1
    the collocation ones ("be").  The linear terms are weighted theta at
    the new level and 1 - theta at the old one, and ``source`` (optional
    callable t -> field added to the height equation) is sampled at
    t + theta * tau_n.  theta = 1/2 freezes the flux at the midpoint
    extrapolation of phi (taken on the gradients); theta = 1 freezes it at
    phi itself.
    """
    if not (math.isfinite(tau_n) and tau_n > 0):
        raise ValueError(f"step size must be finite and positive, got {tau_n}")
    grid, params = state.grid, state.params
    a0, hist = state.history.caputo_terms("be" if theta == 1.0 else "cn", tau_n)
    grad = state.grad
    if theta < 1.0 and state.n > 0:
        grad = _extrapolated(grad, state.prev_grad, tau_n / (2.0 * state.prev_tau))
    w_h, _ = _functional(params)(grid, grad, params)
    # sign of the frozen-flux source: -M(... - W u) for slope, -M(... + W v)
    # for no-slope.  The auxiliary scalar obeys aux_t = -(1/2)(W, phi_t) in
    # both cases (chain rule on sqrt(radicand)), so the implicit rank-one
    # coupling inherits the model sign.
    s_aux = 1.0 if params.model == SLOPE else -1.0
    m = params.M

    coupling = s_aux * 0.5 * theta * m
    explicit, inv_symbol = state.step_operators(theta, a0)
    phi_h = state.phi_h
    w_weighted = grid.weigh(w_h)
    # the right-hand side but its W term, assembled in place
    rhs_h = a0 * phi_h if explicit is None else explicit * phi_h
    if hist is not None:
        hist_h = hist.view(complex)
        rhs_h -= hist_h
    if source is not None:
        rhs_h += grid.fft(source(state.t + theta * tau_n))
    w_coef = s_aux * m * state.aux + coupling * grid.dot(w_weighted, phi_h)

    try:
        phi_new_h = _rank_one_solve(grid, inv_symbol, rhs_h, w_h, w_weighted, coupling,
                                    w_coef)
    except SolverError as err:  # name the step, as the controller's failures do
        raise SolverError(f"{err} at step {state.n + 1} "
                          f"(t = {state.t + tau_n:.6g})") from None
    dphi_h = phi_new_h - phi_h
    aux_new = state.aux - 0.5 * grid.dot(w_weighted, dphi_h)
    dphi_weighted = grid.weigh(dphi_h)
    caputo_dot = a0 * grid.dot(dphi_weighted, dphi_h)
    if hist is not None:
        caputo_dot += grid.dot(dphi_weighted, hist_h)
    return StepCandidate(grid=grid, phi_h=phi_new_h, dphi_h=dphi_h, aux=aux_new,
                         tau=float(tau_n), caputo_dot=caputo_dot)


def cn_sav_step(state, tau_n, source=None):
    """Second-order trial step (theta = 1/2, cell-averaged kernels)."""
    return _sav_step(state, tau_n, source, 0.5)


def be_l1_sav_step(state, tau_n):
    """First-order trial step (theta = 1, collocation kernels)."""
    return _sav_step(state, tau_n, None, 1.0)


def commit_candidate(state, cand):
    """Accept a candidate: advance the convolution history and the clock."""
    state.history.commit(cand.tau, cand.dphi_h.view(float), level=state.n + 1)
    state.prev_grad = state.grad
    state.prev_tau = cand.tau
    state.phi, state.phi_h, state.grad = cand.phi, cand.phi_h, cand.grad
    state.aux = cand.aux
    state.n += 1
    state.t += cand.tau
    return state
