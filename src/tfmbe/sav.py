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
followed by the bank of ``tfmbe.soe``.  ``make_history(mode="direct")``
(``--soe-mode direct``) keeps every level exact.  The history takes its
shape from the first committed increment.  Both stores are read in
passes that form several sums at once.  On the bank and on the exact
prefix, the estimator trial reads the sum that the second-order trial's
pass already formed, so an adaptive trial reads its history once.  A
fixed mesh is announced to the history (``CaputoHistory.plan``, which
``run_fixed`` calls): on a history that keeps every level exact one pass
then serves the next ``_AHEAD`` levels, and on the exact prefix of one
with an exponential sum a planned read makes no estimator row.

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
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SolverError, StateError
from .kernels import l1_row, l1plus_row
from .soe import _SOE_EPS, HistoryBank, build_soe
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

# bytes of one block of the exact prefix; a block's pages are only touched
# as levels fill it, and a pass makes one np.matmul call per block
_LEVEL_BLOCK_BYTES = 1 << 22
# levels one pass over the exact prefix serves when the steps are planned.
# A pass reads the whole prefix from memory however many rows it writes,
# so its cost per level falls with the rows until the product stops being
# bound by memory bandwidth; each read adds the increments committed since
# the pass (fewer than this), and the pass keeps this many fields of sums.
# Measured on graded-direct-64's mesh (1200 levels of 64^2 half-spectra,
# one thread, medians of two sets of three runs): about 1.8, 0.55, 0.34,
# 0.27 and 0.23 ms per read for 1 (an unplanned pass), 4, 8, 16 and 32
# levels per pass; each row adds two fields of memory.
_AHEAD = 16


def _rows_of(buffer, rows, shape):
    """``buffer`` if it has at least ``rows`` rows of ``shape``, else a new one."""
    if buffer is None or buffer.shape[0] < rows:
        buffer = np.empty((rows, math.prod(shape)))
    return buffer


class CaputoHistory:
    """Caputo convolution history: an exact prefix, then an exponential-sum bank.

    Increments are stored and summed exactly through the kernel rows until
    the first committed step of at least the ``soe``'s dt_min (less 1e-12
    relative, for uniform steps ulps short of it) replays them into the bank.
    Its fast formulas see lags down to the newest committed step, so a bank
    read after a step below dt_min raises ``SolverError``.  With no ``soe``
    every level stays exact (O(n) work per level).
    ``alpha == 1`` is the memoryless classical limit (CN / backward Euler).
    The first committed increment fixes the shape of every later one, and
    a read before any commit has no sum to add.

    The exact prefix is summed in passes: one matrix product, block by
    block, reads every stored increment once and writes the history sums
    of several rows, each a (scheme, level, level time).  A read at the
    level of a kept row adds only the increments committed since its pass.
    A read with no kept row makes a pass whose rows are both schemes at the
    trial level, so an adaptive step's estimator trial reuses the
    second-order trial's pass.  ``plan(taus)`` announces the next steps;
    a second-order read at a planned level then makes a pass with no
    estimator row, for the next ``_AHEAD`` planned levels, or for that
    level alone on a history with an ``soe``.  Every read and every commit
    compares its level time bit for bit with the plan, and the first
    mismatch drops the plan and the rows kept from it, so a plan changes
    the order of the summation but never which levels or weights are
    summed.  The returned
    history value is a view of a buffer the history owns: it holds until
    the next pass, and the caller must not modify it.
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
        # exact prefix: the committed increments in fixed-size blocks, so the
        # store grows without copying what it holds, and the level times
        # t_0..t_n with one slot more for the trial level (grown by doubling)
        self._block_rows = None
        self._blocks = []
        self._levels = np.zeros(18)
        # the planned level times t_0..t_m, or None
        self._plan = None
        # the rows of the last pass, {(scheme, level, level time): [a0, its
        # weights, its sum, the increments summed]}, the weights and sums
        # one-row views of a matrix, and a scratch buffer for the products
        self._kept = {}
        self._sums = self._part = None

    def plan(self, taus):
        """Announce the step sizes of the levels after the committed ones.

        Later reads and commits are checked against the level times these
        steps give; a plan only ever changes how the exact prefix is summed.
        A history with an exponential sum plans one level ahead: its exact
        prefix holds only the steps below dt_min (the drivers' 30-step
        graded start), where a longer lookahead would save little time and
        its sums would add 2 MB (4%) to growth-slope-128's peak memory, but
        a planned read still makes no estimator row.  Once the bank holds
        the history, plans are ignored.
        """
        if self.bank is not None or self.alpha == 1.0:
            return
        n = self.n_committed
        # np.cumsum adds in order, as commit accumulates the level times
        self._plan = np.concatenate((self._levels[:n],
                                     np.cumsum(np.append(self._levels[n], taus))))
        self._kept = {}

    def _bank_if_due(self, tau):
        """At the first step of at least dt_min, replay the prefix into a bank."""
        if self.bank is not None or tau < self._floor:
            return
        self._kept, self._sums, self._part, self._plan = {}, None, None, None
        self.bank = HistoryBank(self.soe, self.shape)
        # the newest step as given, not via the level times: reads check it
        taus = np.append(np.diff(self._levels[:self.n_committed]), tau)
        increments = (row for block in self._blocks for row in block)
        for tau_k, increment in zip(taus, increments):
            self.bank.commit(tau_k, increment)
        self._levels = self._blocks = None

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
            return self.bank.caputo_terms(scheme, tau_n)
        levels = self._levels[:n + 1]
        levels[n] = levels[n - 1] + tau_n  # the trial level; a commit overwrites it
        plan = self._plan
        if plan is not None and not (n < plan.size and plan[n] == levels[n]):
            self._plan = plan = None
            self._kept = {}
        if n == 1:
            return (l1plus_row if scheme == "cn" else l1_row)(levels, self.alpha,
                                                              1).weights[0], None
        key = (scheme, n, levels[n])
        if key not in self._kept:
            if scheme == "cn" and plan is not None:
                ahead = _AHEAD if self.soe is None else 1
                self._make_pass(plan, range(n, min(n + ahead, plan.size)), ("cn",))
            else:
                self._make_pass(levels, (n,), ("cn", "be"))
        kept = self._kept[key]
        a0, weights, sums, summed = kept
        if summed < n - 1:  # increments committed since the pass
            self._sum_prefix(weights, summed, n - 1, sums)
            kept[3] = n - 1
        return a0, sums.reshape(self.shape)

    def _make_pass(self, levels, rows, schemes):
        """One pass over the stored increments for every (scheme, level) row."""
        n = self.n_committed
        keys = [(scheme, level) for level in rows for scheme in schemes]
        weights = np.zeros((len(keys), keys[-1][1] - 1))
        self._sums = _rows_of(self._sums, len(keys), self.shape)
        sums = self._sums[:len(keys)]
        self._kept = {}
        for i, (scheme, level) in enumerate(keys):
            row = (l1plus_row if scheme == "cn" else l1_row)(levels, self.alpha, level)
            weights[i, :level - 1] = row.weights[:0:-1]  # increments in level order
            self._kept[(scheme, level, levels[level])] = [
                row.weights[0], weights[i:i + 1], sums[i:i + 1], n]
        self._sum_prefix(weights, 0, n, sums, add=False)

    def _sum_prefix(self, weights, lo, hi, out, add=True):
        """out (+)= weights[:, lo:hi] @ (stored increments lo+1..hi), a block at a time."""
        rows, k = self._block_rows, out.shape[0]
        for b in range(lo // rows, (hi - 1) // rows + 1):
            start = b * rows
            i, j = max(lo, start), min(hi, start + rows)
            block = self._blocks[b][i - start:j - start].reshape(j - i, -1)
            if add:
                self._part = _rows_of(self._part, k, self.shape)
                out += np.matmul(weights[:, i:j], block, out=self._part[:k])
            else:  # the first block's product is the sum so far
                np.matmul(weights[:, i:j], block, out=out)
                add = True

    def commit(self, tau, increment, level=None):
        """Append the increment of an accepted step; levels arrive in order."""
        n = self.n_committed
        if level is not None and level != n + 1:
            raise StateError(f"commit for level {level} but history holds {n}")
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step size for level {n + 1} must be finite and "
                             f"positive, got {tau}")
        if n == 0:
            self.shape = np.shape(increment)
            self._block_rows = max(1, _LEVEL_BLOCK_BYTES // (8 * math.prod(self.shape)))
        elif np.shape(increment) != self.shape:
            raise ValueError(f"increment shape {np.shape(increment)} for level {n + 1} "
                             f"!= history shape {self.shape}")
        if self.bank is not None:
            self.bank.commit(tau, increment)
        elif self.alpha < 1.0:
            block, row = divmod(n, self._block_rows)
            if row == 0:
                self._blocks.append(np.empty((self._block_rows,) + self.shape))
            self._blocks[block][row] = increment
            if self._levels.size < n + 3:
                self._levels = np.concatenate((self._levels, np.zeros(self._levels.size)))
            self._levels[n + 1] = self._levels[n] + float(tau)
            plan = self._plan
            if plan is not None and not (n + 1 < plan.size
                                         and plan[n + 1] == self._levels[n + 1]):
                # rows kept from the plan assumed this level's time
                self._plan, self._kept = None, {}
        self.n_committed = n + 1
        self._bank_if_due(tau)


def make_history(alpha, mode="direct", dt_min=None, T=None):
    """History factory.

    mode "direct" keeps every level exact; mode "fast" builds an
    exponential-sum approximation certified on [dt_min, T] to the drivers'
    tolerance ``_SOE_EPS``, which the history reads from its first committed
    step of at least dt_min on (graded prefixes step far below it).
    alpha = 1 always yields the memoryless classical history.
    """
    if mode not in ("direct", "fast"):
        raise ValueError(f"unknown history mode {mode!r}")
    if alpha == 1.0 or mode == "direct":
        return CaputoHistory(alpha)
    if dt_min is None or T is None:
        raise ValueError("fast mode needs dt_min and T")
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
    which bounds every accepted step's.  ``step_operators`` keeps the
    linear operators of the last step size each theta was solved at.
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
        log1p_x2 = np.log1p(x2)
        e_orig = bend - 0.5 * grid.integrate(log1p_x2)
        radicand = _noslope_radicand(grid, x2, log1p_x2, params)
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


def _sav_step(state, tau_n, source, theta, scheme):
    """Theta-weighted SAV trial step of size tau_n from the committed state.

    ``scheme`` ("cn" or "be") names the Caputo kernels.  The linear terms
    are weighted theta at the new level and 1 - theta at the old one, and
    ``source`` (optional callable t -> field added to the height equation)
    is sampled at t + theta * tau_n.  theta = 1/2 freezes the flux at the
    midpoint extrapolation of phi (taken on the gradients); theta = 1
    freezes it at phi itself.
    """
    if not (math.isfinite(tau_n) and tau_n > 0):
        raise ValueError(f"step size must be finite and positive, got {tau_n}")
    grid, params = state.grid, state.params
    a0, hist = state.history.caputo_terms(scheme, tau_n)
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

    phi_new_h = _rank_one_solve(grid, inv_symbol, rhs_h, w_h, w_weighted, coupling,
                                w_coef)
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
    return _sav_step(state, tau_n, source, 0.5, "cn")


def be_l1_sav_step(state, tau_n):
    """First-order trial step (theta = 1, collocation kernels)."""
    return _sav_step(state, tau_n, None, 1.0, "be")


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
