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
shape from the first committed increment.

Each solve is decoupled by a rank-one correction: with
L = a0 I + theta M (eps2 Lap^2 - beta Lap) (diagonal in transform space)
and a frozen flux W, the implicit system L phi + c' M (W, phi) W = g,
c' = +-theta/2, reduces to two diagonal solves chi = L^{-1} W,
gam = L^{-1} g and a scalar division with denominator
1 + c' M (W, chi).  For the slope model c' > 0 and the
denominator is at least one; the no-slope auxiliary energy enters with the
opposite sign (its potential is the negative log), so c' < 0 there and the
denominator is checked at runtime (it stays near one for production
step sizes).

The step runs in transform space: the state carries the half-spectrum of
phi^n and the grid gradients of phi^n and phi^{n-1}, the flux divergence
and the right-hand side are formed as half-spectra, and every inner
product is taken by Parseval.  A candidate's grid values and gradient are
transformed back on first use.  The convolution history stores the
increments of the half-spectrum (as its float view, shape (nx, nx + 2)),
so its sums are half-spectra too and are never transformed.  An adaptive
trial costs 7 transforms: the second-order step 3 (flux 2, grid values 1),
the estimator 2 (it is never transformed back) and the observables 2 (the
gradient, which the next step reuses); a fixed-mesh step costs 5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import SolverError, StateError
from .kernels import l1_row, l1plus_row
from .soe import HistoryBank, build_soe
from .spectral import SLOPE, sav_radicand, sav_u_functional, sav_v_functional

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
# as levels fill it, and a history read makes one np.dot call per block
_LEVEL_BLOCK_BYTES = 1 << 22


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

    def _bank_if_due(self, tau):
        """At the first step of at least dt_min, replay the prefix into a bank."""
        if self.bank is not None or tau < self._floor:
            return
        self.bank = HistoryBank(self.soe, self.shape)
        # the newest step as given, not via the level times: reads check it
        taus = np.append(np.diff(self._levels[:self.n_committed]), tau)
        # copies: the bank keeps its newest increment, and a view of a block
        # would keep the dropped store alive until the next commit
        increments = (row.copy() for block in self._blocks for row in block)
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
        row = (l1plus_row if scheme == "cn" else l1_row)(levels, self.alpha, n)
        if n == 1:
            return row.weights[0], None
        hist = np.zeros(math.prod(self.shape))
        part = np.empty_like(hist)
        weights = row.weights[:0:-1]  # increments 1..n-1 in level order
        rows = self._block_rows
        for block, start in zip(self._blocks, range(0, n - 1, rows)):
            w = weights[start:start + rows]
            # np.dot copies the reversed weights to BLAS; ``@`` would loop over them
            hist += np.dot(w, block[:w.size].reshape(w.size, -1), out=part)
        return row.weights[0], hist.reshape(self.shape)

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
        self.n_committed = n + 1
        self._bank_if_due(tau)


def make_history(alpha, mode="direct", dt_min=None, T=None, eps=1e-10):
    """History factory.

    mode "direct" keeps every level exact; mode "fast" builds an
    exponential-sum approximation certified on [dt_min, T], which the
    history reads from its first committed step of at least dt_min on
    (graded prefixes step far below it).  alpha = 1 always yields the
    memoryless classical history.
    """
    if mode not in ("direct", "fast"):
        raise ValueError(f"unknown history mode {mode!r}")
    if alpha == 1.0 or mode == "direct":
        return CaputoHistory(alpha)
    if dt_min is None or T is None:
        raise ValueError("fast mode needs dt_min and T")
    return CaputoHistory(alpha, soe=build_soe(alpha, eps, dt_min, T))


# ---------------------------------------------------------------------------
# State, observables
# ---------------------------------------------------------------------------

@dataclass
class SAVState:
    """Committed trajectory head, with the grid, model and history it runs on.

    phi^n as grid values and as a half-spectrum, the grid gradients of
    phi^n and phi^{n-1} (the second-order step extrapolates the flux from
    them), the auxiliary scalar and the convolution history.  The grid
    and the model parameters are the ones ``init_state`` was given: every
    step, observable and loop reads them from here.
    """

    grid: object = field(repr=False)
    params: object
    phi: np.ndarray
    phi_h: np.ndarray
    grad: tuple
    aux: float
    history: object
    n: int = 0
    t: float = 0.0
    prev_grad: Optional[tuple] = None
    prev_tau: Optional[float] = None


@dataclass(frozen=True)
class StepCandidate:
    """Result of one trial step; harmless to discard.

    The new field is its half-spectrum ``phi_h``; its grid values ``phi``
    and gradient ``grad`` are transformed back on first use, so a
    candidate that is only compared costs no inverse transform.
    """

    grid: object = field(repr=False)
    phi_h: np.ndarray = field(repr=False)
    aux: float
    tau: float
    caputo_dot: float   # (discrete Caputo value, phi^n - phi^{n-1}), for audits

    @cached_property
    def phi(self):
        return self.grid.ifft(self.phi_h)

    @cached_property
    def grad(self):
        return self.grid.gradient_from_spectrum(self.phi_h)


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
    grad = grid.gradient_from_spectrum(phi_h)
    _, radicand = _functional(params)(grid, grad, params)
    return SAVState(grid=grid, params=params, phi=phi0, phi_h=phi_h, grad=grad,
                    aux=float(np.sqrt(radicand)), history=history)


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
    roughness: the spatial standard deviation of phi.
    SAV drift: |aux - sqrt(radicand(phi))| / sqrt(radicand(phi)), how far
    the auxiliary scalar has moved from the functional it stands for (0 at
    ``init_state``).
    """
    grid, params = state.grid, state.params
    head = state if head is None else head
    fh = head.phi_h
    gx, gy = head.grad
    x2 = gx * gx + gy * gy
    k2fh = grid.k2 * fh
    bend = 0.5 * params.eps2 * grid.inner_spec(k2fh, k2fh)
    quad = bend + 0.5 * params.beta * grid.inner_spec(fh, k2fh)
    aux = head.aux
    if params.model == SLOPE:
        e_mod = quad + aux * aux - params.C0
        e_orig = bend + 0.25 * grid.integrate((x2 - 1.0) ** 2)
    else:
        e_mod = quad - aux * aux + params.C0
        e_orig = bend - 0.5 * grid.integrate(np.log1p(x2))
    root = math.sqrt(sav_radicand(grid, x2, params))
    d = head.phi - np.mean(head.phi)
    rough = float(np.sqrt(grid.integrate(d * d) / grid.area))
    return e_mod, e_orig, rough, abs(aux - root) / root


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def _rank_one_solve(grid, symbol, rhs_h, w_h, coupling):
    """Solve (L + coupling * (W, .) W) phi = rhs with L diagonal.

    Takes and returns half-spectra; the two inner products are taken by
    Parseval.
    """
    gam_h = rhs_h / symbol
    chi_h = w_h / symbol
    denom = 1.0 + coupling * grid.inner_spec(w_h, chi_h)
    if denom <= 0.0:
        raise SolverError(f"rank-one denominator {denom} <= 0")
    w_phi = grid.inner_spec(w_h, gam_h) / denom
    return gam_h - coupling * w_phi * chi_h


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
    gx, gy = state.grad
    if theta < 1.0 and state.n > 0:
        r = tau_n / (2.0 * state.prev_tau)
        px, py = state.prev_grad
        gx, gy = gx + (gx - px) * r, gy + (gy - py) * r
    w_h, _ = _functional(params)(grid, (gx, gy), params)
    # sign of the frozen-flux source: -M(... - W u) for slope, -M(... + W v)
    # for no-slope.  The auxiliary scalar obeys aux_t = -(1/2)(W, phi_t) in
    # both cases (chain rule on sqrt(radicand)), so the implicit rank-one
    # coupling inherits the model sign.
    s_aux = 1.0 if params.model == SLOPE else -1.0
    m = params.M

    lin_sym = params.eps2 * grid.k4 + params.beta * grid.k2
    symbol = a0 + theta * m * lin_sym
    coupling = s_aux * 0.5 * theta * m
    phi_h = state.phi_h
    hist_h = 0.0 if hist is None else hist.view(complex)
    rhs_h = ((a0 - (1.0 - theta) * m * lin_sym) * phi_h - hist_h
             + (s_aux * m * state.aux + coupling * grid.inner_spec(w_h, phi_h)) * w_h)
    if source is not None:
        rhs_h = rhs_h + grid.fft(source(state.t + theta * tau_n))

    phi_new_h = _rank_one_solve(grid, symbol, rhs_h, w_h, coupling)
    dphi_h = phi_new_h - phi_h
    aux_new = state.aux - 0.5 * grid.inner_spec(w_h, dphi_h)
    caputo_dot = grid.inner_spec(a0 * dphi_h + hist_h, dphi_h)
    return StepCandidate(grid=grid, phi_h=phi_new_h, aux=aux_new, tau=float(tau_n),
                         caputo_dot=caputo_dot)


def cn_sav_step(state, tau_n, source=None):
    """Second-order trial step (theta = 1/2, cell-averaged kernels)."""
    return _sav_step(state, tau_n, source, 0.5, "cn")


def be_l1_sav_step(state, tau_n):
    """First-order trial step (theta = 1, collocation kernels)."""
    return _sav_step(state, tau_n, None, 1.0, "be")


def commit_candidate(state, cand):
    """Accept a candidate: advance the convolution history and the clock."""
    state.history.commit(cand.tau, (cand.phi_h - state.phi_h).view(float),
                         level=state.n + 1)
    state.prev_grad = state.grad
    state.prev_tau = cand.tau
    state.phi, state.phi_h, state.grad = cand.phi, cand.phi_h, cand.grad
    state.aux = cand.aux
    state.n += 1
    state.t += cand.tau
    return state
