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

Both steps return a candidate without touching the convolution history;
``commit_candidate`` advances the state, so rejected adaptive trials leave
everything bit-identical.

The convolution history is one object, ``CaputoHistory``: an exact prefix
(the graded initial layer, summed through the kernel rows) followed by the
exponential-sum bank of ``tfmbe.soe``.  ``make_history(mode="direct")``
(``--soe-mode direct``) keeps every level exact.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import SolverError, StateError
from .kernels import l1_row, l1plus_row
from .soe import HistoryBank, _l1_terms, _l1plus_terms, build_soe
from .spectral import SLOPE, sav_u_functional, sav_v_functional

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

class CaputoHistory:
    """Caputo convolution history: an exact prefix, then an exponential-sum bank.

    The first ``exact_levels`` committed increments are stored and summed
    exactly through the kernel rows.  With an ``soe`` they are then replayed
    through the bank recursion (exact per node) and later levels use the
    fast formulas, which only ever see gaps at or above the floor the sum
    was certified for; graded prefixes take steps far below that floor.
    With no ``soe`` every level stays exact (O(n) work per level).
    ``alpha == 1`` is the memoryless classical limit (CN / backward Euler).
    """

    def __init__(self, alpha, shape=(), soe=None, exact_levels=0):
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"fractional order must lie in (0,1], got {alpha}")
        if soe is not None and soe.alpha != alpha:
            raise ValueError("exponential sum was built for a different order")
        self.alpha = alpha
        self.shape = tuple(shape)
        self.soe = soe
        self.exact_levels = int(exact_levels)
        self.n_committed = 0
        self.bank = None
        self._levels = [0.0]
        self._buf = np.zeros((16,) + self.shape)
        self._bank_if_due()

    def _bank_if_due(self):
        """Once the exact prefix is full, replay it into a bank and drop it."""
        if self.soe is None or self.bank is not None \
                or self.n_committed < self.exact_levels:
            return
        self.bank = HistoryBank(self.soe, self.shape)
        levels = self._levels
        for k in range(1, self.n_committed + 1):
            self.bank.commit(levels[k] - levels[k - 1], self._buf[k - 1])
        self._levels = self._buf = None

    def caputo_terms(self, scheme, tau_n):
        """Local coefficient and known history sum at the trial level.

        scheme "cn" uses the cell-averaged kernels, "be" the collocation
        kernels; the returned pair (a0, hist) satisfies
        caputo_value = a0 * (new increment) + hist.
        """
        if self.alpha == 1.0:
            return 1.0 / tau_n, np.zeros(self.shape)
        if self.bank is not None:
            terms = _l1plus_terms if scheme == "cn" else _l1_terms
            return terms(self.bank, tau_n)
        n = self.n_committed + 1
        levels = np.append(self._levels, self._levels[-1] + tau_n)
        row = (l1plus_row if scheme == "cn" else l1_row)(levels, self.alpha, n)
        if n == 1:
            return row.weights[0], np.zeros(self.shape)
        hist = np.tensordot(row.weights[:0:-1], self._buf[:n - 1], axes=1)
        return row.weights[0], hist

    def commit(self, tau, increment, level=None):
        """Append the increment of an accepted step; levels arrive in order."""
        n = self.n_committed
        if level is not None and level != n + 1:
            raise StateError(f"commit for level {level} but history holds {n}")
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"step size for level {n + 1} must be finite and "
                             f"positive, got {tau}")
        if self.bank is not None:
            self.bank.commit(tau, increment)
        elif self.alpha < 1.0:
            if n == self._buf.shape[0]:
                grown = np.zeros((2 * n,) + self.shape)
                grown[:n] = self._buf
                self._buf = grown
            self._buf[n] = increment
            self._levels.append(self._levels[-1] + float(tau))
        self.n_committed = n + 1
        self._bank_if_due()


def make_history(alpha, shape=(), mode="direct", dt_min=None, T=None,
                 eps=1e-10, direct_levels=0):
    """History factory.

    mode "direct" keeps every level exact; mode "fast" builds an
    exponential-sum approximation certified on [dt_min, T] and keeps
    only the first ``direct_levels`` levels exact (for graded prefixes
    whose steps undercut dt_min).  alpha = 1 always yields the memoryless
    classical history.
    """
    if mode not in ("direct", "fast"):
        raise ValueError(f"unknown history mode {mode!r}")
    if alpha == 1.0 or mode == "direct":
        return CaputoHistory(alpha, shape)
    if dt_min is None or T is None:
        raise ValueError("fast mode needs dt_min and T")
    soe = build_soe(alpha, eps, dt_min, T)
    return CaputoHistory(alpha, shape, soe=soe, exact_levels=direct_levels)


# ---------------------------------------------------------------------------
# State, energies
# ---------------------------------------------------------------------------

@dataclass
class SAVState:
    """Committed trajectory head: phi^n, the auxiliary scalar, and history."""

    phi: np.ndarray
    aux: float
    history: object
    n: int = 0
    t: float = 0.0
    prev_phi: Optional[np.ndarray] = None
    prev_tau: Optional[float] = None


@dataclass(frozen=True)
class StepCandidate:
    """Result of one trial step; harmless to discard."""

    phi: np.ndarray = field(repr=False)
    aux: float
    tau: float
    caputo_dot: float   # (discrete Caputo value, phi^n - phi^{n-1}), for audits


def init_state(grid, phi0, params, history):
    """Initial state with the auxiliary scalar set to sqrt(radicand(phi0))."""
    phi0 = np.array(phi0, dtype=float, copy=True)
    functional = sav_u_functional if params.model == SLOPE else sav_v_functional
    _, radicand = functional(grid, phi0, params)
    return SAVState(phi=phi0, aux=float(np.sqrt(radicand)), history=history)


def trajectory_observables(grid, phi, aux, params):
    """(modified energy, physical energy, roughness) sharing one transform.

    modified (the energy the schemes provably dissipate):
        slope:    int(eps2/2 |Lap phi|^2 + beta/2 |grad phi|^2) + aux^2 - C0
        no-slope: same integral - aux^2 + C0
    The gradient term is evaluated with the full Laplacian symbol, Nyquist
    modes included (the pointwise gradient would drop them and break the
    bound on fields that carry them).  With aux consistent with phi the
    no-slope form equals the physical energy, and the slope form exceeds
    it by the constant (beta/2 + beta^2/4)|Omega|.
    physical: int(eps2/2 |Lap phi|^2 + F(grad phi)), pointwise gradient.
    roughness: the spatial standard deviation of phi.
    """
    fh = grid.fft(phi)
    lap = grid.ifft(-grid.k2 * fh)
    gx = grid.ifft(grid._dx * fh)
    gy = grid.ifft(grid._dy * fh)
    x2 = gx * gx + gy * gy
    bend = 0.5 * params.eps2 * grid.inner(lap, lap)
    quad = bend + 0.5 * params.beta * grid.inner_spec(fh, grid.k2 * fh)
    if params.model == SLOPE:
        e_mod = quad + aux * aux - params.C0
        e_orig = bend + 0.25 * grid.integrate((x2 - 1.0) ** 2)
    else:
        e_mod = quad - aux * aux + params.C0
        e_orig = bend - 0.5 * grid.integrate(np.log1p(x2))
    d = phi - grid.mean(phi)
    rough = float(np.sqrt(grid.integrate(d * d) / grid.area))
    return e_mod, e_orig, rough


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def _rank_one_solve(grid, symbol, rhs, w_field, coupling):
    """Solve (L + coupling * (W, .) W) phi = rhs with L diagonal.

    Both back-substitutions and the two inner products run on the
    half-spectrum; only the final combination is transformed back.
    """
    gam_h = grid.fft(rhs) / symbol
    chi_h = grid.fft(w_field) / symbol
    w_h = symbol * chi_h
    denom = 1.0 + coupling * grid.inner_spec(w_h, chi_h)
    if denom <= 0.0:
        raise SolverError(f"rank-one denominator {denom} <= 0")
    w_phi = grid.inner_spec(w_h, gam_h) / denom
    return grid.ifft(gam_h - coupling * w_phi * chi_h)


def _sav_step(state, tau_n, params, grid, source, theta, scheme):
    """Theta-weighted SAV trial step of size tau_n from the committed state.

    ``scheme`` ("cn" or "be") names the Caputo kernels.  The linear terms
    are weighted theta at the new level and 1 - theta at the old one, and
    ``source`` (optional callable t -> field added to the height equation)
    is sampled at t + theta * tau_n.  theta = 1/2 freezes the flux at the
    midpoint extrapolation of phi; theta = 1 freezes it at phi itself and
    skips the explicit linear term.
    """
    if not (math.isfinite(tau_n) and tau_n > 0):
        raise ValueError(f"step size must be finite and positive, got {tau_n}")
    a0, hist = state.history.caputo_terms(scheme, tau_n)
    phi = state.phi
    phi_hat = phi
    if theta < 1.0 and state.n > 0:
        phi_hat = phi + (phi - state.prev_phi) * (tau_n / (2.0 * state.prev_tau))
    functional = sav_u_functional if params.model == SLOPE else sav_v_functional
    w_field, _ = functional(grid, phi_hat, params)
    # sign of the frozen-flux source: -M(... - W u) for slope, -M(... + W v)
    # for no-slope.  The auxiliary scalar obeys aux_t = -(1/2)(W, phi_t) in
    # both cases (chain rule on sqrt(radicand)), so the implicit rank-one
    # coupling inherits the model sign.
    s_aux = 1.0 if params.model == SLOPE else -1.0
    m = params.M

    lin_sym = params.eps2 * grid.k4 + params.beta * grid.k2
    symbol = a0 + theta * m * lin_sym
    coupling = s_aux * 0.5 * theta * m
    rhs = a0 * phi - hist
    if theta < 1.0:
        rhs = rhs - (1.0 - theta) * m * grid.ifft(lin_sym * grid.fft(phi))
    rhs = (rhs + (s_aux * m * state.aux) * w_field
           + coupling * grid.inner(w_field, phi) * w_field)
    if source is not None:
        rhs = rhs + source(state.t + theta * tau_n)

    phi_new = _rank_one_solve(grid, symbol, rhs, w_field, coupling)
    dphi = phi_new - phi
    aux_new = state.aux - 0.5 * grid.inner(w_field, dphi)
    caputo_dot = grid.inner(a0 * dphi + hist, dphi)
    return StepCandidate(phi=phi_new, aux=aux_new, tau=float(tau_n),
                         caputo_dot=caputo_dot)


def cn_sav_step(state, tau_n, params, grid, source=None):
    """Second-order trial step (theta = 1/2, cell-averaged kernels)."""
    return _sav_step(state, tau_n, params, grid, source, 0.5, "cn")


def be_l1_sav_step(state, tau_n, params, grid, source=None):
    """First-order trial step (theta = 1, collocation kernels)."""
    return _sav_step(state, tau_n, params, grid, source, 1.0, "be")


def commit_candidate(state, cand):
    """Accept a candidate: advance the convolution history and the clock."""
    state.history.commit(cand.tau, cand.phi - state.phi, level=state.n + 1)
    state.prev_phi = state.phi
    state.prev_tau = cand.tau
    state.phi = cand.phi
    state.aux = cand.aux
    state.n += 1
    state.t += cand.tau
    return state
