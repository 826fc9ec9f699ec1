"""Accuracy-criterion adaptive time stepping.

Each iteration computes a first-order candidate (backward Euler estimator)
and a second-order candidate from the same committed state, measures their
relative distance e = ||phi2 - phi1|| / ||phi2|| in the discrete L2 norm
(by Parseval, on the candidates' half-spectra), accepts the second-order
candidate or not, and proposes the next trial's step

    tau_ada(e, tau) = rho * sqrt(tol / e) * tau

clamped to [tau_min, tau_max], with the fixed safety factor rho = 0.9.
One rule: a trial is accepted if e < tol or if it is at the floor
tau_min, and a rejected one retries at the proposal, which is always
shorter: it has e >= tol (or e = inf) and rho < 1.  So is the proposal
of a floor trial accepted with e >= tol: the next step is at the floor.
The drivers count those steps in run.json: there tau_min, not tol,
bounds the accuracy.  Rejected trials never touch the convolution
history, so the committed trajectory is exactly the one a fixed run over
the accepted steps would produce.  Each trial's StepRecord is appended
to ``state.records``.

A candidate whose norm is not finite gives e = inf: it is rejected above
the floor and raises ``SolverError`` at it, and so does any step about to
be committed with a modified energy that is not finite or breaks the
bound E(n) <= E(0), so a trajectory stops at its first bad step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import SolverError
from .sav import (be_l1_sav_step, cn_sav_step, commit_candidate,
                  trajectory_observables)

__all__ = ["AdaptiveParams", "StepRecord", "tau_ada", "adaptive_run", "run_fixed"]

# growth factor used when the two candidates coincide (e = 0)
_ZERO_ERROR_GROWTH = 10.0

# safety factor of every proposal: below 1, so a rejected trial (e >= tol)
# always proposes a shorter step
_RHO = 0.9


@dataclass(frozen=True)
class AdaptiveParams:
    tol: float = 1e-3
    tau_min: float = 1e-3
    tau_max: float = 1e-1

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tolerance must be finite and positive, got {self.tol}")
        if not 0.0 < self.tau_min <= self.tau_max:
            raise ValueError("require 0 < tau_min <= tau_max")

    def clamp(self, tau):
        return min(max(self.tau_min, tau), self.tau_max)


def tau_ada(e, tau, params):
    """Proposed next step rho * sqrt(tol/e) * tau, unclamped.

    e = 0 (indistinguishable candidates) is treated as growth capped at a
    factor of 10 before clamping.
    """
    if e < 0 or tau <= 0:
        raise ValueError("need e >= 0 and tau > 0")
    if e == 0.0:
        return _RHO * tau * _ZERO_ERROR_GROWTH
    return _RHO * math.sqrt(params.tol / e) * tau


@dataclass(frozen=True)
class StepRecord:
    """One per-step log row (rejected trials included, accepted = 0).

    caputo_dot is the inner product of the discrete fractional derivative
    with the step increment; summed over accepted steps it telescopes the
    modified energy (E(n) - E(0) = -sum/M), and every partial sum is
    nonnegative by the kernel positivity.  sav_drift is the relative
    distance of aux from sqrt(radicand(phi)) (``trajectory_observables``).
    The fields are Python ints and floats: ``steps.csv`` writes them as the
    csv module does, a float by its repr.
    """

    n: int
    t: float
    tau: float
    energy_mod: float
    energy_orig: float
    roughness: float
    aux: float
    accepted: int
    e_est: float
    dphi_dt_max: float
    caputo_dot: float
    sav_drift: float


def _record(state, cand, accepted, e_est):
    """Append the StepRecord of trial ``cand`` to ``state.records``.

    An accepted step whose modified energy is not finite, or exceeds
    ``state.energy0`` by more than 1e-9 of its size, raises
    ``SolverError`` naming the step, and is not recorded: it would be
    committed otherwise.
    """
    n, t = state.n + 1, state.t + cand.tau
    dphi = cand.phi - state.phi
    dphi_dt = float(np.max(np.abs(dphi, out=dphi))) / cand.tau
    e_mod, e_orig, rough, drift = trajectory_observables(state, cand)
    if accepted and not math.isfinite(e_mod):
        raise SolverError(f"energy_mod = {e_mod} at accepted step {n} (t = {t:.6g})")
    if accepted and e_mod - state.energy0 > 1e-9 * abs(state.energy0):
        raise SolverError(f"energy_mod = {e_mod} above E(0) = {state.energy0} "
                          f"at accepted step {n} (t = {t:.6g})")
    state.records.append(StepRecord(
        n=n, t=t, tau=cand.tau,
        energy_mod=e_mod, energy_orig=e_orig, roughness=rough,
        aux=cand.aux, accepted=int(accepted), e_est=e_est,
        dphi_dt_max=dphi_dt, caputo_dot=float(cand.caputo_dot), sav_drift=drift))


def _require_horizon(T):
    """A horizon must be finite and positive: an infinite one never ends."""
    if not (math.isfinite(T) and T > 0):
        raise ValueError(f"horizon T must be finite and positive, got T = {T}")


def run_fixed(state, mesh):
    """March the second-order scheme over a prescribed mesh, committing all steps.

    The mesh levels count from ``state.t`` at entry, so a run continues a
    committed state without accumulating the clock step by step.  The
    mesh's steps are announced to the history (``CaputoHistory.plan``), so
    one pass over an exact history serves several steps.  Returns the
    StepRecords it appended to ``state.records``; a step whose modified
    energy is not finite raises ``SolverError``.
    """
    start, t0 = len(state.records), state.t
    state.history.plan(mesh.taus)
    for k in range(1, mesh.n_steps + 1):
        cand = cn_sav_step(state, float(mesh.taus[k - 1]))
        _record(state, cand, True, math.nan)
        commit_candidate(state, cand)
        state.t = t0 + float(mesh.levels[k])
    return state.records[start:]


def _relative_error(grid, cand2, cand1):
    """||phi2 - phi1|| / ||phi2|| by Parseval; inf when a norm is not finite.

    An overflowed norm would otherwise divide a finite distance down to 0.
    """
    norm2 = math.sqrt(grid.inner_spec(cand2.phi_h, cand2.phi_h))
    d_h = cand2.phi_h - cand1.phi_h
    dist = math.sqrt(grid.inner_spec(d_h, d_h))
    if not (math.isfinite(norm2) and math.isfinite(dist)):
        return math.inf
    return dist / norm2 if norm2 > 0 else 0.0


def adaptive_run(state, aparams, T):
    """Drive the estimator pair from state.t to T per the accuracy criterion.

    The first trial step is tau_min, and every trial, accepted or not,
    proposes the next one.  A trial whose error estimate is not finite is
    rejected; at the floor it raises ``SolverError`` naming the step, as
    does an accepted step that breaks the energy checks of ``_record``.
    Returns the StepRecords it appended to ``state.records``, rejected
    trials included.  ``T`` must be finite and positive and not before
    ``state.t`` (within 1e-12 T of it, nothing is left to march).
    """
    _require_horizon(T)
    if T - state.t < -1e-12 * T:
        raise ValueError(f"horizon T = {T} is before the state's time t = {state.t}")
    start, tau = len(state.records), aparams.tau_min
    while T - state.t > 1e-12 * T:
        tau_n = min(tau, T - state.t)
        cand2 = cn_sav_step(state, tau_n)
        cand1 = be_l1_sav_step(state, tau_n)
        e = _relative_error(state.grid, cand2, cand1)
        at_floor = tau_n <= aparams.tau_min * (1.0 + 1e-12)
        if at_floor and not math.isfinite(e):
            raise SolverError(f"error estimate e = {e} at floor step "
                              f"{state.n + 1} (t = {state.t + tau_n:.6g})")
        accept = e < aparams.tol or at_floor
        _record(state, cand2, accept, e)
        tau = aparams.clamp(tau_ada(e, tau_n, aparams))
        if accept:
            commit_candidate(state, cand2)
    return state.records[start:]
