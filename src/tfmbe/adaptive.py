"""Accuracy-criterion adaptive time stepping.

Each iteration computes a first-order candidate (backward Euler estimator)
and a second-order candidate from the same committed state, measures their
relative distance e = ||phi2 - phi1|| / ||phi2|| in the discrete L2 norm
(by Parseval, on the candidates' half-spectra), and either accepts the
second-order candidate or retries with the step

    tau_ada(e, tau) = rho * sqrt(tol / e) * tau

clamped to [tau_min, tau_max].  Steps at the floor are accepted regardless
of e; a bounded retry budget guards against stalls, after which a floor
step is force-accepted with a warning.  Rejected trials never touch the
convolution history, so the committed trajectory is exactly the one a
fixed run over the accepted steps would produce.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .sav import (be_l1_sav_step, cn_sav_step, commit_candidate,
                  trajectory_observables)

__all__ = ["AdaptiveParams", "StepRecord", "tau_ada", "adaptive_run", "run_fixed"]

log = logging.getLogger(__name__)

# growth factor used when the two candidates coincide (e = 0)
_ZERO_ERROR_GROWTH = 10.0
# rejected trials of one step before the controller retries at the floor
_MAX_RETRIES = 10


@dataclass(frozen=True)
class AdaptiveParams:
    rho: float = 0.9
    tol: float = 1e-3
    tau_min: float = 1e-3
    tau_max: float = 1e-1

    def __post_init__(self):
        if not 0.0 < self.rho <= 1.0:
            raise ValueError(f"safety factor must be in (0,1], got {self.rho}")
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
        return params.rho * tau * _ZERO_ERROR_GROWTH
    return params.rho * math.sqrt(params.tol / e) * tau


@dataclass(frozen=True)
class StepRecord:
    """One per-step log row (rejected trials included, accepted = 0).

    caputo_dot is the inner product of the discrete fractional derivative
    with the step increment; summed over accepted steps it telescopes the
    modified energy (E(n) - E(0) = -sum/M), and every partial sum is
    nonnegative by the kernel positivity.  sav_drift is the relative
    distance of aux from sqrt(radicand(phi)) (``trajectory_observables``).
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


def _record(n, t, cand, state_phi, params, grid, accepted, e_est):
    dphi_dt = float(np.max(np.abs(cand.phi - state_phi))) / cand.tau
    e_mod, e_orig, rough, drift = trajectory_observables(grid, cand, params)
    return StepRecord(
        n=n, t=t, tau=cand.tau,
        energy_mod=e_mod, energy_orig=e_orig, roughness=rough,
        aux=cand.aux, accepted=int(accepted), e_est=e_est,
        dphi_dt_max=dphi_dt, caputo_dot=cand.caputo_dot, sav_drift=drift)


def run_fixed(state, mesh, params, grid):
    """March the second-order scheme over a prescribed mesh, committing all steps.

    The mesh levels count from ``state.t`` at entry, so a run continues a
    committed state without accumulating the clock step by step.  Returns
    the list of StepRecords.
    """
    records = []
    t0 = state.t
    for k in range(1, mesh.n_steps + 1):
        tau = float(mesh.taus[k - 1])
        cand = cn_sav_step(state, tau, params, grid)
        records.append(_record(state.n + 1, state.t + tau, cand, state.phi,
                               params, grid, True, math.nan))
        commit_candidate(state, cand)
        state.t = t0 + float(mesh.levels[k])
    return records


def adaptive_run(state, params, grid, aparams, T):
    """Drive the estimator pair from state.t to T per the accuracy criterion.

    The first trial step is tau_min.  Returns the list of StepRecords,
    rejected trials included.
    """
    records = []
    tau_next = aparams.tau_min

    while T - state.t > 1e-12 * T:
        tau_n = min(tau_next, T - state.t)
        retries = 0
        while True:
            cand2 = cn_sav_step(state, tau_n, params, grid)
            cand1 = be_l1_sav_step(state, tau_n, params, grid)
            norm2 = math.sqrt(grid.inner_spec(cand2.phi_h, cand2.phi_h))
            d_h = cand2.phi_h - cand1.phi_h
            e = math.sqrt(grid.inner_spec(d_h, d_h)) / norm2 if norm2 > 0 else 0.0
            at_floor = tau_n <= aparams.tau_min * (1.0 + 1e-12)
            accept = e < aparams.tol or at_floor
            records.append(_record(state.n + 1, state.t + tau_n, cand2,
                                   state.phi, params, grid, accept, e))
            if accept:
                if retries >= _MAX_RETRIES and e >= aparams.tol:
                    log.warning(
                        "retry budget exhausted at t=%.6g; force-accepting "
                        "floor step with e=%.3e >= tol=%.3e", state.t, e, aparams.tol)
                tau_next = aparams.clamp(tau_ada(e, tau_n, aparams)) \
                    if e < aparams.tol else aparams.tau_min
                commit_candidate(state, cand2)
                break
            retries += 1
            tau_n = min(aparams.tau_min if retries >= _MAX_RETRIES
                        else aparams.clamp(tau_ada(e, tau_n, aparams)), T - state.t)
    return records
