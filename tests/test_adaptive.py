import hashlib
import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tfmbe.adaptive as adaptive
from tfmbe import (AdaptiveParams, Grid2D, ModelParams, adaptive_run,
                   be_l1_sav_step, build_uniform, cn_sav_step, init_state,
                   make_history, run_fixed, tau_ada, trajectory_observables)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(16)


def small_state(grid, model="slope", alpha=0.7, soe_mode="direct"):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
    phi0 = 0.1 * (np.sin(3 * grid.x) * np.sin(2 * grid.y)
                  + np.sin(5 * grid.x) * np.sin(5 * grid.y))
    history = make_history(alpha, grid.spec_shape, mode=soe_mode, dt_min=1e-3, T=1.0)
    return init_state(grid, phi0, params, history), params


def flip_estimates(monkeypatch, trials):
    """Negate the estimator's candidate on the given trials (counted from 1).

    The controller then sees e close to 2 there, far above any tolerance
    used here; the estimator step still runs, so every trial keeps its
    transforms.
    """
    estimator, count = adaptive.be_l1_sav_step, itertools.count(1)

    def flipped(state, tau, params, grid):
        cand = estimator(state, tau, params, grid)
        return SimpleNamespace(phi_h=-cand.phi_h) if next(count) in trials else cand

    monkeypatch.setattr(adaptive, "be_l1_sav_step", flipped)


@pytest.mark.parametrize("soe_mode", ["fast", "direct"])
@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_transform_counts(monkeypatch, grid, alpha, soe_mode):
    """7 two-dimensional transforms per adaptive trial, 5 per fixed-mesh step."""
    state, params = small_state(grid, alpha=alpha, soe_mode=soe_mode)
    calls = []
    for name in ("fft", "ifft"):
        def counted(self, f, _transform=getattr(Grid2D, name)):
            calls.append(name)
            return _transform(self, f)
        monkeypatch.setattr(Grid2D, name, counted)
    records = run_fixed(state, build_uniform(0.02, 12), params, grid)
    assert len(calls) == 5 * len(records)
    del calls[:]
    flip_estimates(monkeypatch, {2})  # the first trial above the floor
    aparams = AdaptiveParams(tol=1e-2, tau_min=1e-3, tau_max=0.05)
    records = adaptive_run(state, params, grid, aparams, T=0.2)
    assert not records[1].accepted  # rejected trials counted too
    assert len(calls) == 7 * len(records)
    if soe_mode == "fast" and alpha < 1.0:
        assert state.history.bank is not None


def test_params_validation():
    with pytest.raises(ValueError):
        AdaptiveParams(rho=0.0)
    with pytest.raises(ValueError):
        AdaptiveParams(tol=-1.0)
    with pytest.raises(ValueError):
        AdaptiveParams(tau_min=0.1, tau_max=0.01)


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_params_reject_non_finite_tolerance(tol):
    with pytest.raises(ValueError, match="tolerance"):
        AdaptiveParams(tol=tol)


@pytest.mark.parametrize("tau_min", [math.nan, math.inf, 0.0, -1e-3])
def test_params_reject_bad_tau_min(tau_min):
    with pytest.raises(ValueError, match=r"require 0 < tau_min <= tau_max"):
        AdaptiveParams(tau_min=tau_min)


def test_tau_ada_values():
    p = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-6, tau_max=1.0)
    assert tau_ada(4e-3, 0.01, p) == pytest.approx(0.0045, rel=1e-12)
    assert tau_ada(1e-3 / 4, 0.01, p) == pytest.approx(0.018, rel=1e-12)
    unit = AdaptiveParams(rho=1.0, tol=1e-3, tau_min=1e-6, tau_max=1.0)
    assert tau_ada(1e-3, 0.37, unit) == pytest.approx(0.37, rel=1e-12)


def test_tau_ada_zero_error_capped_growth():
    p = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-6, tau_max=1.0)
    assert tau_ada(0.0, 0.01, p) == pytest.approx(0.09, rel=1e-12)
    with pytest.raises(ValueError):
        tau_ada(-1.0, 0.01, p)


@given(st.floats(1e-8, 1e2), st.floats(1e-6, 1.0), st.floats(0.1, 1.0),
       st.floats(1e-6, 1e-1))
@settings(max_examples=60, deadline=None)
def test_tau_ada_formula(e, tau, rho, tol):
    p = AdaptiveParams(rho=rho, tol=tol, tau_min=1e-9, tau_max=1e9)
    assert tau_ada(e, tau, p) == pytest.approx(
        rho * math.sqrt(tol / e) * tau, rel=1e-12)


def test_loose_tolerance_ramps_to_ceiling(grid):
    state, params = small_state(grid)
    ap = AdaptiveParams(rho=0.9, tol=1e6, tau_min=1e-3, tau_max=5e-2)
    records = adaptive_run(state, params, grid, ap, 1.0)
    assert all(r.accepted for r in records)
    taus = [r.tau for r in records]
    assert max(taus) == pytest.approx(ap.tau_max, rel=1e-12)
    # once at the ceiling it stays there (up to the final landing step)
    at_max = taus.index(max(taus))
    assert all(t == pytest.approx(ap.tau_max) for t in taus[at_max:-1])


def test_committed_steps_within_bounds(grid):
    state, params = small_state(grid)
    ap = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-3, tau_max=1e-1)
    records = adaptive_run(state, params, grid, ap, 0.5)
    acc = [r for r in records if r.accepted]
    for r in acc[:-1]:
        assert ap.tau_min * (1 - 1e-12) <= r.tau <= ap.tau_max * (1 + 1e-12)
    assert acc[-1].tau <= ap.tau_max * (1 + 1e-12)
    assert acc[-1].t == pytest.approx(0.5, rel=1e-10)


def test_rejected_trials_leave_state_unchanged(grid, monkeypatch):
    # trials 2 and 3 are rejected above the floor; trial 4 falls to the floor
    monkeypatch.setattr(adaptive, "_MAX_RETRIES", 3)
    flip_estimates(monkeypatch, {2, 3})
    state, params = small_state(grid)
    ap = AdaptiveParams(rho=0.9, tol=1.0, tau_min=1e-3, tau_max=1e-2)
    records = adaptive_run(state, params, grid, ap, 3e-2)
    rejected = [r for r in records if not r.accepted]
    accepted = [r for r in records if r.accepted]
    assert [r.n for r in rejected] == [2, 2]
    assert records[1].tau > records[2].tau > records[3].tau == ap.tau_min
    assert accepted[-1].t == pytest.approx(3e-2, rel=1e-10)
    # history holds exactly the accepted steps
    assert state.history.n_committed == len(accepted)
    assert state.t == pytest.approx(3e-2, rel=1e-10)


def test_force_accept_after_retry_budget(grid, caplog, monkeypatch):
    # with a one-retry budget, a rejected trial falls back to a floor step;
    # the floor step still misses the tolerance, so it is accepted with a warning
    monkeypatch.setattr(adaptive, "_MAX_RETRIES", 1)
    flip_estimates(monkeypatch, {2, 3})
    state, params = small_state(grid)
    ap = AdaptiveParams(rho=0.9, tol=1.0, tau_min=1e-3, tau_max=1e-2)
    with caplog.at_level("WARNING"):
        records = adaptive_run(state, params, grid, ap, 3e-2)
    assert sum("force-accepting" in m for m in caplog.messages) == 1
    trial, forced = records[1:3]
    assert not trial.accepted and trial.tau > ap.tau_min
    assert forced.accepted and forced.tau == ap.tau_min and forced.e_est >= ap.tol
    assert records[-1].t == pytest.approx(3e-2, rel=1e-10)


def test_deterministic_step_sequence(grid):
    seqs = []
    for _ in range(2):
        state, params = small_state(grid)
        ap = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-3, tau_max=1e-1)
        records = adaptive_run(state, params, grid, ap, 0.3)
        seqs.append([(r.n, r.tau, r.accepted, r.e_est) for r in records])
    assert seqs[0] == seqs[1]


def test_energy_bound_over_adaptive_run(grid):
    for model in ("slope", "noslope"):
        state, params = small_state(grid, model=model)
        e0 = trajectory_observables(grid, state, params)[0]
        ap = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-3, tau_max=1e-1)
        records = adaptive_run(state, params, grid, ap, 1.0)
        worst = max(r.energy_mod for r in records if r.accepted)
        assert worst <= e0 + 1e-9 * abs(e0)


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_error_estimate_is_real_space_l2_ratio(grid, model):
    state, params = small_state(grid, model=model)
    tau = 0.01
    c2 = cn_sav_step(state, tau, params, grid)
    c1 = be_l1_sav_step(state, tau, params, grid)
    ref = math.sqrt(grid.integrate((c2.phi - c1.phi) ** 2) / grid.integrate(c2.phi ** 2))
    ap = AdaptiveParams(tol=1e6, tau_min=tau, tau_max=0.1)
    records = adaptive_run(state, params, grid, ap, tau)
    assert len(records) == 1 and records[0].tau == tau
    assert records[0].e_est == pytest.approx(ref, rel=1e-12)
