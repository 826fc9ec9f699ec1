import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfmbe import (AdaptiveParams, Grid2D, ModelParams, adaptive_run,
                   be_l1_sav_step, build_graded, build_uniform, cn_sav_step,
                   init_state, make_history, run_fixed, tau_ada,
                   trajectory_observables)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(16)


def small_state(grid, model="slope", alpha=0.7, soe_mode="direct"):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
    phi0 = 0.1 * (np.sin(3 * grid.x) * np.sin(2 * grid.y)
                  + np.sin(5 * grid.x) * np.sin(5 * grid.y))
    history = make_history(alpha, grid.spec_shape, mode=soe_mode, dt_min=1e-3, T=1.0)
    return init_state(grid, phi0, params, history), params


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
    aparams = AdaptiveParams(tol=1e-4, tau_min=1e-3, tau_max=0.05, tau_init=0.05)
    records = adaptive_run(state, params, grid, aparams, T=0.2)
    assert sum(not r.accepted for r in records) > 0  # rejected trials counted too
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


@pytest.mark.parametrize("tau_init", [math.nan, math.inf, 0.0, -1e-3])
def test_params_reject_bad_tau_init(tau_init):
    with pytest.raises(ValueError, match="tau_init"):
        AdaptiveParams(tau_init=tau_init)


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
    ap = AdaptiveParams(rho=0.9, tol=1e6, tau_min=1e-3, tau_max=5e-2,
                        tau_init=1e-3)
    records = adaptive_run(state, params, grid, ap, 1.0)
    assert all(r.accepted for r in records)
    taus = [r.tau for r in records]
    assert max(taus) == pytest.approx(ap.tau_max, rel=1e-12)
    # once at the ceiling it stays there (up to the final landing step)
    at_max = taus.index(max(taus))
    assert all(t == pytest.approx(ap.tau_max) for t in taus[at_max:-1])


def test_committed_steps_within_bounds(grid):
    state, params = small_state(grid)
    ap = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-3, tau_max=1e-1,
                        tau_init=1e-3)
    records = adaptive_run(state, params, grid, ap, 0.5)
    acc = [r for r in records if r.accepted]
    for r in acc[:-1]:
        assert ap.tau_min * (1 - 1e-12) <= r.tau <= ap.tau_max * (1 + 1e-12)
    assert acc[-1].tau <= ap.tau_max * (1 + 1e-12)
    assert acc[-1].t == pytest.approx(0.5, rel=1e-10)


def test_rejected_trials_leave_state_unchanged(grid):
    state, params = small_state(grid)
    ap = AdaptiveParams(rho=0.9, tol=1e-12, tau_min=1e-4, tau_max=1e-2,
                        tau_init=1e-2, max_retries=3)
    records = adaptive_run(state, params, grid, ap, 3e-2)
    rejected = [r for r in records if not r.accepted]
    accepted = [r for r in records if r.accepted]
    assert rejected, "tolerance this tight must reject at least one trial"
    assert accepted[-1].t == pytest.approx(3e-2, rel=1e-10)
    # history holds exactly the accepted steps
    assert state.history.n_committed == len(accepted)
    assert state.t == pytest.approx(3e-2, rel=1e-10)


def test_force_accept_after_retry_budget(grid, caplog):
    # an unreachable tolerance with a one-retry budget must fall back to a
    # floor step, accept it, and say so
    state, params = small_state(grid)
    ap = AdaptiveParams(rho=0.9, tol=1e-15, tau_min=1e-12, tau_max=1e-2,
                        tau_init=1e-2, max_retries=1)
    with caplog.at_level("WARNING"):
        records = adaptive_run(state, params, grid, ap, 3e-12)
    assert any("force-accepting" in m for m in caplog.messages)
    acc = [r for r in records if r.accepted]
    assert acc[-1].t == pytest.approx(3e-12, rel=1e-6)
    assert acc[0].tau == pytest.approx(ap.tau_min, rel=1e-9)


def test_deterministic_step_sequence(grid):
    seqs = []
    for _ in range(2):
        state, params = small_state(grid)
        ap = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-3, tau_max=1e-1,
                            tau_init=1e-3)
        records = adaptive_run(state, params, grid, ap, 0.3)
        seqs.append([(r.n, r.tau, r.accepted, r.e_est) for r in records])
    assert seqs[0] == seqs[1]


def test_prefix_mesh_marched_unconditionally(grid):
    state, params = small_state(grid, alpha=0.4)
    prefix = build_graded(0.01, 10, 3.0)
    ap = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-3, tau_max=1e-1,
                        tau_init=1e-3)
    records = adaptive_run(state, params, grid, ap, 0.1, prefix_mesh=prefix)
    assert all(r.accepted for r in records[:10])
    assert records[9].t == pytest.approx(0.01, rel=1e-12)
    assert math.isnan(records[0].e_est)
    assert not math.isnan(records[10].e_est)


def test_energy_bound_over_adaptive_run(grid):
    for model in ("slope", "noslope"):
        state, params = small_state(grid, model=model)
        e0 = trajectory_observables(grid, state, params)[0]
        ap = AdaptiveParams(rho=0.9, tol=1e-3, tau_min=1e-3, tau_max=1e-1,
                            tau_init=1e-3)
        records = adaptive_run(state, params, grid, ap, 1.0)
        worst = max(r.energy_mod for r in records if r.accepted)
        assert worst <= e0 + 1e-9 * abs(e0)


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_error_estimate_is_real_space_l2_ratio(grid, model):
    state, params = small_state(grid, model=model)
    tau = 0.01
    c2 = cn_sav_step(state, tau, params, grid)
    c1 = be_l1_sav_step(state, tau, params, grid)
    ref = grid.norm_l2(c2.phi - c1.phi) / grid.norm_l2(c2.phi)
    ap = AdaptiveParams(tol=1e6, tau_min=1e-3, tau_max=0.1, tau_init=tau)
    records = adaptive_run(state, params, grid, ap, tau)
    assert len(records) == 1 and records[0].tau == tau
    assert records[0].e_est == pytest.approx(ref, rel=1e-12)
