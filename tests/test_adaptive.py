import dataclasses
import itertools
import math
import os
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tfmbe.adaptive as adaptive
from tfmbe import (AdaptiveParams, Grid2D, ModelParams, SolverError, adaptive_run,
                   be_l1_sav_step, build_graded, build_uniform, cn_sav_step,
                   commit_candidate, init_state, make_history, run_fixed, tau_ada,
                   trajectory_observables)

import tfmbe.sav as sav

from conftest import (count_bank_passes, count_prefix_passes, count_transforms,
                      flip_estimates)


@pytest.fixture(scope="module")
def grid():
    return Grid2D(16)


def small_state(grid, model="slope", alpha=0.7, soe_mode="direct"):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
    phi0 = 0.1 * (np.sin(3 * grid.x) * np.sin(2 * grid.y)
                  + np.sin(5 * grid.x) * np.sin(5 * grid.y))
    history = make_history(alpha, mode=soe_mode, dt_min=1e-3, T=1.0)
    return init_state(grid, phi0, params, history)


def overflow_candidates(monkeypatch, trials):
    """Put a mode of 1e200 into both candidates of the given trials (from 1).

    The candidates stay finite and agree in that mode, so their distance is
    finite while the squared norm of the second-order candidate overflows:
    the distance divided by that norm reads 0.
    """
    spoiled, count = [False], itertools.count(1)

    for name in ("cn_sav_step", "be_l1_sav_step"):
        def spoiling(state, tau, _step=getattr(adaptive, name), _name=name):
            if _name == "cn_sav_step":  # the second-order step opens every trial
                spoiled[0] = next(count) in trials
            cand = _step(state, tau)
            if not spoiled[0]:
                return cand
            phi_h = cand.phi_h.copy()
            phi_h[0, 1] = 1e200
            return dataclasses.replace(cand, phi_h=phi_h)

        monkeypatch.setattr(adaptive, name, spoiling)


def spoil_energies(monkeypatch, bad, trials):
    """Report the modified energy of the given trials (from 1) as ``bad``."""
    observables, count = adaptive.trajectory_observables, itertools.count(1)

    def spoiled(state, head=None):
        e_mod, *rest = observables(state, head)
        return (bad if next(count) in trials else e_mod, *rest)

    monkeypatch.setattr(adaptive, "trajectory_observables", spoiled)


@pytest.mark.parametrize("soe_mode", ["fast", "direct"])
@pytest.mark.parametrize("alpha", [0.7, 1.0])
def test_transform_counts(monkeypatch, grid, alpha, soe_mode):
    """3 transform calls per adaptive trial, 2 per fixed-mesh step.

    A fixed-mesh step makes one forward call (the flux divergence) and one
    shared inverse pass (the new field and its gradient); an adaptive
    trial adds the estimator's forward call.
    """
    state = small_state(grid, alpha=alpha, soe_mode=soe_mode)
    calls = count_transforms(monkeypatch)
    records = run_fixed(state, build_uniform(0.02, 12))
    assert calls == {"fft": len(records), "field_and_gradient": len(records)}
    calls.clear()
    flip_estimates(monkeypatch, {2})  # the first trial above the floor
    aparams = AdaptiveParams(tol=1e-2, tau_min=1e-3, tau_max=0.05)
    records = adaptive_run(state, aparams, T=0.2)
    assert not records[1].accepted  # rejected trials counted too
    assert calls == {"fft": 2 * len(records), "field_and_gradient": len(records)}
    if soe_mode == "fast" and alpha < 1.0:
        assert state.history.bank is not None


# Python-level calls into the package per fixed-mesh step on a planned
# exact history at 16^2, a little above the 59.1 (slope) and 62.1 (noslope)
# measured when the budget was set; the fraction is the calls a mesh and a
# chunk make once
CALL_BUDGET = {"slope": 60, "noslope": 63}


@pytest.mark.parametrize("model", sorted(CALL_BUDGET))
def test_fixed_mesh_step_call_budget(grid, model):
    """A fixed-mesh step makes at most its budget of calls to package functions.

    Below 64^2 a step costs about its calls.  numpy's own Python-level
    wrappers are not counted: their number depends on the numpy version.
    """
    package = os.path.dirname(sav.__file__) + os.sep
    state = small_state(grid, model=model, alpha=0.6)
    run_fixed(state, build_uniform(0.004, 2))
    n, calls = 2 * sav._CHUNK_LEVELS + 3, []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(package):
            calls.append(frame.f_code.co_name)

    mesh = build_uniform(0.004 * n, n)
    sys.setprofile(profile)
    try:
        run_fixed(state, mesh)
    finally:
        sys.setprofile(None)
    assert len(calls) <= CALL_BUDGET[model] * n, len(calls) / n


@pytest.mark.parametrize("alpha", [0.4, 0.7])
def test_one_bank_pass_per_trial(monkeypatch, grid, alpha):
    """The two trials of an adaptive step share one pass over the bank."""
    state = small_state(grid, alpha=alpha, soe_mode="fast")
    run_fixed(state, build_uniform(0.004, 2))  # steps of dt_min: the bank is read
    assert state.history.bank.n_committed == 2
    counter = count_bank_passes(monkeypatch, lambda: state.history.bank)
    records = run_fixed(state, build_uniform(0.02, 10))
    assert counter.passes == len(records)
    counter.passes = 0
    flip_estimates(monkeypatch, {8})  # a trial above the floor
    aparams = AdaptiveParams(tol=1e-2, tau_min=1e-3, tau_max=0.05)
    records = adaptive_run(state, aparams, T=0.2)
    assert not records[7].accepted  # rejected trials counted too
    assert counter.passes == len(records)


@pytest.mark.parametrize("soe_mode", ["direct", "fast"])
def test_run_fixed_makes_one_prefix_pass_per_lookahead(monkeypatch, grid, soe_mode):
    """A fixed mesh is planned: one pass over the exact history serves a chunk of levels.

    The chunks start at the second level (the first has no sum to read)
    and hold _CHUNK_LEVELS levels here; the products a commit adds to a
    chunk's rows read only increments committed since its pass.  A fast
    history plans chunks of one level: its exact prefix holds only steps
    below dt_min (1e-3 here), and each read makes its own pass.
    """
    state = small_state(grid, alpha=0.6, soe_mode=soe_mode)
    counter = count_prefix_passes(monkeypatch, state.history)
    k = sav._CHUNK_LEVELS
    n = 2 * k + 5
    records = run_fixed(state, build_uniform(5e-4 * n, n))
    assert len(records) == n and state.history.bank is None
    assert state.history._chunk_levels == (k if soe_mode == "direct" else 1)
    assert counter.passes == (math.ceil((n - 1) / k) if soe_mode == "direct" else n - 1)


def test_fast_history_graded_start_reads_no_estimator_rows(monkeypatch, grid):
    """The drivers' graded start on a fast history: one kernel row per level.

    Its steps are all below dt_min, so the exact prefix serves every read;
    a planned read makes a pass for the second-order row alone, and the
    fields match an unplanned march of the same steps.
    """
    mesh = build_graded(0.01, 30, 3.0)
    assert mesh.taus.max() < 1e-3
    unplanned, expected = small_state(grid, alpha=0.7, soe_mode="fast"), []
    for tau in mesh.taus:
        expected.append(cn_sav_step(unplanned, float(tau)))
        commit_candidate(unplanned, expected[-1])
        assert unplanned.history.bank is None
    rows = []
    for name in ("l1_row", "l1plus_row", "l1plus_block"):
        def counted(*args, _row=getattr(sav, name), _name=name):
            weights = _row(*args)
            rows.append((_name, len(weights) if _name == "l1plus_block" else 1))
            return weights
        monkeypatch.setattr(sav, name, counted)
    fields = []

    def committing(state, cand):
        fields.append(cand.phi_h)
        return commit_candidate(state, cand)

    monkeypatch.setattr(adaptive, "commit_candidate", committing)
    planned = small_state(grid, alpha=0.7, soe_mode="fast")
    counter = count_prefix_passes(monkeypatch, planned.history)
    run_fixed(planned, mesh)
    # the first level's local weight, then a one-row chunk per level
    assert rows == [("l1plus_row", 1)] + [("l1plus_block", 1)] * (mesh.n_steps - 1)
    assert counter.passes == mesh.n_steps - 1  # the first level has no sum
    assert len(fields) == mesh.n_steps
    for got, cand in zip(fields, expected):
        assert np.linalg.norm(got - cand.phi_h) <= 1e-15 * np.linalg.norm(cand.phi_h)


@pytest.mark.parametrize("alpha", [0.4, 0.7])
def test_one_prefix_pass_per_adaptive_trial(monkeypatch, grid, alpha):
    """The two trials of an adaptive step on the exact history share one pass."""
    state = small_state(grid, alpha=alpha, soe_mode="direct")
    run_fixed(state, build_uniform(0.002, 2))
    counter = count_prefix_passes(monkeypatch, state.history)
    flip_estimates(monkeypatch, {20})  # a trial above the floor
    aparams = AdaptiveParams(tol=1e-2, tau_min=1e-3, tau_max=0.05)
    records = adaptive_run(state, aparams, T=0.2)
    assert not records[19].accepted  # rejected trials counted too
    assert counter.passes == len(records)


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0, -1.0])
def test_adaptive_run_rejects_bad_horizon(grid, T):
    state = small_state(grid)
    with pytest.raises(ValueError, match=r"horizon T must be finite and positive"):
        adaptive_run(state, AdaptiveParams(), T)
    assert state.n == 0


def test_params_validation():
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
    p = AdaptiveParams(tol=1e-3, tau_min=1e-6, tau_max=1.0)
    assert tau_ada(4e-3, 0.01, p) == pytest.approx(0.0045, rel=1e-12)
    assert tau_ada(1e-3 / 4, 0.01, p) == pytest.approx(0.018, rel=1e-12)


def test_tau_ada_zero_error_capped_growth():
    p = AdaptiveParams(tol=1e-3, tau_min=1e-6, tau_max=1.0)
    assert tau_ada(0.0, 0.01, p) == pytest.approx(0.09, rel=1e-12)
    with pytest.raises(ValueError):
        tau_ada(-1.0, 0.01, p)


@given(st.floats(1e-8, 1e2), st.floats(1e-6, 1.0), st.floats(1e-6, 1e-1))
@settings(max_examples=60, deadline=None)
def test_tau_ada_formula(e, tau, tol):
    p = AdaptiveParams(tol=tol, tau_min=1e-9, tau_max=1e9)
    assert tau_ada(e, tau, p) == pytest.approx(
        0.9 * math.sqrt(tol / e) * tau, rel=1e-12)


def test_loose_tolerance_ramps_to_ceiling(grid):
    state = small_state(grid)
    ap = AdaptiveParams(tol=1e6, tau_min=1e-3, tau_max=5e-2)
    records = adaptive_run(state, ap, 1.0)
    assert all(r.accepted for r in records)
    taus = [r.tau for r in records]
    assert max(taus) == pytest.approx(ap.tau_max, rel=1e-12)
    # once at the ceiling it stays there (up to the final landing step)
    at_max = taus.index(max(taus))
    assert all(t == pytest.approx(ap.tau_max) for t in taus[at_max:-1])


def test_committed_steps_within_bounds(grid):
    state = small_state(grid)
    ap = AdaptiveParams(tol=1e-3, tau_min=1e-3, tau_max=1e-1)
    records = adaptive_run(state, ap, 0.5)
    acc = [r for r in records if r.accepted]
    for r in acc[:-1]:
        assert ap.tau_min * (1 - 1e-12) <= r.tau <= ap.tau_max * (1 + 1e-12)
    assert acc[-1].tau <= ap.tau_max * (1 + 1e-12)
    assert acc[-1].t == pytest.approx(0.5, rel=1e-10)


def test_rejected_trials_leave_state_unchanged(grid, monkeypatch):
    # trials 2 and 3 are rejected above the floor; trial 4 falls to the floor
    flip_estimates(monkeypatch, {2, 3})
    state = small_state(grid)
    ap = AdaptiveParams(tol=1.0, tau_min=1e-3, tau_max=1e-2)
    records = adaptive_run(state, ap, 3e-2)
    rejected = [r for r in records if not r.accepted]
    accepted = [r for r in records if r.accepted]
    assert [r.n for r in rejected] == [2, 2]
    assert records[1].tau > records[2].tau > records[3].tau == ap.tau_min
    assert accepted[-1].t == pytest.approx(3e-2, rel=1e-10)
    # history holds exactly the accepted steps
    assert state.history.n_committed == len(accepted)
    assert state.t == pytest.approx(3e-2, rel=1e-10)


def test_floor_trial_accepted_over_tolerance(grid, caplog, monkeypatch):
    # trials 2 and 3 are rejected; trial 4, at the floor, misses the tolerance
    # too and is accepted without a warning
    flip_estimates(monkeypatch, {2, 3, 4})
    state = small_state(grid)
    ap = AdaptiveParams(tol=1.0, tau_min=1e-3, tau_max=1e-2)
    with caplog.at_level("DEBUG", logger="tfmbe"):
        records = adaptive_run(state, ap, 3e-2)
    assert not [r for r in caplog.records if r.name.startswith("tfmbe")]
    assert [(r.n, r.accepted) for r in records[1:4]] == [(2, 0), (2, 0), (2, 1)]
    floor = records[3]
    assert floor.tau == ap.tau_min and floor.e_est >= ap.tol
    assert records[-1].t == pytest.approx(3e-2, rel=1e-10)


@given(st.dictionaries(st.integers(2, 20),
                       st.one_of(st.floats(1.0, 1e6), st.just(math.inf)), min_size=1))
@example({2: 1.0, 3: math.inf, 6: 1e6})
@settings(max_examples=20, deadline=None)
def test_every_rejection_retries_at_a_shorter_step(errors):
    # the drawn trials (counted from 1) see an error >= tol, inf included,
    # when they are above the floor: each is rejected and followed by a
    # strictly shorter trial of the same step, and the run reaches T
    ap = AdaptiveParams(tol=1.0, tau_min=1e-3, tau_max=1e-2)
    relative_error, count, used = adaptive._relative_error, itertools.count(1), []

    def drawn(grid, cand2, cand1):
        e = errors.get(next(count))
        if e is None or cand2.tau <= ap.tau_min * (1.0 + 1e-12):
            return relative_error(grid, cand2, cand1)
        used.append(e)
        return e

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(adaptive, "_relative_error", drawn)
        records = adaptive_run(small_state(Grid2D(8)), ap, 0.1)
    assert [r.e_est for r in records if not r.accepted] == used
    for trial, retry in zip(records, records[1:]):
        if not trial.accepted:
            assert retry.n == trial.n and retry.tau < trial.tau
    assert records[-1].accepted and records[-1].t == pytest.approx(0.1, rel=1e-10)


def test_adaptive_run_rejects_horizon_before_state(grid):
    state = small_state(grid)
    run_fixed(state, build_uniform(0.1, 10))
    with pytest.raises(ValueError, match=r"T = 0\.05 is before the state's time "
                                         r"t = 0\.1"):
        adaptive_run(state, AdaptiveParams(), 0.05)
    assert state.n == 10
    # a horizon within the end tolerance of state.t leaves nothing to march
    for T in (state.t, state.t * (1 - 5e-13)):
        assert adaptive_run(state, AdaptiveParams(), T) == []


def test_deterministic_step_sequence(grid):
    seqs = []
    for _ in range(2):
        state = small_state(grid)
        ap = AdaptiveParams(tol=1e-3, tau_min=1e-3, tau_max=1e-1)
        records = adaptive_run(state, ap, 0.3)
        seqs.append([(r.n, r.tau, r.accepted, r.e_est) for r in records])
    assert seqs[0] == seqs[1]


def test_energy_bound_over_adaptive_run(grid):
    for model in ("slope", "noslope"):
        state = small_state(grid, model=model)
        e0 = trajectory_observables(state)[0]
        assert state.energy0 == e0
        ap = AdaptiveParams(tol=1e-3, tau_min=1e-3, tau_max=1e-1)
        records = adaptive_run(state, ap, 1.0)
        worst = max(r.energy_mod for r in records if r.accepted)
        assert worst <= e0 + 1e-9 * abs(e0)


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_error_estimate_is_real_space_l2_ratio(grid, model):
    state = small_state(grid, model=model)
    tau = 0.01
    c2 = cn_sav_step(state, tau)
    c1 = be_l1_sav_step(state, tau)
    ref = math.sqrt(grid.integrate((c2.phi - c1.phi) ** 2) / grid.integrate(c2.phi ** 2))
    ap = AdaptiveParams(tol=1e6, tau_min=tau, tau_max=0.1)
    records = adaptive_run(state, ap, tau)
    assert len(records) == 1 and records[0].tau == tau
    assert records[0].e_est == pytest.approx(ref, rel=1e-12)


# tolerance loose enough that trial 2 (counted from 1) is above the floor
LOOSE = AdaptiveParams(tol=1.0, tau_min=1e-3, tau_max=1e-2)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowed_trial_is_rejected(monkeypatch, grid):
    overflow_candidates(monkeypatch, {2})
    state = small_state(grid)
    records = adaptive_run(state, LOOSE, 0.02)
    trial, retry = records[1:3]
    assert not trial.accepted and trial.e_est == math.inf
    assert trial.tau > LOOSE.tau_min
    assert retry.accepted and retry.n == 2 and retry.tau == LOOSE.tau_min
    assert all(math.isfinite(r.energy_mod) for r in records if r.accepted)
    assert state.t == pytest.approx(0.02, rel=1e-10)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflowed_floor_trial_raises(monkeypatch, grid):
    overflow_candidates(monkeypatch, {2, 3})
    with pytest.raises(SolverError, match=r"e = inf at floor step 2 \(t = 0\.002\)"):
        adaptive_run(small_state(grid), LOOSE, 0.02)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_fixed_mesh_names_first_non_finite_energy(monkeypatch, grid, bad):
    spoil_energies(monkeypatch, bad, {3, 4})
    state = small_state(grid)
    with pytest.raises(SolverError, match=r"accepted step 3 \(t = 0\.003\)") as err:
        run_fixed(state, build_uniform(0.01, 10))
    assert state.n == 2  # the bad step is not committed
    assert [r.n for r in err.value.records] == [1, 2]  # the records before it


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_controller_names_first_non_finite_energy(monkeypatch, grid, bad):
    # trial 2 is rejected, so its energy is not checked; trial 4 is step 3
    flip_estimates(monkeypatch, {2})
    spoil_energies(monkeypatch, bad, {2, 4})
    with pytest.raises(SolverError, match=r"accepted step 3 \(t = ") as err:
        adaptive_run(small_state(grid), LOOSE, 0.2)
    assert [(r.n, r.accepted) for r in err.value.records] == [(1, 1), (2, 0), (2, 1)]


@pytest.mark.parametrize("excess, raises", [(1e3, True), (2e-9, True), (5e-10, False)])
def test_fixed_mesh_names_first_step_above_initial_energy(monkeypatch, grid, excess,
                                                          raises):
    # the bound E(n) <= E(0) holds up to 1e-9 of |E(0)|
    state = small_state(grid)
    e0 = state.energy0
    spoil_energies(monkeypatch, e0 + excess * abs(e0), {3})
    mesh = build_uniform(0.01, 10)
    if not raises:
        assert len(run_fixed(state, mesh)) == 10
        return
    with pytest.raises(SolverError, match=r"above E\(0\) = .* at accepted step 3 "
                                          r"\(t = 0\.003\)") as err:
        run_fixed(state, mesh)
    assert state.n == 2  # the bad step is not committed
    assert [r.n for r in err.value.records] == [1, 2]  # the records before it


def test_controller_names_first_step_above_initial_energy(monkeypatch, grid):
    # trial 2 is rejected, so its energy is not checked; trial 4 is step 3
    state = small_state(grid)
    flip_estimates(monkeypatch, {2})
    spoil_energies(monkeypatch, state.energy0 + 1e3, {2, 4})
    with pytest.raises(SolverError, match=r"above E\(0\) = .* at accepted step 3 ") as err:
        adaptive_run(state, LOOSE, 0.2)
    assert [(r.n, r.accepted) for r in err.value.records] == [(1, 1), (2, 0), (2, 1)]
