import hashlib
import math
import tracemalloc
import weakref

import numpy as np
import pytest

from tfmbe import (Grid2D, HistoryBank, ModelParams, SolverError, be_l1_sav_step,
                   build_soe, build_uniform, cn_sav_step, commit_candidate,
                   init_state, make_history, run_fixed, trajectory_observables)
import tfmbe.sav as sav
import tfmbe.soe as soe_module
from tfmbe.kernels import l1_row, l1plus_row
from tfmbe.sav import CaputoHistory
from tfmbe.soe import _FOLD_STEPS

from conftest import count_bank_passes, count_prefix_passes, count_transforms, random_mesh


@pytest.fixture(scope="module")
def grid():
    return Grid2D(32)


def two_mode(grid):
    return 0.1 * (np.sin(3 * grid.x) * np.sin(2 * grid.y)
                  + np.sin(5 * grid.x) * np.sin(5 * grid.y))


def two_mode_derivatives(grid):
    """Exact gradient and Laplacian of ``two_mode`` at the grid points."""
    x, y = grid.x, grid.y
    gx = 0.1 * (3 * np.cos(3 * x) * np.sin(2 * y) + 5 * np.cos(5 * x) * np.sin(5 * y))
    gy = 0.1 * (2 * np.sin(3 * x) * np.cos(2 * y) + 5 * np.sin(5 * x) * np.cos(5 * y))
    lap = -0.1 * (13 * np.sin(3 * x) * np.sin(2 * y) + 50 * np.sin(5 * x) * np.sin(5 * y))
    return gx, gy, lap


def initial_energy(state):
    return trajectory_observables(state)[0]


def head(grid, phi, aux, params):
    """A state holding phi, with the auxiliary scalar set to ``aux``."""
    state = init_state(grid, phi, params, make_history(1.0))
    state.aux = aux
    return state


def state_digest(state):
    h = hashlib.sha256()
    h.update(state.phi.tobytes())
    h.update(np.float64(state.aux).tobytes())
    h.update(np.int64(state.n).tobytes())
    h.update(np.float64(state.t).tobytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# initialization and energies
# ---------------------------------------------------------------------------

def test_init_state_slope_aux(grid):
    params = ModelParams(M=1.0, eps2=1.0, beta=1.0, C0=1.0, model="slope")
    state = init_state(grid, np.zeros(grid.shape),
                       params, make_history(0.5))
    assert state.aux == pytest.approx(math.sqrt(4 * math.pi ** 2 + 1), rel=1e-12)
    assert state.n == 0 and state.t == 0.0


def test_init_state_noslope_aux(grid):
    params = ModelParams(M=1.0, eps2=1.0, beta=1.0, C0=1.0, model="noslope")
    state = init_state(grid, np.zeros(grid.shape),
                       params, make_history(0.5))
    assert state.aux == pytest.approx(1.0, rel=1e-13)


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_init_state_reads_radicand_from_gradient(monkeypatch, grid, model):
    """init_state makes one forward call and one shared inverse pass.

    The auxiliary scalar is the square root of the radicand formula summed
    on the grid; the slope model sums it as the functional used to, bit
    for bit, and the no-slope model sums its two terms apart.
    """
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
    calls = count_transforms(monkeypatch)
    state = init_state(grid, two_mode(grid), params, make_history(0.7))
    assert calls == {"fft": 1, "field_and_gradient": 1}
    gx, gy = state.grad
    x2 = gx * gx + gy * gy
    if model == "slope":
        m = x2 - 1.0 - params.beta
        radicand = 0.25 * grid.integrate(m * m) + params.C0
        assert state.aux == math.sqrt(radicand)
    else:
        radicand = (grid.integrate(0.5 * np.log1p(x2) + 0.5 * params.beta * x2)
                    + params.C0)
        assert state.aux == pytest.approx(math.sqrt(radicand), rel=1e-15)
    _, functional_radicand = sav._functional(params)(grid, state.grad, params)
    assert state.aux == pytest.approx(math.sqrt(functional_radicand), rel=1e-15)


def test_init_state_rejects_wrong_shape(grid):
    params = ModelParams(model="slope")
    with pytest.raises(ValueError, match="does not match grid"):
        init_state(grid, np.zeros((grid.nx, grid.ny + 2)), params,
                   make_history(0.5))


def test_energies_at_flat_state(grid):
    params = ModelParams(M=1.0, eps2=1.0, beta=1.0, C0=1.0, model="slope")
    zero = np.zeros(grid.shape)
    u0 = math.sqrt((1 + params.beta) ** 2 * grid.area / 4 + params.C0)
    e_mod, e_orig, rough, drift = trajectory_observables(head(grid, zero, u0, params))
    # quadratic bound form carries the stabilizer constant
    assert e_mod == pytest.approx((1 + params.beta) ** 2 * grid.area / 4, rel=1e-12)
    assert e_orig == pytest.approx(grid.area / 4, rel=1e-12)
    assert rough == 0.0
    assert drift == pytest.approx(0.0, abs=1e-15)

    params_n = ModelParams(M=1.0, eps2=1.0, beta=1.0, C0=1.0, model="noslope")
    e_mod, e_orig, _, drift = trajectory_observables(head(grid, zero, 1.0, params_n))
    assert drift == 0.0
    assert e_mod == pytest.approx(0.0, abs=1e-12)
    assert e_orig == pytest.approx(0.0, abs=1e-12)


def test_modified_energy_matches_original_for_consistent_aux(grid):
    phi = two_mode(grid)
    for model in ("slope", "noslope"):
        params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
        state = init_state(grid, phi, params, make_history(0.5))
        e_mod, e_orig, _, drift = trajectory_observables(state)
        assert drift == 0.0  # init_state sets aux from the same radicand
        # the slope form carries the stabilizer constant, the no-slope form none
        offset = (0.5 * params.beta + 0.25 * params.beta ** 2) * grid.area \
            if model == "slope" else 0.0
        assert e_mod - offset == pytest.approx(e_orig, rel=1e-10)


def test_observables_match_standalone(grid):
    phi = two_mode(grid)
    gx, gy, lap = two_mode_derivatives(grid)
    x2 = gx * gx + gy * gy
    dA = grid.hx * grid.hy
    aux = 2.0
    for model in ("slope", "noslope"):
        params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
        e_mod, e_orig, rough, drift = trajectory_observables(head(grid, phi, aux, params))
        bend = 0.5 * params.eps2 * np.sum(lap * lap) * dA
        quad = bend + 0.5 * params.beta * np.sum(x2) * dA
        if model == "slope":
            assert e_mod == pytest.approx(quad + aux ** 2 - params.C0, rel=1e-12)
            assert e_orig == pytest.approx(
                bend + 0.25 * np.sum((x2 - 1.0) ** 2) * dA, rel=1e-12)
        else:
            assert e_mod == pytest.approx(quad - aux ** 2 + params.C0, rel=1e-12)
            assert e_orig == pytest.approx(
                bend - 0.5 * np.sum(np.log1p(x2)) * dA, rel=1e-12)
        assert rough == pytest.approx(np.std(phi), rel=1e-12)
        if model == "slope":
            m = x2 - 1.0 - params.beta
            radicand = 0.25 * np.sum(m * m) * dA + params.C0
        else:
            radicand = np.sum(0.5 * np.log1p(x2) + 0.5 * params.beta * x2) * dA \
                + params.C0
        assert drift == pytest.approx(abs(aux - math.sqrt(radicand))
                                      / math.sqrt(radicand), rel=1e-12)
    noisy = phi + 0.01 * np.random.default_rng(3).standard_normal(grid.shape)
    assert trajectory_observables(head(grid, noisy, aux, params))[2] \
        == pytest.approx(np.std(noisy), rel=1e-12)


@pytest.mark.parametrize("offset", [0.0, 1e3])
def test_roughness_by_parseval_matches_grid_std(grid, offset):
    """The mean mode is left out of the Parseval sum, so an offset cancels nothing."""
    params = ModelParams(model="slope")
    noise = 0.01 * np.random.default_rng(5).standard_normal(grid.shape)
    phi = two_mode(grid) + noise
    phi += offset - np.mean(phi)  # zero mean before the offset
    rough = trajectory_observables(head(grid, phi, 1.0, params))[2]
    assert rough == pytest.approx(np.std(phi - offset), rel=1e-12)
    assert rough == pytest.approx(np.std(phi), rel=1e-12)


def test_modified_energy_keeps_nyquist_mode(grid):
    """The bound form differentiates the Nyquist mode; the physical form drops it."""
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    k = grid.nx // 2
    phi = np.cos(k * grid.x)  # +-1 at the grid points
    e_mod, e_orig, _, _ = trajectory_observables(head(grid, phi, 0.0, params))
    bend = 0.5 * params.eps2 * k ** 4 * grid.area
    assert e_mod == pytest.approx(
        bend + 0.5 * params.beta * k ** 2 * grid.area - params.C0, rel=1e-12)
    assert e_orig == pytest.approx(bend + 0.25 * grid.area, rel=1e-12)


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_flat_state_is_fixed_point(grid):
    params = ModelParams(M=1.0, eps2=0.5, beta=1.0, C0=1.0, model="slope")
    state = init_state(grid, np.zeros(grid.shape),
                       params, make_history(0.5))
    cand = cn_sav_step(state, 0.01)
    assert np.max(np.abs(cand.phi)) < 1e-14
    assert cand.aux == pytest.approx(state.aux, rel=1e-14)


def test_candidates_do_not_mutate_state(grid):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    state = init_state(grid, two_mode(grid), params,
                       make_history(0.7))
    before = state_digest(state)
    n_before = state.history.n_committed
    cn_sav_step(state, 0.01)
    be_l1_sav_step(state, 0.01)
    assert state_digest(state) == before
    assert state.history.n_committed == n_before


def test_commit_advances_state_and_history(grid):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    state = init_state(grid, two_mode(grid), params,
                       make_history(0.7))
    grad0 = state.grad
    cand = cn_sav_step(state, 0.01)
    commit_candidate(state, cand)
    assert state.n == 1
    assert state.t == pytest.approx(0.01)
    assert state.history.n_committed == 1
    assert state.prev_grad is grad0
    assert state.phi_h is cand.phi_h
    assert np.allclose(grid.fft(state.phi), state.phi_h, rtol=0, atol=1e-12)
    assert state.grad.shape == (2,) + grid.shape
    _, ref = grid.field_and_gradient(grid.fft(state.phi))
    assert np.allclose(state.grad, ref, rtol=0, atol=1e-12)


@pytest.mark.parametrize("step", [cn_sav_step, be_l1_sav_step])
def test_commit_hands_the_history_the_candidates_increment(grid, step):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    state = init_state(grid, two_mode(grid), params, make_history(0.7))
    committed, commit = [], state.history.commit

    def recording(tau, increment, level=None):
        committed.append(increment)
        return commit(tau, increment, level=level)

    state.history.commit = recording
    phi_h = state.phi_h
    cand = step(state, 0.01)
    commit_candidate(state, cand)
    [inc] = committed
    assert np.shares_memory(inc, cand.dphi_h)
    assert inc.tobytes() == (cand.phi_h - phi_h).view(float).tobytes()


def test_step_validates_tau(grid):
    params = ModelParams(model="slope")
    for mode in ("direct", "fast"):
        history = make_history(0.7, mode=mode, dt_min=1e-3, T=1.0)
        state = init_state(grid, two_mode(grid), params, history)
        for step in (cn_sav_step, be_l1_sav_step):
            for tau in (math.nan, math.inf, 0.0, -0.1):
                with pytest.raises(ValueError, match="finite and positive"):
                    step(state, tau)


def short_then_long(n_short, level):
    """Step size of ``level``: below the sums' dt_min = 1e-2 for the first n_short."""
    return 1e-3 if level <= n_short else 0.05


@pytest.mark.parametrize("alpha,short_levels,with_soe", [
    (0.6, 0, False),   # every level exact
    (0.6, 0, True),    # bank from level 1
    (0.6, 2, True),    # exact prefix, then bank
    (1.0, 0, False),   # memoryless
], ids=["exact", "bank", "prefix-then-bank", "alpha-one"])
def test_history_commit_order_enforced(alpha, short_levels, with_soe):
    soe = build_soe(alpha, 1e-10, 1e-2, 1.0) if with_soe else None
    hist = CaputoHistory(alpha, soe=soe)
    for level in (1, 2, 3):
        hist.commit(short_then_long(short_levels, level), np.full(2, 0.1 * level),
                    level=level)
    for bad in (3, 5):  # repeated, skipped
        with pytest.raises(ValueError, match="commit for level"):
            hist.commit(0.05, np.zeros(2), level=bad)
    assert hist.n_committed == 3
    assert (hist.bank is not None) == with_soe
    hist.commit(0.05, np.zeros(2), level=4)
    assert hist.n_committed == 4


@pytest.mark.parametrize("tau", [-0.1, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("alpha,short_levels,with_soe", [
    (0.5, 0, False),   # every level exact
    (0.5, 0, True),    # bank from level 1
    (0.5, 5, True),    # still inside the exact prefix
    (1.0, 0, False),   # memoryless
], ids=["direct", "bank", "exact-prefix", "alpha-one"])
def test_history_rejects_invalid_step(alpha, short_levels, with_soe, tau):
    soe = build_soe(alpha, 1e-10, 1e-2, 1.0) if with_soe else None
    hist = CaputoHistory(alpha, soe=soe)
    for level in (1, 2, 3):
        hist.commit(short_then_long(short_levels, level), np.full(2, 0.1 * level),
                    level=level)
    assert (hist.bank is not None) == (with_soe and short_levels < 3)
    with pytest.raises(ValueError, match="level 4"):
        hist.commit(tau, np.ones(2), level=4)
    assert hist.n_committed == 3
    for scheme in ("cn", "be"):
        a0, h = hist.caputo_terms(scheme, 0.05)
        assert math.isfinite(a0)
        assert h is None if alpha == 1.0 else np.all(np.isfinite(h))


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_energy_bound_fixed_mesh(grid, model):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
    state = init_state(grid, two_mode(grid), params, make_history(0.7))
    e0 = initial_energy(state)
    records = run_fixed(state, build_uniform(1.0, 100))
    energies = [r.energy_mod for r in records]
    assert max(energies) <= e0 + 1e-9 * abs(e0)


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_telescoping_identity_fixed_mesh(grid, model):
    params = ModelParams(M=0.5, eps2=0.1, beta=4.0, C0=1.0, model=model)
    state = init_state(grid, two_mode(grid), params, make_history(0.4))
    e0 = initial_energy(state)
    records = run_fixed(state, build_uniform(0.5, 60))
    lhs = records[-1].energy_mod - e0
    rhs = -sum(r.caputo_dot for r in records) / params.M
    assert lhs == pytest.approx(rhs, abs=1e-8 * max(abs(e0), abs(lhs)))
    # kernel positivity bounds every partial sum (individual increments may
    # dip negative)
    partial = np.cumsum([r.caputo_dot for r in records])
    assert partial.min() >= -1e-10 * max(1.0, partial.max())


def test_run_fixed_continuation_keeps_clock(grid):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    state = init_state(grid, two_mode(grid), params, make_history(0.7))
    mesh = build_uniform(0.3, 30)
    run_fixed(state, mesh)
    run_fixed(state, mesh)
    assert state.n == 60
    assert state.t == 0.6


def test_estimator_pair_differs(grid):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    state = init_state(grid, two_mode(grid), params, make_history(0.7))
    c2 = cn_sav_step(state, 0.01)
    c1 = be_l1_sav_step(state, 0.01)
    rel = math.sqrt(grid.integrate((c2.phi - c1.phi) ** 2) / grid.integrate(c2.phi ** 2))
    assert rel > 1e-8


def test_alpha_one_is_classical(grid):
    # no exponential sum is built (there is no memory to compress)
    assert make_history(1.0, mode="fast").soe is None
    hist = make_history(1.0)
    hist.commit(0.1, np.ones(3), level=1)
    for scheme in ("cn", "be"):
        a0, h = hist.caputo_terms(scheme, 0.05)
        assert a0 == pytest.approx(20.0)
        assert h is None  # memoryless: no history sum to add or transform
    hist = make_history(1.0)
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    state = init_state(grid, two_mode(grid), params, hist)
    e0 = initial_energy(state)
    records = run_fixed(state, build_uniform(0.5, 50))
    assert records[-1].energy_mod <= e0 + 1e-9 * abs(e0)


def test_direct_vs_fast_trajectories(grid):
    """Same run with exact and compressed history: identical to ~eps * T."""
    alpha, T, eps = 0.6, 0.5, 1e-10
    n_steps = 50
    mesh = build_uniform(T, n_steps)
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    phis = {}
    for mode in ("direct", "fast"):
        history = make_history(alpha, mode=mode, dt_min=T / n_steps, T=T)
        state = init_state(grid, two_mode(grid), params, history)
        run_fixed(state, mesh)
        phis[mode] = state.phi
    assert np.max(np.abs(phis["direct"] - phis["fast"])) <= 10 * eps * T


def test_hybrid_history_matches_direct():
    alpha = 0.45
    rng = np.random.default_rng(5)
    taus = np.concatenate([np.geomspace(1e-6, 1e-2, 10),
                           rng.uniform(1e-2, 3e-2, 15)])
    soe = build_soe(alpha, 1e-10, 1e-2, 1.0)
    # the first nine steps undercut dt_min = 1e-2, the tenth is 1e-2 itself
    hybrid = CaputoHistory(alpha, soe=soe)
    direct = CaputoHistory(alpha)
    incs = rng.standard_normal(taus.size)
    for i, (tau, inc) in enumerate(zip(taus, incs), start=1):
        assert (hybrid.bank is not None) == (i > 10)
        for scheme in ("cn", "be"):
            a_h, h_h = hybrid.caputo_terms(scheme, 0.02)
            a_d, h_d = direct.caputo_terms(scheme, 0.02)
            assert a_h == pytest.approx(a_d, rel=1e-13), scheme
            if i == 1:  # nothing committed: no sum
                assert h_h is None and h_d is None
            else:
                assert float(h_h) == pytest.approx(float(h_d), abs=1e-8), scheme
        hybrid.commit(tau, inc, level=i)
        direct.commit(tau, inc, level=i)
    assert hybrid.bank.n_committed == taus.size
    assert direct.bank is None


@pytest.mark.parametrize("case", ["spilled", "bank-from-level-1", "unplanned"])
def test_bank_fold_matches_stepwise_commits(monkeypatch, case):
    """The bank folded from the exact prefix reads as one committed step by step.

    At the switch and for 10 levels after it, both schemes' sums agree to
    1e-13 of the sum's scale, and the pending step is the same.  "spilled":
    a planned prefix longer than the first store (the bank's rows), so the
    store grows before the switch and the bank folds it into a buffer of
    its own, a few columns at a time; "bank-from-level-1": the first step
    is already dt_min; "unplanned": a prefix inside the first store, which
    the bank takes over.
    """
    alpha, shape = 0.6, (4, 5)
    soe = build_soe(alpha, 1e-10, 1e-2, 1.0)  # 36 terms: two columns per block
    n_prefix = {"spilled": soe.n_terms + _FOLD_STEPS + 9, "bank-from-level-1": 0,
                "unplanned": 12}[case]
    rng = np.random.default_rng(11)
    taus = np.concatenate((rng.uniform(1e-4, 5e-3, n_prefix), rng.uniform(1e-2, 3e-2, 11)))
    incs = rng.standard_normal((taus.size,) + shape)
    history, stepwise = CaputoHistory(alpha, soe), HistoryBank(soe, shape)
    if case == "spilled":
        monkeypatch.setattr(soe_module, "_COMMIT_BLOCK_BYTES", 5 * 8 * math.prod(shape))
        history.plan(taus)
    stores, make = [], sav._store_block
    monkeypatch.setattr(sav, "_store_block", lambda shape: stores.append(make(shape)) or stores[-1])
    for level, (tau, inc) in enumerate(zip(taus, incs), start=1):
        history.commit(tau, inc, level=level)
        if level == n_prefix + 1:  # the switch
            rows = soe.n_terms + _FOLD_STEPS
            assert [len(s) for s in stores] == ([rows, 2 * rows] if case == "spilled" else [rows])
            assert np.shares_memory(history.bank._store, stores[-1]) == (case != "spilled")
        stepwise.commit(tau, inc, level=level)
        assert (history.bank is not None) == (level > n_prefix)
        if history.bank is None:
            continue
        assert history.bank.n_committed == level
        assert history.bank.pending[0] == stepwise.pending[0]
        assert np.array_equal(history.bank.pending[1], stepwise.pending[1])
        tau_n = taus[level] if level < taus.size else 0.02
        for scheme in ("cn", "be"):
            a0, hist = history.caputo_terms(scheme, tau_n)
            a0_ref, ref = stepwise.read(tau_n)[scheme]
            _, scale = kernel_row_sum(np.append(taus[:level], tau_n), incs, alpha,
                                      scheme, level + 1)
            assert a0 == a0_ref
            assert np.max(np.abs(hist - ref)) <= 1e-13 * scale, (level, scheme)


def test_switch_to_bank_holds_the_history_once():
    """The commit that switches to the bank allocates less than the bank's buffer.

    tracemalloc traces numpy's arrays but not the mapped store of the exact
    prefix, which the bank takes over as its buffer: a bank that allocated
    a buffer of its own would allocate its whole size in this commit.
    """
    alpha, shape = 0.5, (64, 66)
    history = CaputoHistory(alpha, build_soe(alpha, 1e-10, 1e-2, 1.0))
    rng = np.random.default_rng(2)
    for level in range(1, 6):
        history.commit(1e-3, rng.standard_normal(shape), level=level)
    inc = rng.standard_normal(shape)
    tracemalloc.start()
    try:
        history.commit(1e-2, inc, level=6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert history.bank is not None
    nbytes = history.bank._store.nbytes
    assert peak < nbytes, (peak, nbytes)


def test_bank_of_an_outgrown_prefix_frees_it():
    """A prefix that outgrew the bank's rows is folded into the bank's own buffer, and freed.

    Ninety unplanned steps below dt_min grow the store from the bank's 44
    rows to 176.  After the switch the bank shares no memory with that
    store, which nothing holds any more, and both schemes' reads match a
    bank committed step by step to 1e-13 of the sum's scale.
    """
    alpha, shape = 0.6, (4, 5)
    soe = build_soe(alpha, 1e-10, 1e-2, 1.0)
    rows = soe.n_terms + _FOLD_STEPS
    rng = np.random.default_rng(12)
    taus = np.concatenate((rng.uniform(1e-4, 5e-3, 90), rng.uniform(1e-2, 3e-2, 6)))
    incs = rng.standard_normal((taus.size,) + shape)
    history, stepwise = CaputoHistory(alpha, soe), HistoryBank(soe, shape)
    for level, (tau, inc) in enumerate(zip(taus, incs), start=1):
        if level == 91:
            assert len(history._store) == 4 * rows
            grown = history._store
            freed = weakref.ref(grown)
        history.commit(tau, inc, level=level)
        stepwise.commit(tau, inc, level=level)
        if level == 91:
            assert len(history.bank._store) == rows
            assert not np.shares_memory(history.bank._store, grown)
            del grown
            assert history._store is None and freed() is None
        if history.bank is None:
            continue
        tau_n = taus[level] if level < taus.size else 0.02
        for scheme in ("cn", "be"):
            hist = history.caputo_terms(scheme, tau_n)[1]
            _, scale = kernel_row_sum(np.append(taus[:level], tau_n), incs, alpha,
                                      scheme, level + 1)
            assert np.max(np.abs(hist - stepwise.read(tau_n)[scheme][1])) <= 1e-13 * scale


def test_unplanned_read_is_one_product(monkeypatch):
    """Every unplanned read of a 128 x 130 direct history is one np.matmul over its store.

    Forty such levels hold 5.3 MB; the reads from level 33 on sum more
    than 4 MiB of increments.
    """
    shape, alpha, rng = (128, 130), 0.5, np.random.default_rng(6)
    history, products, incs = CaputoHistory(alpha), [], []

    class Counted:
        def __getattr__(self, name):
            return getattr(np, name)

        def matmul(self, *args, **kwargs):
            products.append(args[1])
            return np.matmul(*args, **kwargs)

    monkeypatch.setattr(sav, "np", Counted())
    for level in range(1, 41):
        products.clear()
        hist = history.caputo_terms("cn", 1e-3)[1]
        history.caputo_terms("be", 1e-3)
        if level > 1:
            assert len(products) == 1, level
            assert len(products[0]) == level - 1
            assert np.shares_memory(products[0], history._store)
        if level == 40:
            ref, scale = kernel_row_sum(np.full(40, 1e-3), incs, alpha, "cn", 40)
            assert np.max(np.abs(hist - ref)) <= 1e-13 * scale
        incs.append(rng.standard_normal(shape))
        history.commit(1e-3, incs[-1], level=level)


def test_fast_history_below_dt_min_matches_direct():
    """A fast history whose steps all undercut dt_min never reads its sum."""
    rng = np.random.default_rng(8)
    taus = rng.uniform(1e-5, 2e-5, 40)
    incs = rng.standard_normal((taus.size, 3))
    fast = make_history(0.5, mode="fast", dt_min=1e-2, T=1.0)
    direct = make_history(0.5, mode="direct")
    for level, (tau, inc) in enumerate(zip(taus, incs), start=1):
        for scheme in ("cn", "be"):
            a_f, h_f = fast.caputo_terms(scheme, 1.5e-5)
            a_d, h_d = direct.caputo_terms(scheme, 1.5e-5)
            assert a_f == a_d
            if level == 1:  # nothing committed: no sum
                assert h_f is None and h_d is None
                continue
            scale = abs(a_d) * np.max(np.abs(incs[:level]))
            assert np.max(np.abs(h_f - h_d)) <= 1e-10 * scale, (level, scheme)
        fast.commit(tau, inc, level=level)
        direct.commit(tau, inc, level=level)
    assert fast.bank is None


@pytest.mark.parametrize("mode", ["direct", "fast"])
def test_first_commit_fixes_history_shape(grid, mode):
    """The history takes the half-spectrum view's shape from the first increment."""
    params = ModelParams(model="slope")
    state = init_state(grid, two_mode(grid), params,
                       make_history(0.5, mode=mode, dt_min=1e-2, T=1.0))
    hist = state.history
    assert hist.shape is None
    for scheme in ("cn", "be"):
        assert hist.caputo_terms(scheme, 2e-2)[1] is None  # no level to sum yet
    commit_candidate(state, cn_sav_step(state, 2e-2))
    assert hist.shape == (32, 34)
    assert (hist.bank is not None) == (mode == "fast")
    with pytest.raises(ValueError, match=r"increment shape \(32, 32\) for level 2 "
                                         r"!= history shape \(32, 34\)"):
        hist.commit(2e-2, np.ones(grid.shape), level=2)
    assert hist.n_committed == 1
    assert hist.caputo_terms("cn", 2e-2)[1].shape == (32, 34)


@pytest.mark.parametrize("make, message", [
    (lambda: CaputoHistory(0.0), "fractional order must lie in"),
    (lambda: CaputoHistory(1.5), "fractional order must lie in"),
    (lambda: CaputoHistory(0.6, soe=build_soe(0.5, 1e-8, 1e-2, 1.0)),
     "built for a different order"),
    (lambda: make_history(0.5, mode="fast"), "needs dt_min and T"),
    (lambda: make_history(0.5, mode="fast", dt_min=1e-2), "needs dt_min and T"),
], ids=["alpha-zero", "alpha-above-one", "soe-of-another-order", "fast-unbounded",
        "fast-without-T"])
def test_history_rejects_bad_construction(make, message):
    with pytest.raises(ValueError, match=message):
        make()


@pytest.mark.parametrize("mode", ["direct", "fast"])
def test_history_rejects_increment_of_wrong_shape(mode):
    """Steps below dt_min stay in the exact prefix, which must not broadcast."""
    hist = make_history(0.5, mode=mode, dt_min=1e-2, T=1.0)
    hist.commit(1e-3, np.ones(3), level=1)
    for bad in (0.5, np.ones((1, 3)), np.ones(2)):
        with pytest.raises(ValueError, match=r"increment shape .* history shape \(3,\)"):
            hist.commit(1e-3, bad, level=2)
    assert hist.n_committed == 1 and hist.bank is None
    scalar = make_history(0.5, mode=mode, dt_min=1e-2, T=1.0)
    scalar.commit(1e-3, 0.5, level=1)
    assert scalar.caputo_terms("cn", 1e-3)[1].shape == ()


def kernel_row_sum(taus, incs, alpha, scheme, level):
    """History sum at ``level`` by a loop over one kernel row's weights.

    Returns the sum and the largest sum of its terms' magnitudes, the scale
    of its rounding error.
    """
    levels = np.concatenate(([0.0], np.cumsum(taus)))
    row = (l1plus_row if scheme == "cn" else l1_row)(levels, alpha, level)
    terms = [w * inc for w, inc in zip(row[:-1], incs[:level - 1])]
    return sum(terms), np.max(sum(np.abs(term) for term in terms))


@pytest.mark.parametrize("shape", [(3, 4), ()], ids=["field", "scalar"])
@pytest.mark.parametrize("extra", [3, 5, 11, sav._CHUNK_LEVELS])
def test_planned_and_unplanned_reads_match_kernel_rows(monkeypatch, shape, extra):
    """Planned chunks, an unplanned pass and the kernel rows give the same sums.

    The planned history's store is made once, with room for every planned
    level; the unplanned one's is replaced by one of twice the rows each
    time it is full.  The mesh is longer than two chunks and, but for three
    chunks, not a multiple of one.
    """
    rng = np.random.default_rng(extra)
    n, alpha = 2 * sav._CHUNK_LEVELS + extra, 0.6
    taus = random_mesh(rng, n).taus
    incs = rng.standard_normal((n,) + shape)
    planned, unplanned = CaputoHistory(alpha), CaputoHistory(alpha)
    planned.plan(taus)
    stores = {planned: [], unplanned: []}
    for level, (tau, inc) in enumerate(zip(taus, incs), start=1):
        reads = {"planned": planned.caputo_terms("cn", tau)}
        for scheme in ("cn", "be"):
            reads[scheme] = unplanned.caputo_terms(scheme, tau)
        if level > 1:
            for name, scheme in (("planned", "cn"), ("cn", "cn"), ("be", "be")):
                ref, scale = kernel_row_sum(taus, incs, alpha, scheme, level)
                assert np.max(np.abs(reads[name][1] - ref)) <= 1e-13 * scale, (level, name)
                assert reads[name][1].shape == shape
        assert reads["planned"][0] == reads["cn"][0]
        for history in (planned, unplanned):
            history.commit(tau, inc, level=level)
            if not stores[history] or history._store is not stores[history][-1]:
                stores[history].append(history._store)
    assert planned._plan_end == n  # every read was served by the plan
    assert [len(store) for store in stores[planned]] == [n]
    grown = [len(store) for store in stores[unplanned]]
    assert grown == [2 ** i for i in range(len(grown))] and grown[-2] < n <= grown[-1]


@pytest.mark.parametrize("shape", [(2, 3), ()], ids=["field", "scalar"])
def test_plan_after_committed_levels_matches_kernel_rows(monkeypatch, shape):
    """A plan announced after unplanned levels: the store grows to hold every planned level.

    The ten levels stored before the plan fill a store of 16 rows; the
    store that replaces it has a row for every planned level, so it is
    the last.
    """
    k, before = sav._CHUNK_LEVELS, 10
    rng = np.random.default_rng(7)
    n, alpha = before + 2 * k + 9, 0.45
    taus = random_mesh(rng, n).taus
    incs = rng.standard_normal((n,) + shape)
    history = CaputoHistory(alpha)
    for level, (tau, inc) in enumerate(zip(taus, incs), start=1):
        if level == before + 1:
            history.plan(taus[before:])
        _, hist = history.caputo_terms("cn", tau)
        if level > 1:
            ref, scale = kernel_row_sum(taus, incs, alpha, "cn", level)
            assert np.max(np.abs(hist - ref)) <= 1e-13 * scale, level
            assert hist.shape == shape
        history.commit(tau, inc, level=level)
        if level == before + 1:
            assert len(history._store) == 16
        if level == 17:  # the first store after the plan
            planned = history._store
            assert len(planned) == n
    assert history._plan_end == n and history._store is planned


@pytest.mark.parametrize("deviation", ["read-other-tau", "commit-other-tau",
                                       "short-plan"])
def test_deviating_from_plan_matches_unplanned(monkeypatch, deviation):
    """An off-plan read or commit is a ValueError; past the plan's end reads are unplanned.

    The deviation falls on a chunk's first level and in the middle of a
    chunk.  The failed read or commit names the level and changes nothing:
    the history goes on along its plan.  Every read matches the kernel rows
    to 1e-13 of their scale.
    """
    k = sav._CHUNK_LEVELS
    rng = np.random.default_rng(3)
    n, alpha = 2 * k + 5, 0.35
    taus = random_mesh(rng, n).taus
    incs = rng.standard_normal((n, 2, 3))

    def assert_rejected(history, call):
        def snapshot():
            return (history.n_committed, history._levels.tolist(), sorted(history._kept),
                    history._chunk, history._store.tolist())
        before = snapshot()
        with pytest.raises(ValueError, match=f"level {at} is off the plan"):
            call()
        assert snapshot() == before

    for at in (k + 2, k + 2 + k // 2):  # the chunks start at levels 2, k + 2, ...
        history = CaputoHistory(alpha)
        history.plan(taus[:at - 1] if deviation == "short-plan" else taus)
        for level, (tau, inc) in enumerate(zip(taus, incs), start=1):
            if level == at and deviation == "read-other-tau":
                assert_rejected(history, lambda: history.caputo_terms("cn", 1.3 * tau))
            _, hist = history.caputo_terms("cn", tau)
            if level > 1:
                ref, scale = kernel_row_sum(taus, incs, alpha, "cn", level)
                assert np.max(np.abs(hist - ref)) <= 1e-13 * scale, (at, level)
            if level == at and deviation == "commit-other-tau":
                assert_rejected(history, lambda: history.commit(1.3 * tau, inc, level=level))
            history.commit(tau, inc, level=level)
        if deviation == "short-plan":  # the last read made an unplanned chunk
            assert history._plan_end == at - 1 and history._chunk is None
        else:
            assert history._plan_end == n


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1e-3])
def test_plan_rejects_invalid_step(bad):
    """A planned step that is not finite and positive is a ValueError naming its level.

    The history is left as it was, and reads and commits go on unplanned.
    """
    history = CaputoHistory(0.5)
    history.commit(0.1, np.ones(3), level=1)
    levels = history._levels.tolist()
    with pytest.raises(ValueError, match=r"level 4 must be finite and positive"):
        history.plan([0.1, 0.2, bad, 0.1])
    assert history._plan_end == 0 and history._levels.tolist() == levels
    _, hist = history.caputo_terms("cn", 0.3)
    ref, scale = kernel_row_sum([0.1, 0.3], [np.ones(3)], 0.5, "cn", 2)
    assert np.max(np.abs(hist - ref)) <= 1e-13 * scale
    history.commit(0.3, np.ones(3), level=2)


@pytest.mark.parametrize("mode", ["fast", "direct"])
def test_one_pass_per_level_and_step(monkeypatch, mode):
    """Both schemes' sums at one level and step come from one pass, of the bank or the prefix."""
    alpha, rng, taus, incs = 0.6, np.random.default_rng(9), [], []
    history = CaputoHistory(alpha, build_soe(alpha, 1e-10, 1e-3, 5.0) if mode == "fast" else None)

    def commit(level):
        taus.append(0.01 * level)
        incs.append(rng.standard_normal((6, 6)))
        history.commit(taus[-1], incs[-1], level=level)

    def assert_read(scheme, tau_n, passes):
        hist = history.caputo_terms(scheme, tau_n)[1]
        ref, scale = kernel_row_sum(taus + [tau_n], incs, alpha, scheme, len(taus) + 1)
        assert np.max(np.abs(hist - ref)) <= (1e-9 if history.soe else 1e-13) * scale
        assert counter.passes == passes

    for level in range(1, _FOLD_STEPS + 4):
        commit(level)
    assert (history.bank is not None) == (mode == "fast")
    counter = (count_bank_passes(monkeypatch, lambda: history.bank) if mode == "fast" else
               count_prefix_passes(monkeypatch, history))
    assert_read("cn", 0.02, 1)
    assert_read("be", 0.02, 1)  # the pair of the same pass
    assert_read("be", 0.03, 2)  # another step
    assert_read("cn", 0.03, 2)
    commit(_FOLD_STEPS + 4)  # another level, at the same step
    assert_read("cn", 0.03, 3)
    assert_read("be", 0.03, 3)


def test_estimator_read_at_planned_level():
    """A "be" read at a planned level, or a plan announced again, replaces the chunk."""
    n, alpha, at = sav._CHUNK_LEVELS + 4, 0.55, 5  # the first chunk: levels 2.._CHUNK_LEVELS+1
    rng = np.random.default_rng(4)
    taus, incs = random_mesh(rng, n).taus, rng.standard_normal((n, 2, 3))
    history = CaputoHistory(alpha)
    history.plan(taus)
    for level, (tau, inc) in enumerate(zip(taus, incs), start=1):
        if level == at + 3:  # the same steps announced again, mid-chunk
            history.plan(taus[level - 1:])
        for scheme in ("be", "cn") if level == at else ("cn",):
            hist = history.caputo_terms(scheme, tau)[1]
            if level > 1:
                ref, scale = kernel_row_sum(taus, incs, alpha, scheme, level)
                assert np.max(np.abs(hist - ref)) <= 1e-13 * scale, (level, scheme)
        # the next second-order read, or the new plan's first, starts a planned chunk
        assert history._chunk == (None if level in (1, at) else 2 if level < at else
                                  at + 1 if level < at + 3 else at + 3)
        history.commit(tau, inc, level=level)
    assert history._plan_end == n  # the plan held


@pytest.mark.parametrize("alpha", [0.3, 0.8])
def test_bank_read_after_short_step_raises(alpha):
    """The fast formulas read the sum at lags down to the newest committed step."""
    hist = make_history(alpha, mode="fast", dt_min=1e-2, T=1.0)
    for level, tau in enumerate([1e-4, 2e-2, 3e-2, 4e-3], start=1):
        if level == 4:
            hist.caputo_terms("cn", 1e-3)  # a trial step below dt_min is fine
        hist.commit(tau, np.ones(2), level=level)
    assert hist.bank is not None
    for scheme in ("cn", "be"):
        with pytest.raises(SolverError, match=r"level 5 .* 0\.004 at level 4.*"
                                              r"dt_min = 0\.01"):
            hist.caputo_terms(scheme, 2e-2)
    hist.commit(2e-2, np.ones(2), level=5)  # the step itself stays committed
    a0, h = hist.caputo_terms("cn", 2e-2)
    assert math.isfinite(a0) and np.all(np.isfinite(h))


def test_rank_one_denominator_guard(grid):
    # slope: positive coupling keeps the scalar division safe at any step
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="slope")
    state = init_state(grid, two_mode(grid), params, make_history(0.7))
    cand = cn_sav_step(state, 10.0)
    assert np.all(np.isfinite(cand.phi))
    # no-slope: the negative coupling can push it below zero at a large step,
    # and the failure names the step and its t
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model="noslope")
    phi0 = np.sin(grid.x) * np.sin(grid.y)
    state = init_state(grid, phi0, params, make_history(0.7))
    with pytest.raises(SolverError, match=r"rank-one denominator .* <= 0 at step 1 "
                                          r"\(t = 100\)$"):
        cn_sav_step(state, 100.0)


def test_rank_one_denominator_below_zero_raises(grid):
    """A coupling below -1 / (W, L^-1 W) makes the denominator negative."""
    rng = np.random.default_rng(11)
    w_h = grid.fft(rng.standard_normal(grid.shape))
    inv_symbol = (1.0 / (1.0 + grid.k2)).astype(complex)
    w_weighted = grid.weigh(w_h)
    w_chi = grid.inner_spec(w_h, w_h * inv_symbol)
    rhs_h = grid.fft(rng.standard_normal(grid.shape))
    with pytest.raises(SolverError, match="rank-one denominator"):
        sav._rank_one_solve(grid, inv_symbol, rhs_h.copy(), w_h, w_weighted,
                            -2.0 / w_chi, 0.3)
    # above the threshold the solve holds: (L + c (W, .) W) phi = rhs + a W
    coupling, w_coef = -0.5 / w_chi, 0.3
    phi_h = sav._rank_one_solve(grid, inv_symbol, rhs_h.copy(), w_h, w_weighted,
                                coupling, w_coef)
    lhs = phi_h / inv_symbol + coupling * grid.inner_spec(w_h, phi_h) * w_h
    assert np.max(np.abs(lhs - (rhs_h + w_coef * w_h))) <= 1e-12 * np.max(np.abs(rhs_h))


# ---------------------------------------------------------------------------
# cached step operators
# ---------------------------------------------------------------------------

def trial_pair(state, tau):
    """Both trials of an adaptive step, as bytes and scalars that must match."""
    cands = (cn_sav_step(state, tau), be_l1_sav_step(state, tau))
    return [(c.phi_h.tobytes(), c.aux, c.caputo_dot) for c in cands]


def fresh_state(grid, model, steps=()):
    params = ModelParams(M=1.0, eps2=0.1, beta=4.0, C0=1.0, model=model)
    state = init_state(grid, two_mode(grid), params, make_history(0.6))
    for tau in steps:
        commit_candidate(state, cn_sav_step(state, tau))
    return state


@pytest.mark.parametrize("model", ["slope", "noslope"])
def test_cached_operators_match_fresh_states(grid, model):
    """Trials at tau1, tau2, then tau1 again equal trials from fresh states."""
    tau1, tau2 = 2e-3, 5e-3
    state = fresh_state(grid, model, [1e-3, 1e-3])
    for tau in (tau1, tau2, tau1):
        assert trial_pair(state, tau) == trial_pair(fresh_state(grid, model,
                                                                [1e-3, 1e-3]), tau)
        assert sorted(state._operators) == [0.5, 1.0]  # one entry per theta


def test_retry_after_rejected_trial_matches_fresh_state(grid):
    """A rejected trial leaves cached operators that a retry rebuilds or reuses exactly."""
    state = fresh_state(grid, "slope", [1e-3])
    trial_pair(state, 4e-2)  # rejected: nothing is committed
    retry = trial_pair(state, 1e-3)
    assert retry == trial_pair(fresh_state(grid, "slope", [1e-3]), 1e-3)
    # commit the retry and step on at the same size: the cached entry is reused
    commit_candidate(state, cn_sav_step(state, 1e-3))
    reused = state._operators[0.5]
    assert trial_pair(state, 1e-3) == trial_pair(fresh_state(grid, "slope",
                                                             [1e-3, 1e-3]), 1e-3)
    assert state._operators[0.5] is reused


def test_operator_cache_entries(grid):
    """theta = 1 has no explicit part; both operators are complex; one entry per theta."""
    state = fresh_state(grid, "slope", [1e-3])
    for tau in (1e-3, 3e-3, 7e-3, 1e-3):
        trial_pair(state, tau)
        assert sorted(state._operators) == [0.5, 1.0]
    a0, explicit, inverse = state._operators[1.0]
    assert explicit is None
    assert inverse.dtype == complex and inverse.shape == state.phi_h.shape
    a0, explicit, inverse = state._operators[0.5]
    assert explicit.dtype == complex and explicit.shape == state.phi_h.shape
    m_lin = state.params.M * state.lin_sym
    assert np.array_equal(explicit.real, a0 - 0.5 * m_lin)
    assert np.array_equal(inverse.real, 1.0 / (a0 + 0.5 * m_lin))
    assert not np.any(explicit.imag) and not np.any(inverse.imag)
