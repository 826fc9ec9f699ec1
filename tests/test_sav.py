import hashlib
import math

import numpy as np
import pytest

from tfmbe import (Grid2D, ModelParams, SolverError, StateError, be_l1_sav_step,
                   build_soe, build_uniform, cn_sav_step, commit_candidate,
                   init_state, make_history, run_fixed, trajectory_observables)
from tfmbe.sav import CaputoHistory


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
    for g, ref in zip(state.grad, grid.gradient_from_spectrum(grid.fft(state.phi))):
        assert np.allclose(g, ref, rtol=0, atol=1e-12)


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
        with pytest.raises(StateError):
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
        history = make_history(alpha, mode=mode,
                               dt_min=T / n_steps, T=T, eps=eps)
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
