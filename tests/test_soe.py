import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from tfmbe import HistoryBank, SOEApprox, build_soe, rl_weight, verify_soe
import tfmbe.soe as soe_module
from tfmbe.soe import (_COMMIT_BLOCK_BYTES, _FOLD_STEPS, _gauss_jacobi, _panel_rule,
                       _relexp)

from oracles import apply_direct, fast_l1_apply, fast_l1plus_apply


def test_kernel_value_at_one():
    soe = build_soe(0.5, 1e-8, 1e-3, 10.0)
    assert float(soe.evaluate(1.0)[0]) == pytest.approx(1.0 / math.sqrt(math.pi),
                                                        abs=1e-8)


@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_certified_tolerance(alpha):
    soe = build_soe(alpha, 1e-10, 1e-4, 30.0)
    assert verify_soe(soe, 10000) <= 1e-10
    assert np.all(soe.nodes > 0)
    assert np.all(soe.weights > 0)


def test_term_count_grows_with_tolerance():
    loose = build_soe(0.5, 1e-6, 1e-3, 10.0)
    tight = build_soe(0.5, 1e-12, 1e-3, 10.0)
    assert tight.n_terms >= loose.n_terms


@pytest.mark.parametrize("dt_min,T", [(1e-3, 0.2), (1e-3, 30.0), (1e-4, 500.0)])
@pytest.mark.parametrize("eps", [1e-6, 1e-10])
@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9, 0.99])
def test_reduced_rule_is_certified_and_monotone(alpha, eps, dt_min, T):
    soe = build_soe(alpha, eps, dt_min, T)
    assert np.all(soe.weights > 0)
    assert np.all(np.diff(soe.nodes) > 0)
    assert verify_soe(soe, 10000) <= eps
    if (alpha, eps, dt_min, T) == (0.7, 1e-10, 1e-3, 0.2):  # the growth benchmark
        assert soe.n_terms <= 60


def test_uncertified_reduction_returns_panel_rule(monkeypatch):
    with monkeypatch.context() as m:
        m.setattr(soe_module, "_reduced", lambda soe, target: soe)
        panel = build_soe(0.5, 1e-8, 1e-3, 5.0)
    monkeypatch.setattr(soe_module, "_REDUCE_TOL", 1e6)  # keeps too few terms
    soe = build_soe(0.5, 1e-8, 1e-3, 5.0)
    assert np.array_equal(soe.nodes, panel.nodes)
    assert np.array_equal(soe.weights, panel.weights)


@pytest.mark.parametrize("case", ["reduction-uncertified", "meets-eps-only"])
def test_build_returns_a_panel_rule_it_can_certify(monkeypatch, case):
    real, seen = soe_module.verify_soe, []

    def verify(soe, samples):
        seen.append(soe)
        if case == "meets-eps-only":
            return 0.5e-8  # above eps/16 for every rule, within eps
        # a reduced sum has fewer terms than the rule verified before it
        reduced = len(seen) > 1 and soe.n_terms < seen[-2].n_terms
        return math.inf if reduced else real(soe, samples)

    monkeypatch.setattr(soe_module, "verify_soe", verify)
    soe = build_soe(0.5, 1e-8, 1e-3, 5.0)
    if case == "meets-eps-only":  # every order tried, the first rule kept
        assert len(seen) == 5 and soe is seen[0]
    else:
        assert seen[-1].n_terms < soe.n_terms and soe is seen[-2]


def _mp_gauss_jacobi(n, beta, x0):
    """40-digit Gauss-Jacobi rule for (1 + x)^beta, nodes polished from x0."""
    import mpmath as mp
    with mp.workdps(40):
        b = mp.mpf(beta)
        nodes, weights = [], []
        for x in x0:
            x = mp.findroot(lambda z: mp.jacobi(n, 0, b, z), mp.mpf(float(x)))
            d = (n + b + 1) / 2 * mp.jacobi(n - 1, 1, b + 1, x)
            nodes.append(float(x))
            weights.append(float(2 ** (b + 1) / ((1 - x * x) * d * d)))
    return np.array(nodes), np.array(weights)


@pytest.mark.parametrize("n", [24, 64])
@pytest.mark.parametrize("alpha", ["0.1", "0.3", "0.99"])
def test_gauss_jacobi_matches_high_precision(n, alpha):
    beta = float(alpha) - 1.0
    x, w = _gauss_jacobi(n, beta)
    x_ref, w_ref = _mp_gauss_jacobi(n, beta, x)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0)


@pytest.mark.parametrize("n_base,n_panel", [(24, 10), (32, 14), (40, 18), (48, 22),
                                            (64, 28)])
def test_gauss_rules_match_scipy(n_base, n_panel):
    from scipy.special import roots_jacobi, roots_legendre
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        x_ref, w_ref = roots_jacobi(n_base, 0.0, alpha - 1.0)
        x, w = _gauss_jacobi(n_base, alpha - 1.0)
        np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0)
        # scipy's own weights are off by up to 3e-11 from the 40-digit rule
        # at order 64 (the numpy weights by under 1e-12, see above)
        np.testing.assert_allclose(w, w_ref, rtol=5e-11, atol=0)
    x_ref, w_ref = roots_legendre(n_panel)
    x, w = np.polynomial.legendre.leggauss(n_panel)
    np.testing.assert_allclose(x, x_ref, rtol=1e-12, atol=0)
    np.testing.assert_allclose(w, w_ref, rtol=1e-12, atol=0)


def test_package_runs_without_scipy():
    code = ("import sys, tfmbe\n"
            "tfmbe.adaptive_benchmark('slope', 0.7, grid_n=16, T=0.05)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(soe_module.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], check=True, env=env,
                         capture_output=True, text=True)
    assert out.stdout.strip() == "[]"


@pytest.mark.parametrize("T", [math.inf, math.nan])
def test_build_rejects_non_finite_horizon(T):
    # with T = inf the panel rule used to add dyadic panels forever
    with pytest.raises(ValueError, match=r"need 0 < dt_min < T < inf"):
        build_soe(0.7, 1e-10, 1e-3, T)


def test_build_validations():
    with pytest.raises(ValueError):
        build_soe(1.5, 1e-8, 1e-3, 10.0)
    with pytest.raises(ValueError):
        build_soe(0.5, 2.0, 1e-3, 10.0)
    with pytest.raises(ValueError):
        build_soe(0.5, 1e-8, 10.0, 1e-3)


def test_verify_empty_sum_reports_kernel_peak():
    soe = SOEApprox(0.5, 1e-6, 1e-2, 10.0, np.empty(0), np.empty(0))
    err = verify_soe(soe, 501)
    assert err == pytest.approx(float(rl_weight(0.5, 1e-2)), rel=1e-12)


def test_verify_sup_monotone_under_refinement():
    soe = build_soe(0.3, 1e-8, 1e-3, 5.0)
    coarse = verify_soe(soe, 101)
    fine = verify_soe(soe, 201)  # nested sample set
    assert fine >= coarse - 1e-15


def test_verify_needs_two_samples():
    soe = build_soe(0.3, 1e-6, 1e-3, 5.0)
    with pytest.raises(ValueError):
        verify_soe(soe, 1)


# ---------------------------------------------------------------------------
# history bank
# ---------------------------------------------------------------------------

@given(st.floats(1e-12, 50.0))
@settings(max_examples=60, deadline=None)
def test_relexp_stable(x):
    val = float(_relexp(np.array(x)))
    assert 0.0 < val <= 1.0
    if x < 1e-6:
        assert val == pytest.approx(1.0, abs=2e-6)


def test_advance_coefficient_matches_quadrature():
    soe = build_soe(0.4, 1e-8, 1e-3, 5.0)
    tau = 0.0371
    for theta in (soe.nodes[0], soe.nodes[len(soe.nodes) // 2], soe.nodes[-1]):
        ref, _ = quad(lambda s: math.exp(-theta * (tau - s)) / tau, 0.0, tau)
        assert float(_relexp(np.array(theta * tau))) == pytest.approx(ref, abs=1e-13)


def _eager_terms(bank, ref, scheme, tau_n):
    """``bank.read(tau_n)[scheme]`` from the eagerly folded states ``ref``.

    A bank that holds only the pending step keeps nothing in deferred
    form, so its read weights its states ``h`` directly.
    """
    eager = HistoryBank(bank.soe, bank.shape)
    eager.commit(*bank.pending)
    eager.h[...] = ref
    return eager.read(tau_n)[scheme]


def _assert_reads_match(bank, ref, tau_n, rtol=1e-13):
    """Both fast formulas of ``bank`` agree with the eager fold ``ref``."""
    for scheme in ("cn", "be"):
        a0, hist = bank.read(tau_n)[scheme]
        a0_ref, hist_ref = _eager_terms(bank, ref, scheme, tau_n)
        assert a0 == a0_ref
        assert hist.shape == bank.shape
        assert np.max(np.abs(hist - hist_ref)) <= rtol * np.max(np.abs(hist_ref))


def test_zero_increment_decays_history():
    soe = build_soe(0.5, 1e-8, 1e-3, 5.0)
    bank = HistoryBank(soe)
    taus = np.linspace(0.01, 0.05, 4 * _FOLD_STEPS)  # the fold sweeps the bank 3 times
    bank.commit(taus[0], 1.0, level=1)
    for level in range(2, taus.size + 1):
        bank.commit(taus[level - 1], 0.0, level=level)
        # H(t_{level-1}) = exp(-theta (t_{level-1} - t_1)) * gain(tau_1) * 1.0
        ref = np.exp(-soe.nodes * taus[1:level - 1].sum()) * _relexp(soe.nodes * taus[0])
        _assert_reads_match(bank, ref, 0.02)


def test_out_of_order_commit_rejected():
    soe = build_soe(0.5, 1e-8, 1e-3, 5.0)
    bank = HistoryBank(soe)
    bank.commit(0.1, 1.0, level=1)
    with pytest.raises(ValueError, match="commit for level"):
        bank.commit(0.1, 1.0, level=3)
    with pytest.raises(ValueError, match="commit for level"):
        bank.commit(0.1, 1.0, level=1)


def test_commit_batching_invariance():
    soe = build_soe(0.6, 1e-10, 1e-3, 5.0)
    rng = np.random.default_rng(7)
    n = 3 * _FOLD_STEPS + 5
    taus = rng.uniform(1e-3, 0.2, n)
    incs = rng.standard_normal(n)
    a = HistoryBank(soe)
    ref, pending = np.zeros(soe.n_terms), None
    for i, (t, v) in enumerate(zip(taus, incs), start=1):
        a.commit(t, v, level=i)
        if pending is not None:
            _fold_reference(ref, soe, *pending)
        pending = (t, np.asarray(v))
    b = HistoryBank(soe)
    for i in range(4):
        b.commit(taus[i], incs[i], level=i + 1)
    for i in range(4, n):
        b.commit(taus[i], incs[i], level=i + 1)
    for scheme in ("cn", "be"):
        assert np.array_equal(a.read(0.05)[scheme][1],
                              b.read(0.05)[scheme][1])
    assert a.pending[0] == b.pending[0]
    _assert_reads_match(a, ref, 0.05)


def _fold_reference(h, soe, tau_p, inc_p):
    """The bank update as two whole-bank passes (the pre-blocking commit)."""
    x = soe.nodes * tau_p
    pad = (-1,) + (1,) * (h.ndim - 1)
    h *= np.exp(-x).reshape(pad)
    h += _relexp(x).reshape(pad) * inc_p


def _panel_soe(n_terms=None):
    """The unreduced panel rule for alpha 0.7 on [1e-3, 30] (224 rows), cut short."""
    nodes, weights = _panel_rule(0.7, 1.0 / 30.0, 3.3e4, 24, 10)
    n_terms = nodes.size if n_terms is None else n_terms
    assert nodes.size >= n_terms
    return SOEApprox(0.7, 1e-10, 1e-3, 30.0, nodes[:n_terms], weights[:n_terms])


@pytest.mark.parametrize("shape", [(), (5,), (48, 48)],
                         ids=["scalar", "1d", "2d-blocks"])
def test_blocked_commit_matches_whole_bank_update(shape):
    n_terms = 151  # not a multiple of the fold count
    assert n_terms % _FOLD_STEPS
    if shape == (48, 48):  # several blocks, the last one partial
        rows = _COMMIT_BLOCK_BYTES // (8 * 48 * 48)
        assert rows < n_terms and n_terms % rows
    soe = _panel_soe(n_terms)
    rng = np.random.default_rng(11)
    bank = HistoryBank(soe, shape)
    buffer = bank.h.ctypes.data
    ref, pending = np.zeros((n_terms,) + shape), None
    n_levels = 5 * _FOLD_STEPS  # 4 sweeps, then a part-filled ring
    for level in range(1, n_levels + 1):
        tau = float(np.exp(rng.uniform(math.log(1e-4), math.log(0.5))))
        inc = rng.standard_normal(shape)
        bank.commit(tau, inc, level=level)
        if pending is not None:
            _fold_reference(ref, soe, *pending)
        pending = (tau, inc)
        if level > 1 and (level - 1) % _FOLD_STEPS == 0:  # this commit swept
            assert np.max(np.abs(bank.h - ref)) <= 1e-13 * np.max(np.abs(ref))
        _assert_reads_match(bank, ref, float(rng.uniform(1e-3, 0.1)))
    assert bank.h.ctypes.data == buffer


@pytest.mark.parametrize("order", [("cn", "be"), ("be", "cn")], ids="-then-".join)
def test_paired_read_matches_eager_fold_in_either_order(order):
    n_terms, shape = 151, (48, 48)
    soe = _panel_soe(n_terms)
    rng = np.random.default_rng(5)
    bank = HistoryBank(soe, shape)
    assert len(bank._read_cols) > 1  # several column blocks, the last partial
    ref, pending = np.zeros((n_terms,) + shape), None
    for level in range(1, 2 * _FOLD_STEPS + 4):  # two sweeps, then a part-filled ring
        tau = float(np.exp(rng.uniform(math.log(1e-3), math.log(0.2))))
        inc = rng.standard_normal(shape)
        bank.commit(tau, inc, level=level)
        if pending is not None:
            _fold_reference(ref, soe, *pending)
        pending = (tau, inc)
        tau_n = float(rng.uniform(1e-3, 0.1))
        for scheme in order:
            a0, hist = bank.read(tau_n)[scheme]
            a0_ref, hist_ref = _eager_terms(bank, ref, scheme, tau_n)
            assert a0 == a0_ref
            assert hist.shape == shape
            assert np.max(np.abs(hist - hist_ref)) <= 1e-13 * np.max(np.abs(hist_ref))


def test_commit_allocates_no_bank_sized_temporary():
    soe = _panel_soe()
    assert soe.n_terms >= 150
    rng = np.random.default_rng(2)
    incs = rng.standard_normal((_FOLD_STEPS + 1, 64, 64))
    bank = HistoryBank(soe, (64, 64))
    bank.commit(0.01, incs[0], level=1)
    tracemalloc.start()
    try:
        # folds levels 1.._FOLD_STEPS; the last commit sweeps every row
        for level in range(2, _FOLD_STEPS + 2):
            bank.commit(0.01 * level, incs[level - 1], level=level)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(bank.h != 0.0)  # the sweep happened
    assert peak < bank.h.nbytes / 8


@pytest.mark.parametrize("tau", [-0.1, 0.0, math.nan, math.inf])
def test_bank_rejects_invalid_step(tau):
    bank = HistoryBank(build_soe(0.5, 1e-8, 1e-3, 5.0))
    bank.commit(0.1, 1.0, level=1)
    with pytest.raises(ValueError, match="level 2"):
        bank.commit(tau, 1.0, level=2)
    bank.commit(0.1, 1.0, level=2)
    for level in range(3, 2 * _FOLD_STEPS + 4):  # on through two sweeps
        bank.commit(0.1, 1.0, level=level)
    assert np.all(np.isfinite(bank.h))
    for scheme in ("cn", "be"):
        assert np.all(np.isfinite(bank.read(0.1)[scheme][1]))


def test_bank_shape_check():
    soe = build_soe(0.5, 1e-8, 1e-3, 5.0)
    bank = HistoryBank(soe, shape=(2, 2))
    with pytest.raises(ValueError):
        bank.commit(0.1, np.zeros(3))


# ---------------------------------------------------------------------------
# fast application vs direct summation
# ---------------------------------------------------------------------------

def test_first_level_no_history():
    alpha = 0.5
    soe = build_soe(alpha, 1e-10, 1e-3, 5.0)
    bank = HistoryBank(soe)
    tau = 0.07
    expect_p = tau ** (-alpha) / math.gamma(3 - alpha) * 2.5
    expect_1 = tau ** (-alpha) / math.gamma(2 - alpha) * 2.5
    assert float(fast_l1plus_apply(bank, tau, 2.5)) == pytest.approx(expect_p)
    assert float(fast_l1_apply(bank, tau, 2.5)) == pytest.approx(expect_1)


def test_constant_signal_gives_zero():
    soe = build_soe(0.3, 1e-10, 1e-3, 5.0)
    bank = HistoryBank(soe)
    for i in range(1, 6):
        assert float(fast_l1plus_apply(bank, 0.1, 0.0)) == 0.0
        assert float(fast_l1_apply(bank, 0.1, 0.0)) == 0.0
        bank.commit(0.1, 0.0, level=i)


def test_fast_apply_on_fields():
    rng = np.random.default_rng(3)
    soe = build_soe(0.5, 1e-9, 1e-3, 2.0)
    bank = HistoryBank(soe, shape=(4, 4))
    incs = rng.standard_normal((6, 4, 4))
    levels = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 6))])
    for lvl in range(1, 7):
        tau = levels[lvl] - levels[lvl - 1]
        fp = fast_l1plus_apply(bank, tau, incs[lvl - 1])
        ref = apply_direct(levels, 0.5, incs, lvl, "l1plus")
        assert np.max(np.abs(fp - ref)) < 1e-8
        bank.commit(tau, incs[lvl - 1], level=lvl)
