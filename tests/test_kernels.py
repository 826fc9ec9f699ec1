import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tfmbe import build_uniform, convergence_order, l1_row, l1plus_row, rl_weight
from tfmbe.kernels import l1plus_block, l1plus_diagonal

from conftest import random_mesh
from oracles import (apply_direct, l1_row_reference, l1_weight_quad, l1plus_row_reference,
                     l1plus_weight_quad, quadratic_form)


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def test_rl_weight_basics():
    assert rl_weight(1.5, 1.0) == pytest.approx(1.0 / math.gamma(1.5))
    assert rl_weight(2.0, 0.0) == 0.0
    t = np.array([0.25, 1.0, 4.0])
    assert np.all(rl_weight(0.5, t) > 0)


def test_l1_diagonal_half_order():
    row = l1_row(build_uniform(4.0, 4), 0.5, 3)
    assert row[-1] == pytest.approx(1.0 / math.gamma(1.5), rel=1e-14)


def test_l1_uniform_structure():
    alpha, tau, n = 0.3, 0.25, 7
    row = l1_row(build_uniform(tau * 8, 8), alpha, n)
    for j in range(n):
        expect = (rl_weight(2 - alpha, j + 1.0) - rl_weight(2 - alpha, float(j))) \
            / tau ** alpha
        assert row[n - 1 - j] == pytest.approx(expect, rel=1e-13)


def test_l1plus_diagonal_closed_form():
    row = l1plus_row(build_uniform(3.0, 3), 0.5, 2)
    assert row[-1] == pytest.approx(1.0 / math.gamma(2.5), rel=1e-14)
    assert row[-1] == pytest.approx(0.7522527780636751, rel=1e-7)


def test_l1plus_single_step_row():
    mesh = random_mesh(np.random.default_rng(0), 5)
    alpha = 0.42
    row = l1plus_row(mesh, alpha, 1)
    assert row.size == 1
    tau1 = mesh.taus[0]
    assert row[-1] == pytest.approx(
        tau1 ** (-alpha) / math.gamma(3 - alpha), rel=1e-14)


def test_alpha_validation():
    mesh = build_uniform(1.0, 4)
    for bad in (0.0, 1.0, -0.3, 1.7):
        with pytest.raises(ValueError):
            l1_row(mesh, bad, 2)
        with pytest.raises(ValueError):
            l1plus_row(mesh, bad, 2)


@pytest.mark.parametrize("n", [0, 5])
def test_row_rejects_level_outside_mesh(n):
    with pytest.raises(ValueError, match=rf"level {n} outside mesh with 4 steps"):
        l1_row(build_uniform(1.0, 4), 0.5, n)


@pytest.mark.parametrize("alpha", [0.3, 0.7])
def test_rows_match_quadrature_oracle(alpha, rng):
    mesh = random_mesh(rng, 10, ratio_lo=0.5, ratio_hi=2.0)
    for n in range(1, 11):
        row_p = l1plus_row(mesh, alpha, n)
        row_1 = l1_row(mesh, alpha, n)
        for k in range(1, n + 1):
            ref_p = l1plus_weight_quad(mesh.levels, alpha, n, k)
            ref_1 = l1_weight_quad(mesh.levels, alpha, n, k)
            assert row_p[k - 1] == pytest.approx(ref_p, rel=1e-10)
            assert row_1[k - 1] == pytest.approx(ref_1, rel=1e-10)


def test_blocks_are_the_kernel_rows():
    """Block weights equal the four-power rows' bit for bit below the diagonal.

    On the diagonal they are the local weight to rounding, and above it zero:
    the causal kernel matrix.  The blocks are a chunk's rows on every
    increment, a chunk of one row, and blocks of the dyadic products.  Every
    row, in level order, is the lag-order reference row reversed, bit for
    bit, the local weight included.
    """
    rng = np.random.default_rng(5)
    mesh = random_mesh(rng, 90)
    levels = mesh.levels
    for alpha in (0.02, 0.2, 0.6, 0.95, 0.98):
        for n in range(1, 91):
            assert np.array_equal(l1plus_row(levels, alpha, n),
                                  l1plus_row_reference(levels, alpha, n)[::-1]), (alpha, n)
            assert np.array_equal(l1_row(levels, alpha, n),
                                  l1_row_reference(levels, alpha, n)[::-1]), (alpha, n)
        for rows, cols in ((range(40, 90), range(1, 88)), (range(30, 31), range(1, 30)),
                           (range(65, 73), range(57, 65)), (range(2, 3), range(1, 2))):
            block = l1plus_block(mesh, alpha, rows, cols)
            assert block.shape == (len(rows), len(cols))
            for i, level in enumerate(rows):
                weights = l1plus_row_reference(levels, alpha, level)
                old = [j for j, c in enumerate(cols) if c < level]
                assert np.array_equal(block[i, old], weights[[level - cols[j] for j in old]])
                assert l1plus_diagonal(levels[level] - levels[level - 1], alpha) == weights[0]
                if level in cols:
                    assert block[i, cols.index(level)] == pytest.approx(weights[0], rel=1e-12)
                assert not np.any(block[i, [j for j, c in enumerate(cols) if c > level]])
    with pytest.raises(ValueError, match="outside a mesh with 90 steps"):
        l1plus_block(mesh, 0.5, range(10, 92), range(1, 5))


# ---------------------------------------------------------------------------
# kernel sign structure
# ---------------------------------------------------------------------------

@given(st.floats(0.05, 0.95), st.integers(2, 24), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_positivity_and_ordering(alpha, n, seed):
    mesh = random_mesh(np.random.default_rng(seed), n)
    row_p = l1plus_row(mesh, alpha, n)
    row_1 = l1_row(mesh, alpha, n)
    assert np.all(row_p > 0)
    assert np.all(row_1 > 0)
    # collocation weights decrease with history distance
    assert np.all(np.diff(row_1[::-1]) < 0)
    # cell-averaged weights decrease beyond the diagonal entry
    if n >= 3:
        assert np.all(np.diff(row_p[-2::-1]) < 0)


@given(st.floats(0.05, 0.95), st.integers(1, 16), st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_quadratic_form_nonnegative(alpha, n, seed):
    gen = np.random.default_rng(seed)
    mesh = random_mesh(gen, max(n, 2))
    w = gen.standard_normal(n)
    q = quadratic_form(mesh, alpha, w, kind="l1plus")
    assert q >= -1e-12 * float(w @ w)


def test_quadratic_form_single_entry():
    mesh = build_uniform(1.0, 2)
    q = quadratic_form(mesh, 0.6, [1.0], kind="l1plus")
    assert q == pytest.approx(l1plus_row(mesh, 0.6, 1)[-1])
    assert q > 0


def test_l1_quadratic_form_recorded_not_asserted(rng):
    # no sign guarantee on nonuniform meshes; just exercise the code path
    mesh = random_mesh(rng, 12)
    q = quadratic_form(mesh, 0.5, rng.standard_normal(12), kind="l1")
    assert np.isfinite(q)


def test_summation_by_cells_identity(rng):
    mesh = random_mesh(rng, 14)
    alpha = 0.45
    w = rng.standard_normal(14)
    lhs = sum(w[k - 1] * float(apply_direct(mesh, alpha, w, k)) for k in range(1, 15))
    rhs = quadratic_form(mesh, alpha, w)
    assert lhs == pytest.approx(rhs, abs=1e-12 * max(1.0, abs(rhs)))


# ---------------------------------------------------------------------------
# applying the kernels
# ---------------------------------------------------------------------------

def test_apply_direct_zero_increments(rng):
    mesh = random_mesh(rng, 6)
    assert apply_direct(mesh, 0.5, np.zeros(6), 6) == 0.0


def test_apply_direct_single_term(rng):
    mesh = random_mesh(rng, 6)
    incs = rng.standard_normal(6)
    row = l1plus_row(mesh, 0.5, 1)
    assert apply_direct(mesh, 0.5, incs, 1) == pytest.approx(
        row[0] * incs[0], rel=1e-14)


def test_apply_direct_length_check(rng):
    mesh = random_mesh(rng, 6)
    with pytest.raises(ValueError):
        apply_direct(mesh, 0.5, np.zeros(3), 5)


def test_apply_direct_fields(rng):
    mesh = random_mesh(rng, 5)
    incs = rng.standard_normal((5, 3, 2))
    out = apply_direct(mesh, 0.3, incs, 4)
    assert out.shape == (3, 2)
    ref = np.zeros((3, 2))
    row = l1plus_row(mesh, 0.3, 4)
    for k in range(1, 5):
        ref += row[k - 1] * incs[k - 1]
    assert np.allclose(out, ref, rtol=1e-13)


def test_multiterm_midpoint_solve_second_order():
    """Two-order combination solved by midpoint collocation: order ~ 2.

    Exact solution w_{1+s}(t); the matching source for weights (1, 1) and
    orders (0.3, 0.7) is w_{1+s-0.3} + w_{1+s-0.7} by the power rule.
    """
    sigma = 2.5
    terms = [(1.0, 0.3), (1.0, 0.7)]
    errors, taus = [], []
    for n_steps in (32, 64, 128):
        mesh = build_uniform(1.0, n_steps)
        levels = mesh.levels
        incs = np.zeros(n_steps)
        u = 0.0
        err = 0.0
        for n in range(1, n_steps + 1):
            a0 = sum(w * l1plus_row(levels, a, n)[-1] for w, a in terms)
            hist = 0.0
            if n > 1:
                for w, a in terms:
                    row = l1plus_row(levels, a, n)
                    hist += w * float(np.dot(row[:-1], incs[:n - 1]))
            t_mid = 0.5 * (levels[n - 1] + levels[n])
            f = sum(w * rl_weight(1 + sigma - a, t_mid) for w, a in terms)
            du = (f - hist) / a0
            incs[n - 1] = du
            u += du
            err = max(err, abs(u - rl_weight(1 + sigma, levels[n])))
        errors.append(err)
        taus.append(mesh.tau_max)
    orders = convergence_order(errors, taus)
    assert all(abs(o - 2.0) < 0.3 for o in orders)
