"""Acceptance criteria for the solver suite.

Each test prints one [acceptance NN] PASS/FAIL line (visible with -s, or on
failure).  Reference errors and orders are frozen from the published
benchmark tables; runs on meshes with random tails assert the aggregate
(endpoint) experimental order, since single-pair orders carry the
realization noise of the tail (the +-0.3 bands account for it).

Criteria 08 and 09 reproduce the full-scale experiments and are opt-in:
    pytest tests/test_acceptance.py --full
"""

import contextlib
import math
import time

import numpy as np
import pytest

from tfmbe import (HistoryBank, adaptive_benchmark, build_soe, coarsening,
                   ode_convergence, pde_convergence, singularity_run, verify_soe)

from conftest import random_mesh
from oracles import (apply_direct, energy_bound_violation, fast_l1_apply, fast_l1plus_apply,
                     l1plus_row, l1plus_weight_quad, quadratic_form)

TABLE_SEED = 2024

# max-norm errors of the midpoint scheme, exact solution w_{1+s}(t) on [0,1]
TABLE1 = {  # sigma = 2.5, uniform mesh
    0.1: [3.44e-05, 8.61e-06, 2.15e-06, 5.38e-07],
    0.5: [3.39e-05, 8.51e-06, 2.13e-06, 5.35e-07],
    0.9: [2.25e-05, 5.83e-06, 1.51e-06, 3.88e-07],
}
TABLE2 = {  # sigma = 0.8, uniform mesh
    0.1: [5.90e-03, 3.39e-03, 1.95e-03, 1.12e-03],
    0.5: [4.65e-03, 2.67e-03, 1.53e-03, 8.80e-04],
    0.9: [1.10e-03, 6.29e-04, 3.61e-04, 2.07e-04],
}
NS = [64, 128, 256, 512]


@contextlib.contextmanager
def criterion(num, desc):
    t0 = time.time()
    try:
        yield
    except BaseException:
        print(f"[acceptance {num:02d}] {desc}: FAIL ({time.time() - t0:.1f}s)")
        raise
    print(f"[acceptance {num:02d}] {desc}: PASS ({time.time() - t0:.1f}s)")


def aggregate_order(report):
    first, last = report.rows[0], report.rows[-1]
    return math.log(first.error / last.error) / math.log(first.tau_max / last.tau_max)


def test_criterion_01_table1_uniform_second_order():
    with criterion(1, "smooth-data errors/orders on uniform meshes"):
        t0 = time.time()
        for alpha, expected in TABLE1.items():
            rep = ode_convergence(alpha, 2.5, NS, gamma=1.0)
            for err, ref in zip(rep.errors, expected):
                assert abs(err - ref) <= 0.20 * ref
            for order in rep.orders:
                assert abs(order - 2.0) <= 0.1
        assert time.time() - t0 < 5.0


def test_criterion_02_table2_reduced_regularity():
    with criterion(2, "reduced-regularity errors/orders on uniform meshes"):
        t0 = time.time()
        for alpha, expected in TABLE2.items():
            rep = ode_convergence(alpha, 0.8, NS, gamma=1.0)
            for err, ref in zip(rep.errors, expected):
                assert abs(err - ref) <= 0.30 * ref
            for order in rep.orders:
                assert 0.78 - 0.1 <= order <= 0.84 + 0.1
        assert time.time() - t0 < 5.0


def test_criterion_03_graded_mesh_order_recovery():
    with criterion(3, "graded meshes with random tails recover the order"):
        t0 = time.time()
        for alpha in (0.3, 0.7):
            for gamma, target in ((2.0, 1.0), (4.0, 2.0), (5.0, 2.0)):
                rep = ode_convergence(alpha, 0.5, NS, gamma=gamma,
                                      seed=TABLE_SEED)
                agg = aggregate_order(rep)
                assert abs(agg - target) <= 0.3, \
                    f"alpha={alpha} gamma={gamma}: order {agg:.2f}"
        assert time.time() - t0 < 10.0


def test_criterion_04_pde_tables_desk_scale():
    with criterion(4, "forced growth models recover the order (both models)"):
        t0 = time.time()
        for model in ("slope", "noslope"):
            for gamma, target in ((3.0, 1.2), (5.0, 2.0), (6.0, 2.0)):
                rep = pde_convergence(model, 0.8, 0.4, gamma, NS, grid_n=64,
                                      seed=TABLE_SEED)
                agg = aggregate_order(rep)
                assert abs(agg - target) <= 0.3, \
                    f"{model} gamma={gamma}: order {agg:.2f}"
        assert time.time() - t0 < 180.0


def test_criterion_05_kernel_property_suite():
    with criterion(5, "kernel positivity/ordering/diagonal + quadrature match"):
        t0 = time.time()
        gen = np.random.default_rng(20240809)
        for case in range(200):
            n = int(gen.integers(2, 65))
            alpha = float(gen.uniform(0.02, 0.98))
            mesh = random_mesh(gen, n)
            w = gen.standard_normal(n)
            q = quadratic_form(mesh, alpha, w)
            assert q >= -1e-12 * float(w @ w)
            row = l1plus_row(mesh, alpha, n)
            tail = row.weights[1:]
            if tail.size > 1:
                assert np.all(np.diff(tail) < 0)
            assert np.all(row.weights > 0)
            diag = 1.0 / (math.gamma(3 - alpha) * mesh.taus[-1] ** alpha)
            assert abs(row.weights[0] - diag) <= 1e-13 * diag
            if case % 40 == 0:
                # quadrature oracle on a short prefix of this mesh
                sub = mesh.levels[:7]
                for lvl in range(1, 6):
                    r = l1plus_row(sub, alpha, lvl)
                    for k in range(1, lvl + 1):
                        ref = l1plus_weight_quad(sub, alpha, lvl, k)
                        assert abs(r.weights[lvl - k] - ref) <= 1e-10 * abs(ref)
        assert time.time() - t0 < 30.0


def test_criterion_06_exponential_sum_suite():
    with criterion(6, "certified exponential sums; fast == direct to 10 eps"):
        t0 = time.time()
        gen = np.random.default_rng(99)
        n = 50
        taus = gen.uniform(1e-3, 2.0 / n, n)
        levels = np.concatenate([[0.0], np.cumsum(taus)])
        incs = gen.standard_normal(n)
        bound_scale = float(np.max(np.abs(incs)))
        for alpha in (0.1, 0.5, 0.9):
            for eps in (1e-6, 1e-10):
                soe = build_soe(alpha, eps, 1e-4, 30.0)
                assert verify_soe(soe, 10000) <= eps
                bank = HistoryBank(soe)
                worst = 0.0
                for lvl in range(1, n + 1):
                    tau = levels[lvl] - levels[lvl - 1]
                    fp = float(fast_l1plus_apply(bank, tau, incs[lvl - 1]))
                    f1 = float(fast_l1_apply(bank, tau, incs[lvl - 1]))
                    dp = float(apply_direct(levels, alpha, incs, lvl, "l1plus"))
                    d1 = float(apply_direct(levels, alpha, incs, lvl, "l1"))
                    worst = max(worst, abs(fp - dp), abs(f1 - d1))
                    bank.commit(tau, incs[lvl - 1], level=lvl)
                assert worst <= 10.0 * eps * bound_scale, \
                    f"alpha={alpha} eps={eps}: {worst:.3e}"
        assert time.time() - t0 < 30.0


def test_criterion_07_energy_dissipation_benchmark():
    with criterion(7, "energy bound and telescoping identity, T=30 runs"):
        t0 = time.time()
        for model in ("slope", "noslope"):
            for alpha in (0.4, 0.7):
                rep = adaptive_benchmark(model, alpha, strategy="adaptive",
                                         grid_n=64, T=30.0)
                e0 = rep.meta["energy_mod_initial"]
                acc = rep.accepted
                assert energy_bound_violation(acc, e0) <= 1e-9 * abs(e0), \
                    f"{model} alpha={alpha}: energy bound violated"
                lhs = acc[-1].energy_mod - e0
                rhs = -sum(r.caputo_dot for r in acc)  # M = 1
                scale = max(abs(e0), abs(lhs))
                assert abs(lhs - rhs) <= 1e-8 * scale, \
                    f"{model} alpha={alpha}: telescoping off by {abs(lhs-rhs):.2e}"
        assert time.time() - t0 < 300.0


@pytest.mark.full
def test_criterion_08_adaptive_efficiency_full_scale():
    with criterion(8, "accepted-step counts at full scale (128^2, T=30)"):
        counts = {}
        for model, lo, hi in (("slope", 3000, 6000), ("noslope", 2500, 5000)):
            rep = adaptive_benchmark(model, 0.7, strategy="adaptive",
                                     grid_n=128, T=30.0)
            counts[model] = rep.n_accepted
            assert lo <= rep.n_accepted <= hi, \
                f"{model}: {rep.n_accepted} accepted steps outside [{lo},{hi}]"
        print(f"  counts: {counts} (uniform reference: 30000)")


@pytest.mark.full
def test_criterion_09_coarsening_scaling_laws():
    with criterion(9, "coarsening scaling exponents vs fractional order"):
        for alpha in (0.4, 0.7, 1.0):
            rep = coarsening("slope", alpha, grid_n=64, T=200.0, seed=2024,
                             fit_window=(1.0, 200.0))
            beta_fit, r_fit = rep.fits["beta"], rep.fits["R"]
            assert abs(beta_fit - alpha / 3.0) <= 0.06, \
                f"slope alpha={alpha}: energy exponent {beta_fit:.3f}"
            assert abs(r_fit - alpha / 3.0) <= 0.06, \
                f"slope alpha={alpha}: roughness exponent {r_fit:.3f}"
        for alpha in (0.4, 0.7, 1.0):
            rep = coarsening("noslope", alpha, grid_n=64, T=200.0, seed=2024,
                             fit_window=(1.0, 200.0))
            assert abs(rep.fits["R"] - alpha / 2.0) <= 0.08, \
                f"noslope alpha={alpha}: roughness exponent {rep.fits['R']:.3f}"


def test_criterion_10_singularity_diagnostic():
    with criterion(10, "initial-layer quotient slope equals alpha - 1"):
        t0 = time.time()
        rep = singularity_run(0.4, grid_n=32, N0=200, gamma=3.0)
        slope = rep.fits["singularity_slope"]
        assert abs(slope - (-0.6)) <= 0.1, f"slope {slope:.3f}"
        assert time.time() - t0 < 60.0


def test_criterion_11_deterministic_csv(tmp_path):
    with criterion(11, "byte-identical CSV on re-run for every driver"):
        pairs = []
        for d in ("a", "b"):
            base = tmp_path / d
            ode_convergence(0.3, 0.5, [32, 64], gamma=4.0, seed=11,
                            out_dir=base / "ode")
            pde_convergence("slope", 0.8, 0.4, 5.0, [16, 32], grid_n=16,
                            seed=5, out_dir=base / "pde")
            adaptive_benchmark("noslope", 0.6, strategy="adaptive",
                               grid_n=16, T=0.03, out_dir=base / "bench")
            coarsening("slope", 0.5, grid_n=16, T=0.01, seed=3,
                       out_dir=base / "coarsen")
            singularity_run(0.4, grid_n=16, N0=60, out_dir=base / "sing")
            pairs.append(base)
        a, b = pairs
        for rel in ("ode/orders.csv", "pde/orders.csv", "bench/steps.csv",
                    "coarsen/steps.csv", "sing/steps.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel
