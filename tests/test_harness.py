import argparse
import csv
import functools
import inspect
import json
import math
import re
import warnings

import numpy as np
import pytest

from tfmbe import (Grid2D, ModelParams, SolverError, adaptive_benchmark,
                   build_graded, coarsening, init_state, make_history, ode_convergence,
                   pde_convergence, read_field, singularity_run,
                   trajectory_observables)
from tfmbe.cli import main as cli_main
from tfmbe.harness import CONSTANTS, _benchmark_phi0, record_inputs, table_mesh

from conftest import count_transforms, flip_estimates
from oracles import energy_bound_violation


def test_ode_convergence_rejects_bad_sigma():
    with pytest.raises(ValueError):
        ode_convergence(0.5, -1.0, [16, 32])


@pytest.mark.parametrize("sigma", [0.0, -1.0])
def test_pde_convergence_rejects_bad_sigma(sigma):
    with pytest.raises(ValueError, match="regularity parameter must be positive"):
        pde_convergence("slope", 0.8, sigma, 5.0, [4], grid_n=8, T=0.1)


def test_order_tables_reject_an_empty_n_list():
    # an empty list used to give an empty table
    with pytest.raises(ValueError, match="n_list is empty"):
        ode_convergence(0.5, 2.5, [])
    with pytest.raises(ValueError, match="n_list is empty"):
        pde_convergence("slope", 0.8, 0.4, 5.0, (), grid_n=8)


def test_ode_convergence_uniform_second_order():
    rep = ode_convergence(0.5, 2.5, [64, 128], gamma=1.0)
    assert rep.errors[0] == pytest.approx(3.39e-5, rel=0.05)
    assert rep.orders[0] == pytest.approx(2.0, abs=0.05)


def test_ode_convergence_graded_recovers_order():
    rep = ode_convergence(0.7, 0.5, [64, 128, 256], gamma=4.0, seed=2024)
    r0, r1 = rep.rows[0], rep.rows[-1]
    agg = math.log(r0.error / r1.error) / math.log(r0.tau_max / r1.tau_max)
    assert agg == pytest.approx(2.0, abs=0.4)


def test_table_mesh_conventions():
    uni = table_mesh(1.0, 64, 1.0, seed=0)
    assert uni.tau_max == pytest.approx(1 / 64, rel=1e-12)
    comp = table_mesh(1.0, 64, 4.0, seed=0)
    assert comp.n_steps == 64
    assert comp.levels[32] == pytest.approx(0.25, rel=1e-12)  # T0 = 1/gamma
    # T0 = min(1/gamma, T): a horizon within 1/gamma is one graded segment
    short = table_mesh(0.1, 16, 2.0, seed=0)
    assert np.array_equal(short.levels, build_graded(0.1, 16, 2.0).levels)
    # one cell is a graded segment, but cannot hold a prefix and a tail
    assert table_mesh(1.0, 1, 1.0, seed=0).n_steps == 1
    with pytest.raises(ValueError, match=r"N = 1: a graded prefix .* needs N >= 2"):
        ode_convergence(0.5, 2.5, [1], gamma=2.0)


def test_pde_convergence_small(tmp_path):
    rep = pde_convergence("slope", 0.8, 0.4, 5.0, [32, 64], grid_n=16,
                          seed=2024, out_dir=tmp_path / "run")
    assert rep.errors[1] < rep.errors[0]
    orders_csv = (tmp_path / "run" / "orders.csv").read_text().splitlines()
    assert orders_csv[0] == "n_steps,tau_max,error,order"
    assert len(orders_csv) == 3
    meta = json.loads((tmp_path / "run" / "run.json").read_text())
    assert meta["driver"] == "pde_convergence"
    assert meta["seed"] == 2024


def test_benchmark_small_run_and_outputs(tmp_path):
    rep = adaptive_benchmark("slope", 0.7, strategy="adaptive", grid_n=16,
                             T=0.05, out_dir=tmp_path / "b", save_field=True)
    assert rep.n_accepted >= 1
    steps = (tmp_path / "b" / "steps.csv").read_text().splitlines()
    assert steps[0] == ("n,t,tau,energy_mod,energy_orig,roughness,aux,"
                        "accepted,e_est,dphi_dt_max,caputo_dot,sav_drift")
    field, (lx, ly) = read_field(tmp_path / "b" / "field_final.bin")
    assert field.shape == (16, 16)
    assert lx == pytest.approx(2 * math.pi)
    meta = json.loads((tmp_path / "b" / "run.json").read_text())
    assert meta["n_accepted"] == rep.n_accepted


def test_benchmark_strategies_share_energy_bound():
    rep_u = adaptive_benchmark("slope", 0.5, strategy="uniform", grid_n=16,
                               T=0.02)
    assert rep_u.n_accepted == 20
    rep_g = adaptive_benchmark("slope", 0.5, strategy="graded", grid_n=16,
                               T=0.05)
    assert rep_g.n_accepted == 50  # 30 graded + 20 tail cells
    with pytest.raises(ValueError):
        adaptive_benchmark("slope", 0.5, strategy="magic", grid_n=16, T=0.02)


def test_graded_strategy_needs_a_tail():
    with pytest.raises(ValueError, match=r"'graded'.*prefix_n0 = 30.*"
                                         r"uniform_tau = 0\.001.*T = 0\.03"):
        adaptive_benchmark("slope", 0.5, strategy="graded", grid_n=16, T=0.03)


def test_benchmark_rejects_horizon_inside_prefix():
    # the prefix is marched whole: the run used to end at t = 0.01 > T
    with pytest.raises(ValueError, match=r"'adaptive'.*prefix ends at t = 0\.01, "
                                         r"after T = 0\.005"):
        adaptive_benchmark("slope", 0.7, grid_n=16, T=0.005)


def test_prefix_mesh_marched_unconditionally():
    rep = adaptive_benchmark("slope", 0.4, strategy="adaptive", grid_n=16, T=0.05)
    prefix, rest = rep.records[:30], rep.records[30:]
    assert all(r.accepted and math.isnan(r.e_est) for r in prefix)
    assert prefix[-1].t == pytest.approx(0.01, rel=1e-12)
    assert rest and not any(math.isnan(r.e_est) for r in rest)


def test_one_step_fast_run_matches_direct():
    """With dt_min = T the one step is the last, so fast mode reads no sum."""
    runs = [adaptive_benchmark("slope", 0.7, strategy="uniform", grid_n=8, T=0.001,
                               soe_mode=mode) for mode in ("fast", "direct")]
    assert [r.n_accepted for r in runs] == [1, 1]
    assert runs[0].accepted[-1].energy_mod == runs[1].accepted[-1].energy_mod
    with pytest.raises(ValueError, match="need 0 < dt_min < T < inf"):
        make_history(0.7, mode="fast", dt_min=1e-3, T=math.inf)


def test_uniform_strategy_needs_a_step():
    with pytest.raises(ValueError, match=r"'uniform'.*uniform_tau = 0\.001 "
                                         r"up to T = 0\.0004"):
        adaptive_benchmark("slope", 0.7, strategy="uniform", grid_n=16, T=4e-4)


@pytest.mark.parametrize("strategy,T", [("graded", math.inf), ("uniform", math.inf),
                                        ("adaptive", math.inf), ("adaptive", math.nan),
                                        ("graded", -1.0)])
def test_benchmark_rejects_bad_horizon(strategy, T):
    # an infinite horizon used to overflow the step count or end as finished
    with pytest.raises(ValueError, match=r"horizon T must be finite and positive, "
                                         r"got T = "):
        adaptive_benchmark("slope", 0.7, strategy=strategy, grid_n=8, T=T)


@pytest.mark.parametrize("T", [math.inf, math.nan, 0.0])
def test_coarsening_rejects_bad_horizon(T):
    # T = inf used to return a 30-step report, as if the run had finished
    with pytest.raises(ValueError, match=r"horizon T must be finite and positive, "
                                         r"got T = "):
        coarsening("slope", 1.0, grid_n=8, T=T)


def test_coarsening_rejects_horizon_inside_prefix():
    # the slope prefix ends at 1.25e-4 / (1 - (29/30)^3) = 1.29e-3
    with pytest.raises(ValueError, match=r"coarsening.*prefix ends at t = "
                                         r"0\.00129.*after T = 0\.001"):
        coarsening("slope", 0.7, grid_n=16, T=0.001, seed=1)


def _meta(out_dir):
    return json.loads((out_dir / "run.json").read_text())


GROWTH_MODEL = {"M": 1.0, "beta": 4.0, "eps2": 0.1, "C0": 1.0}


def test_benchmark_records_model_constants(tmp_path):
    adaptive_benchmark("slope", 0.7, strategy="uniform", grid_n=16, T=0.005,
                       out_dir=tmp_path)
    meta = _meta(tmp_path)
    assert {k: meta[k] for k in GROWTH_MODEL} == GROWTH_MODEL
    assert {k: meta[k] for k in ("prefix_t0", "prefix_n0", "prefix_gamma",
                                 "uniform_tau")} == \
        {"prefix_t0": 0.01, "prefix_n0": 30, "prefix_gamma": 3.0, "uniform_tau": 0.001}
    # a fixed mesh has no controller, so nothing to count
    assert "floor_accepts_over_tol" not in meta and "max_retries" not in meta


def test_run_meta_counts_floor_accepts_over_tolerance(tmp_path, monkeypatch):
    # at tol = 1 no trial misses on its own; the first two controller trials
    # (at the floor) are made to miss, so exactly they are counted
    flip_estimates(monkeypatch, {1, 2})
    rep = adaptive_benchmark("slope", 0.7, grid_n=16, T=0.05, tol=1.0,
                             out_dir=tmp_path / "b")
    meta = _meta(tmp_path / "b")
    over = [r for r in rep.accepted if r.e_est >= 1.0]
    assert [(r.n, r.tau) for r in over] == [(31, 1e-3), (32, 1e-3)]
    assert meta["floor_accepts_over_tol"] == 2
    assert meta["floor_accept_e_max"] == max(r.e_est for r in over) > 1.0
    # the count is of what steps.csv holds: its accepted rows with e_est >= tol
    with open(tmp_path / "b" / "steps.csv", newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["accepted"] == "1"]
    assert sum(float(r["e_est"]) >= 1.0 for r in rows) == 2
    monkeypatch.undo()
    rep = coarsening("slope", 0.7, grid_n=16, T=0.01, seed=1, out_dir=tmp_path / "c")
    over = [r for r in rep.accepted if r.e_est >= rep.meta["tol"]]
    # each at the floor, or the last step, cut short by T
    assert over and all(r.tau <= rep.meta["tau_min"] for r in over)
    meta = _meta(tmp_path / "c")
    assert (meta["floor_accepts_over_tol"], meta["floor_accept_e_max"]) == \
        (len(over), max(r.e_est for r in over))


def test_singularity_run_records_model_constants(tmp_path):
    singularity_run(0.4, grid_n=16, N0=8, out_dir=tmp_path)
    meta = _meta(tmp_path)
    assert {k: meta[k] for k in GROWTH_MODEL} == GROWTH_MODEL
    assert (meta["T0"], meta["ic_amplitude"], meta["n_accepted"]) == (1e-3, 0.1, 8)
    assert meta["model"] == "slope"


def test_singularity_run_too_short_to_fit_keeps_its_files(tmp_path, capsys):
    # the fit used to raise after the run, so no file was written
    singularity_run(0.4, grid_n=8, N0=2, out_dir=tmp_path / "s")
    assert sorted(p.name for p in (tmp_path / "s").iterdir()) == ["run.json", "steps.csv"]
    fits = _meta(tmp_path / "s")["fits"]
    assert fits["singularity_slope"] is None and fits["target"] == -0.6  # NaN is not JSON
    assert fits["reason"] == "not enough early steps to fit"
    assert cli_main(["singularity", "--grid", "8", "--N0", "2"]) == 0
    assert capsys.readouterr().out == "singularity slope: nan (alpha - 1 = -0.6000)\n"


def test_runs_record_the_settings_that_became_constants(tmp_path):
    ode_convergence(0.5, 2.5, [4, 8], out_dir=tmp_path / "o")
    pde_convergence("slope", 0.8, 0.4, 5.0, [4], grid_n=8, T=0.1, out_dir=tmp_path / "p")
    adaptive_benchmark("slope", 0.7, strategy="uniform", grid_n=8, T=0.005,
                       out_dir=tmp_path / "b")
    ode, pde, bench = (_meta(tmp_path / d) for d in "opb")
    assert (ode["T"], ode["tail"], pde["tail"]) == (1.0, "random", "random")
    assert bench["soe_eps"] == 1e-10
    assert (bench["rho"], bench["tau_max"]) == (0.9, 0.1)
    assert not {"rho", "tau_max"} & set(bench["inputs"])


def test_coarsening_records_model_constants(tmp_path):
    coarsening("noslope", 0.7, grid_n=16, T=0.002, seed=1, out_dir=tmp_path)
    meta = _meta(tmp_path)
    assert {k: meta[k] for k in ("M", "beta", "epsilon", "C0")} == \
        {"M": 1.0, "beta": 4.0, "epsilon": 0.03, "C0": 1.0}
    assert "eps2" not in meta
    assert {k: meta[k] for k in ("tol", "rho", "prefix_n0", "prefix_gamma",
                                 "ic_amplitude", "soe_eps", "soe_mode")} == \
        {"tol": 1e-3, "rho": 0.9, "prefix_n0": 30, "prefix_gamma": 3.0,
         "ic_amplitude": 1e-3, "soe_eps": 1e-10, "soe_mode": "fast"}


def test_pde_convergence_records_model_constants(tmp_path):
    pde_convergence("slope", 0.8, 0.4, 5.0, [4], grid_n=8, T=0.1, out_dir=tmp_path)
    meta = _meta(tmp_path)
    assert {k: meta[k] for k in GROWTH_MODEL} == \
        {"M": 0.1, "beta": 1.0, "eps2": 0.5, "C0": 1.0}


def test_benchmark_sav_drift_column():
    grid, params = Grid2D(16), ModelParams()
    state = init_state(grid, _benchmark_phi0(grid), params, make_history(0.7))
    assert trajectory_observables(state)[3] == 0.0
    rep = adaptive_benchmark("slope", 0.7, grid_n=16, T=0.05)
    drift = [r.sav_drift for r in rep.accepted]
    assert 0.0 < max(drift) < 1e-3


def test_adaptive_step_transform_budget(monkeypatch):
    """At most 3 transform calls per accepted step, and no plain inverse.

    An adaptive trial makes 3 (two forward calls and the shared inverse
    pass), a step of the graded start 2 and ``init_state`` 2.
    """
    calls = count_transforms(monkeypatch)
    for alpha in (0.7, 1.0):
        calls.clear()
        rep = adaptive_benchmark("slope", alpha, grid_n=16, T=0.05)
        assert rep.n_accepted > 30  # past the graded prefix
        assert calls["ifft"] == 0
        assert calls.total() <= 3 * rep.n_accepted


def test_benchmark_alpha_one_runs():
    rep = adaptive_benchmark("noslope", 1.0, strategy="adaptive", grid_n=16,
                             T=0.05)
    e0 = rep.meta["energy_mod_initial"]
    assert energy_bound_violation(rep.accepted, e0) <= 1e-9 * abs(e0)


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_unknown_soe_mode_rejected(alpha):
    with pytest.raises(ValueError, match="history mode"):
        adaptive_benchmark("slope", alpha, soe_mode="bogus", grid_n=16, T=0.05)


def test_coarsening_small(tmp_path):
    rep = coarsening("slope", 0.7, grid_n=16, T=3.0, seed=7,
                     fit_window=(0.5, 3.0), out_dir=tmp_path / "c",
                     save_field=True)
    assert "beta" in rep.fits and "R" in rep.fits
    assert np.isfinite(rep.fits["R"])
    meta = json.loads((tmp_path / "c" / "run.json").read_text())
    assert meta["fits"]["window"] == [0.5, 3.0]
    assert meta["tau_min"] == pytest.approx(1.25e-4)


def test_coarsening_rejects_empty_fit_window():
    with pytest.raises(ValueError, match=r"fit_window \(3.0, 0.5\) is empty"):
        coarsening("slope", 0.7, grid_n=16, T=3.0, fit_window=(3.0, 0.5))


def test_coarsening_empty_default_window_gives_reason():
    rep = coarsening("slope", 0.7, grid_n=16, T=0.01, seed=7)
    assert rep.fits["window"] == [1.0, 0.01]
    assert all(math.isnan(rep.fits[k]) for k in ("beta", "R", "energy_semilog_slope"))
    assert "empty" in rep.fits["reason"]


@pytest.mark.parametrize("tau_min,tau_max", [(0.0, 0.1), (math.nan, 0.1),
                                             (1e-3, 1e-4)])
def test_coarsening_checks_step_bounds_first(monkeypatch, tau_min, tau_max):
    import tfmbe.harness as harness

    def no_history(*args, **kwargs):
        raise AssertionError("history built before the step bounds were checked")

    monkeypatch.setattr(harness, "make_history", no_history)
    with pytest.raises(ValueError, match=r"require 0 < tau_min <= tau_max"):
        coarsening("slope", 0.7, grid_n=16, T=500.0, tau_min=tau_min, tau_max=tau_max)


def test_coarsening_noslope_default_floor():
    rep = coarsening("noslope", 0.7, grid_n=16, T=0.01, seed=7)
    assert rep.meta["tau_min"] == pytest.approx(3.32e-5)


def test_singularity_run_recovers_exponent():
    rep = singularity_run(0.4, grid_n=16, N0=120)
    assert rep.fits["singularity_slope"] == pytest.approx(-0.6, abs=0.1)


def test_adaptive_matches_graded_reference():
    """Controller trajectory tracks the dense graded+uniform reference."""
    ra = adaptive_benchmark("slope", 0.7, strategy="adaptive", grid_n=32, T=2.0)
    rg = adaptive_benchmark("slope", 0.7, strategy="graded", grid_n=32, T=2.0)
    fa, fg = ra.accepted[-1], rg.accepted[-1]
    assert ra.n_accepted < rg.n_accepted
    assert fa.energy_orig == pytest.approx(fg.energy_orig, rel=1e-3)
    assert fa.roughness == pytest.approx(fg.roughness, rel=1e-3)


def test_smaller_alpha_dissipates_faster_initially():
    finals = {}
    for alpha in (0.4, 1.0):
        rep = adaptive_benchmark("slope", alpha, strategy="adaptive",
                                 grid_n=32, T=0.3)
        finals[alpha] = rep.accepted[-1].energy_orig
    assert finals[0.4] < finals[1.0]


def test_random_tail_cells_near_published_values():
    # random-tail realizations spread errors by a few x; loose sanity bands
    rep = ode_convergence(0.7, 0.5, [64, 128, 256], gamma=4.0, seed=2024)
    assert rep.errors[-1] == pytest.approx(2.47e-5, abs=2.47e-5 * 0.8)
    rep = pde_convergence("slope", 0.8, 0.4, 5.0, [64, 128, 256], grid_n=32,
                          seed=2024)
    assert rep.errors[-1] == pytest.approx(3.46e-5, rel=1.0)


def test_energy_bound_violation_helper():
    class R:
        def __init__(self, e, acc=1):
            self.energy_mod = e
            self.accepted = acc
    assert energy_bound_violation([R(1.0), R(0.5)], 1.0) == 0.0
    assert energy_bound_violation([R(1.5), R(0.5)], 1.0) == pytest.approx(0.5)
    assert energy_bound_violation([R(1.5, acc=0)], 1.0) == 0.0


# ---------------------------------------------------------------------------
# determinism: identical config + seed => byte-identical CSV
# ---------------------------------------------------------------------------

def _csv_bytes(path):
    return path.read_bytes()


def test_ode_conv_csv_deterministic(tmp_path):
    for d in ("a", "b"):
        ode_convergence(0.3, 0.5, [32, 64], gamma=4.0, seed=11,
                        out_dir=tmp_path / d)
    assert _csv_bytes(tmp_path / "a" / "orders.csv") == \
        _csv_bytes(tmp_path / "b" / "orders.csv")


def test_pde_conv_csv_deterministic(tmp_path):
    for d in ("a", "b"):
        pde_convergence("noslope", 0.8, 0.4, 3.0, [16, 32], grid_n=16,
                        seed=5, out_dir=tmp_path / d)
    assert _csv_bytes(tmp_path / "a" / "orders.csv") == \
        _csv_bytes(tmp_path / "b" / "orders.csv")


def test_benchmark_csv_deterministic(tmp_path):
    for d in ("a", "b"):
        adaptive_benchmark("noslope", 0.6, strategy="adaptive", grid_n=16,
                           T=0.03, out_dir=tmp_path / d)
    assert _csv_bytes(tmp_path / "a" / "steps.csv") == \
        _csv_bytes(tmp_path / "b" / "steps.csv")


def test_coarsen_csv_deterministic(tmp_path):
    for d in ("a", "b"):
        coarsening("slope", 0.5, grid_n=16, T=0.01, seed=3,
                   out_dir=tmp_path / d)
    assert _csv_bytes(tmp_path / "a" / "steps.csv") == \
        _csv_bytes(tmp_path / "b" / "steps.csv")


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def test_cli_ode_conv(tmp_path, capsys):
    rc = cli_main(["ode-conv", "--alpha", "0.5", "--sigma", "2.5",
                   "--N", "32,64", "--gamma", "1", "--out",
                   str(tmp_path / "o")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "n_steps" in out
    assert (tmp_path / "o" / "orders.csv").exists()


def test_cli_pde_conv(tmp_path, capsys):
    rc = cli_main(["pde-conv", "--model", "noslope", "--alpha", "0.8",
                   "--sigma", "0.4", "--gamma", "5", "--N", "16,32",
                   "--grid", "16", "--out", str(tmp_path / "p")])
    assert rc == 0
    assert (tmp_path / "p" / "orders.csv").exists()


def test_cli_benchmark(tmp_path, capsys):
    rc = cli_main(["benchmark", "--model", "slope", "--alpha", "0.7",
                   "--strategy", "adaptive", "--grid", "16", "--T", "0.02",
                   "--out", str(tmp_path / "bb")])
    assert rc == 0
    assert "accepted steps" in capsys.readouterr().out
    assert (tmp_path / "bb" / "steps.csv").exists()


def test_cli_coarsen(tmp_path, capsys):
    rc = cli_main(["coarsen", "--model", "slope", "--alpha", "0.7",
                   "--grid", "16", "--T", "0.01", "--seed", "9",
                   "--window", "0.001", "0.01", "--out", str(tmp_path / "cc")])
    assert rc == 0
    assert (tmp_path / "cc" / "steps.csv").exists()


def test_cli_singularity_prints_slope(capsys):
    assert cli_main(["singularity", "--grid", "16", "--N0", "60"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("singularity slope: -0.") and "(alpha - 1 = -0.6000)" in out


def test_cli_soe_verify(capsys):
    rc = cli_main(["soe-verify", "--alpha", "0.5", "--eps", "1e-8",
                   "--dt-min", "1e-3", "--T", "10", "--samples", "2000"])
    assert rc == 0
    assert "max error" in capsys.readouterr().out


def test_cli_soe_verify_fails_above_eps(monkeypatch, capsys):
    import tfmbe.harness as harness

    monkeypatch.setattr(harness, "verify_soe", lambda soe, samples: 2e-8)
    rc = cli_main(["soe-verify", "--alpha", "0.5", "--eps", "1e-8",
                   "--dt-min", "1e-3", "--T", "1"])
    assert rc == 1
    assert "max error 2.000e-08 on [0.001, 1]" in capsys.readouterr().out


_F, _I, _STORE = "float", "int", "_StoreAction"
_MODEL = ("slope", "noslope")
_OUT = {"--out": ("out_dir", None, None, None, _STORE)}
_SAVE = {"--save-field": ("save_field", None, None, 0, "_StoreTrueAction")}
# subcommand -> option string -> (dest, type, choices, nargs, action)
CLI_FLAGS = {
    "ode-conv": {
        "--alpha": ("alpha", _F, None, None, _STORE),
        "--sigma": ("sigma", _F, None, None, _STORE),
        "--N": ("n_list", "_int_list", None, None, _STORE),
        "--gamma": ("gamma", _F, None, None, _STORE),
        "--seed": ("seed", _I, None, None, _STORE), **_OUT},
    "pde-conv": {
        "--model": ("model", None, _MODEL, None, _STORE),
        "--alpha": ("alpha", _F, None, None, _STORE),
        "--sigma": ("sigma", _F, None, None, _STORE),
        "--gamma": ("gamma", _F, None, None, _STORE),
        "--N": ("n_list", "_int_list", None, None, _STORE),
        "--grid": ("grid_n", _I, None, None, _STORE),
        "--T": ("T", _F, None, None, _STORE),
        "--seed": ("seed", _I, None, None, _STORE), **_OUT},
    "benchmark": {
        "--model": ("model", None, _MODEL, None, _STORE),
        "--alpha": ("alpha", _F, None, None, _STORE),
        "--strategy": ("strategy", None, ("uniform", "graded", "adaptive"), None,
                       _STORE),
        "--grid": ("grid_n", _I, None, None, _STORE),
        "--T": ("T", _F, None, None, _STORE),
        "--tol": ("tol", _F, None, None, _STORE),
        "--tau-min": ("tau_min", _F, None, None, _STORE),
        "--soe-mode": ("soe_mode", None, ("fast", "direct"), None, _STORE),
        **_SAVE, **_OUT},
    "coarsen": {
        "--model": ("model", None, _MODEL, None, _STORE),
        "--alpha": ("alpha", _F, None, None, _STORE),
        "--grid": ("grid_n", _I, None, None, _STORE),
        "--T": ("T", _F, None, None, _STORE),
        "--seed": ("seed", _I, None, None, _STORE),
        "--tau-min": ("tau_min", _F, None, None, _STORE),
        "--tau-max": ("tau_max", _F, None, None, _STORE),
        "--window": ("fit_window", _F, None, 2, _STORE), **_SAVE, **_OUT},
    "singularity": {
        "--alpha": ("alpha", _F, None, None, _STORE),
        "--grid": ("grid_n", _I, None, None, _STORE),
        "--N0": ("N0", _I, None, None, _STORE),
        "--gamma": ("gamma", _F, None, None, _STORE), **_OUT},
    "soe-verify": {
        "--alpha": ("alpha", _F, None, None, _STORE),
        "--eps": ("eps", _F, None, None, _STORE),
        "--dt-min": ("dt_min", _F, None, None, _STORE),
        "--T": ("T", _F, None, None, _STORE),
        "--samples": ("samples", _I, None, None, _STORE)},
}


@pytest.mark.parametrize("wrapped", [False, True], ids=["plain", "wrapped"])
def test_cli_flag_inventory(monkeypatch, wrapped):
    import tfmbe.harness as harness

    class Built(Exception):
        pass

    def wrap(driver):  # as a tracer wraps a driver
        @functools.wraps(driver)
        def call(*args, **kwargs):
            return driver(*args, **kwargs)
        return call

    for name in harness.__all__ if wrapped else ():
        if inspect.isfunction(getattr(harness, name)):
            monkeypatch.setattr(harness, name, wrap(getattr(harness, name)))

    def stop(parser, *args, **kwargs):
        raise Built(parser)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", stop)
    with pytest.raises(Built) as built:
        cli_main(["ode-conv"])
    parser = built.value.args[0]
    [sub] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    assert list(sub.choices) == list(CLI_FLAGS)
    for cmd, expected in CLI_FLAGS.items():
        found = {}
        for a in sub.choices[cmd]._actions:
            if a.dest == "help":
                continue
            [flag] = a.option_strings
            assert a.default is None, (cmd, flag)
            choices = None if a.choices is None else tuple(a.choices)
            found[flag] = (a.dest, getattr(a.type, "__name__", None), choices,
                           a.nargs, type(a).__name__)
        assert found == expected, cmd


def test_cli_config_file(tmp_path, capsys):
    cfg = {"ode-conv": {"alpha": 0.9, "sigma": 2.5, "n_list": [32, 64],
                        "gamma": 1.0, "out_dir": str(tmp_path / "cfg")}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    rc = cli_main(["--config", str(cfg_path), "ode-conv"])
    assert rc == 0
    meta = json.loads((tmp_path / "cfg" / "run.json").read_text())
    assert meta["alpha"] == 0.9
    # explicit flag wins over config
    rc = cli_main(["--config", str(cfg_path), "ode-conv", "--alpha", "0.1",
                   "--out", str(tmp_path / "cfg2")])
    assert rc == 0
    meta = json.loads((tmp_path / "cfg2" / "run.json").read_text())
    assert meta["alpha"] == 0.1


def _tree_bytes(root):
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


# subcommand, flags shrinking the run, the driver, its positional values (the
# CLI's defaults) and the same shrinking keywords
CLI_DRIVERS = [
    ("ode-conv", [], ode_convergence, (0.5, 2.5, [64, 128, 256, 512]), {}),
    ("pde-conv", ["--N", "8,16", "--grid", "16", "--T", "0.1"], pde_convergence,
     ("slope", 0.8, 0.4, 5.0, [8, 16]), dict(grid_n=16, T=0.1)),
    ("benchmark", ["--grid", "16", "--T", "0.02"], adaptive_benchmark,
     ("slope", 0.7), dict(grid_n=16, T=0.02)),
    ("coarsen", ["--grid", "16", "--T", "0.01"], coarsening,
     ("slope", 0.7), dict(grid_n=16, T=0.01)),
    ("singularity", ["--grid", "16", "--N0", "60"], singularity_run,
     (0.4,), dict(grid_n=16, N0=60)),
]


@pytest.mark.parametrize("cmd,flags,driver,args,kwargs", CLI_DRIVERS,
                         ids=[c[0] for c in CLI_DRIVERS])
def test_cli_uses_driver_defaults(tmp_path, cmd, flags, driver, args, kwargs):
    assert cli_main([cmd, *flags, "--out", str(tmp_path / "cli")]) == 0
    driver(*args, **kwargs, out_dir=tmp_path / "direct")
    assert _tree_bytes(tmp_path / "cli") == _tree_bytes(tmp_path / "direct")


@pytest.mark.parametrize("cmd,keys", [("benchmark", {"M": 5.0}),
                                      ("benchmark", {"soe_eps": 1e-8}),
                                      ("ode-conv", {"T": 2.0, "tail": "uniform"}),
                                      ("pde-conv", {"tail": "uniform"}),
                                      ("benchmark", {"rho": 0.9, "tau_max": 0.1})],
                         ids=["benchmark-M", "benchmark-soe_eps", "ode-conv-T-tail",
                              "pde-conv-tail", "benchmark-rho-tau_max"])
def test_cli_config_rejects_keys_that_are_not_flags(tmp_path, capsys, cmd, keys):
    # such a key used to be dropped, so the run went on without the setting
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({cmd: dict(keys, out_dir=str(tmp_path / "cli"))}))
    with pytest.raises(SystemExit) as stop:
        cli_main(["--config", str(cfg_path), cmd])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"not inputs of '{cmd}': {', '.join(sorted(keys))}" in err
    assert not (tmp_path / "cli").exists()


@pytest.mark.parametrize("cmd,flag", [("benchmark", ["--soe-eps", "1e-8"]),
                                      ("ode-conv", ["--T", "2"]),
                                      ("ode-conv", ["--tail", "uniform"]),
                                      ("pde-conv", ["--tail", "uniform"]),
                                      ("benchmark", ["--rho", "0.5"]),
                                      ("benchmark", ["--tau-max", "0.05"])])
def test_cli_removed_flags_exit_2(capsys, cmd, flag):
    with pytest.raises(SystemExit) as stop:
        cli_main([cmd, *flag])
    assert stop.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


def _write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
    return str(path)


# config, subcommand and the part of argparse's message naming the option;
# each used to end in a traceback or, for the empty list, an empty table
BAD_CONFIGS = {
    "window-one-value": ({"fit_window": [1]}, "coarsen",
                         "argument --window: expected 2 arguments"),
    "model-typo": ({"model": "slop"}, "benchmark", "argument --model: invalid choice"),
    "grid-not-int": ({"grid_n": "16.5"}, "benchmark", "argument --grid: invalid int"),
    "n-list-not-ints": ({"n_list": "32;64"}, "ode-conv", "argument --N: invalid"),
    "n-list-empty": ({"n_list": []}, "ode-conv", "argument --N: need positive integers"),
    "n-list-zero": ({"n_list": [0, 8]}, "ode-conv", "argument --N: need positive integers"),
    "switch-not-bool": ({"save_field": 1}, "benchmark", "argument --save-field"),
}


@pytest.mark.parametrize("name", BAD_CONFIGS)
def test_cli_config_values_are_checked_as_flags(tmp_path, capsys, name):
    section, cmd, message = BAD_CONFIGS[name]
    path = _write_config(tmp_path, {cmd: dict(section, out_dir=str(tmp_path / "o"))})
    with pytest.raises(SystemExit) as stop:
        cli_main(["--config", path, cmd])
    assert stop.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("text,message", [
    (None, "No such file"), ("[1, 2]", "need an object"),
    ('{"ode-conv": [1]}', "need an object"), ('{"ode-conv": {', "Expecting")],
    ids=["missing", "top-level-list", "section-list", "invalid-json"])
def test_cli_config_file_errors_name_the_file(tmp_path, capsys, text, message):
    path = str(tmp_path / "missing.json") if text is None else _write_config(tmp_path, text)
    with pytest.raises(SystemExit) as stop:
        cli_main(["--config", path, "ode-conv", "--N", "8"])
    assert stop.value.code == 2
    err = capsys.readouterr().err
    assert f"--config {path}: " in err and message in err


def test_cli_empty_n_list_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as stop:
        cli_main(["ode-conv", "--N", ""])
    assert stop.value.code == 2
    assert "argument --N: need positive integers, got ''" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    ("ode-conv --N 1 --gamma 2", "N = 1: a graded prefix"),
    ("benchmark --strategy uniform --T 0.0004", "strategy 'uniform' needs"),
    ("coarsen --grid 8 --T 0.01 --window 3 1", "fit_window (3.0, 1.0) is empty"),
    ("soe-verify --eps 1e-15", "exponential-sum build reached"),
])
def test_cli_input_the_driver_rejects_exits_2(capsys, argv, message):
    with pytest.raises(SystemExit) as stop:
        cli_main(argv.split())
    assert stop.value.code == 2
    cmd, err = argv.split()[0], capsys.readouterr().err
    assert err.startswith(f"usage: tfmbe {cmd} ") and f"tfmbe {cmd}: error: {message}" in err


def test_cli_failed_run_exits_1_with_one_line(tmp_path, capsys, monkeypatch):
    def fail(state, aparams, T):
        raise SolverError("energy_mod = nan at accepted step 3 (t = 0.003)")

    monkeypatch.setattr("tfmbe.harness.adaptive_run", fail)
    out = tmp_path / "run"
    assert cli_main(["benchmark", "--grid", "8", "--T", "0.02", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == ("tfmbe benchmark: run failed: energy_mod = nan at accepted step 3 "
                   "(t = 0.003)\n")
    meta = json.loads((out / "run.json").read_text())
    assert meta["error"] == "energy_mod = nan at accepted step 3 (t = 0.003)"
    assert (out / "steps.csv").is_file()


def test_cli_blown_up_run_prints_one_line(tmp_path, capsys):
    """A run whose field overflows fails in one stderr line, with no numpy warning."""
    argv = ["benchmark", "--model", "noslope", "--alpha", "0.2", "--grid", "16",
            "--T", "0.3", "--out", str(tmp_path / "run")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli_main(argv) == 1
    assert [str(w.message) for w in caught] == []
    err = capsys.readouterr().err
    assert re.fullmatch(r"tfmbe benchmark: run failed: [^\n]* at accepted step \d+ "
                        r"\(t = [^\n]*\)\n", err), err


@pytest.mark.parametrize("cmd,section,flags", [
    ("benchmark", {"grid_n": "16", "T": "0.02"}, ["--grid", "16", "--T", "0.02"]),
    ("ode-conv", {"n_list": "16,32"}, ["--N", "16,32"]),
    ("ode-conv", {"n_list": [16, 32], "seed": None}, ["--N", "16,32"])],
    ids=["benchmark-strings", "ode-conv-text", "ode-conv-list"])
def test_cli_config_strings_parse_as_flag_text(tmp_path, cmd, section, flags):
    path = _write_config(tmp_path, {cmd: section})
    assert cli_main(["--config", path, cmd, "--out", str(tmp_path / "cfg")]) == 0
    assert cli_main([cmd, *flags, "--out", str(tmp_path / "flags")]) == 0
    assert _tree_bytes(tmp_path / "cfg") == _tree_bytes(tmp_path / "flags")


@pytest.mark.parametrize("cmd,flags,driver,args,kwargs", CLI_DRIVERS,
                         ids=[c[0] for c in CLI_DRIVERS])
def test_cli_replays_run_json(tmp_path, cmd, flags, driver, args, kwargs):
    if cmd in ("benchmark", "coarsen"):
        flags = [*flags, "--save-field"]
    assert cli_main([cmd, *flags, "--out", str(tmp_path / "a")]) == 0
    inputs = _meta(tmp_path / "a")["inputs"]
    assert set(inputs) == set(inspect.signature(driver).parameters) - {"out_dir"}
    record = str(tmp_path / "a" / "run.json")
    assert cli_main(["--config", record, cmd, "--out", str(tmp_path / "b")]) == 0
    tree = _tree_bytes(tmp_path / "a")
    assert tree == _tree_bytes(tmp_path / "b")
    assert ("field_final.bin" in tree) == ("--save-field" in flags)


def _strict_json(text):
    """json.loads that rejects NaN and infinity, as RFC 8259 parsers do."""
    def reject(token):
        raise ValueError(f"{token} is not JSON")
    return json.loads(text, parse_constant=reject)


def test_run_json_is_strict_json(tmp_path):
    """A fit that cannot be made is null in run.json, its reason kept; the run replays."""
    assert cli_main(["coarsen", "--grid", "16", "--T", "0.01",
                     "--out", str(tmp_path / "a")]) == 0
    meta = _strict_json((tmp_path / "a" / "run.json").read_text())
    fits = meta["fits"]
    assert fits["beta"] is None and fits["R"] is None and "empty" in fits["reason"]
    record = str(tmp_path / "a" / "run.json")
    assert cli_main(["--config", record, "coarsen", "--out", str(tmp_path / "b")]) == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


@pytest.mark.parametrize("cmd,driver,kwargs,recorded", [
    ("benchmark", adaptive_benchmark, dict(model="slope", alpha=1, grid_n=8, T=0.02),
     {"alpha": 1.0, "grid_n": 8}),
    ("ode-conv", ode_convergence,
     dict(alpha=np.float64(0.5), n_list=np.array([8.0, 16.0]), seed=np.int64(3)),
     {"alpha": 0.5, "n_list": [8, 16], "seed": 3})],
    ids=["int-alpha", "array-n-list"])
def test_python_run_replays_byte_for_byte(tmp_path, cmd, driver, kwargs, recorded):
    """A run called from Python records its inputs as their flags parse them."""
    driver(**kwargs, out_dir=tmp_path / "a")
    record = str(tmp_path / "a" / "run.json")
    inputs = _strict_json((tmp_path / "a" / "run.json").read_text())["inputs"]
    for name, value in recorded.items():
        assert inputs[name] == value and type(inputs[name]) is type(value), name
    assert cli_main(["--config", record, cmd, "--out", str(tmp_path / "b")]) == 0
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def _benchmark_record(tmp_path, **changes):
    assert cli_main(["benchmark", "--grid", "8", "--T", "0.02",
                     "--out", str(tmp_path / "a")]) == 0
    meta = dict(_meta(tmp_path / "a"), **changes)
    return _write_config(tmp_path, meta)


def test_cli_replay_rejects_changed_constants(tmp_path, capsys):
    path = _benchmark_record(tmp_path, soe_eps=1e-8, M=2.0, prefix_n0=20)
    with pytest.raises(SystemExit) as stop:
        cli_main(["--config", path, "benchmark", "--grid", "8", "--T", "0.02",
                  "--out", str(tmp_path / "b")])
    assert stop.value.code == 2
    assert ("recorded constants that differ from this version's: M, prefix_n0, soe_eps"
            in capsys.readouterr().err)
    assert not (tmp_path / "b").exists()


def test_replay_rejects_a_record_without_inputs():
    record = {"driver": "adaptive_benchmark", **CONSTANTS["adaptive_benchmark"]}
    with pytest.raises(ValueError, match="predates replayable records"):
        record_inputs(record, "adaptive_benchmark")


def test_cli_replay_rejects_another_drivers_record(tmp_path, capsys):
    path = _benchmark_record(tmp_path)
    with pytest.raises(SystemExit) as stop:
        cli_main(["--config", path, "coarsen", "--grid", "8", "--T", "0.02",
                  "--out", str(tmp_path / "b")])
    assert stop.value.code == 2
    assert ("a run record of 'adaptive_benchmark', not of 'coarsening'"
            in capsys.readouterr().err)
    assert not (tmp_path / "b").exists()


@pytest.mark.parametrize("bad_trial", [10, 40], ids=["graded-prefix", "controller"])
def test_failed_run_writes_records_up_to_the_bad_step(monkeypatch, tmp_path, bad_trial):
    import tfmbe.adaptive as adaptive

    observables, trials = adaptive.trajectory_observables, iter(range(1, 10 ** 6))

    def spoiled(state, head=None):  # trial ``bad_trial`` has a NaN energy
        e_mod, *rest = observables(state, head)
        return (math.nan if next(trials) == bad_trial else e_mod, *rest)

    monkeypatch.setattr(adaptive, "trajectory_observables", spoiled)
    with pytest.raises(SolverError, match=r"energy_mod = nan at accepted step") as err:
        adaptive_benchmark("slope", 0.7, grid_n=16, T=0.1, out_dir=tmp_path)
    meta = _meta(tmp_path)
    assert meta["error"] == str(err.value)
    rows = (tmp_path / "steps.csv").read_text().splitlines()
    assert len(rows) == 1 + bad_trial - 1  # header, then every trial before it
    assert meta["n_accepted"] == sum(r.split(",")[7] == "1" for r in rows[1:])
    assert not (tmp_path / "field_final.bin").exists()


@pytest.mark.parametrize("strategy", ["uniform", "graded", "adaptive"])
@pytest.mark.parametrize("bad", [{"tau_min": -1.0}, {"tol": -5.0}, {"tau_min": 0.2}],
                         ids=["tau_min", "tol", "inverted"])
def test_benchmark_checks_controller_inputs_for_every_strategy(monkeypatch, strategy,
                                                               bad):
    import tfmbe.harness as harness

    def no_history(*args, **kwargs):
        raise AssertionError("history built before the controller inputs were checked")

    monkeypatch.setattr(harness, "make_history", no_history)
    with pytest.raises(ValueError, match=r"tolerance|tau_min <= tau_max"):
        adaptive_benchmark("slope", 0.7, strategy=strategy, grid_n=16, T=0.05, **bad)
