import json
import math

import numpy as np
import pytest

from tfmbe import (Grid2D, ModelParams, adaptive_benchmark, build_graded,
                   coarsening, init_state, make_history, ode_convergence,
                   pde_convergence, read_field, singularity_run,
                   trajectory_observables)
from tfmbe.cli import main as cli_main
from tfmbe.harness import _benchmark_phi0, energy_bound_violation, table_mesh


def test_ode_convergence_rejects_bad_sigma():
    with pytest.raises(ValueError):
        ode_convergence(0.5, -1.0, [16, 32])


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
    fixed = table_mesh(1.0, 64, 4.0, seed=0, tail="uniform")
    assert np.allclose(fixed.taus[32:], 0.75 / 32)
    with pytest.raises(ValueError):
        table_mesh(1.0, 64, 4.0, seed=0, tail="sorted")
    # T0 = min(1/gamma, T): a horizon within 1/gamma is one graded segment
    short = table_mesh(0.1, 16, 2.0, seed=0)
    assert np.array_equal(short.levels, build_graded(0.1, 16, 2.0).levels)


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


def test_uniform_strategy_needs_a_step():
    with pytest.raises(ValueError, match=r"'uniform'.*uniform_tau = 0\.001 "
                                         r"up to T = 0\.0004"):
        adaptive_benchmark("slope", 0.7, strategy="uniform", grid_n=16, T=4e-4)


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
    assert {k: meta[k] for k in ("max_retries", "prefix_t0", "prefix_n0",
                                 "prefix_gamma", "uniform_tau")} == \
        {"max_retries": 10, "prefix_t0": 0.01, "prefix_n0": 30,
         "prefix_gamma": 3.0, "uniform_tau": 0.001}


def test_singularity_run_records_model_constants(tmp_path):
    singularity_run(0.4, grid_n=16, N0=8, out_dir=tmp_path)
    meta = _meta(tmp_path)
    assert {k: meta[k] for k in GROWTH_MODEL} == GROWTH_MODEL
    assert (meta["T0"], meta["ic_amplitude"], meta["n_accepted"]) == (1e-3, 0.1, 8)
    assert meta["model"] == "slope"


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
    calls = []
    fft, ifft = Grid2D.fft, Grid2D.ifft
    monkeypatch.setattr(Grid2D, "fft", lambda g, f: calls.append(1) or fft(g, f))
    monkeypatch.setattr(Grid2D, "ifft", lambda g, f: calls.append(1) or ifft(g, f))
    # at alpha = 1 neither candidate transforms a history sum (there is none)
    for alpha, per_step in ((0.7, 10), (1.0, 7)):
        calls.clear()
        rep = adaptive_benchmark("slope", alpha, grid_n=16, T=0.05)
        assert rep.n_accepted > 30  # past the graded prefix
        assert len(calls) <= per_step * rep.n_accepted


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


def test_cli_config_ignores_keys_that_are_not_flags(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"benchmark": {
        "grid_n": 16, "T": 0.02, "M": 5.0, "out_dir": str(tmp_path / "cli")}}))
    assert cli_main(["--config", str(cfg_path), "benchmark"]) == 0
    adaptive_benchmark("slope", 0.7, grid_n=16, T=0.02,
                       out_dir=tmp_path / "direct")
    assert _tree_bytes(tmp_path / "cli") == _tree_bytes(tmp_path / "direct")
