"""Experiment drivers: convergence tables, the adaptive benchmark, coarsening.

Every driver is a pure function of its arguments (seeds included) and
returns a report object; the CSV/JSON writers below render reports with
deterministic float formatting, so identical configurations reproduce
byte-identical output files.

The paper fixes the model parameters of each experiment, so they are
module constants, as are the settings no experiment varies; run.json
records them.  The trajectory drivers share one body, ``_run_trajectory``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import __version__
from .adaptive import _MAX_RETRIES, AdaptiveParams, StepRecord, adaptive_run, run_fixed
from .diagnostics import (convergence_order, loglinear_fit, powerlaw_fit,
                          singularity_slope)
from .errors import SolverError
from .kernels import rl_weight
from .sav import (CaputoHistory, cn_sav_step, commit_candidate, init_state,
                  make_history, trajectory_observables)
from .spectral import (SLOPE, Grid2D, ModelParams, noslope_nonlinearity,
                       slope_nonlinearity, write_field)
from .timemesh import build_graded, build_uniform, extend_random, extend_uniform

__all__ = [
    "OrderRow",
    "ConvergenceReport",
    "RunReport",
    "solve_caputo_ode",
    "ode_convergence",
    "pde_convergence",
    "adaptive_benchmark",
    "coarsening",
    "singularity_run",
    "write_steps_csv",
    "write_orders_csv",
    "write_run_meta",
    "energy_bound_violation",
]

# The paper's model parameters, one set per experiment (tables, growth, coarsening)
_TABLE_MODEL = {"M": 0.1, "beta": 1.0, "C0": 1.0, "eps2": 0.5}
_GROWTH_MODEL = {"M": 1.0, "beta": 4.0, "eps2": 0.1, "C0": 1.0}
_COARSEN_EPSILON = 0.03
_COARSEN_MODEL = dict(_GROWTH_MODEL, eps2=_COARSEN_EPSILON ** 2)
# initial-layer mesh end and the initial-field amplitudes
_SINGULARITY_T0, _SINGULARITY_AMPLITUDE, _COARSEN_AMPLITUDE = 1e-3, 0.1, 1e-3
# graded prefix, uniform step and exponential sum: the benchmark's defaults
_PREFIX_T0, _PREFIX_N0, _PREFIX_GAMMA = 0.01, 30, 3.0
_UNIFORM_TAU, _SOE_EPS = 1e-3, 1e-10


# ---------------------------------------------------------------------------
# Reports and writers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OrderRow:
    n_steps: int
    tau_max: float
    error: float
    order: float  # nan on the first row


@dataclass
class ConvergenceReport:
    rows: list
    meta: dict

    @property
    def errors(self):
        return [r.error for r in self.rows]

    @property
    def orders(self):
        return [r.order for r in self.rows[1:]]


@dataclass
class RunReport:
    records: list
    meta: dict
    fits: dict = field(default_factory=dict)
    final_phi: np.ndarray = None

    @property
    def accepted(self):
        return [r for r in self.records if r.accepted]

    @property
    def n_accepted(self):
        return len(self.accepted)


def _fmt(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    v = float(v)
    return "nan" if math.isnan(v) else repr(v)


def write_steps_csv(path, records):
    """Per-step log, one column per ``StepRecord`` field in field order."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        names = [f.name for f in fields(StepRecord)]
        w.writerow(names)
        for r in records:
            w.writerow([_fmt(getattr(r, name)) for name in names])


def write_orders_csv(path, rows):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["n_steps", "tau_max", "error", "order"])
        for r in rows:
            w.writerow([r.n_steps, _fmt(r.tau_max), _fmt(r.error), _fmt(r.order)])


def write_run_meta(path, meta):
    meta = dict(meta)
    meta.setdefault("package_version", __version__)
    with open(path, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")


def _emit(out_dir, report):
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    if isinstance(report, ConvergenceReport):
        write_orders_csv(os.path.join(out_dir, "orders.csv"), report.rows)
    else:
        write_steps_csv(os.path.join(out_dir, "steps.csv"), report.records)
        if report.fits:
            report.meta["fits"] = report.fits
    write_run_meta(os.path.join(out_dir, "run.json"), report.meta)


# ---------------------------------------------------------------------------
# Meshes for the table runs
# ---------------------------------------------------------------------------

def table_mesh(T, N, gamma, seed, tail="random"):
    """Graded prefix on [0, T0], T0 = min(1/gamma, T), plus a tail to T.

    Half the cells grade the prefix, half fill the tail (random by
    default).  gamma = 1 (or any T0 >= T) degenerates to a single graded
    segment, i.e. the uniform mesh for gamma = 1.
    """
    T0 = min(1.0 / gamma, T)
    if T0 >= T:
        return build_graded(T, N, gamma)
    n0 = N // 2
    prefix = build_graded(T0, n0, gamma)
    if tail == "random":
        return extend_random(prefix, T, N - n0, seed)
    if tail == "uniform":
        return extend_uniform(prefix, T, N - n0)
    raise ValueError(f"unknown tail kind {tail!r}")


def _order_table(error_of, meta, out_dir):
    """Error/order table of ``error_of(mesh)`` over the table meshes ``meta`` names."""
    rows = []
    for N in meta["n_list"]:
        mesh = table_mesh(meta["T"], N, meta["gamma"], meta["seed"] + N,
                          tail=meta["tail"])
        err = error_of(mesh)
        order = math.nan if not rows else convergence_order(
            [rows[-1].error, err], [rows[-1].tau_max, mesh.tau_max])[0]
        rows.append(OrderRow(N, mesh.tau_max, err, order))
    report = ConvergenceReport(rows, meta)
    _emit(out_dir, report)
    return report


# ---------------------------------------------------------------------------
# Scalar problems
# ---------------------------------------------------------------------------

def solve_caputo_ode(mesh, alpha, source_mid):
    """Midpoint collocation for d_t^a u = f, u(0) = 0: averaged d_t^a u = f(t_mid)."""
    levels = mesh.levels
    history = CaputoHistory(alpha)
    u = np.zeros(mesh.n_steps + 1)
    for n, tau in enumerate(mesh.taus, start=1):
        a0, hist = history.caputo_terms("cn", tau)
        t_mid = 0.5 * (levels[n - 1] + levels[n])
        rhs = source_mid(t_mid)
        du = (rhs if hist is None else rhs - hist) / a0
        history.commit(tau, du, level=n)
        u[n] = u[n - 1] + du
    return u


def ode_convergence(alpha, sigma, n_list, T=1.0, gamma=1.0, seed=0,
                    tail="random", out_dir=None):
    """Error/order table for the scalar problem with exact solution w_{1+s}(t).

    The matching source is w_{1+s-a}(t); the reported error is
    max_n |u(t_n) - u^n| and orders are formed against the max step size.
    """
    if sigma <= 0:
        raise ValueError(f"regularity parameter must be positive, got {sigma}")

    def error_of(mesh):
        u = solve_caputo_ode(mesh, alpha, lambda t: rl_weight(1.0 + sigma - alpha, t))
        return float(np.max(np.abs(rl_weight(1.0 + sigma, mesh.levels[1:]) - u[1:])))

    return _order_table(error_of, {
        "driver": "ode_convergence", "alpha": alpha, "sigma": sigma,
        "T": T, "gamma": gamma, "seed": seed, "tail": tail,
        "n_list": list(n_list)}, out_dir)


# ---------------------------------------------------------------------------
# Manufactured PDE accuracy
# ---------------------------------------------------------------------------

def _nonlinearity(model):
    return slope_nonlinearity if model == SLOPE else noslope_nonlinearity


def pde_convergence(model, alpha, sigma, gamma, n_list, grid_n=64, T=1.0,
                    seed=1, tail="random", out_dir=None):
    """Error/order table for the forced growth model with a separable exact field.

    The exact solution is w_{1+s}(t) sin(x) sin(y); the matching source is
    assembled pseudo-spectrally from the exact field and sampled at the
    cell midpoint.  The model parameters are the tables' (M = 0.1,
    beta = 1, C0 = 1, eps2 = 0.5).  Errors are pointwise max over grid
    and levels.
    """
    if sigma <= 0:
        raise ValueError(f"regularity parameter must be positive, got {sigma}")
    grid = Grid2D(grid_n)
    params = ModelParams(model=model, **_TABLE_MODEL)
    shape_field = np.sin(grid.x) * np.sin(grid.y)  # Lap^2 shape_field = 4 shape_field
    nonlin = _nonlinearity(model)

    def source(t):
        phi_ex = rl_weight(1.0 + sigma, t) * shape_field
        return (rl_weight(1.0 + sigma - alpha, t) * shape_field
                + params.M * (4.0 * params.eps2 * phi_ex + nonlin(grid, phi_ex)))

    def error_of(mesh):
        state = init_state(grid, np.zeros(grid.shape), params,
                           make_history(alpha, mode="direct"))
        err = 0.0
        for k in range(1, mesh.n_steps + 1):
            cand = cn_sav_step(state, float(mesh.taus[k - 1]), source=source)
            commit_candidate(state, cand)
            state.t = float(mesh.levels[k])
            exact = rl_weight(1.0 + sigma, state.t) * shape_field
            err = max(err, float(np.max(np.abs(exact - state.phi))))
        return err

    return _order_table(error_of, {
        "driver": "pde_convergence", "model": model, "alpha": alpha,
        "sigma": sigma, "gamma": gamma, "grid_n": grid_n, "T": T,
        "seed": seed, "tail": tail, **_TABLE_MODEL, "n_list": list(n_list)}, out_dir)


# ---------------------------------------------------------------------------
# Benchmark and coarsening dynamics
# ---------------------------------------------------------------------------

def energy_bound_violation(records, e0):
    """Worst exceedance of the dissipation bound E(n) <= E(0) over a trajectory."""
    worst = 0.0
    for r in records:
        if r.accepted:
            worst = max(worst, r.energy_mod - e0)
    return worst


def _check_energy_bound(records, e0):
    slack = 1e-9 * abs(e0)
    worst = energy_bound_violation(records, e0)
    if worst > slack:
        raise SolverError(
            f"energy bound violated: max E(n) - E(0) = {worst:.3e} > {slack:.3e}")


def _check_prefix_end(what, prefix, T):
    """A run must not end inside its graded prefix, which is marched whole."""
    if prefix.T > T:
        raise ValueError(f"{what}: the graded prefix ends at t = {prefix.T:.6g}, "
                         f"after T = {T}")


def _run_trajectory(meta, grid, params, phi0, history, mesh, aparams=None, T=None,
                    fit=None, out_dir=None, save_field=False):
    """Initial state, time loop, energy check, report and files of every trajectory.

    ``mesh`` is marched whole, then ``aparams`` (if given) drives the
    controller to ``T``; ``fit(records)`` gives the fits.
    """
    state = init_state(grid, phi0, params, history)
    e0 = trajectory_observables(state)[0]
    records = run_fixed(state, mesh)
    if aparams is not None:
        records += adaptive_run(state, aparams, T)
    _check_energy_bound(records, e0)
    report = RunReport(records, dict(meta, energy_mod_initial=e0),
                       fits={} if fit is None else fit(records), final_phi=state.phi)
    report.meta["n_accepted"] = report.n_accepted
    _emit(out_dir, report)
    if save_field and out_dir is not None:
        write_field(os.path.join(out_dir, "field_final.bin"), grid, state.phi)
    return report


def singularity_run(alpha, grid_n=32, N0=200, gamma=3.0, out_dir=None):
    """Graded-mesh slope-model run on [0, 1e-3] probing the initial layer, with its fit.

    A single-mode initial state keeps the fast-relaxing harmonics out of
    the max-norm quotient, so the early-window slope of
    log|dphi/dt| vs log(t) exposes the exponent alpha - 1.
    """
    grid = Grid2D(grid_n)
    params = ModelParams(model=SLOPE, **_GROWTH_MODEL)
    phi0 = _SINGULARITY_AMPLITUDE * np.sin(grid.x) * np.sin(grid.y)

    def fit(records):
        t_mid = np.array([r.t - 0.5 * r.tau for r in records])
        quot = np.array([r.dphi_dt_max for r in records])
        return {"singularity_slope": singularity_slope(t_mid, quot),
                "target": alpha - 1.0}

    meta = {"driver": "singularity_run", "model": SLOPE, "alpha": alpha,
            "grid_n": grid_n, "T0": _SINGULARITY_T0, "N0": N0, "gamma": gamma,
            **_GROWTH_MODEL, "ic_amplitude": _SINGULARITY_AMPLITUDE}
    return _run_trajectory(meta, grid, params, phi0,
                           make_history(alpha, mode="direct"),
                           build_graded(_SINGULARITY_T0, N0, gamma), fit=fit,
                           out_dir=out_dir)


def _benchmark_phi0(grid):
    return 0.1 * (np.sin(3 * grid.x) * np.sin(2 * grid.y)
                  + np.sin(5 * grid.x) * np.sin(5 * grid.y))


def adaptive_benchmark(model, alpha, strategy="adaptive", grid_n=128, T=30.0,
                       tol=AdaptiveParams.tol, rho=AdaptiveParams.rho,
                       tau_min=AdaptiveParams.tau_min, tau_max=AdaptiveParams.tau_max,
                       soe_eps=_SOE_EPS, soe_mode="fast", out_dir=None,
                       save_field=False):
    """Film-growth benchmark from the smooth two-mode initial state.

    strategy "uniform" marches round(T / 1e-3) equal steps, "graded" a
    graded prefix (30 steps to t = 0.01) plus a uniform tail with the same
    total step count, and "adaptive" the estimator-driven controller after
    the graded prefix, which must end by T.  The modified energy is
    verified against its initial value.
    """
    grid = Grid2D(grid_n)
    params = ModelParams(model=model, **_GROWTH_MODEL)
    prefix = build_graded(_PREFIX_T0, _PREFIX_N0, _PREFIX_GAMMA)
    aparams = None
    if strategy == "uniform":
        n_total = int(round(T / _UNIFORM_TAU))
        if n_total < 1:
            raise ValueError(
                f"strategy 'uniform' needs at least one step of uniform_tau = "
                f"{_UNIFORM_TAU} up to T = {T}, got round(T/uniform_tau) = 0")
        mesh = build_uniform(T, n_total)
        dt_min = float(np.min(mesh.taus))
    elif strategy == "graded":
        # more steps than the prefix also puts the prefix's end before T
        n_total = int(round(T / _UNIFORM_TAU))
        if n_total <= _PREFIX_N0:
            raise ValueError(
                f"strategy 'graded' needs more than prefix_n0 = {_PREFIX_N0} "
                f"steps of uniform_tau = {_UNIFORM_TAU} up to T = {T}, got "
                f"round(T/uniform_tau) = {n_total}")
        mesh = extend_uniform(prefix, T, n_total - prefix.n_steps)
        dt_min = float(np.min(mesh.taus[prefix.n_steps:]))
    elif strategy == "adaptive":
        _check_prefix_end("strategy 'adaptive'", prefix, T)
        mesh, dt_min, aparams = prefix, tau_min, AdaptiveParams(
            rho=rho, tol=tol, tau_min=tau_min, tau_max=tau_max)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    history = make_history(alpha, mode=soe_mode, dt_min=dt_min, T=T, eps=soe_eps)
    meta = {"driver": "adaptive_benchmark", "model": model, "alpha": alpha,
            "strategy": strategy, "grid_n": grid_n, "T": T, **_GROWTH_MODEL,
            "tol": tol, "rho": rho, "tau_min": tau_min, "tau_max": tau_max,
            "max_retries": _MAX_RETRIES, "prefix_t0": _PREFIX_T0,
            "prefix_n0": _PREFIX_N0, "prefix_gamma": _PREFIX_GAMMA,
            "uniform_tau": _UNIFORM_TAU, "soe_eps": soe_eps, "soe_mode": soe_mode}
    return _run_trajectory(meta, grid, params, _benchmark_phi0(grid), history, mesh,
                           aparams, T, out_dir=out_dir, save_field=save_field)


def coarsening(model, alpha, grid_n=128, T=500.0, seed=2023, tau_min=None,
               tau_max=AdaptiveParams.tau_max, fit_window=None, out_dir=None,
               save_field=False):
    """Coarsening dynamics from a seeded random initial state, with power-law fits.

    The graded prefix, which must end by T, is sized so its last step
    equals tau_min (default 1.25e-4 for the slope model, 3.32e-5 for the
    no-slope model), and the history is the exponential sum ("fast" mode).
    Fits over ``fit_window`` (default [1, min(500, T)]): energy and
    roughness exponents from the log-log least squares, plus a semilog
    energy slope for the no-slope model.  A fit that cannot be made is
    NaN, and ``fits["reason"]`` says why (for T < 1 the default window is
    empty); a ``fit_window`` with lo >= hi raises ``ValueError``.
    """
    if fit_window is not None and not fit_window[0] < fit_window[1]:
        raise ValueError(f"fit_window {tuple(fit_window)} is empty: need lo < hi")
    if tau_min is None:
        tau_min = 1.25e-4 if model == SLOPE else 3.32e-5
    aparams = AdaptiveParams(tau_min=tau_min, tau_max=tau_max)
    grid = Grid2D(grid_n)
    params = ModelParams(model=model, **_COARSEN_MODEL)
    rng = np.random.default_rng(seed)
    phi0 = rng.uniform(-_COARSEN_AMPLITUDE, _COARSEN_AMPLITUDE, size=grid.shape)

    # prefix whose final step matches the controller floor
    shrink = 1.0 - ((_PREFIX_N0 - 1) / _PREFIX_N0) ** _PREFIX_GAMMA
    prefix = build_graded(tau_min / shrink, _PREFIX_N0, _PREFIX_GAMMA)
    _check_prefix_end("coarsening", prefix, T)

    history = make_history(alpha, mode="fast", dt_min=tau_min, T=T, eps=_SOE_EPS)
    window = fit_window if fit_window is not None else (1.0, min(500.0, T))

    def fit(records):
        acc = [r for r in records if r.accepted]
        times = np.array([r.t for r in acc])
        energies = np.array([r.energy_orig for r in acc])
        roughnesses = np.array([r.roughness for r in acc])
        fits = {"window": list(window)}
        if not window[0] < window[1]:
            fits["reason"] = (f"default fit window {list(window)} is empty for T < 1; "
                              "pass fit_window")
        fitters = {"beta": lambda: -powerlaw_fit(times, energies, window)[0],
                   "R": lambda: powerlaw_fit(times, roughnesses, window)[0],
                   "energy_semilog_slope":
                       lambda: loglinear_fit(times, energies, window)[0]}
        for name, fitter in fitters.items():
            try:
                fits[name] = fitter()
            except ValueError as err:
                fits[name] = math.nan
                fits.setdefault("reason", str(err))
        return fits

    meta = {"driver": "coarsening", "model": model, "alpha": alpha,
            "grid_n": grid_n, "T": T, "seed": seed, "M": params.M,
            "beta": params.beta, "epsilon": _COARSEN_EPSILON, "C0": params.C0,
            "tol": aparams.tol, "rho": aparams.rho, "tau_min": tau_min,
            "tau_max": tau_max,
            "prefix_n0": _PREFIX_N0, "prefix_gamma": _PREFIX_GAMMA,
            "ic_amplitude": _COARSEN_AMPLITUDE, "soe_eps": _SOE_EPS,
            "soe_mode": "fast"}
    return _run_trajectory(meta, grid, params, phi0, history, prefix, aparams, T,
                           fit=fit, out_dir=out_dir, save_field=save_field)
