"""Experiment drivers: convergence tables, the adaptive benchmark, coarsening.

Every driver is a pure function of its arguments (seeds included) and
returns a report object; the CSV/JSON writers below render reports with
deterministic float formatting, so identical configurations reproduce
byte-identical output files.

The paper fixes the model parameters of each experiment, so they are
module constants, as are the settings no experiment varies; run.json
records them (``CONSTANTS`` holds each driver's) and the driver's inputs,
which ``record_inputs`` reads back to replay the run.  Every input has its
default in the driver's signature.  The trajectory drivers share one
body, ``_run_trajectory``.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields
from operator import attrgetter

import numpy as np

from . import __version__
from .adaptive import (_RHO, AdaptiveParams, StepRecord, _require_horizon,
                       adaptive_run, run_fixed)
from .diagnostics import (convergence_order, loglinear_fit, powerlaw_fit,
                          singularity_slope)
from .errors import SolverError
from .kernels import rl_weight
from .sav import CaputoHistory, cn_sav_step, commit_candidate, init_state, make_history
from .soe import _SOE_EPS, _VERIFY_SAMPLES, build_soe, verify_soe
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
    "soe_verify",
    "table_mesh",
    "write_steps_csv",
    "write_orders_csv",
    "write_run_meta",
    "record_inputs",
    "CONSTANTS",
    "INT_INPUTS",
]

# The paper's model parameters, one set per experiment (tables, growth, coarsening)
_TABLE_MODEL = {"M": 0.1, "beta": 1.0, "C0": 1.0, "eps2": 0.5}
_GROWTH_MODEL = {"M": 1.0, "beta": 4.0, "eps2": 0.1, "C0": 1.0}
_COARSEN_EPSILON = 0.03
_COARSEN_MODEL = dict(_GROWTH_MODEL, eps2=_COARSEN_EPSILON ** 2)
# initial-layer mesh end and the initial-field amplitudes
_SINGULARITY_T0, _SINGULARITY_AMPLITUDE, _COARSEN_AMPLITUDE = 1e-3, 0.1, 1e-3
# graded prefix and uniform step: the benchmark's defaults
_PREFIX_T0, _PREFIX_N0, _PREFIX_GAMMA = 0.01, 30, 3.0
_UNIFORM_TAU = 1e-3
# the scalar table's horizon: the paper's interval [0, 1]
_ODE_T = 1.0

# The driver inputs whose numbers are integers (``n_list`` a list of
# them); every other number input is a float, on the command line and in
# run.json
INT_INPUTS = frozenset({"n_list", "grid_n", "seed", "N0", "samples"})

# Each driver's constants, as run.json records them; a replayed record
# must still match them
CONSTANTS = {
    "ode_convergence": {"T": _ODE_T, "tail": "random"},
    "pde_convergence": {"tail": "random", **_TABLE_MODEL},
    "adaptive_benchmark": {**_GROWTH_MODEL, "prefix_t0": _PREFIX_T0,
                           "prefix_n0": _PREFIX_N0, "prefix_gamma": _PREFIX_GAMMA,
                           "uniform_tau": _UNIFORM_TAU, "soe_eps": _SOE_EPS,
                           "rho": _RHO, "tau_max": AdaptiveParams.tau_max},
    "coarsening": {"M": _COARSEN_MODEL["M"], "beta": _COARSEN_MODEL["beta"],
                   "epsilon": _COARSEN_EPSILON, "C0": _COARSEN_MODEL["C0"],
                   "tol": AdaptiveParams.tol, "rho": _RHO,
                   "prefix_n0": _PREFIX_N0, "prefix_gamma": _PREFIX_GAMMA,
                   "ic_amplitude": _COARSEN_AMPLITUDE, "soe_eps": _SOE_EPS,
                   "soe_mode": "fast"},
    "singularity_run": {"model": SLOPE, "T0": _SINGULARITY_T0, **_GROWTH_MODEL,
                        "ic_amplitude": _SINGULARITY_AMPLITUDE},
}


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


def _write_csv(path, cls, rows):
    """One header line of the dataclass ``cls``'s field names, then a line per row.

    The fields are ints and floats, which the csv module writes as such: an
    int in decimal, a float by its repr ("nan").
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        names = [f.name for f in fields(cls)]
        w.writerow(names)
        w.writerows(map(attrgetter(*names), rows))


def write_steps_csv(path, records):
    """Per-step log, one column per ``StepRecord`` field in field order."""
    _write_csv(path, StepRecord, records)


def write_orders_csv(path, rows):
    """Error/order table, one column per ``OrderRow`` field in field order."""
    _write_csv(path, OrderRow, rows)


def _finite(value):
    """``value`` with every non-finite float as None: JSON has no NaN or infinity."""
    if isinstance(value, dict):
        return {k: _finite(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite(v) for v in value]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return None
    return value


def write_run_meta(path, meta):
    """run.json: strict JSON, a NaN or infinite value (a fit that failed) written as null."""
    meta = dict(meta)
    meta.setdefault("package_version", __version__)
    with open(path, "w") as fh:
        json.dump(_finite(meta), fh, indent=2, sort_keys=True, default=float,
                  allow_nan=False)
        fh.write("\n")


def _parsed(name, value):
    """A driver input as its flag parses it: numbers as int or float, lists as lists."""
    if value is None or isinstance(value, (str, bool, np.bool_)):
        return value
    number = int if name in INT_INPUTS else float
    return [number(v) for v in value] if np.ndim(value) else number(value)


def _record(driver, inputs):
    """run.json's fields of a ``driver`` run: its ``inputs`` and its constants.

    ``inputs`` is the driver's ``locals()`` on entry.  All of them but
    ``out_dir`` go under "inputs", a config that replays the run; the top
    level repeats them, except the field switch and the fit window (which
    ``fits["window"]`` resolves).  Each is recorded as its flag parses it
    (``alpha=1`` as 1.0, an array ``n_list`` as a list of ints), so a run
    called from Python replays byte for byte.
    """
    inputs = {k: _parsed(k, v) for k, v in inputs.items() if k != "out_dir"}
    top = {k: v for k, v in inputs.items() if k not in ("save_field", "fit_window")}
    return {"driver": driver, **top, **CONSTANTS[driver], "inputs": inputs}


def record_inputs(record, driver):
    """The inputs of a run.json ``record`` of ``driver``, to run it again.

    A record of another driver, or one whose constants differ from this
    version's, is a ``ValueError`` naming them.
    """
    if record.get("driver") != driver:
        raise ValueError(f"a run record of {record.get('driver')!r}, not of {driver!r}")
    changed = sorted(k for k, v in CONSTANTS[driver].items() if record.get(k) != v)
    if changed:
        raise ValueError("recorded constants that differ from this version's: "
                         + ", ".join(changed))
    if "inputs" not in record:
        raise ValueError("the record has no inputs: it predates replayable records")
    return record["inputs"]


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

def table_mesh(T, N, gamma, seed):
    """Graded prefix on [0, T0], T0 = min(1/gamma, T), plus a random tail to T.

    Half the cells grade the prefix, half fill the tail.  gamma = 1 (or
    any T0 >= T) degenerates to a single graded segment, i.e. the uniform
    mesh for gamma = 1.
    """
    T0 = min(1.0 / gamma, T)
    if T0 >= T:
        return build_graded(T, N, gamma)
    if N < 2:
        raise ValueError(f"N = {N}: a graded prefix on [0, {T0:.6g}] plus a random "
                         f"tail to T = {T} needs N >= 2")
    n0 = N // 2
    return extend_random(build_graded(T0, n0, gamma), T, N - n0, seed)


def _order_table(error_of, meta, out_dir):
    """Error/order table of ``error_of(mesh)`` over the table meshes ``meta`` names."""
    if len(meta["n_list"]) == 0:
        raise ValueError("n_list is empty: the table needs at least one mesh")
    rows = []
    for N in meta["n_list"]:
        mesh = table_mesh(meta["T"], N, meta["gamma"], meta["seed"] + N)
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
    history.plan(mesh.taus)
    u = np.zeros(mesh.n_steps + 1)
    for n, tau in enumerate(mesh.taus, start=1):
        a0, hist = history.caputo_terms("cn", tau)
        t_mid = 0.5 * (levels[n - 1] + levels[n])
        rhs = source_mid(t_mid)
        du = (rhs if hist is None else rhs - hist) / a0
        history.commit(tau, du, level=n)
        u[n] = u[n - 1] + du
    return u


def ode_convergence(alpha=0.5, sigma=2.5, n_list=(64, 128, 256, 512), gamma=1.0,
                    seed=0, out_dir=None):
    """Error/order table for the scalar problem with exact solution w_{1+s}(t).

    The matching source is w_{1+s-a}(t) on the paper's interval [0, 1];
    the reported error is max_n |u(t_n) - u^n| and orders are formed
    against the max step size.
    """
    n_list = list(n_list)
    meta = _record("ode_convergence", locals())
    if sigma <= 0:
        raise ValueError(f"regularity parameter must be positive, got {sigma}")

    def error_of(mesh):
        u = solve_caputo_ode(mesh, alpha, lambda t: rl_weight(1.0 + sigma - alpha, t))
        return float(np.max(np.abs(rl_weight(1.0 + sigma, mesh.levels[1:]) - u[1:])))

    return _order_table(error_of, meta, out_dir)


def soe_verify(alpha=0.5, eps=_SOE_EPS, dt_min=1e-4, T=30.0, samples=_VERIFY_SAMPLES):
    """Build the exponential sum of w_{1-a} on [dt_min, T] and certify it.

    Returns the sum and its max kernel error over ``samples`` log-spaced times.
    """
    soe = build_soe(alpha, eps, dt_min, T)
    return soe, verify_soe(soe, samples)


# ---------------------------------------------------------------------------
# Manufactured PDE accuracy
# ---------------------------------------------------------------------------

def _nonlinearity(model):
    return slope_nonlinearity if model == SLOPE else noslope_nonlinearity


def pde_convergence(model=SLOPE, alpha=0.8, sigma=0.4, gamma=5.0,
                    n_list=(64, 128, 256, 512), grid_n=64, T=1.0, seed=1, out_dir=None):
    """Error/order table for the forced growth model with a separable exact field.

    The exact solution is w_{1+s}(t) sin(x) sin(y); the matching source is
    assembled pseudo-spectrally from the exact field and sampled at the
    cell midpoint.  The model parameters are the tables' (M = 0.1,
    beta = 1, C0 = 1, eps2 = 0.5).  Errors are pointwise max over grid
    and levels.
    """
    n_list = list(n_list)
    meta = _record("pde_convergence", locals())
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
        state.history.plan(mesh.taus)
        err = 0.0
        for k in range(1, mesh.n_steps + 1):
            cand = cn_sav_step(state, float(mesh.taus[k - 1]), source=source)
            commit_candidate(state, cand)
            state.t = float(mesh.levels[k])
            exact = rl_weight(1.0 + sigma, state.t) * shape_field
            err = max(err, float(np.max(np.abs(exact - state.phi))))
        return err

    return _order_table(error_of, meta, out_dir)


# ---------------------------------------------------------------------------
# Benchmark and coarsening dynamics
# ---------------------------------------------------------------------------

def _check_prefix_end(what, prefix, T):
    """A run must not end inside its graded prefix, which is marched whole."""
    if prefix.T > T:
        raise ValueError(f"{what}: the graded prefix ends at t = {prefix.T:.6g}, "
                         f"after T = {T}")


def _run_trajectory(meta, grid, params, phi0, history, mesh, aparams=None, T=None,
                    fitters=None, out_dir=None, save_field=False):
    """Initial state, time loop, report and files of every trajectory.

    ``mesh`` is marched whole, then ``aparams`` (if given) drives the
    controller to ``T``; ``fitters`` maps each fit's name to a function of
    the records, and a fit that raises ``ValueError`` is NaN, with the first
    such message under ``fits["reason"]``.  A controller run's run.json
    counts the floor steps accepted with e >= tol and gives their largest e
    (0 when there are none).  A ``SolverError`` still writes ``steps.csv``
    and ``run.json`` (with the message under ``"error"``) for the records
    up to the failing step before it propagates.
    """
    state = init_state(grid, phi0, params, history)
    records, error = [], None
    try:
        records += run_fixed(state, mesh)
        if aparams is not None:
            records += adaptive_run(state, aparams, T)
    except SolverError as err:
        records, error = records + list(err.records), err
    report = RunReport(records, dict(meta, energy_mod_initial=state.energy0))
    report.meta["n_accepted"] = report.n_accepted
    if aparams is not None:
        over = [r.e_est for r in report.accepted if r.e_est >= aparams.tol]
        report.meta.update(floor_accepts_over_tol=len(over),
                           floor_accept_e_max=max(over, default=0.0))
    if error is not None:
        report.meta["error"] = str(error)
        _emit(out_dir, report)
        raise error
    for name, fitter in (fitters or {}).items():
        try:
            report.fits[name] = fitter(records)
        except ValueError as err:
            report.fits[name] = math.nan
            report.fits.setdefault("reason", str(err))
    report.final_phi = state.phi
    _emit(out_dir, report)
    if save_field and out_dir is not None:
        write_field(os.path.join(out_dir, "field_final.bin"), grid, state.phi)
    return report


def singularity_run(alpha=0.4, grid_n=32, N0=200, gamma=3.0, out_dir=None):
    """Graded-mesh slope-model run on [0, 1e-3] probing the initial layer, with its fit.

    A single-mode initial state keeps the fast-relaxing harmonics out of
    the max-norm quotient, so the early-window slope of
    log|dphi/dt| vs log(t) exposes the exponent alpha - 1.  A mesh too
    short to fit gives a NaN slope and ``fits["reason"]``.
    """
    meta = _record("singularity_run", locals())
    grid = Grid2D(grid_n)
    params = ModelParams(model=SLOPE, **_GROWTH_MODEL)
    phi0 = _SINGULARITY_AMPLITUDE * np.sin(grid.x) * np.sin(grid.y)

    def slope(records):
        t_mid = np.array([r.t - 0.5 * r.tau for r in records])
        quot = np.array([r.dphi_dt_max for r in records])
        return singularity_slope(t_mid, quot)

    return _run_trajectory(meta, grid, params, phi0,
                           make_history(alpha, mode="direct"),
                           build_graded(_SINGULARITY_T0, N0, gamma),
                           fitters={"singularity_slope": slope,
                                    "target": lambda records: alpha - 1.0},
                           out_dir=out_dir)


def _benchmark_phi0(grid):
    return 0.1 * (np.sin(3 * grid.x) * np.sin(2 * grid.y)
                  + np.sin(5 * grid.x) * np.sin(5 * grid.y))


def adaptive_benchmark(model=SLOPE, alpha=0.7, strategy="adaptive", grid_n=128, T=30.0,
                       tol=AdaptiveParams.tol, tau_min=AdaptiveParams.tau_min,
                       soe_mode="fast", out_dir=None, save_field=False):
    """Film-growth benchmark from the smooth two-mode initial state.

    strategy "uniform" marches round(T / 1e-3) equal steps, "graded" a
    graded prefix (30 steps to t = 0.01) plus a uniform tail with the same
    total step count, and "adaptive" the estimator-driven controller after
    the graded prefix, which must end by T.  The controller inputs are
    checked for every strategy, since run.json records them.  The modified
    energy is verified against its initial value.  ``T`` must be finite and
    positive.
    """
    meta = _record("adaptive_benchmark", locals())
    _require_horizon(T)
    controller = AdaptiveParams(tol=tol, tau_min=tau_min)
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
        mesh, dt_min, aparams = prefix, tau_min, controller
    else:
        raise ValueError(f"unknown strategy {strategy!r}")

    history = make_history(alpha, mode=soe_mode, dt_min=dt_min, T=T)
    return _run_trajectory(meta, grid, params, _benchmark_phi0(grid), history, mesh,
                           aparams, T, out_dir=out_dir, save_field=save_field)


def coarsening(model=SLOPE, alpha=0.7, grid_n=128, T=500.0, seed=2023, tau_min=None,
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
    empty); a ``fit_window`` with lo >= hi raises ``ValueError``, and so
    does a ``T`` that is not finite and positive.
    """
    meta = _record("coarsening", locals())
    _require_horizon(T)
    if fit_window is not None and not fit_window[0] < fit_window[1]:
        raise ValueError(f"fit_window {tuple(fit_window)} is empty: need lo < hi")
    if tau_min is None:
        tau_min = 1.25e-4 if model == SLOPE else 3.32e-5
    meta["tau_min"] = tau_min  # the top level gives the floor the run used
    aparams = AdaptiveParams(tau_min=tau_min, tau_max=tau_max)
    grid = Grid2D(grid_n)
    params = ModelParams(model=model, **_COARSEN_MODEL)
    rng = np.random.default_rng(seed)
    phi0 = rng.uniform(-_COARSEN_AMPLITUDE, _COARSEN_AMPLITUDE, size=grid.shape)

    # prefix whose final step matches the controller floor
    shrink = 1.0 - ((_PREFIX_N0 - 1) / _PREFIX_N0) ** _PREFIX_GAMMA
    prefix = build_graded(tau_min / shrink, _PREFIX_N0, _PREFIX_GAMMA)
    _check_prefix_end("coarsening", prefix, T)

    history = make_history(alpha, mode="fast", dt_min=tau_min, T=T)
    window = fit_window if fit_window is not None else (1.0, min(500.0, T))

    def series(records, name):
        """Times and ``name`` values of the accepted steps."""
        if not window[0] < window[1]:
            raise ValueError(f"default fit window {list(window)} is empty for T < 1; "
                             "pass fit_window")
        acc = [r for r in records if r.accepted]
        return (np.array([r.t for r in acc]),
                np.array([getattr(r, name) for r in acc]))

    fitters = {"window": lambda records: list(window),
               "beta": lambda records:
                   -powerlaw_fit(*series(records, "energy_orig"), window)[0],
               "R": lambda records: powerlaw_fit(*series(records, "roughness"), window)[0],
               "energy_semilog_slope": lambda records:
                   loglinear_fit(*series(records, "energy_orig"), window)[0]}

    return _run_trajectory(meta, grid, params, phi0, history, prefix, aparams, T,
                           fitters=fitters, out_dir=out_dir, save_field=save_field)
