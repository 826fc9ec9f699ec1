"""Command line entry points for the experiment drivers.

Subcommands: ode-conv, pde-conv, benchmark, coarsen, singularity,
soe-verify.  Options may come from a JSON config file (one section per
subcommand) with explicit flags taking precedence; an option set by
neither takes the driver's own keyword default.  Every run writes its
resolved parameters to run.json next to the CSV output.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness
from .soe import build_soe, verify_soe


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


def _load_section(path, section):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    return cfg.get(section, {})


def _resolve(args, cfg, defaults):
    """defaults < config file < explicit flags (argparse leaves None when unset).

    An option in none of the three is not passed, so the driver's keyword
    default applies; config keys that are not flags of the subcommand are
    ignored.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
    out = dict(defaults)
    out.update({k: v for k, v in cfg.items() if k in flags})
    out.update({k: v for k, v in flags.items() if v is not None})
    return out


def _print_orders(report):
    print("n_steps  tau_max      error        order")
    for r in report.rows:
        order = "-" if r.order != r.order else f"{r.order:.2f}"
        print(f"{r.n_steps:7d}  {r.tau_max:.3e}  {r.error:.3e}  {order}")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tfmbe",
        description="time-fractional MBE growth model experiments")
    parser.add_argument("--config", help="JSON config file with per-command sections")
    sub = parser.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("ode-conv", help="scalar Caputo problem error/order table")
    p.add_argument("--alpha", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--N", dest="n_list", type=_int_list)
    p.add_argument("--gamma", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tail", choices=("random", "uniform"))
    p.add_argument("--out", dest="out_dir")

    p = sub.add_parser("pde-conv", help="forced growth-model error/order table")
    p.add_argument("--model", choices=("slope", "noslope"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--gamma", type=float)
    p.add_argument("--N", dest="n_list", type=_int_list)
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tail", choices=("random", "uniform"))
    p.add_argument("--out", dest="out_dir")

    p = sub.add_parser("benchmark", help="two-mode film growth benchmark")
    p.add_argument("--model", choices=("slope", "noslope"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--strategy", choices=("uniform", "graded", "adaptive"))
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--tol", type=float)
    p.add_argument("--rho", type=float)
    p.add_argument("--tau-min", dest="tau_min", type=float)
    p.add_argument("--tau-max", dest="tau_max", type=float)
    p.add_argument("--soe-eps", dest="soe_eps", type=float)
    p.add_argument("--soe-mode", dest="soe_mode", choices=("fast", "direct"))
    p.add_argument("--save-field", dest="save_field", action="store_true",
                   default=None)
    p.add_argument("--out", dest="out_dir")

    p = sub.add_parser("coarsen", help="coarsening dynamics with power-law fits")
    p.add_argument("--model", choices=("slope", "noslope"))
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--T", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--tau-min", dest="tau_min", type=float)
    p.add_argument("--tau-max", dest="tau_max", type=float)
    p.add_argument("--window", dest="fit_window", type=float, nargs=2)
    p.add_argument("--save-field", dest="save_field", action="store_true",
                   default=None)
    p.add_argument("--out", dest="out_dir")

    p = sub.add_parser("singularity", help="initial-layer slope on a graded mesh")
    p.add_argument("--alpha", type=float)
    p.add_argument("--grid", dest="grid_n", type=int)
    p.add_argument("--N0", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--out", dest="out_dir")

    p = sub.add_parser("soe-verify", help="build and certify an exponential sum")
    p.add_argument("--alpha", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--dt-min", dest="dt_min", type=float)
    p.add_argument("--T", type=float)
    p.add_argument("--samples", type=int)

    args = parser.parse_args(argv)
    cfg = _load_section(args.config, args.cmd)

    if args.cmd == "ode-conv":
        opts = _resolve(args, cfg, dict(
            alpha=0.5, sigma=2.5, n_list=[64, 128, 256, 512]))
        report = harness.ode_convergence(**opts)
        _print_orders(report)
    elif args.cmd == "pde-conv":
        opts = _resolve(args, cfg, dict(
            model="slope", alpha=0.8, sigma=0.4, gamma=5.0,
            n_list=[64, 128, 256, 512]))
        report = harness.pde_convergence(**opts)
        _print_orders(report)
    elif args.cmd == "benchmark":
        opts = _resolve(args, cfg, dict(model="slope", alpha=0.7))
        report = harness.adaptive_benchmark(**opts)
        print(f"accepted steps: {report.n_accepted} "
              f"(records incl. rejected trials: {len(report.records)})")
    elif args.cmd == "coarsen":
        opts = _resolve(args, cfg, dict(model="slope", alpha=0.7))
        report = harness.coarsening(**opts)
        print(f"accepted steps: {report.n_accepted}  fits: {report.fits}")
    elif args.cmd == "singularity":
        opts = _resolve(args, cfg, dict(alpha=0.4))
        fits = harness.singularity_run(**opts).fits
        print(f"singularity slope: {fits['singularity_slope']:.4f} "
              f"(alpha - 1 = {fits['target']:.4f})")
    elif args.cmd == "soe-verify":
        opts = _resolve(args, cfg, dict(
            alpha=0.5, eps=1e-10, dt_min=1e-4, T=30.0, samples=10000))
        soe = build_soe(opts["alpha"], opts["eps"], opts["dt_min"], opts["T"])
        err = verify_soe(soe, opts["samples"])
        print(f"alpha={opts['alpha']} eps={opts['eps']:.1e}: "
              f"{soe.n_terms} terms, max error {err:.3e} on "
              f"[{opts['dt_min']:g}, {opts['T']:g}]")
        return 0 if err <= opts["eps"] else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
