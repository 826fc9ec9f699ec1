"""Command line entry points for the experiment drivers.

Each subcommand runs one ``tfmbe.harness`` driver, and its flags are the
driver's inputs with ``_`` spelled ``-`` (``_FLAGS`` holds the four
renamed ones).  Options may come from a JSON config file (one section per
subcommand, whose keys must be the subcommand's inputs) with explicit flags
taking precedence; an option set by neither takes the driver's own keyword
default.  Every run writes its resolved parameters to run.json next to the
CSV output.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import harness


def _int_list(text):
    return [int(v) for v in text.split(",") if v]


# argparse keywords (and spelling, under "flag") of the driver inputs that
# are not float flags spelled like their name
_FLAGS = {
    "n_list": {"flag": "--N", "type": _int_list},
    "grid_n": {"flag": "--grid", "type": int},
    "fit_window": {"flag": "--window", "type": float, "nargs": 2},
    "out_dir": {"flag": "--out"},
    "save_field": {"action": "store_true", "default": None},
    "seed": {"type": int},
    "N0": {"type": int},
    "samples": {"type": int},
    "model": {"choices": ("slope", "noslope")},
    "strategy": {"choices": ("uniform", "graded", "adaptive")},
    "soe_mode": {"choices": ("fast", "direct")},
}


def _print_orders(report):
    print("n_steps  tau_max      error        order")
    for r in report.rows:
        order = "-" if r.order != r.order else f"{r.order:.2f}"
        print(f"{r.n_steps:7d}  {r.tau_max:.3e}  {r.error:.3e}  {order}")


def _print_soe(result):
    """The sum's size and certified error; exit code 1 if the error exceeds eps."""
    soe, err = result
    print(f"alpha={soe.alpha} eps={soe.eps:.1e}: {soe.n_terms} terms, max error "
          f"{err:.3e} on [{soe.dt_min:g}, {soe.T:g}]")
    return 0 if err <= soe.eps else 1


# subcommand -> driver name, help, the values given to the driver's required
# inputs, and the printer of its result (which may return an exit code)
_COMMANDS = {
    "ode-conv": ("ode_convergence", "scalar Caputo problem error/order table",
                 {"alpha": 0.5, "sigma": 2.5, "n_list": [64, 128, 256, 512]},
                 _print_orders),
    "pde-conv": ("pde_convergence", "forced growth-model error/order table",
                 {"model": "slope", "alpha": 0.8, "sigma": 0.4, "gamma": 5.0,
                  "n_list": [64, 128, 256, 512]}, _print_orders),
    "benchmark": ("adaptive_benchmark", "two-mode film growth benchmark",
                  {"model": "slope", "alpha": 0.7},
                  lambda r: print(f"accepted steps: {r.n_accepted} (records incl. "
                                  f"rejected trials: {len(r.records)})")),
    "coarsen": ("coarsening", "coarsening dynamics with power-law fits",
                {"model": "slope", "alpha": 0.7},
                lambda r: print(f"accepted steps: {r.n_accepted}  fits: {r.fits}")),
    "singularity": ("singularity_run", "initial-layer slope on a graded mesh",
                    {"alpha": 0.4},
                    lambda r: print("singularity slope: {singularity_slope:.4f} "
                                    "(alpha - 1 = {target:.4f})".format(**r.fits))),
    "soe-verify": ("soe_verify", "build and certify an exponential sum",
                   {"alpha": 0.5}, _print_soe),
}


def _load_section(path, section):
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    return cfg.get(section, {})


def _resolve(parser, args, cfg, defaults):
    """defaults < config file < explicit flags (argparse leaves None when unset).

    An option in none of the three is not passed, so the driver's keyword
    default applies.  A config key that is not an input of the subcommand is
    an error of ``parser``.
    """
    flags = {k: v for k, v in vars(args).items() if k not in ("cmd", "config")}
    unknown = sorted(set(cfg) - set(flags))
    if unknown:
        parser.error(f"config keys that are not inputs of {args.cmd!r}: "
                     f"{', '.join(unknown)}")
    out = dict(defaults)
    out.update(cfg)
    out.update({k: v for k, v in flags.items() if v is not None})
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tfmbe",
        description="time-fractional MBE growth model experiments")
    parser.add_argument("--config", help="JSON config file with per-command sections")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for cmd, (driver, help_text, _, _) in _COMMANDS.items():
        p = sub.add_parser(cmd, help=help_text)
        for name in inspect.signature(getattr(harness, driver)).parameters:
            kwargs = dict(_FLAGS.get(name, {"type": float}))
            flag = kwargs.pop("flag", "--" + name.replace("_", "-"))
            p.add_argument(flag, dest=name, **kwargs)

    args = parser.parse_args(argv)
    driver, _, required, printer = _COMMANDS[args.cmd]
    opts = _resolve(sub.choices[args.cmd], args,
                    _load_section(args.config, args.cmd), required)
    return printer(getattr(harness, driver)(**opts)) or 0


if __name__ == "__main__":
    sys.exit(main())
