"""Command line entry points for the experiment drivers.

Each subcommand runs one ``tfmbe.harness`` driver, whose inputs are its flags
(``_`` spelled ``-``; ``_FLAGS`` holds the four renamed ones).  A JSON config
section, or a run.json replaying its run, parses as flags ahead of the
explicit ones; an option set by neither takes the driver's default.  A
rejected input (``ValueError``) exits 2, a failed run (``SolverError``) 1,
with one stderr line: numpy's floating-point warnings are not printed.
"""

import argparse
import inspect
import json
import sys

import numpy as np

from . import harness
from .errors import SolverError


def _int_list(text):
    values = [int(v) for v in text.split(",") if v]
    if not values or min(values) < 1:
        raise argparse.ArgumentTypeError(f"need positive integers, got {text!r}")
    return values


# argparse keywords (and spelling, under "flag") of the driver inputs that
# are not number flags spelled like their name; a number flag parses an int
# for the inputs in ``harness.INT_INPUTS`` and a float for the others
_FLAGS = {
    "n_list": {"flag": "--N", "type": _int_list},
    "grid_n": {"flag": "--grid"},
    "fit_window": {"flag": "--window", "type": float, "nargs": 2},
    "out_dir": {"flag": "--out", "type": None},  # the text as given
    "save_field": {"action": "store_true", "default": None},
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


# subcommand -> driver name, help, printer of its result (may return an exit code)
_COMMANDS = {
    "ode-conv": ("ode_convergence", "scalar Caputo problem error/order table",
                 _print_orders),
    "pde-conv": ("pde_convergence", "forced growth-model error/order table",
                 _print_orders),
    "benchmark": ("adaptive_benchmark", "two-mode film growth benchmark",
                  lambda r: print(f"accepted steps: {r.n_accepted} (records incl. "
                                  f"rejected trials: {len(r.records)})")),
    "coarsen": ("coarsening", "coarsening dynamics with power-law fits",
                lambda r: print(f"accepted steps: {r.n_accepted}  fits: {r.fits}")),
    "singularity": ("singularity_run", "initial-layer slope on a graded mesh",
                    lambda r: print("singularity slope: {singularity_slope:.4f} "
                                    "(alpha - 1 = {target:.4f})".format(**r.fits))),
    "soe-verify": ("soe_verify", "build and certify an exponential sum", _print_soe),
}


def _config_tokens(parser, cmd, path, actions):
    """Yield the argv tokens of the ``cmd`` section of the JSON config file ``path``.

    A value becomes its flag's text, and ``null`` (or ``false`` for a switch)
    no token.  A run record (a file with a "driver" key) is its "inputs".
    """
    try:
        with open(path) as fh:
            cfg = json.load(fh)
        if isinstance(cfg, dict) and "driver" in cfg:
            cfg = {cmd: harness.record_inputs(cfg, _COMMANDS[cmd][0])}
    except (OSError, ValueError) as err:
        parser.error(f"--config {path}: {err}")
    section = cfg.get(cmd, {}) if isinstance(cfg, dict) else None
    if not isinstance(section, dict):
        parser.error(f"--config {path}: need an object whose {cmd!r} entry is an object")
    unknown = sorted(set(section) - set(actions))
    if unknown:
        parser.error(f"config keys that are not inputs of {cmd!r}: {', '.join(unknown)}")
    for name, value in section.items():
        action = actions[name]
        flag, switch = action.option_strings[0], action.nargs == 0
        if isinstance(value, list) and action.nargs:
            yield from (flag, *map(str, value))
        elif isinstance(value, list) and action.type is _int_list:
            yield f"{flag}={','.join(map(str, value))}"
        elif not (value is None or switch and value is False):
            yield flag if switch and value is True else f"{flag}={value}"


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="tfmbe", description="time-fractional MBE growth model experiments")
    parser.add_argument("--config", help="JSON config file with per-command sections, "
                        "or a run.json to replay")
    sub = parser.add_subparsers(dest="cmd", required=True)
    actions = {}
    for cmd, (driver, help_text, _) in _COMMANDS.items():
        p, actions[cmd] = sub.add_parser(cmd, help=help_text), {}
        for name in inspect.signature(getattr(harness, driver)).parameters:
            kwargs = dict(_FLAGS.get(name, {}))
            flag = kwargs.pop("flag", "--" + name.replace("_", "-"))
            if not kwargs:  # a number
                kwargs["type"] = int if name in harness.INT_INPUTS else float
            actions[cmd][name] = p.add_argument(flag, dest=name, **kwargs)

    args = vars(parser.parse_args(argv))
    cmd, path = args.pop("cmd"), args.pop("config")
    if path is not None:  # the config fills the flags left unset (None)
        p = sub.choices[cmd]
        config = vars(p.parse_args(list(_config_tokens(p, cmd, path, actions[cmd]))))
        args = {k: config[k] if v is None else v for k, v in args.items()}
    driver, _, printer = _COMMANDS[cmd]
    opts = {k: v for k, v in args.items() if v is not None}
    try:
        # a field that blows up warns before the run fails on it
        with np.errstate(all="ignore"):
            result = getattr(harness, driver)(**opts)
    except ValueError as err:  # an input the driver rejects: a usage error
        sub.choices[cmd].error(str(err))
    except SolverError as err:  # a failed run; a trajectory's files are written
        print(f"tfmbe {cmd}: run failed: {err}", file=sys.stderr)
        return 1
    return printer(result) or 0


if __name__ == "__main__":
    sys.exit(main())
