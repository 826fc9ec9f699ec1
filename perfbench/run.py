"""Benchmark runner for tfmbe: end-to-end cost and a per-layer split.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Each run of a workload is one fresh
Python process (worker.py) that imports the package from ``src/``, calls a
public driver and writes its run directory into a temporary directory of
the checkout; one run at a time (closed loop), BLAS and OpenMP pinned to
one thread.  Runs repeat while the next one is expected to end within
``--seconds`` (the last run's duration is the estimate); at least one run
is made.  After every run the written output is checked (energy bound,
telescoping identity, final field against the reference stored in
reference.npz, and the same result as the other runs of this invocation);
a run that raises or fails a check counts as failed and gives no timing
sample.

``--trace 0`` reports the end-to-end metrics as medians over the runs.
``--trace 1`` alternates untraced runs with runs whose layer boundaries
are wrapped by the span tracer (tracer.py) and reports the per-layer
split, the tracing overhead and the unattributed remainder.  The last
stdout line is one JSON object with the keys correct, attempted, failed
and metrics.  NOTES.md says why each workload exists and what each metric
means.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from tracer import SELF_MS
from workloads import (BLAS_THREADS, SIZES, THREAD_VARS, WORKLOADS, instance_of,
                       reference_key)

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
REFERENCE = BENCH / "reference.npz"

# measuring stops by MAX_SECONDS whatever --seconds says, and one run may
# take at most CHILD_TIMEOUT_S, so an invocation ends within 180 s
MAX_SECONDS = 60.0
CHILD_TIMEOUT_S = 55.0

ENERGY_RTOL = 1e-9
TELESCOPE_RTOL = 1e-8
# references are stored in single precision
REFERENCE_RTOL = 1e-6

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "ms_per_step": "ms/step",
    "accepted_steps": "count",
    "peak_rss_mb": "MB",
}

PER_LAYER = dict(
    {metric: "ms/step" for metric in SELF_MS},
    **{
        "sav.history_evals_per_step": "count/step",
        "kernels.rows_per_step": "count/step",
        "spectral.fft_per_step": "count/step",
        "soe.build_ms": "ms",
        "soe.n_terms": "count",
        "soe.bank_mb": "MB",
        "soe.commit_mb_moved": "MB/step",
        "adaptive.trials_per_accepted": "ratio",
        "adaptive.rejected": "count",
        "adaptive.forced": "count",
        "harness.setup_ms": "ms",
        "harness.write_ms": "ms",
        "harness.output_kb": "KB",
        "trace.ms_per_step": "ms/step",
        "trace.untraced_ms_per_step": "ms/step",
        "trace.overhead_ms": "ms/step",
        "trace.unattributed_ms": "ms/step",
    })


class RunFailed(Exception):
    pass


def read_field(path):
    """Final field from a run directory (32-byte header, then float64).

    Read here rather than with tfmbe's reader, so that the checks do not
    depend on the package under test.
    """
    raw = path.read_bytes()
    nx, ny = np.frombuffer(raw, dtype="<i4", count=2, offset=8)
    return np.frombuffer(raw, dtype="<f8", offset=32).reshape(nx, ny)


def check_outputs(out_dir, reference):
    """Check a run's written output; returns facts about it for the metrics."""
    meta = json.loads((out_dir / "run.json").read_text())
    with open(out_dir / "steps.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    acc = [r for r in rows if r["accepted"] == "1"]
    if not acc or int(meta["n_accepted"]) != len(acc):
        raise RunFailed(f"run.json counts {meta['n_accepted']} accepted steps, "
                        f"steps.csv {len(acc)}")
    e0 = float(meta["energy_mod_initial"])
    energies = np.array([float(r["energy_mod"]) for r in acc])
    excess = float(energies.max()) - e0
    if excess > ENERGY_RTOL * abs(e0):
        raise RunFailed(f"energy bound: max E(n) - E(0) = {excess:.3e}")
    lhs = float(energies[-1]) - e0
    rhs = -sum(float(r["caputo_dot"]) for r in acc) / float(meta["M"])
    if abs(lhs - rhs) > TELESCOPE_RTOL * max(abs(e0), abs(lhs)):
        raise RunFailed(f"telescoping identity off by {abs(lhs - rhs):.3e}")
    field = read_field(out_dir / "field_final.bin")
    if reference is None:
        raise RunFailed("no reference field stored for this workload and size")
    err = float(np.linalg.norm(field - reference) / np.linalg.norm(reference))
    if not err <= REFERENCE_RTOL:
        raise RunFailed(f"final field differs from the reference by {err:.3e} (rel. L2)")
    return {
        "accepted": len(acc),
        "records": len(rows),
        "output_kb": sum(p.stat().st_size for p in out_dir.iterdir()) / 1e3,
        "digest": hashlib.sha256(field.tobytes()).hexdigest(),
    }


class RunSet:
    """The runs of one invocation: launches workers and checks their output."""

    def __init__(self, workload, size, instance, tmp, reference):
        self.workload, self.size, self.instance = workload, size, instance
        self.tmp, self.reference = tmp, reference
        self.env = dict(os.environ, **{v: str(BLAS_THREADS) for v in THREAD_VARS})
        self.attempted = self.failed = 0
        self.first = None
        self.versions = {}

    def run(self, trace):
        """One run; a timing sample, or None if the run failed."""
        self.attempted += 1
        out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=self.tmp))
        spec = {"src": str(SRC), "workload": self.workload, "size": self.size,
                "instance": self.instance, "out_dir": str(out_dir),
                "trace": bool(trace)}
        try:
            t_launch = time.monotonic()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "worker.py"), json.dumps(spec)],
                    cwd=ROOT, env=self.env, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise RunFailed(f"run exceeded {CHILD_TIMEOUT_S:.0f} s") from None
            if proc.returncode != 0:
                raise RunFailed(proc.stderr.strip()[-2000:] or
                                f"worker exited with {proc.returncode}")
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            facts = check_outputs(out_dir, self.reference)
            same = (facts["accepted"], facts["digest"])
            if self.first is None:
                self.first = same
            elif same != self.first:
                raise RunFailed("result differs from the first run of this invocation")
        except (RunFailed, OSError, ValueError, KeyError, IndexError) as exc:
            self.failed += 1
            print(f"run {self.attempted} failed: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            return None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.versions = {"numpy": res["numpy"], "scipy": res["scipy"]}
        setup_s = res["t_first_step"] - t_launch
        run_s = res["t_done"] - t_launch
        sample = {
            "setup_s": setup_s,
            "run_s": run_s,
            "ms_per_step": 1e3 * (run_s - setup_s) / facts["accepted"],
            "accepted_steps": facts["accepted"],
            "peak_rss_mb": res["rss_kb"] * 1024 / 1e6,
        }
        if trace:
            layers = res["layers"]
            layers["adaptive.trials_per_accepted"] = facts["records"] / facts["accepted"]
            layers["adaptive.rejected"] = facts["records"] - facts["accepted"]
            layers["harness.output_kb"] = facts["output_kb"]
            layers["trace.ms_per_step"] = sample["ms_per_step"]
            layers["trace.unattributed_ms"] = sample["ms_per_step"] - sum(
                layers[m] for m in SELF_MS) - layers["harness.write_ms"] / facts["accepted"]
            sample["layers"] = layers
            sample["untraced_names"] = res["untraced_names"]
        return sample


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def print_table(title, samples, units):
    """Median, quartiles and range of every metric over the samples."""
    print(f"{title}: {len(samples)} sample(s)")
    for name, unit in units.items():
        vals = [s[name] for s in samples]
        q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
        print(f"  {name:30s} median {q[1]:12.6g}  q1 {q[0]:12.6g}  q3 {q[2]:12.6g}"
              f"  min {min(vals):12.6g}  max {max(vals):12.6g}  {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=SIZES, default="bench",
                        help="smoke: 16x16 grid and a very short horizon")
    args = parser.parse_args(argv)

    if not (SRC / "tfmbe" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    if not REFERENCE.is_file():
        print(f"error: reference fields not found at {REFERENCE}", file=sys.stderr)
        return 2
    instance = instance_of(args.workload, args.seed)
    with np.load(REFERENCE) as ref:
        key = reference_key(args.workload, args.size, instance)
        reference = ref[key] if key in ref.files else None

    # run directories go into the checkout, not the system temp directory:
    # the benchmark reads and writes nothing outside the checkout it runs from
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        runs = RunSet(args.workload, args.size, instance, tmp, reference)
        plain, traced = [], []
        start = time.monotonic()
        deadline = min(args.seconds, MAX_SECONDS)
        while True:
            t_round = time.monotonic()
            sample = runs.run(trace=False)
            if sample is not None:
                plain.append(sample)
            if args.trace:
                sample = runs.run(trace=True)
                if sample is not None:
                    traced.append(sample)
            now = time.monotonic()
            if (now - start) + (now - t_round) > deadline:
                break
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not plain or (args.trace and not traced):
        print("error: no run passed its checks, so there is no timing sample",
              file=sys.stderr)
        return 1

    env = {
        "workload": args.workload, "seed": args.seed, "instance": instance,
        "size": args.size, "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "cpu": cpu_model(), "python": platform.python_version(),
        **runs.versions,
    }
    print("environment " + json.dumps(env))
    print_table("end to end, tracing off", plain, END_TO_END)
    if args.trace:
        layers = [s["layers"] for s in traced]
        untraced = statistics.median(s["ms_per_step"] for s in plain)
        for layer in layers:
            layer["trace.untraced_ms_per_step"] = untraced
            layer["trace.overhead_ms"] = layer["trace.ms_per_step"] - untraced
        print_table("per layer, traced", layers, PER_LAYER)
        if traced[0]["untraced_names"]:
            print("names not found, so not traced: "
                  + ", ".join(traced[0]["untraced_names"]))
        units, pool = PER_LAYER, layers
    else:
        units, pool = END_TO_END, plain
    metrics = {name: {"value": statistics.median(s[name] for s in pool), "unit": unit}
               for name, unit in units.items()}
    print(json.dumps({"correct": runs.failed == 0, "attempted": runs.attempted,
                      "failed": runs.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
