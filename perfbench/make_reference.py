"""Regenerate the reference final fields the benchmark checks against.

    python3 perfbench/make_reference.py

Runs every workload at every size (and every input instance of the seeded
workload) in this process, with BLAS pinned to one thread as in the
benchmark, and writes the final fields in single precision to
reference.npz.  The workloads with a memory term are also run once with
the other history mode (``soe_mode`` "direct" for growth-slope-128,
"fast" for graded-direct-64), and the relative L2 distance between the two
final fields must stay below CROSS_RTOL, so a reference is never checked
only against itself.  reference.json records those distances and the
versions the references were made with.
"""

from __future__ import annotations

import os
import sys

from workloads import (BLAS_THREADS, N_INSTANCES, SIZES, THREAD_VARS, WORKLOADS,
                       driver_call, reference_key)

# before numpy is imported
os.environ.update({var: str(BLAS_THREADS) for var in THREAD_VARS})

import json  # noqa: E402
import platform  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import tfmbe.harness  # noqa: E402

CROSS_MODE = {"growth-slope-128": "direct", "graded-direct-64": "fast"}
CROSS_RTOL = 1e-8


def final_field(workload, size, instance, **extra):
    name, args, kwargs = driver_call(workload, size, instance, **extra)
    report = getattr(tfmbe.harness, name)(*args, **kwargs)
    return report.final_phi, report.n_accepted


def main():
    fields, meta = {}, {"cross_checks": {}, "accepted_steps": {}}
    for workload, spec in WORKLOADS.items():
        for size in SIZES:
            for instance in range(N_INSTANCES if spec["seeded"] else 1):
                key = reference_key(workload, size, instance)
                phi, accepted = final_field(workload, size, instance)
                fields[key] = phi.astype(np.float32)
                meta["accepted_steps"][key] = accepted
                print(f"{key}: {accepted} accepted steps", flush=True)
                if workload in CROSS_MODE:
                    other, _ = final_field(workload, size, instance,
                                           soe_mode=CROSS_MODE[workload])
                    rel = float(np.linalg.norm(other - phi) / np.linalg.norm(phi))
                    meta["cross_checks"][key] = {
                        "soe_mode": CROSS_MODE[workload], "rel_l2": rel}
                    print(f"  against soe_mode={CROSS_MODE[workload]}: "
                          f"rel. L2 {rel:.3e}", flush=True)
                    if not rel <= CROSS_RTOL:
                        raise SystemExit(f"{key}: history modes disagree ({rel:.3e})")
    meta["made_with"] = {"python": platform.python_version(),
                         "numpy": np.__version__, "scipy": scipy.__version__,
                         "blas_threads": BLAS_THREADS}
    np.savez_compressed(BENCH / "reference.npz", **fields)
    (BENCH / "reference.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
