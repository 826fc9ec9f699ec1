"""Workload table of the benchmark: which public driver runs, with which inputs.

Each workload is one call of a public ``tfmbe.harness`` driver.  Two sizes
exist: ``bench`` (what the benchmark measures) and ``smoke`` (16x16 grid,
very short horizon, for the runner's own test).  The reasons for each
workload are in NOTES.md.
"""

from __future__ import annotations

# Every run pins BLAS and OpenMP to this many threads (at most nproc
# anywhere): the thread count moves graded-direct-64 by a third.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# The coarsening workload draws its random initial state from one of this
# many instances (instance = seed mod N_INSTANCES); a reference final field
# is stored for every instance, so any seed can be checked.
N_INSTANCES = 8

WORKLOADS = {
    "growth-slope-128": {
        "driver": "adaptive_benchmark",
        "args": ["slope", 0.7],
        "kwargs": {"strategy": "adaptive", "soe_mode": "fast"},
        "grid_n": {"bench": 128, "smoke": 16},
        "T": {"bench": 0.2, "smoke": 0.05},
        "seeded": False,
    },
    "coarsen-noslope-64": {
        "driver": "coarsening",
        "args": ["noslope", 1.0],
        "kwargs": {},
        "grid_n": {"bench": 64, "smoke": 16},
        "T": {"bench": 0.5, "smoke": 0.02},
        "seeded": True,
    },
    "graded-direct-64": {
        "driver": "adaptive_benchmark",
        "args": ["noslope", 0.4],
        "kwargs": {"strategy": "graded", "soe_mode": "direct"},
        "grid_n": {"bench": 64, "smoke": 16},
        "T": {"bench": 1.2, "smoke": 0.05},
        "seeded": False,
    },
}

SIZES = ("bench", "smoke")


def instance_of(workload, seed):
    """Input instance a seed selects: 0 for unseeded workloads."""
    return seed % N_INSTANCES if WORKLOADS[workload]["seeded"] else 0


def driver_call(workload, size, instance, **extra):
    """(driver name, positional args, keyword args) of one workload run."""
    spec = WORKLOADS[workload]
    kwargs = dict(spec["kwargs"], grid_n=spec["grid_n"][size], T=spec["T"][size])
    if spec["seeded"]:
        kwargs["seed"] = instance
    kwargs.update(extra)
    return spec["driver"], list(spec["args"]), kwargs


def reference_key(workload, size, instance):
    return f"{workload}/{size}/{instance}"
