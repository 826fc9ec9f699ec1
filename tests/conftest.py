import itertools
import os
from collections import Counter
from types import SimpleNamespace

# BLAS and OpenMP on one thread, as in CI and the benchmark, unless the
# caller chose: set before numpy loads its BLAS, since on a busy 2-vCPU
# host two threads make the exponential-sum builds 3-12x slower
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402


def pytest_addoption(parser):
    parser.addoption("--full", action="store_true", default=False,
                     help="run the full-scale (long) experiment checks")


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "full: full-scale experiment reproduction (opt-in via --full)")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--full"):
        return
    skip = pytest.mark.skip(reason="full-scale check; run with --full")
    for item in items:
        if "full" in item.keywords:
            item.add_marker(skip)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_mesh(rng, n, t_end=1.0, ratio_lo=0.1, ratio_hi=10.0, spread=30.0):
    """Random nonuniform mesh with consecutive step ratios in [ratio_lo, ratio_hi].

    The log step sizes follow a reflected walk bounded to a total spread of
    ``spread``, keeping the mesh inside the double-precision envelope the
    kernel closed forms are specified for (reflection preserves the ratio
    bound since the reflected jump is never longer than the proposal).
    """
    bound = 0.5 * np.log(spread)
    w = np.empty(n)
    w[0] = rng.uniform(-bound, bound)
    for k in range(1, n):
        step = rng.uniform(-np.log(ratio_hi), -np.log(ratio_lo))
        x = w[k - 1] + step
        if x > bound:
            x = 2 * bound - x
        elif x < -bound:
            x = -2 * bound - x
        w[k] = x
    taus = np.exp(w)
    taus *= t_end / taus.sum()
    levels = np.concatenate([[0.0], np.cumsum(taus)])
    levels[-1] = t_end
    from tfmbe import TimeMesh
    return TimeMesh(levels)


def flip_estimates(monkeypatch, trials):
    """Negate the estimator's candidate on the given trials (counted from 1).

    The controller then sees e close to 2 there, far above any tolerance
    used here; the estimator step still runs, so every trial keeps its
    transforms.
    """
    import tfmbe.adaptive as adaptive

    estimator, count = adaptive.be_l1_sav_step, itertools.count(1)

    def flipped(state, tau):
        cand = estimator(state, tau)
        return SimpleNamespace(phi_h=-cand.phi_h) if next(count) in trials else cand

    monkeypatch.setattr(adaptive, "be_l1_sav_step", flipped)


class PassCounter:
    """numpy for a tfmbe module, counting the products that read a store whole.

    A pass over a store reads its first row once, so a product with an
    operand that starts at the first element of ``store_of()`` counts as
    one pass.  The store is looked up on every call, because the history
    makes its stores as it commits.
    """

    def __init__(self, store_of):
        self._store_of = store_of
        self.passes = 0

    def __getattr__(self, name):
        fn = getattr(np, name)
        if name not in ("matmul", "dot", "tensordot"):
            return fn

        def product(*args, **kwargs):
            store = self._store_of()
            if store is not None:
                start = store.__array_interface__["data"][0]
                self.passes += any(isinstance(a, np.ndarray)
                                   and a.__array_interface__["data"][0] == start
                                   for a in args)
            return fn(*args, **kwargs)

        return product


def count_bank_passes(monkeypatch, bank_of):
    """Count the passes ``tfmbe.soe`` makes over the states of ``bank_of()``."""
    import tfmbe.soe

    def store_of():
        bank = bank_of()
        return None if bank is None else bank.h

    counter = PassCounter(store_of)
    monkeypatch.setattr(tfmbe.soe, "np", counter)
    return counter


def count_prefix_passes(monkeypatch, history):
    """Count the passes ``tfmbe.sav`` makes over the exact prefix of ``history``.

    A pass reads the first stored increment; the increments a read adds
    after a pass never include it.
    """
    import tfmbe.sav

    counter = PassCounter(lambda: history._blocks[0] if history._blocks else None)
    monkeypatch.setattr(tfmbe.sav, "np", counter)
    return counter


def count_transforms(monkeypatch):
    """Count the transform calls on every ``Grid2D``, by method name.

    ``fft`` and ``ifft`` are one call per field or per stack of fields;
    ``field_and_gradient`` is the shared inverse pass of a field and its
    gradient.
    """
    from tfmbe import Grid2D

    calls = Counter()
    for name in ("fft", "ifft", "field_and_gradient"):
        def counted(self, f, _transform=getattr(Grid2D, name), _name=name):
            calls[_name] += 1
            return _transform(self, f)
        monkeypatch.setattr(Grid2D, name, counted)
    return calls
