"""Span tracer that wraps tfmbe's public functions from outside the package.

Every wrapped call records one span ``[name, start, end, parent, step]``:
``parent`` is the index of the enclosing span (-1 at the top) and ``step``
the id of the accepted step being computed (accepted steps committed so far
plus one).  A layer's self time is its spans' duration minus the part their
child spans cover.  Spans stay in memory until the run ends.

History calls are counted at the outermost history object only: the object
``init_state`` puts on the state is wrapped per instance, so the nested
history objects behind it (hybrid -> fast -> bank) are not counted twice.
``HistoryBank.commit`` gets its own span because the bank belongs to the
``soe`` layer.  Inside that span tracemalloc records the peak memory the
commit allocates, for the computed ``soe.commit_mb_moved``.
"""

from __future__ import annotations

import functools
import importlib
import logging
import time
import tracemalloc
from collections import defaultdict

# (module, class or None, attribute, span name): the names the drivers look
# up at call time, so patching them here reroutes every call.
PATCHES = [
    ("tfmbe.harness", None, "adaptive_benchmark", "harness.driver"),
    ("tfmbe.harness", None, "coarsening", "harness.driver"),
    ("tfmbe.harness", None, "write_steps_csv", "harness.write"),
    ("tfmbe.harness", None, "write_run_meta", "harness.write"),
    ("tfmbe.harness", None, "write_field", "harness.write"),
    ("tfmbe.harness", None, "init_state", "sav.init"),
    ("tfmbe.harness", None, "adaptive_run", "adaptive.loop"),
    ("tfmbe.harness", None, "run_fixed", "adaptive.loop"),
    ("tfmbe.adaptive", None, "run_fixed", "adaptive.loop"),
    ("tfmbe.adaptive", None, "cn_sav_step", "sav.cn"),
    ("tfmbe.adaptive", None, "be_l1_sav_step", "sav.be"),
    ("tfmbe.adaptive", None, "commit_candidate", "sav.commit"),
    ("tfmbe.adaptive", None, "trajectory_observables", "sav.observables"),
    ("tfmbe.sav", None, "sav_u_functional", "spectral.functional"),
    ("tfmbe.sav", None, "sav_v_functional", "spectral.functional"),
    ("tfmbe.sav", None, "l1_row", "kernels.row"),
    ("tfmbe.sav", None, "l1plus_row", "kernels.row"),
    ("tfmbe.sav", None, "build_soe", "soe.build"),
    ("tfmbe.soe", "HistoryBank", "commit", "soe.commit"),
    ("tfmbe.spectral", "Grid2D", "fft", "spectral.fft"),
    ("tfmbe.spectral", "Grid2D", "ifft", "spectral.fft"),
]

# per-step self-time metrics: metric name -> span names whose self time it sums
SELF_MS = {
    "sav.cn_self_ms": ("sav.cn",),
    "sav.be_self_ms": ("sav.be",),
    "sav.observables_ms": ("sav.observables",),
    "sav.history_eval_ms": ("sav.history_eval",),
    "sav.history_commit_ms": ("sav.commit", "sav.history_commit"),
    "soe.commit_ms": ("soe.commit",),
    "kernels.row_ms": ("kernels.row",),
    "spectral.functional_ms": ("spectral.functional",),
    "spectral.fft_ms": ("spectral.fft",),
    "adaptive.loop_self_ms": ("adaptive.loop",),
}

# per-step call counts: metric name -> span name counted
PER_STEP_COUNTS = {
    "sav.history_evals_per_step": "sav.history_eval",
    "kernels.rows_per_step": "kernels.row",
    "spectral.fft_per_step": "spectral.fft",
}


class _CountForced(logging.Handler):
    """Counts the controller's force-accept warnings."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.count = 0

    def emit(self, record):
        if "force-accepting" in record.getMessage():
            self.count += 1


class Tracer:
    def __init__(self):
        self.spans = []
        self.step = 1
        self.missing = []
        self.soe_terms = 0
        self.bank_bytes = 0
        self.commit_bytes = 0
        self._stack = []
        self._forced = _CountForced()

    def wrap(self, fn, name, after=None):
        """``fn`` recording a span per call; ``after(args, result)`` runs last."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.step]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def install(self):
        """Patch every name in PATCHES that the installed package still has."""
        after = {
            (None, "commit_candidate"): self._after_commit,
            (None, "init_state"): self._after_init_state,
            (None, "build_soe"): self._after_build_soe,
        }
        for module_name, cls_name, attr, span in PATCHES:
            owner = importlib.import_module(module_name)
            if cls_name is not None:
                owner = getattr(owner, cls_name, None)
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{cls_name or ''}.{attr}")
                continue
            if (cls_name, attr) == ("HistoryBank", "commit"):
                fn = self._count_commit_bytes(fn)
            setattr(owner, attr, self.wrap(fn, span, after.get((cls_name, attr))))
        logging.getLogger("tfmbe.adaptive").addHandler(self._forced)

    def _after_commit(self, args, result):
        self.step += 1

    def _after_init_state(self, args, state):
        history = state.history
        history.caputo_terms = self.wrap(history.caputo_terms, "sav.history_eval")
        history.commit = self.wrap(history.commit, "sav.history_commit")

    def _after_build_soe(self, args, soe):
        self.soe_terms = int(soe.n_terms)

    def _count_commit_bytes(self, commit):
        """``HistoryBank.commit`` adding the bytes it moves to ``commit_bytes``.

        Computed, not measured: the commit updates the bank in place twice
        (``h *= decay``, ``h += temp``), each a read and a write of the whole
        bank; the memory it allocates (tracemalloc peak, mostly the
        bank-sized ``temp``) is counted as written once and read once.  The
        two in-place passes are read off the code, so a rewrite that changes
        them must change this count too.
        """
        tracer = self

        @functools.wraps(commit)
        def counted(bank, *args, **kwargs):
            passes = 4 if bank.pending is not None else 0  # first commit: no update
            tracemalloc.start()
            try:
                return commit(bank, *args, **kwargs)
            finally:
                allocated = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
                tracer.bank_bytes = int(bank.h.nbytes)
                tracer.commit_bytes += passes * tracer.bank_bytes + 2 * allocated

        return counted

    def summary(self, accepted):
        """Per-layer metrics of the finished run, ``accepted`` steps long.

        The step phase starts when the first time loop is entered; spans
        before that are set-up.  ``*_ms`` values are self time per accepted
        step, counts are per accepted step unless named otherwise.
        """
        spans = self.spans
        covered = [0.0] * len(spans)
        for name, t0, t1, parent, _ in spans:
            if parent >= 0:
                covered[parent] += t1 - t0
        root = next(s for s in spans if s[0] == "harness.driver")
        loop_start = min(s[1] for s in spans if s[0] == "adaptive.loop")
        self_s, count = defaultdict(float), defaultdict(int)
        write_s = build_s = 0.0
        for i, (name, t0, t1, _, _) in enumerate(spans):
            if name == "harness.write":
                write_s += t1 - t0
            elif name == "soe.build":
                build_s += t1 - t0
            if t0 >= loop_start:
                self_s[name] += (t1 - t0) - covered[i]
                count[name] += 1
        out = {metric: 1e3 * sum(self_s[n] for n in names) / accepted
               for metric, names in SELF_MS.items()}
        out.update({metric: count[name] / accepted
                    for metric, name in PER_STEP_COUNTS.items()})
        bank_mb = self.bank_bytes / 1e6
        out.update({
            "soe.build_ms": 1e3 * build_s,
            "soe.n_terms": self.soe_terms,
            "soe.bank_mb": bank_mb,
            "soe.commit_mb_moved": self.commit_bytes / 1e6 / accepted,
            "adaptive.forced": self._forced.count,
            "harness.setup_ms": 1e3 * (loop_start - root[1]),
            "harness.write_ms": 1e3 * write_s,
        })
        return out

