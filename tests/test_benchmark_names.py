"""The names the benchmark's tracer wraps must exist in the package.

perfbench/tracer.py patches tfmbe names at run time and skips a name it
cannot find, so a rename would silently zero a per-layer metric.  These
checks load the tracer without installing it.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import tfmbe
from tfmbe import adaptive_benchmark

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_patches_resolve():
    for module_name, cls_name, attr, span in _load_tracer().PATCHES:
        owner = importlib.import_module(module_name)
        if cls_name is not None:
            owner = getattr(owner, cls_name)
        assert callable(getattr(owner, attr, None)), (module_name, cls_name, attr)


@pytest.mark.parametrize("alpha,soe_mode", [(0.7, "fast"), (0.7, "direct"),
                                            (1.0, "fast")])
def test_driver_history_has_traced_methods(monkeypatch, alpha, soe_mode):
    import tfmbe.harness as harness

    seen = []
    init_state = harness.init_state

    def recording(grid, phi0, params, history):
        seen.append(history)
        return init_state(grid, phi0, params, history)

    monkeypatch.setattr(harness, "init_state", recording)
    adaptive_benchmark("slope", alpha, soe_mode=soe_mode, grid_n=8, T=0.02)
    assert len(seen) == 1
    for attr in ("caputo_terms", "commit"):
        assert callable(getattr(seen[0], attr, None)), attr


def test_module_exports_exist():
    modules = [tfmbe] + [importlib.import_module(f"tfmbe.{m.name}")
                         for m in pkgutil.iter_modules(tfmbe.__path__)]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.{name}"
