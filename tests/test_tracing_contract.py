"""The benchmark's tracer wraps library functions by module and name, and
skips a name it cannot find without a word, which would zero the per-layer
metrics it feeds.  Every name it lists must therefore resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).parents[1] / "bench" / "tracing.py"


def _traced() -> dict:
    """``TRACED`` of the benchmark's tracer, read without importing the
    rest of the benchmark."""
    spec = importlib.util.spec_from_file_location("_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module,name", [
    (module, name) for module, names in _traced().items() for name in names])
def test_traced_name_resolves(module, name):
    home = importlib.import_module(f"eigenweight.{module}")
    assert callable(getattr(home, name, None)), f"eigenweight.{module}.{name}"
