"""Every name the benchmark's span tracer wraps exists in the library.

`perfbench/tracer.py` rebinds library functions and methods by name, so
renaming or deleting one of them breaks the traced benchmark runs.  This
check loads the tracer by path and looks each target up, so such a break
fails here first.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _targets():
    tracer = _tracer()
    for name, (module, attr) in {**tracer.SPAN_FUNCTIONS, **tracer.LEAF_FUNCTIONS}.items():
        yield pytest.param(module, (attr,), id=name)
    for name, methods in tracer.LEAF_METHODS.items():
        for module, cls, meth in methods:
            yield pytest.param(module, (cls, meth), id=f"{name}:{cls}.{meth}")


@pytest.mark.parametrize("module,path", _targets())
def test_traced_name_resolves(module, path):
    target = importlib.import_module(module)
    for attr in path:
        target = getattr(target, attr)
    assert callable(target)
