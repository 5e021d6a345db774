"""Every name the benchmark's span tracer wraps exists in the library.

`perfbench/tracer.py` rebinds library functions and methods by name, so
renaming or deleting one of them breaks the traced benchmark runs.  This
check loads the tracer by path and looks each target up, so such a break
fails here first.  The tracer also reads the size N of some calls from
their arguments; each reader runs here on the arguments of real calls,
so a dropped field or a reordered signature fails here too.
"""

import importlib
import importlib.util
from pathlib import Path
from unittest import mock

import pytest

from hilbtrunc import cli
from hilbtrunc.bases import legendre_basis
from hilbtrunc.diagnostics import evaluate
from hilbtrunc.elements import Func
from hilbtrunc.operators import MultiplicationX
from hilbtrunc.truncation import solve_cg

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


def _recorded_calls(tmp_path):
    """(traced name, args, kwargs, size) of the calls a CLI sweep makes, the
    size being what the call builds: A_N's order, the solution's length,
    the record's N."""
    calls = []
    size = {
        "compress": lambda p: p.N,
        "solve_direct": lambda s: len(s.f_N_coeffs),
        "evaluate": lambda r: r.N,
    }

    def recorder(module, name):
        fn = getattr(module, name)

        def call(*args, **kwargs):
            out = fn(*args, **kwargs)
            calls.append((name, args, kwargs, size[name](out)))
            return out

        return mock.patch.object(module, name, call)

    with recorder(cli, "compress"), recorder(cli, "solve_direct"), recorder(cli, "evaluate"):
        argv = ["run", "volterra-g1", "--n-list", "2,5", "--out", str(tmp_path / "o.csv")]
        assert cli.main(argv) == 0
    # a CG solution of no coordinates: the residual of f0 is already below the floor
    op, interval = MultiplicationX((1.0, 2.0)), (1.0, 2.0)
    (sol,), _ = solve_cg(op, Func.zero(interval), 5)
    args = (op, Func.zero(interval), sol, legendre_basis(interval), legendre_basis(interval))
    calls.append(("evaluate", args, {}, evaluate(*args).N))
    return calls


def test_size_readers_read_real_calls(tmp_path):
    readers = {key.split(".")[1]: reader for key, reader in _tracer().SIZE_OF.items()}
    calls = _recorded_calls(tmp_path)
    # one compress, two solves and their records, and the CG record
    assert sorted(name for name, *_ in calls) == ["compress"] + ["evaluate"] * 3 + ["solve_direct"] * 2
    assert set(readers) == {name for name, *_ in calls}
    for name, args, kwargs, size in calls:
        assert readers[name](args, kwargs) == size, name
