"""The traced benchmark run (perfbench/spans.py) wraps dmmsim functions
where the calling module binds them. Each one must still be there, so a
refactor that renames or moves one fails here, not only in a traced run.
The file is read, never changed."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from dmmsim import simkit

SPANS_PY = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_spans()

# every (owner, attribute) the tracer patches, the pool class included
PATCHED = [(owner, attr) for owner, attr, _name in spans.BINDINGS + spans.CLASS_BINDINGS]
PATCHED.append((simkit, "ProcessPoolExecutor"))


@pytest.mark.parametrize("owner, attr", PATCHED, ids=[f"{o.__name__}.{a}" for o, a in PATCHED])
def test_traced_binding_exists(owner, attr):
    assert attr in owner.__dict__


def test_run_batch_keeps_frame_range_arguments():
    # the batch note reads the frame range as positional arguments 3 and 4
    assert list(inspect.signature(simkit._run_batch).parameters) == ["cfg", "esn0_db", "kind", "lo", "hi"]
