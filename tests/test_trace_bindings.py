"""The traced benchmark run (perfbench/spans.py) wraps dmmsim functions
where the calling module binds them. Each one must still be there, so a
refactor that renames or moves one fails here, not only in a traced run.
The file is read, never changed."""

import importlib.util
import inspect
from pathlib import Path

import pytest

from dmmsim import capacity, simkit

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


def test_capacity_calls_mi_functions_at_call_time(monkeypatch):
    # The capacity spans and root_evals count calls through the module
    # globals; a dispatch table bound at import would bypass the wrappers.
    calls = {"mi_bpsk": 0, "mi_qpsk": 0}
    for name in calls:
        def counted(esn0_db, _name=name, _real=getattr(capacity, name)):
            calls[_name] += 1
            return _real(esn0_db)

        monkeypatch.setattr(capacity, name, counted)
    capacity.mi_grid([0.0, 1.0], "bpsk")
    capacity.mi_grid([0.0, 1.0, 2.0], "qpsk")
    assert calls == {"mi_bpsk": 2, "mi_qpsk": 3}
    capacity.esn0_at_mi(0.5, "bpsk")
    capacity.esn0_at_mi(0.5, "qpsk")
    assert calls["mi_bpsk"] > 2 and calls["mi_qpsk"] > 3
