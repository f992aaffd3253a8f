"""The traced benchmark run (perfbench/spans.py) wraps dmmsim functions
where the calling module binds them. Each one must still be there, so a
refactor that renames or moves one fails here, not only in a traced run.
The file is read, never changed. The tracer counts the frames a pool
computes in ``ProcessPoolExecutor.map`` alone, so the pool contract is
pinned here too, as is the one-worker path through ``_run_point`` and
``_run_batch``, and the point attributes the benchmark's workloads
(perfbench/workloads.py, also read only) take their counters from, and
the package's public names."""

import dataclasses
import importlib.util
import inspect
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import dmmsim
from dmmsim import capacity, simkit
from test_simkit import small_config

ROOT = Path(__file__).resolve().parent.parent


def _load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_perfbench("spans")
workloads = _load_perfbench("workloads")

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
    # The capacity spans and root_evals count the root search's calls
    # through the module globals; a dispatch table bound at import would
    # bypass the wrappers. mi_grid evaluates its grid by rows and calls
    # neither function, so the wrappers see root-search evaluations only.
    calls = {"mi_bpsk": 0, "mi_qpsk": 0}
    for name in calls:
        def counted(esn0_db, _name=name, _real=getattr(capacity, name)):
            calls[_name] += 1
            return _real(esn0_db)

        monkeypatch.setattr(capacity, name, counted)
    capacity.mi_grid([0.0, 1.0], "bpsk")
    capacity.mi_grid([0.0, 1.0, 2.0], "qpsk")
    assert calls == {"mi_bpsk": 0, "mi_qpsk": 0}
    capacity.esn0_at_mi(0.5, "bpsk")
    capacity.esn0_at_mi(0.5, "qpsk")
    assert calls == {"mi_bpsk": 10, "mi_qpsk": 13}


@pytest.mark.parametrize("run", [simkit.run_sweep, simkit.run_genie_compare])
def test_serial_sweep_calls_point_and_batch_at_call_time(monkeypatch, run):
    # On one worker the simkit.point and simkit.batch spans count calls
    # through the module globals, and simkit.frames_computed sums the
    # frames of the batch spans: one point call per grid point, one batch
    # call per merged batch.
    calls = {"_run_point": [], "_run_batch": []}
    for name in calls:
        def counted(*args, _name=name, _real=getattr(simkit, name)):
            calls[_name].append(args)
            return _real(*args)

        monkeypatch.setattr(simkit, name, counted)
    grid = (-10.0, -1.0, 12.0)
    cfg = small_config(esn0_grid_db=grid, batch_frames=4, max_frames=10, min_frame_errors=3)
    frames = [getattr(p, "affected", p).frames for p in run(cfg).points]
    assert [esn0_db for _cfg, esn0_db, _kind in calls["_run_point"]] == list(grid)
    batches = [[(lo, hi) for _cfg, esn0_db, _kind, lo, hi in calls["_run_batch"] if esn0_db == e] for e in grid]
    for n, point_batches in zip(frames, batches):
        assert point_batches == [(lo, min(lo + 4, n)) for lo in range(0, n, 4)]
    assert 10 in frames and sum(hi - lo for *_, lo, hi in calls["_run_batch"]) == sum(frames)


def _stored_counters(p):
    # the tally's counters: its fields after esn0_db and ebn0_db
    counters = [f.name for f in dataclasses.fields(simkit.SweepPoint)][2:]
    return {"esn0_db": p.esn0_db, **{name: getattr(p, name) for name in counters}}


def test_workloads_read_the_stored_counters():
    # the waterfall-genie and highsnr-sweep workloads compare these
    # dicts with their reference; each must equal the point's counters
    cfg = small_config(esn0_grid_db=(-2.0, 12.0), max_frames=16, min_frame_errors=1000)
    points = simkit.run_sweep(cfg).points + simkit.run_bpsk_baseline(cfg).points
    for gp in simkit.run_genie_compare(cfg).points:
        points += [gp.affected, gp.genie]
    assert len(points) == 8 and any(p.errs_inner for p in points) and any(p.bits_outer == 0 for p in points)
    for p in points:
        assert workloads._counters(p) == _stored_counters(p)


PUBLIC_API = {
    "__version__",
    "ConfigError",
    "CodeConstructionError",
    "SystemConfig",
    "LdpcCode",
    "RepetitionCode",
    "load_config",
    "run_frame",
    "run_baseline_frame",
    "run_sweep",
    "run_bpsk_baseline",
    "run_genie_compare",
    "mi_bpsk",
    "mi_qpsk",
    "mi_grid",
    "esn0_at_mi",
}


def test_public_api_is_what_cli_and_experiments_use():
    assert len(dmmsim.__all__) == len(PUBLIC_API) and set(dmmsim.__all__) == PUBLIC_API
    for name in dmmsim.__all__:
        assert getattr(dmmsim, name) is not None


@pytest.fixture
def map_windows(monkeypatch):
    """The windows the sweep maps on its pool, recorded as the tracer's
    pool class sees them: the frames of a window are counted in ``map``."""
    windows = []

    class RecordingPool(simkit.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            window = list(iterables[0])
            windows.append(window)
            return super().map(fn, window, *iterables[1:], **kwargs)

    monkeypatch.setattr(simkit, "ProcessPoolExecutor", RecordingPool)
    return windows


@pytest.mark.parametrize("run", [simkit.run_sweep, simkit.run_genie_compare])
def test_pool_maps_only_counted_frames(map_windows, run):
    # shaped like the parallel-cli workload: three points stop on frame
    # errors after batch 0, three run their whole two-batch budget
    cfg = small_config(
        esn0_grid_db=(-10.0, -9.0, -8.0, 12.0, 13.0, 14.0), batch_frames=4, max_frames=8, min_frame_errors=3
    )
    res = run(cfg, workers=2)
    # a GeniePoint's frames are its affected branch's
    counted = {p.esn0_db: getattr(p, "affected", p).frames for p in res.points}
    assert sorted(counted.values()) == [4, 4, 4, 8, 8, 8]
    mapped = dict.fromkeys(counted, 0)
    for window in map_windows:
        for esn0_db, _kind, lo, hi in window:
            assert lo % cfg.batch_frames == 0 and hi == min(lo + cfg.batch_frames, cfg.max_frames)
            mapped[esn0_db] += hi - lo
    assert mapped == counted
    # the tracer's pool note reads each window item's last two fields
    assert sum(hi - lo for w in map_windows for *_, lo, hi in w) == sum(counted.values())


@pytest.mark.parametrize("esn0_db", [-10.0, 12.0])
def test_one_point_surplus_below_one_batch_per_worker(map_windows, esn0_db):
    workers = 2
    cfg = small_config(esn0_grid_db=(esn0_db,), batch_frames=2, max_frames=7, min_frame_errors=1)
    res = simkit.run_sweep(cfg, workers=workers)
    assert res == simkit.run_sweep(cfg)
    frames = res.points[0].frames
    mapped = sum(len(w) for w in map_windows)
    assert 0 <= mapped - math.ceil(frames / cfg.batch_frames) <= workers - 1
    assert all(len(w) == workers for w in map_windows[:-1])


@pytest.mark.slow
def test_traced_parallel_cli_computes_only_counted_frames(tmp_path):
    # run on a copy, so the benchmark's output directory stays out of the tree
    for rel in ("perfbench", "src", "configs"):
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    argv = ["perfbench/run.py", "--workload", "parallel-cli", "--seed", "1", "--seconds", "1", "--trace", "1"]
    proc = subprocess.run([sys.executable, *argv], cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0
    metrics = result["metrics"]
    assert metrics["simkit.frames_computed"]["value"] == metrics["simkit.frames_counted"]["value"] > 0
