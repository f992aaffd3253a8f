"""Set-up, timed passes, the traced rounds and the result line."""

import glob
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback

import numpy
import scipy

import spans as spanlib
from dmmsim import simkit
from workloads import DESK_CONFIG, WORKLOADS, Context, select, source_fingerprint

SETUP_REPEATS = 5
MIN_TRACE_ROUNDS = 3
MAX_WORKERS = 2
OUT_DIR = ".perfbench_out"

# Counts the program determines exactly; they must repeat run after run
# of the same code. Each is compared with the reference per entry.
COUNT_KEYS = (
    "ldpc.edge_updates",
    "ldpc.iters.inner",
    "ldpc.iters.outer",
    "ldpc.decode_calls",
    "simkit.frames_computed",
    "simkit.pair_frames",
    "capacity.root_evals",
)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0


def load_config_timed(root):
    t0 = time.perf_counter()
    cfg = simkit.load_config(root / DESK_CONFIG)
    return cfg, time.perf_counter() - t0


def run_op(wl, ctx, j, ref, tally):
    """Run entry ``j`` once, check it against its reference and return
    (seconds, output). An operation that raises fails all its points."""
    t0 = time.perf_counter()
    try:
        out = wl.run(ctx, j)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        out = None
    dt = time.perf_counter() - t0
    n_ref = len(ref["points"])
    if out is None:
        tally.attempted += n_ref
        tally.failed += n_ref
    else:
        tally.attempted += max(len(out["points"]), n_ref)
        tally.failed += wl.failed_points(ctx, out, ref)
    return dt, out


def timed_passes(wl, ctx, chosen, refs, seconds, tally):
    """Run whole passes over ``chosen`` while the next pass, taking as
    long as the last, still ends within ``seconds``; at least one."""
    times = {j: [] for j in chosen}
    items = {}
    start = time.perf_counter()
    passes = 0
    while True:
        t_pass = time.perf_counter()
        for j in chosen:
            dt, out = run_op(wl, ctx, j, refs[j], tally)
            times[j].append(dt)
            items[j] = out["items"] if out else 0
        passes += 1
        now = time.perf_counter()
        if (now - start) + (now - t_pass) > seconds:
            return times, items, passes


def exact_counts(op_spans):
    metrics = spanlib.pass_metrics(op_spans)
    return {k: metrics[k] for k in COUNT_KEYS}


def concat_spans(span_lists):
    out = []
    for lst in span_lists:
        off = len(out)
        for s in lst:
            if s.parent >= 0:
                s.parent += off
            out.append(s)
    return out


def rss_mib():
    """Current resident memory of this process, from /proc/self/statm."""
    pages = int((_read("/proc/self/statm") or "0 0").split()[1])
    return pages * resource.getpagesize() / 2**20


def peak_rss_mib(workers, rss_at_fork_mib):
    """Peak resident memory of this process and its pool workers.

    The parent's peak counts once. Each worker adds the largest peak of
    any waited-for child minus ``rss_at_fork_mib``, the parent's resident
    memory before the pool forks, which a forked child's peak already
    holds as pages shared with the parent. This is an estimate: the
    largest child stands for every worker, and a page a worker copies on
    write counts once, not twice.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if workers <= 1:
        return own
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return own + workers * max(child - rss_at_fork_mib, 0.0)


def _read(path):
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def environment(root):
    """Machine, interpreter and code under test, read without side effects."""
    model = None
    for line in (_read("/proc/cpuinfo") or "").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = [
        {k: _read(f"{d}/{k}") for k in ("level", "type", "size")}
        for d in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"))
    ]
    commit = None
    if (root / ".git").exists():
        try:
            res = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
            )
            commit = res.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "cores": os.cpu_count(),
        "cores_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source_fingerprint(root),
        "thread_env": {k: os.environ.get(k) for k in sorted(os.environ) if k.endswith("_NUM_THREADS")},
    }


def mi_tolerance(bench):
    """The capacity tolerance lives in BENCHMARK.json, in the reason given
    for the capacity-curve workload."""
    for w in bench["workloads"]:
        if w["name"] == "capacity-curve":
            return float(re.search(r"tolerance ([0-9.eE+-]+)", w["why"]).group(1))
    raise KeyError("capacity-curve workload missing from BENCHMARK.json")


def pool_workers():
    """Worker processes for the pooled workload: at most the core count."""
    return min(MAX_WORKERS, os.cpu_count() or 1)


def make_context(root, bench, wl, cfg):
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    workers = pool_workers() if wl.parallel else 1
    ctx = Context(root, cfg, out_dir, workers, mi_tolerance(bench))
    wl.prepare(ctx)
    return ctx


def run_benchmark(root, bench, reference, workload, seed, seconds, trace):
    wl = WORKLOADS[workload]
    refs = reference["workloads"][workload]["entries"]
    if len(refs) != wl.entries:
        raise ValueError(f"reference holds {len(refs)} entries for {workload}, expected {wl.entries}")

    setup_times = []
    for _ in range(SETUP_REPEATS):
        cfg, dt = load_config_timed(root)
        setup_times.append(dt)
    ctx = make_context(root, bench, wl, cfg)
    chosen = select(wl, refs, seed)
    tally = Tally()
    info = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "entries": chosen,
        "workers": ctx.workers,
        "setup_s_samples": setup_times,
        "environment": environment(root),
    }

    if not trace:
        rss_at_fork = rss_mib()
        times, items, passes = timed_passes(wl, ctx, chosen, refs, seconds, tally)
        wall = sum(statistics.median(times[j]) for j in chosen)
        n_items = sum(items.values())
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "items_per_s": n_items / wall,
            "peak_rss_mib": peak_rss_mib(ctx.workers, rss_at_fork),
        }
        info.update(
            passes=passes,
            op_seconds={str(j): times[j] for j in chosen},
            items_per_pass=n_items,
            rss_at_fork_mib=rss_at_fork,
            rss_after_mib=rss_mib(),
        )
        info[wl.item_metric] = values["items_per_s"]
        metric_defs = bench["end_to_end"]
        count_mismatches = 0
    else:
        values, count_mismatches = traced_run(root, wl, ctx, chosen, refs, reference, seconds, tally, info)
        metric_defs = bench["per_layer"]

    info["ops_attempted"] = tally.attempted
    info["ops_failed"] = tally.failed
    info["ops_failed_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_defs}
    info["metrics"] = metrics
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    (ctx.out_dir / f"result-{stem}.json").write_text(json.dumps(info, indent=1) + "\n")
    print(json.dumps({"info": info}))
    result = {
        "correct": tally.failed == 0 and count_mismatches == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def with_tracer(tracer, fn, *args):
    """Call ``fn(*args)`` with the tracer installed; return its result
    and the spans it recorded."""
    tracer.reset()
    tracer.install()
    try:
        return fn(*args), tracer.spans
    finally:
        tracer.uninstall()


def traced_run(root, wl, ctx, chosen, refs, reference, seconds, tally, info):
    """One warm-up operation, then rounds of a traced set-up and a pass in
    which every entry runs twice, untraced and traced, in an order that
    alternates from entry to entry and round to round. Rounds go on while
    the next, taking as long as the last, still ends within ``seconds``;
    at least ``MIN_TRACE_ROUNDS``.

    Times are medians over the rounds. The overhead is the median ratio
    of the traced to the untraced run of an entry in the same round, so
    both sides of each ratio see nearly the same host speed. Returns the
    per-layer metric values and the number of entries whose exact counts
    either differ between rounds or, when the code is the one the
    reference was recorded from, differ from the reference.
    """
    run_op(wl, ctx, chosen[0], refs[chosen[0]], Tally())
    tracer = spanlib.Tracer(ctx.cfg.inner.n_code)
    untraced = {j: [] for j in chosen}
    traced = {j: [] for j in chosen}
    counts = {j: [] for j in chosen}
    rounds = []
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        tracer.op = -1
        _, setup_spans = with_tracer(tracer, load_config_timed, root)
        op_spans = []
        items = 0
        for pos, j in enumerate(chosen):
            tracer.op = pos
            for traced_now in (False, True) if (len(rounds) + pos) % 2 == 0 else (True, False):
                if not traced_now:
                    untraced[j].append(run_op(wl, ctx, j, refs[j], tally)[0])
                    continue
                (dt, out), spans = with_tracer(tracer, run_op, wl, ctx, j, refs[j], tally)
                traced[j].append(dt)
                counts[j].append(exact_counts(spans))
                op_spans.append(spans)
                items += out["items"] if out else 0
        rounds.append((setup_spans, concat_spans(op_spans), items))
        now = time.perf_counter()
        if len(rounds) >= MIN_TRACE_ROUNDS and (now - start) + (now - t_round) > seconds:
            break

    same_code = (
        reference["source_sha256"] == source_fingerprint(root)
        and reference["workers"] == pool_workers()
    )
    unrepeated = [j for j in chosen if any(c != counts[j][0] for c in counts[j])]
    drift = [j for j in chosen if counts[j][0] != refs[j]["counts"]]

    per_round = []
    for setup_spans, pass_spans, items in rounds:
        m = spanlib.setup_metrics(setup_spans)
        m.update(spanlib.pass_metrics(pass_spans))
        counted = items if wl.item_metric == "frames_per_s" else 0
        computed = m["simkit.frames_computed"]
        m["simkit.frames_counted"] = counted
        m["simkit.useful_frame_ratio"] = counted / computed if computed else 0.0
        per_round.append(m)
    values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
    # counts repeat in every pass (checked above); report them as integers
    for k in (*COUNT_KEYS, "simkit.frames_counted", "trace.spans"):
        values[k] = per_round[0][k]
    traced_wall = sum(statistics.median(traced[j]) for j in chosen)
    untraced_wall = sum(statistics.median(untraced[j]) for j in chosen)
    values["trace.wall_s"] = traced_wall
    values["trace.untraced_wall_s"] = untraced_wall
    values["trace.overhead_frac"] = (
        statistics.median(t / u for j in chosen for t, u in zip(traced[j], untraced[j])) - 1.0
    )
    values["trace.count_drift"] = len(drift)

    info.update(
        passes=len(rounds),
        untraced_wall_s=untraced_wall,
        traced_wall_s=traced_wall,
        op_seconds={str(j): {"untraced": untraced[j], "traced": traced[j]} for j in chosen},
        traced_process="parent only; pool workers are not traced" if ctx.workers > 1 else "single process",
        counts={str(j): counts[j][0] for j in chosen},
        counts_unrepeated_entries=unrepeated,
        counts_compared_with_reference=same_code,
        count_drift_entries=drift,
    )
    trace_path = ctx.out_dir / f"trace-{wl.name}-seed{info['seed']}.json"
    trace_path.write_text(
        json.dumps(
            {
                "entries": chosen,
                "rounds": [
                    {"setup": spanlib.spans_json(setup_spans), "pass": spanlib.spans_json(pass_spans)}
                    for setup_spans, pass_spans, _ in rounds
                ],
            }
        )
        + "\n"
    )
    info["trace_file"] = str(trace_path.relative_to(root))
    return values, len(unrepeated) + (len(drift) if same_code else 0)
