"""Span recorder for the traced benchmark run.

The tracer replaces public functions of dmmsim where the calling module
binds them (for example ``dmmsim.simkit.decode_bp_full``) with wrappers
that record one span per call: name, start, end, parent span, operation
index and a small note taken from the arguments or the result. Spans
stay in memory and are written out once, at the end of the run. Nothing
is wrapped unless ``install`` is called, so untraced runs execute the
package unchanged.

Only the process that installed the tracer records spans. Pool workers
forked from it inherit the wrappers, but the wrappers call straight
through there, so a run that uses the process pool traces the parent
process only.
"""

import os
import time
import weakref

import numpy as np

from dmmsim import capacity, cli, gf2, ldpc, simkit

# (module, attribute, span name). The span name's prefix before the first
# dot is the layer the time is charged to.
BINDINGS = (
    # entry points the benchmark itself calls
    (simkit, "load_config", "simkit.load_config"),
    (simkit, "run_sweep", "simkit.run"),
    (simkit, "run_bpsk_baseline", "simkit.run"),
    (simkit, "run_genie_compare", "simkit.run"),
    (capacity, "mi_grid", "capacity.mi_grid"),
    (capacity, "esn0_at_mi", "capacity.esn0_at_mi"),
    (cli, "main", "cli.main"),
    # what cli calls
    (cli, "load_config", "simkit.load_config"),
    (cli, "run_sweep", "simkit.run"),
    (cli, "run_bpsk_baseline", "simkit.run"),
    (cli, "run_genie_compare", "simkit.run"),
    (cli, "write_sweep_csv", "simkit.write"),
    (cli, "write_genie_csv", "simkit.write"),
    (cli, "build_manifest", "simkit.manifest"),
    (cli, "write_manifest", "simkit.manifest"),
    # what simkit calls: sweep structure, then the frame pipeline
    (simkit, "_run_point", "simkit.point"),
    (simkit, "_run_batch", "simkit.batch"),
    (simkit, "run_frame", "simkit.frame"),
    (simkit, "run_baseline_frame", "simkit.frame"),
    (simkit, "_pair_frame", "simkit.pair_frame"),
    (simkit, "encode", "ldpc.encode"),
    (simkit, "rep_encode", "ldpc.encode"),
    (simkit, "rep_combine", "ldpc.rep_combine"),
    (simkit, "decode_bp_full", "ldpc.decode"),
    (simkit, "map_bpsk", "modem.map"),
    (simkit, "rotate_by_bits", "modem.rotate"),
    (simkit, "demap_outer_llr", "modem.demap_outer"),
    (simkit, "demap_outer_hard", "modem.demap_outer"),
    (simkit, "demap_inner_llr", "modem.demap_inner"),
    (simkit, "add_noise", "channel.noise"),
    # code construction
    (ldpc, "derive_generator", "ldpc.derive_generator"),
    (gf2, "row_reduce", "gf2.row_reduce"),
    # what capacity calls
    (capacity, "mi_bpsk", "capacity.mi_bpsk"),
    (capacity, "mi_qpsk", "capacity.mi_qpsk"),
)

# Classmethods bound on LdpcCode; simkit calls them through the class.
CLASS_BINDINGS = (
    (ldpc.LdpcCode, "random_regular", "ldpc.code_build"),
    (ldpc.LdpcCode, "from_alist", "ldpc.code_build"),
)

class MissingBinding(RuntimeError):
    """A function the tracer wraps is gone from the module that binds it."""


FRAME_SPANS = ("simkit.frame", "simkit.pair_frame")
LAYERS = ("gf2", "ldpc", "modem", "channel", "capacity", "simkit", "cli")


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "note")

    def __init__(self, name, start, parent, op):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.op = op
        self.note = None

    def to_json(self):
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "op": self.op,
            "note": self.note,
        }


class Tracer:
    """Records spans around the bindings above while installed.

    ``inner_n`` is the inner code length of the workload's configuration;
    a decode on a code of that length is labelled ``inner``, any other
    ``outer``.
    """

    def __init__(self, inner_n):
        self.inner_n = inner_n
        self.spans = []
        self.op = -1
        self._stack = []
        self._pid = os.getpid()
        self._undo = []
        self._edges = weakref.WeakKeyDictionary()

    # ------------------------------------------------------------ install

    def install(self):
        """Wrap every binding. A binding that no longer exists raises
        ``MissingBinding`` before anything is wrapped: its metrics would
        otherwise read 0, which looks like a gain."""
        missing = [f"{owner.__name__}.{attr}" for owner, attr, _ in BINDINGS if attr not in owner.__dict__]
        missing += [f"{cls.__name__}.{attr}" for cls, attr, _ in CLASS_BINDINGS if attr not in cls.__dict__]
        if missing:
            raise MissingBinding(
                f"cannot trace {', '.join(missing)}: update BINDINGS in perfbench/spans.py"
            )
        for owner, attr, name in BINDINGS:
            orig = getattr(owner, attr)
            self._patch(owner, attr, self._wrap(orig, name, _NOTES.get(name)))
        for cls, attr, name in CLASS_BINDINGS:
            orig = cls.__dict__[attr]
            self._patch(cls, attr, classmethod(self._wrap(orig.__func__, name, None)))
        self._patch(simkit, "ProcessPoolExecutor", self._pool_class(simkit.ProcessPoolExecutor))

    def uninstall(self):
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def _patch(self, owner, attr, new):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, fn, name, note_fn):
        tracer = self

        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            with tracer.span(name) as span:
                out = fn(*args, **kwargs)
            if note_fn is not None:
                span.note = note_fn(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__module__ = fn.__module__
        return traced

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Process pool whose map records one parent-side span per
            window of batches, noting the frames the window computes."""

            def map(self, fn, *iterables, **kwargs):
                window = list(iterables[0])
                with tracer.span("simkit.pool_map") as span:
                    results = list(super().map(fn, window, *iterables[1:], **kwargs))
                span.note = {"frames": sum(hi - lo for *_, lo, hi in window)}
                return iter(results)

        return TracedPool

    # -------------------------------------------------------------- spans

    def span(self, name):
        return _SpanContext(self, name)

    def code_edges(self, code):
        edges = self._edges.get(code)
        if edges is None:
            edges = len(code.h_sparse)
            self._edges[code] = edges
        return edges

    def reset(self):
        self.spans = []
        self._stack = []


class _SpanContext:
    __slots__ = ("tracer", "name", "span", "index")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        t = self.tracer
        parent = t._stack[-1] if t._stack else -1
        self.index = len(t.spans)
        self.span = Span(self.name, time.perf_counter(), parent, t.op)
        t.spans.append(self.span)
        t._stack.append(self.index)
        return self.span

    def __exit__(self, *exc):
        self.span.end = time.perf_counter()
        self.tracer._stack.pop()
        return False


def _note_decode(tracer, args, out):
    code = args[0]
    _hard, _post, iters, converged = out
    return {
        "code": "inner" if code.n_code == tracer.inner_n else "outer",
        "iters": int(iters),
        "converged": bool(converged),
        "edges": tracer.code_edges(code),
    }


def _note_batch(_tracer, args, _out):
    # _run_batch(cfg, esn0_db, kind, lo, hi)
    return {"frames": args[4] - args[3]}


_NOTES = {"ldpc.decode": _note_decode, "simkit.batch": _note_batch}


# ------------------------------------------------------------ derivation


def self_times(spans):
    """Duration minus the time covered by direct children, per span."""
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= 0:
            own[s.parent] -= s.end - s.start
    return own


def _ancestor(spans, i, names):
    p = spans[i].parent
    while p >= 0:
        if spans[p].name in names:
            return p
        p = spans[p].parent
    return -1


def setup_metrics(spans):
    """Code-construction metrics from the spans of one traced load_config."""
    total = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
    return {
        "gf2.row_reduce_s": total.get("gf2.row_reduce", 0.0),
        "ldpc.code_build_s": total.get("ldpc.code_build", 0.0),
    }


def pass_metrics(spans):
    """Per-layer metrics over the spans of one traced pass.

    Times are seconds summed over the pass; counts are exact totals.
    Ratios are given beside their base.
    """
    own = self_times(spans)
    total = {}
    count = {}
    for s in spans:
        total[s.name] = total.get(s.name, 0.0) + (s.end - s.start)
        count[s.name] = count.get(s.name, 0) + 1

    m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    for s, t in zip(spans, own):
        m[s.name.split(".", 1)[0] + ".self_s"] += t

    iters = {"inner": [], "outer": []}
    dec_s = {"inner": 0.0, "outer": 0.0}
    edge_updates = 0
    nonconverged = 0
    for s in spans:
        if s.name == "ldpc.decode":
            n = s.note
            iters[n["code"]].append(n["iters"])
            dec_s[n["code"]] += s.end - s.start
            edge_updates += n["iters"] * n["edges"]
            nonconverged += not n["converged"]
    calls = len(iters["inner"]) + len(iters["outer"])
    dec_total = dec_s["inner"] + dec_s["outer"]
    for code in ("inner", "outer"):
        it = iters[code]
        m[f"ldpc.decode_s.{code}"] = dec_s[code]
        m[f"ldpc.iters.{code}"] = int(sum(it))
        m[f"ldpc.iters.{code}.p50"] = float(np.percentile(it, 50)) if it else 0.0
        m[f"ldpc.iters.{code}.p99"] = float(np.percentile(it, 99)) if it else 0.0
        m[f"ldpc.iter_us.{code}"] = 1e6 * dec_s[code] / sum(it) if it else 0.0
    m["ldpc.decode_calls"] = calls
    m["ldpc.nonconverged_frac"] = nonconverged / calls if calls else 0.0
    m["ldpc.edge_updates"] = edge_updates
    m["ldpc.edge_updates_per_s"] = edge_updates / dec_total if dec_total else 0.0

    for key, names in (
        ("ldpc.encode_s", ("ldpc.encode",)),
        ("ldpc.rep_combine_s", ("ldpc.rep_combine",)),
        ("modem.map_s", ("modem.map",)),
        ("modem.rotate_s", ("modem.rotate",)),
        ("modem.demap_outer_s", ("modem.demap_outer",)),
        ("modem.demap_inner_s", ("modem.demap_inner",)),
        ("channel.noise_s", ("channel.noise",)),
        ("simkit.point_s", ("simkit.point",)),
        ("simkit.write_s", ("simkit.write",)),
        ("simkit.manifest_s", ("simkit.manifest",)),
        ("capacity.mi_bpsk_s", ("capacity.mi_bpsk",)),
        ("capacity.mi_qpsk_s", ("capacity.mi_qpsk",)),
        ("capacity.esn0_at_mi_s", ("capacity.esn0_at_mi",)),
    ):
        m[key] = sum(total.get(n, 0.0) for n in names)

    m["simkit.frame_self_s"] = sum(t for s, t in zip(spans, own) if s.name in FRAME_SPANS)
    m["simkit.frames_computed"] = sum(
        s.note["frames"] for s in spans if s.name in ("simkit.batch", "simkit.pool_map")
    )
    pair_frames = count.get("simkit.pair_frame", 0)
    inner_per_pair = {}
    for i, s in enumerate(spans):
        if s.name == "ldpc.decode" and s.note["code"] == "inner":
            frame = _ancestor(spans, i, ("simkit.pair_frame",))
            if frame >= 0:
                inner_per_pair[frame] = inner_per_pair.get(frame, 0) + 1
    second = sum(1 for n in inner_per_pair.values() if n > 1)
    m["simkit.pair_frames"] = pair_frames
    m["simkit.second_inner_decode_frac"] = second / pair_frames if pair_frames else 0.0
    m["cli.main_self_s"] = sum(t for s, t in zip(spans, own) if s.name == "cli.main")

    m["capacity.root_evals"] = sum(
        1
        for s in spans
        if s.name in ("capacity.mi_bpsk", "capacity.mi_qpsk")
        and s.parent >= 0
        and spans[s.parent].name == "capacity.esn0_at_mi"
    )
    m["trace.spans"] = len(spans)
    return m


def spans_json(spans):
    """Spans as JSON records, each with the grid point it belongs to:
    the enclosing ``simkit.point`` span, or -1 outside any grid point."""
    out = []
    for i, s in enumerate(spans):
        rec = s.to_json()
        rec["point"] = _ancestor(spans, i, ("simkit.point",))
        out.append(rec)
    return out
