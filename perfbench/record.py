"""Record perfbench/reference.json from the code in this checkout.

    python3 perfbench/record.py

For every entry of every workload this runs the operation once with the
tracer installed and stores its outputs, its work measure and its exact counts, together
with a fingerprint of the sources it ran. The parallel-cli entries are
also run with ``--workers 1``; that CSV is the reference, and recording
stops if the pooled run does not reproduce it byte for byte.

Record only from code whose outputs are known to be right: every later
run is judged against this file.
"""

import json
import sys

import run

run.check_checkout(run.SOURCES)

import harness  # noqa: E402
import spans as spanlib  # noqa: E402
from workloads import WORKLOADS, source_fingerprint  # noqa: E402


def record_workload(wl, ctx):
    tracer = spanlib.Tracer(ctx.cfg.inner.n_code)
    entries = []
    for j in range(wl.entries):
        out, spans = harness.with_tracer(tracer, wl.run, ctx, j)
        counts = harness.exact_counts(spans)
        if wl.parallel:
            serial = wl.run(ctx, j, workers=1)
            if serial["files"] != out["files"]:
                sys.exit(f"{wl.name} entry {j}: --workers {ctx.workers} CSV differs from --workers 1")
            out = serial
        entry = {k: v for k, v in out.items() if k != "items"}
        entry.setdefault("work", counts["ldpc.edge_updates"])
        entry["counts"] = counts
        entries.append(entry)
        print(f"{wl.name} {j}: work {entry['work']} counts {counts}", flush=True)
    return {"entries": entries}


def main():
    root = run.ROOT
    bench = json.loads((root / "BENCHMARK.json").read_text())
    path = root / run.REFERENCE
    reference = {"source_sha256": source_fingerprint(root), "workers": harness.pool_workers(), "workloads": {}}
    cfg, _ = harness.load_config_timed(root)
    for name, wl in WORKLOADS.items():
        ctx = harness.make_context(root, bench, wl, cfg)
        reference["workloads"][name] = record_workload(wl, ctx)
    path.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
