"""dmmsim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Prints a JSON line with the run's
environment and details, then, as the last line, the result:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0``
the metrics are the end-to-end metrics of BENCHMARK.json, with
``--trace 1`` its per-layer metrics. See perfbench/README.md.
"""

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported; the
# benchmark's parallelism is its own worker processes.
for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCES = ("BENCHMARK.json", "configs/desk_scale.json", "src/dmmsim/__init__.py")
REFERENCE = "perfbench/reference.json"


def parse_args(argv):
    p = argparse.ArgumentParser(description="dmmsim benchmark")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def check_checkout(required=(*SOURCES, REFERENCE)):
    """Exit with status 2 unless the package, its config and the
    benchmark's own files are present."""
    missing = [rel for rel in required if not (ROOT / rel).is_file()]
    if missing:
        print(f"error: not a dmmsim checkout, missing {', '.join(missing)}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(ROOT / "src"))


def main(argv=None):
    args = parse_args(argv)
    check_checkout()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    from harness import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    reference = json.loads((ROOT / REFERENCE).read_text())
    return run_benchmark(ROOT, bench, reference, args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
