"""Benchmark workloads.

A workload is a pool of fixed-work operations ("entries"). Entry ``j``
always runs the same inputs, so its outputs can be compared with the
reference recorded for it in ``reference.json``. A run with a given
``--seed`` draws ``per_pass`` entries whose recorded work adds up to the
pool average (see ``select``) and runs them, in the drawn order, pass
after pass.

Every ``run`` returns a JSON-able dict with ``items`` (frames, or MI
evaluations, completed) and ``points`` (one record per grid point or MI
evaluation, compared with the reference). The work of an entry, used
only by ``select``, is the decoder edge updates the traced recording
counted; ``parallel-cli`` decodes in untraced workers, so it estimates
its work from the CSV instead.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import math
import random

from dmmsim import capacity, cli, simkit

DESK_CONFIG = "configs/desk_scale.json"


def source_fingerprint(root):
    """SHA-256 over the package sources, identifying the code under test
    in a checkout that is not a git repository."""
    h = hashlib.sha256()
    for p in sorted((root / "src").rglob("*.py")):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def _counters(p):
    """Integer counters of one SweepPoint; the means are exact ratios of
    integer sums to frames, so the sums are recovered exactly."""
    return {
        "esn0_db": p.esn0_db,
        "frames": p.frames,
        "bits_inner": p.bits_inner,
        "bits_outer": p.bits_outer,
        "errs_inner": p.errs_inner,
        "errs_outer": p.errs_outer,
        "frame_errors": p.frame_errors,
        "iters_inner_sum": round(p.iters_inner_mean * p.frames),
        "iters_outer_sum": round(p.iters_outer_mean * p.frames),
    }


class Context:
    """What every operation of a run shares: the checkout root, the
    configuration loaded at set-up, an output directory, the worker count
    and the capacity tolerance."""

    def __init__(self, root, cfg, out_dir, workers, mi_tolerance):
        self.root = root
        self.cfg = cfg
        self.out_dir = out_dir
        self.workers = workers
        self.mi_tolerance = mi_tolerance


class Workload:
    name = ""
    entries = 1  # size of the pool the reference holds
    per_pass = 1  # entries one run draws and repeats
    work_tolerance = 0.01  # allowed miss of a draw's work, as a share
    parallel = False
    item_metric = "frames_per_s"  # what items_per_s counts on this workload

    def prepare(self, ctx):
        """One-time preparation that is not part of any operation."""

    def run(self, ctx, j):
        raise NotImplementedError

    def failed_points(self, ctx, out, ref):
        """Number of points of ``out`` that do not match the reference."""
        got, want = out["points"], ref["points"]
        bad = sum(1 for a, b in zip(got, want) if a != b)
        return bad + abs(len(got) - len(want))


class WaterfallGenie(Workload):
    name = "waterfall-genie"
    entries = 48
    per_pass = 6
    grid = (-1.5, -1.2, -1.0)
    frames = 4

    def run(self, ctx, j):
        cfg = dataclasses.replace(
            ctx.cfg,
            esn0_grid_db=self.grid,
            max_frames=self.frames,
            min_frame_errors=self.frames + 1,  # the frame budget always ends a point
            seed=10_000 + j,
        )
        res = simkit.run_genie_compare(cfg)
        points = [{"affected": _counters(p.affected), "genie": _counters(p.genie)} for p in res.points]
        return {"items": sum(p.affected.frames for p in res.points), "points": points}


class HighSnrSweep(Workload):
    name = "highsnr-sweep"
    entries = 32
    per_pass = 8
    esn0_db = 0.5
    frames = 16

    def run(self, ctx, j):
        cfg = dataclasses.replace(
            ctx.cfg,
            esn0_grid_db=(self.esn0_db,),
            max_frames=self.frames,
            min_frame_errors=self.frames + 1,
            seed=20_000 + j,
        )
        points = [_counters(p) for p in simkit.run_sweep(cfg).points]
        points += [_counters(p) for p in simkit.run_bpsk_baseline(cfg).points]
        return {"items": sum(p["frames"] for p in points), "points": points}


class ParallelCli(Workload):
    """``dmmsim ber-sweep`` on the desk grid through the process pool.

    The stopping rule is scaled with the frame budget: a budget of two
    batches is one window of the two workers. Points below -1.2 dB stop
    on frame errors after the first batch, so the pool computes a second
    batch that is discarded; the other points run the whole budget.
    """

    name = "parallel-cli"
    entries = 8
    per_pass = 1
    # one entry a run: a tighter tolerance would leave a single entry
    work_tolerance = 0.03
    parallel = True
    stop = {"min_frame_errors": 6, "max_frames": 32}

    def prepare(self, ctx):
        doc = json.loads((ctx.root / DESK_CONFIG).read_text())
        doc["stop"] = dict(self.stop)
        self.config_path = ctx.out_dir / "desk_cli.json"
        self.config_path.write_text(json.dumps(doc, indent=2) + "\n")
        self.cli_out = ctx.out_dir / "cli"
        self.edges = (len(ctx.cfg.inner.h_sparse), len(ctx.cfg.outer.base.h_sparse))

    def run(self, ctx, j, workers=None):
        workers = ctx.workers if workers is None else workers
        csv_path = self.cli_out / "dmm_sweep.csv"
        manifest_path = self.cli_out / "dmm_sweep_manifest.json"
        for p in (csv_path, manifest_path):
            p.unlink(missing_ok=True)
        argv = [
            "ber-sweep", str(self.config_path),
            "--workers", str(workers),
            "--seed", str(30_000 + j),
            "--out-dir", str(self.cli_out),
        ]
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(argv)
        if rc != 0:
            raise RuntimeError(f"dmmsim {' '.join(argv)} exited with {rc}")
        data = csv_path.read_bytes()
        lines = data.decode().splitlines()
        manifest = json.loads(manifest_path.read_text())
        header = lines[0].split(",")
        rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
        # decoder edge updates of the counted frames
        e_inner, e_outer = self.edges
        work = sum(
            int(r["frames"]) * (float(r["iters_inner_mean"]) * e_inner + float(r["iters_outer_mean"]) * e_outer)
            for r in rows
        )
        return {
            "items": sum(int(r["frames"]) for r in rows),
            "points": lines[1:],
            "header": lines[0],
            "files": {
                "csv_sha256": hashlib.sha256(data).hexdigest(),
                "code_fingerprints": manifest["code_fingerprints"],
                "outputs": [p.rsplit("/", 1)[-1] for p in manifest["outputs"]],
            },
            "work": round(work),
        }

    def failed_points(self, ctx, out, ref):
        # The reference CSV was written with --workers 1; equal rows and
        # an equal digest mean the pooled run reproduced it byte for byte.
        if out["header"] != ref["header"] or out["files"] != ref["files"]:
            return max(len(out["points"]), len(ref["points"]))
        return super().failed_points(ctx, out, ref)


class CapacityCurve(Workload):
    name = "capacity-curve"
    entries = 6
    per_pass = 2
    item_metric = "mi_points_per_s"
    n_points = 121
    step_db = 0.1
    target_mi = 0.5

    def grid(self, j):
        return [round(-6.0 + 0.01 * j + self.step_db * k, 4) for k in range(self.n_points)]

    def run(self, ctx, j):
        grid = self.grid(j)
        values = [p.mi_bits for p in capacity.mi_grid(grid, "bpsk")]
        values += [p.mi_bits for p in capacity.mi_grid(grid, "qpsk")]
        values += [capacity.esn0_at_mi(self.target_mi, m) for m in ("bpsk", "qpsk")]
        return {"items": len(values), "points": values}

    def failed_points(self, ctx, out, ref):
        got, want = out["points"], ref["points"]
        bad = sum(
            1 for a, b in zip(got, want) if not math.isfinite(a) or abs(a - b) > ctx.mi_tolerance
        )
        return bad + abs(len(got) - len(want))


WORKLOADS = {w.name: w for w in (WaterfallGenie(), HighSnrSweep(), ParallelCli(), CapacityCurve())}


def select(workload, entries, seed, tries=10_000):
    """Entries for one run: seeded draws of ``per_pass`` entries from the
    pool until their recorded work is within ``work_tolerance`` of
    ``per_pass`` times the pool average (else the closest draw). Every
    seed then runs its own inputs with nearly the same total work, so
    the timings of different seeds compare."""
    rng = random.Random(seed)
    work = [e["work"] for e in entries]
    target = workload.per_pass * sum(work) / len(work)
    best = None
    for _ in range(tries):
        pick = rng.sample(range(len(entries)), workload.per_pass)
        miss = abs(sum(work[j] for j in pick) - target)
        if best is None or miss < best[0]:
            best = (miss, pick)
        if miss <= workload.work_tolerance * target:
            break
    return best[1]
