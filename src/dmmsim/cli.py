"""Command-line front end.

Every experiment is a subcommand that writes CSV (and, for simulation
runs, a JSON manifest capturing the resolved configuration, seed and
code fingerprints). Output is deterministic given configuration and
seed, and invariant to --workers. Exit status is nonzero exactly on
validation or configuration errors; a bad BER is a result, not an
error.

dB values are accepted and emitted with 4 decimal places.
"""

import argparse
import dataclasses
import shlex
import sys
from pathlib import Path

from .capacity import esn0_at_mi, mi_grid, rate_bound_outer
from .channel import ebn0_from_esn0
from .config import MAX_GRID_POINTS, ConfigError, _check_esn0, check_workers, load_config
from .results import build_manifest, write_genie_csv, write_manifest, write_mi_csv, write_sweep_csv
from .simkit import run_bpsk_baseline, run_genie_compare, run_sweep

PROG = "dmmsim"


def parse_grid(text):
    """Grid of Es/N0 values in dB: 'start:stop:step' (inclusive) or a
    comma-separated list, of at most MAX_GRID_POINTS points (a range is
    counted before it is built). Values are kept at 4 decimal places."""
    text = text.strip()
    if not text:
        raise ConfigError("grid is empty")
    is_range = ":" in text
    parts = text.split(":" if is_range else ",")
    if not is_range and not all(x.strip() for x in parts):
        raise ConfigError(f"grid {text!r} has an empty entry")
    try:
        vals = [float(x) for x in parts]
    except ValueError:
        raise ConfigError(f"grid contains a non-numeric value: {text!r}")
    if is_range:
        if len(vals) != 3:
            raise ConfigError(f"grid range must be start:stop:step, got {text!r}")
        start, stop, step = vals
        if step <= 0:
            raise ConfigError("grid step must be positive")
        if stop < start:
            raise ConfigError("grid stop must be >= start")
        points = (stop - start) / step + 1
    else:
        points = len(vals)
    if not points <= MAX_GRID_POINTS:  # also rejects inf and nan
        raise ConfigError(f"grid {text[:40]!r} spans about {points:.3g} points, more than {MAX_GRID_POINTS}")
    if is_range:
        count = int(round((stop - start) / step))
        vals = [start + i * step for i in range(count + 1)]
        vals = [v for v in vals if v <= stop + 1e-9]
    return tuple(round(_check_esn0(v, "grid entry"), 4) for v in vals)


def _out_dir(args):
    d = Path(args.out_dir)
    d.mkdir(parents=True, exist_ok=True)
    return d


def _command_string(argv):
    return shlex.join([PROG, *argv])


def _load_with_overrides(args):
    check_workers(args.workers)
    cfg = load_config(args.config)
    changes = {}
    if args.grid is not None:
        changes["esn0_grid_db"] = parse_grid(args.grid)
    if args.seed is not None:
        changes["seed"] = args.seed
    if changes:
        cfg = dataclasses.replace(cfg, **changes)
    return cfg


def cmd_capacity(args, argv):
    grid = parse_grid(args.grid)
    points = mi_grid(grid, args.modulation)
    out = _out_dir(args) / f"capacity_{args.modulation}.csv"
    write_mi_csv(points, out)
    print(f"wrote {out}")
    if args.half_bit:
        esn0 = esn0_at_mi(0.5, args.modulation)
        ebn0 = ebn0_from_esn0(esn0, 0.5)
        print(f"mi = 0.5 bit at Es/N0 = {esn0:.4f} dB, Eb/N0 = {ebn0:.4f} dB")
    return 0


def _sweep_line(p):
    return (
        f"  esn0={p.esn0_db:.4f} dB ebn0={p.ebn0_db:.4f} dB "
        f"ber={p.ber_combined:.3e} fer={p.fer:.3e} frames={p.frames}"
    )


def _genie_line(gp):
    tag = "insignificant" if gp.insignificant else "significant"
    return (
        f"  esn0={gp.esn0_db:.4f} dB gap={gp.gap_inner_ber:.3e} "
        f"ci95={gp.ci95_affected + gp.ci95_genie:.3e} ({tag}, "
        f"{gp.affected.frames} frames)"
    )


def _run_command(args, argv, run, stem, write_csv, point_line):
    """Load, run, write <stem>.csv and <stem>_manifest.json, and print one
    line per point. Callers look ``run`` and ``write_csv`` up as they run,
    not from a table built at import, so a wrapper bound over this
    module's name (as the traced benchmark binds one) is the one called."""
    cfg = _load_with_overrides(args)
    out_dir = _out_dir(args)
    result = run(cfg, workers=args.workers)
    csv_path = out_dir / f"{stem}.csv"
    write_csv(result, csv_path)
    manifest = build_manifest(cfg, result, _command_string(argv), [csv_path])
    man_path = out_dir / f"{stem}_manifest.json"
    write_manifest(manifest, man_path)
    for p in result.points:
        print(point_line(p))
    print(f"wrote {csv_path}")
    print(f"wrote {man_path}")
    return 0


def cmd_ber_sweep(args, argv):
    run, stem = (run_bpsk_baseline, "bpsk_baseline") if args.baseline else (run_sweep, "dmm_sweep")
    return _run_command(args, argv, run, stem, write_sweep_csv, _sweep_line)


def cmd_genie_compare(args, argv):
    return _run_command(args, argv, run_genie_compare, "genie_compare", write_genie_csv, _genie_line)


def cmd_rate_bound(args, argv):
    if not 0 < args.r1 < 1:
        raise ConfigError(f"r1 must be in (0, 1), got {args.r1}")
    bound = rate_bound_outer(args.r1)
    print(f"R1 = {args.r1:.6f}")
    print(f"outer rate heuristic (from distances, not a capacity bound): R2 < R1/4 = {bound:.6f}")
    print("guidance at R1 = 1/2: keep R2 below 1/8 = 0.125000")
    if args.r2 is not None:
        if not 0 < args.r2 < 1:
            raise ConfigError(f"r2 must be in (0, 1), got {args.r2}")
        verdict = "satisfied" if args.r2 < bound else "violated"
        print(f"R2 = {args.r2:.6f}: {verdict} ({args.r2:.6f} {'<' if args.r2 < bound else '>='} {bound:.6f})")
    return 0


def _add_run_flags(sp):
    sp.add_argument("config", help="JSON configuration file")
    sp.add_argument(
        "--grid",
        help="override Es/N0 grid: start:stop:step or comma list (dB); "
        "write --grid=-3:0:0.5 when the first value is negative",
    )
    sp.add_argument("--seed", type=int, help="override master seed")
    sp.add_argument("--workers", type=int, default=1, help="worker processes (result-invariant)")
    sp.add_argument("--out-dir", default=".", help="directory for CSV and manifest outputs")


def build_parser():
    p = argparse.ArgumentParser(
        prog=PROG,
        description="Two-stream modulation testbench: capacity curves, BER sweeps, "
        "rotation-genie comparisons and the outer-rate distance heuristic.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("capacity", help="mutual information over an Es/N0 grid")
    sp.add_argument("--modulation", choices=("bpsk", "qpsk"), default="bpsk")
    sp.add_argument("--grid", default="-2:10:0.5", help="start:stop:step or comma list (dB)")
    sp.add_argument("--half-bit", action="store_true", help="also report where mi = 0.5 bit")
    sp.add_argument("--out-dir", default=".")
    sp.set_defaults(func=cmd_capacity)

    sp = sub.add_parser("ber-sweep", help="Monte-Carlo BER/FER sweep from a config file")
    _add_run_flags(sp)
    sp.add_argument("--baseline", choices=("bpsk",), help="inner code alone on plain BPSK")
    sp.set_defaults(func=cmd_ber_sweep)

    sp = sub.add_parser("genie-compare", help="receiver-estimated vs true derotation, paired noise")
    _add_run_flags(sp)
    sp.set_defaults(func=cmd_genie_compare)

    sp = sub.add_parser("rate-bound", help="outer-rate distance heuristic R1/4 for a given inner rate")
    sp.add_argument("r1", type=float, help="inner code rate")
    sp.add_argument("--r2", type=float, help="outer rate to validate")
    sp.set_defaults(func=cmd_rate_bound)

    return p


def main(argv=None):
    if argv is None:
        argv = sys.argv[1:]
    args = build_parser().parse_args(argv)
    try:
        return args.func(args, list(argv))
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
