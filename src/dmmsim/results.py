"""Run outputs: CSV tables and run manifests. Each CSV is one table of
columns, written by one writer; timing and provenance go to the manifest."""

import json
import subprocess
from datetime import datetime, timezone
from operator import attrgetter
from pathlib import Path

from . import __version__
from .config import config_to_dict
from .simkit import _stopped

# A CSV column is (header, value of a point, format spec); one table per
# file drives both its header and its rows.
SWEEP_COLUMNS = (
    ("esn0_db", attrgetter("esn0_db"), ".4f"),
    ("ebn0_db", attrgetter("ebn0_db"), ".4f"),
    ("ber_inner", attrgetter("ber_inner"), ".6e"),
    ("ber_outer", attrgetter("ber_outer"), ".6e"),
    ("ber_combined", attrgetter("ber_combined"), ".6e"),
    ("fer", attrgetter("fer"), ".6e"),
    ("frames", attrgetter("frames"), "d"),
    ("bits", attrgetter("bits"), "d"),
    ("bits_inner", attrgetter("bits_inner"), "d"),
    ("bits_outer", attrgetter("bits_outer"), "d"),
    ("errs_inner", attrgetter("errs_inner"), "d"),
    ("errs_outer", attrgetter("errs_outer"), "d"),
    ("frame_errors", attrgetter("frame_errors"), "d"),
    ("iters_inner_mean", attrgetter("iters_inner_mean"), ".3f"),
    ("iters_outer_mean", attrgetter("iters_outer_mean"), ".3f"),
)

# Frames, inner bits and the outer BER are common to both branches; they
# are read from the error-affected one.
GENIE_COLUMNS = (
    ("esn0_db", attrgetter("esn0_db"), ".4f"),
    ("ebn0_db", attrgetter("ebn0_db"), ".4f"),
    ("ber_inner_affected", attrgetter("affected.ber_inner"), ".6e"),
    ("ber_inner_genie", attrgetter("genie.ber_inner"), ".6e"),
    ("gap_inner_ber", attrgetter("gap_inner_ber"), ".6e"),
    ("ci95_affected", attrgetter("ci95_affected"), ".6e"),
    ("ci95_genie", attrgetter("ci95_genie"), ".6e"),
    ("insignificant", attrgetter("insignificant"), "d"),
    ("frames", attrgetter("affected.frames"), "d"),
    ("bits_inner", attrgetter("affected.bits_inner"), "d"),
    ("errs_inner_affected", attrgetter("affected.errs_inner"), "d"),
    ("errs_inner_genie", attrgetter("genie.errs_inner"), "d"),
    ("ber_outer", attrgetter("affected.ber_outer"), ".6e"),
)

# capacity.MiPoint rows; dB at 4 decimals
MI_COLUMNS = (
    ("esn0_db", attrgetter("esn0_db"), ".4f"),
    ("mi_bits", attrgetter("mi_bits"), ".9f"),
    ("ebn0_db", attrgetter("ebn0_db"), ".4f"),
)


def _write_csv(columns, points, path):
    lines = [",".join(name for name, _get, _fmt in columns)]
    lines += [",".join(format(get(p), fmt) for _name, get, fmt in columns) for p in points]
    Path(path).write_text("\n".join(lines) + "\n")


def write_sweep_csv(result, path):
    _write_csv(SWEEP_COLUMNS, result.points, path)


def write_genie_csv(result, path):
    _write_csv(GENIE_COLUMNS, result.points, path)


def write_mi_csv(points, path):
    _write_csv(MI_COLUMNS, points, path)


def version_string():
    """git-describe if the package sits in a git checkout, else the
    package version."""
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty", "--tags"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return f"v{__version__}"


def _stop_record(cfg, p):
    """Frames, frame errors and the stopping rule that ended one point;
    read from its counters, so the same for any worker count. A paired
    point is read from its error-affected branch, which the rule follows."""
    p = getattr(p, "affected", p)
    return {"esn0_db": p.esn0_db, "frames": p.frames, "frame_errors": p.frame_errors, "stop": _stopped(cfg, p)}


def build_manifest(cfg, result, command, outputs):
    """Run manifest of a SweepResult: its eta and every point with the
    reason it stopped."""
    return {
        "command": command,
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "eta": result.eta,
        "rates": {"r1": cfg.r1, "r2": cfg.r2, "eta": cfg.eta},
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        "points": [_stop_record(cfg, p) for p in result.points],
        "code_fingerprints": {
            "inner": cfg.inner.fingerprint(),
            "outer_base": cfg.outer.base.fingerprint(),
        },
        "version": version_string(),
    }


def write_manifest(manifest, path):
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
