"""End-to-end pipeline and Monte-Carlo harness.

A frame carries two independently coded streams on one symbol sequence:
the inner stream as BPSK, the outer stream as a per-symbol rotation of
0 or a quarter turn. The receiver stores the received sequence once and
uses it twice: demap and decode the outer stream, rebuild its code
bits, derotate, then demap and decode the inner stream.

Per-frame reproducibility: every frame derives three Philox streams
(inner bits, outer bits, noise) from (seed, frame_index), so results
are independent of scheduling. Frame noise is drawn in the derotated
(BPSK) frame and rotated together with the symbol; the channel
distribution is unchanged (isotropic Gaussian is rotation-invariant)
and exact genie derotation recovers the BPSK-baseline received sequence
bit-for-bit.

Sweeps process frames in fixed-size batches; the stopping rule is
evaluated only at batch boundaries, in batch order, so output is
identical for any worker count.
"""

import json
import math
import os
import subprocess
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .capacity import eta_total
from .channel import ChannelParams, SeededRng, add_noise, ebn0_from_esn0
from .ldpc import (
    LLR_CAP,
    CodeConstructionError,
    LdpcCode,
    RepetitionCode,
    decode_bp_full,
    encode,
    rep_combine,
    rep_encode,
)
from .modem import (
    Constellation,
    demap_inner_llr,
    demap_outer_hard,
    demap_outer_llr,
    map_bpsk,
    rotate_by_bits,
)

# Per-frame stream domains; frame i uses stream ids (i << 2) | domain.
DOMAIN_INNER_BITS = 0
DOMAIN_OUTER_BITS = 1
DOMAIN_NOISE = 2


def frame_stream(seed, frame_index, domain):
    """Independent reproducible stream for one frame and purpose."""
    return SeededRng(seed, (frame_index << 2) | domain)


class ConfigError(ValueError):
    """A configuration document or SystemConfig field is invalid."""


# Largest number of points an Es/N0 grid may hold, from a config file or a --grid.
MAX_GRID_POINTS = 10_000


def _is_int(v):
    # bool is a subclass of int, but a JSON true is not a count
    return isinstance(v, int) and not isinstance(v, bool)


def _is_real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)

# (field, its name in a config file, requirement, test) for each scalar field
_FIELD_RULES = (
    ("es", "es", "a positive finite number", lambda v: _is_real(v) and 0 < v < math.inf),
    ("max_iter", "max_iter", *_COUNT),
    ("min_frame_errors", "stop.min_frame_errors", *_COUNT),
    ("max_frames", "stop.max_frames", *_COUNT),
    ("batch_frames", "batch_frames", *_COUNT),
    ("seed", "seed", "an integer in [0, 2**64)", lambda v: _is_int(v) and 0 <= v < 2**64),
)


@dataclass(frozen=True)
class SystemConfig:
    """Full experiment description; immutable and shareable across workers.
    Every field is checked here; errors name it as a config file does."""

    inner: LdpcCode
    outer: RepetitionCode
    esn0_grid_db: tuple
    es: float = 1.0
    max_iter: int = 50
    min_frame_errors: int = 50
    max_frames: int = 1_000_000
    seed: int = 0
    batch_frames: int = 256

    def __post_init__(self):
        if self.inner.n_code != self.outer.n_code:
            raise ConfigError(
                f"inner code length {self.inner.n_code} != outer encoded length "
                f"{self.outer.n_code}; one bit of each stream rides on every symbol"
            )
        for name, label, requirement, ok in _FIELD_RULES:
            if not ok(getattr(self, name)):
                raise ConfigError(f"{label} must be {requirement}")
        if not self.esn0_grid_db:
            raise ConfigError("esn0_grid_db must be non-empty")
        if len(self.esn0_grid_db) > MAX_GRID_POINTS:
            raise ConfigError(
                f"esn0_grid_db has {len(self.esn0_grid_db)} points, more than {MAX_GRID_POINTS}"
            )
        for v in self.esn0_grid_db:
            if not _is_real(v) or math.isnan(v) or v == -math.inf:
                raise ConfigError(f"esn0_grid_db entry {v!r} must be a number, not NaN or -inf")
        object.__setattr__(self, "es", float(self.es))
        object.__setattr__(self, "esn0_grid_db", tuple(float(v) for v in self.esn0_grid_db))

    @property
    def r1(self):
        return self.inner.rate

    @property
    def r2(self):
        return self.outer.rate

    @property
    def eta(self):
        return eta_total(self.r1, self.r2)


@dataclass
class FrameTrace:
    """Every stage of one frame, as produced at the transmitter and receiver.
    The outer fields are None on a baseline frame, which has no outer stream.
    The transmit points are Constellation(es).points[2 * v1 + v2], or the
    BPSK points of v1 on a baseline frame."""

    frame_index: int
    esn0_db: float
    c1: np.ndarray
    v1: np.ndarray
    received: np.ndarray
    llr_inner: np.ndarray
    c1_hat: np.ndarray
    iters_inner: int
    converged_inner: bool
    c2: np.ndarray = None
    v2: np.ndarray = None
    llr_outer: np.ndarray = None
    c2_hat: np.ndarray = None
    v2_hat: np.ndarray = None
    iters_outer: int = None
    converged_outer: bool = None


def _resolve_esn0(cfg, esn0_db):
    if esn0_db is not None:
        return float(esn0_db)
    if len(cfg.esn0_grid_db) != 1:
        raise ConfigError("esn0_db is required when the grid has several points")
    return cfg.esn0_grid_db[0]


def _frame_bits(cfg, frame_index, domain, k):
    return frame_stream(cfg.seed, frame_index, domain).generator().integers(0, 2, k, dtype=np.uint8)


def _bpsk_front_end(cfg, frame_index, esn0_db):
    """A frame's inner bits, codeword and received BPSK sequence;
    the one place where its inner bits and noise are drawn."""
    params = ChannelParams.from_esn0_db(cfg.es, esn0_db)
    c1 = _frame_bits(cfg, frame_index, DOMAIN_INNER_BITS, cfg.inner.k_info)
    v1 = encode(cfg.inner, c1)
    y1 = add_noise(map_bpsk(v1, cfg.es), params, frame_stream(cfg.seed, frame_index, DOMAIN_NOISE))
    return params, c1, v1, y1


def _dmm_front_end(cfg, frame_index, esn0_db):
    """The BPSK frame with its observation rotated by the outer code bits."""
    params, c1, v1, y1 = _bpsk_front_end(cfg, frame_index, esn0_db)
    c2 = _frame_bits(cfg, frame_index, DOMAIN_OUTER_BITS, cfg.outer.k_info)
    v2 = rep_encode(cfg.outer, c2)
    y = rotate_by_bits(y1, v2)
    return params, c1, v1, c2, v2, y


def _outer_stage(cfg, y, params):
    cst = Constellation(cfg.es)
    if params.sigma2_dim > 0:
        llr_sym = demap_outer_llr(y, cst, params.sigma2_dim)
    else:
        llr_sym = (1.0 - 2.0 * demap_outer_hard(y, cst)) * LLR_CAP
    llr_outer = rep_combine(cfg.outer, llr_sym)
    hard_base, _post, iters, conv = decode_bp_full(cfg.outer.base, llr_outer, cfg.max_iter)
    c2_hat = hard_base[cfg.outer.base.info_positions]
    # A converged decode has zero syndrome, so hard_base is the codeword
    # its info bits re-encode to; only a failed decode needs the encoder.
    v2_base = hard_base if conv else encode(cfg.outer.base, c2_hat)
    v2_hat = np.repeat(v2_base, cfg.outer.rep_factor)
    return llr_outer, c2_hat, v2_hat, iters, conv


def _inner_receive(cfg, y1, params):
    """Demap and decode the inner stream of an already derotated sequence."""
    if params.sigma2_dim > 0:
        llr_inner = demap_inner_llr(y1, cfg.es, params.sigma2_dim)
    else:
        llr_inner = np.sign(y1[..., 0]) * LLR_CAP
    hard, _post, iters, conv = decode_bp_full(cfg.inner, llr_inner, cfg.max_iter)
    return llr_inner, hard[cfg.inner.info_positions], iters, conv


def run_frame(cfg, frame_index, esn0_db=None):
    """One full transmit/receive cycle; decoding failure is data, not error.

    The received sequence is stored once (``received``) and consumed by
    both receiver stages: the outer stream is decoded, its rotation bits
    ``v2_hat`` are rebuilt, and the inner stream is decoded after
    derotating by them.
    """
    esn0_db = _resolve_esn0(cfg, esn0_db)
    params, c1, v1, c2, v2, y = _dmm_front_end(cfg, frame_index, esn0_db)
    llr_outer, c2_hat, v2_hat, it2, conv2 = _outer_stage(cfg, y, params)
    llr_inner, c1_hat, it1, conv1 = _inner_receive(cfg, rotate_by_bits(y, v2_hat, inverse=True), params)
    return FrameTrace(
        frame_index=frame_index,
        esn0_db=esn0_db,
        c1=c1,
        v1=v1,
        received=y,
        llr_inner=llr_inner,
        c1_hat=c1_hat,
        iters_inner=it1,
        converged_inner=conv1,
        c2=c2,
        v2=v2,
        llr_outer=llr_outer,
        c2_hat=c2_hat,
        v2_hat=v2_hat,
        iters_outer=it2,
        converged_outer=conv2,
    )


def run_baseline_frame(cfg, frame_index, esn0_db=None):
    """Conventional BPSK with the inner code only, on the same bit and
    noise streams as run_frame; the received sequence equals run_frame's
    received sequence derotated by the true rotation bits, bit-for-bit."""
    esn0_db = _resolve_esn0(cfg, esn0_db)
    params, c1, v1, y = _bpsk_front_end(cfg, frame_index, esn0_db)
    llr_inner, c1_hat, it1, conv1 = _inner_receive(cfg, y, params)
    return FrameTrace(
        frame_index=frame_index,
        esn0_db=esn0_db,
        c1=c1,
        v1=v1,
        received=y,
        llr_inner=llr_inner,
        c1_hat=c1_hat,
        iters_inner=it1,
        converged_inner=conv1,
    )


# ------------------------------------------------------------------ sweeps


@dataclass
class _Counters:
    frames: int = 0
    errs_inner: int = 0
    errs_outer: int = 0
    bits_inner: int = 0
    bits_outer: int = 0
    frame_errors: int = 0
    iters_inner_sum: int = 0
    iters_outer_sum: int = 0

    def add_frame(self, c1, c1_hat, iters_inner, c2=None, c2_hat=None, iters_outer=None):
        """Count one frame; the outer arguments are None when it has no outer stream."""
        errs = int(np.count_nonzero(c1 != c1_hat))
        self.frames += 1
        self.errs_inner += errs
        self.bits_inner += c1.size
        self.iters_inner_sum += iters_inner
        if c2 is not None:
            errs_outer = int(np.count_nonzero(c2 != c2_hat))
            self.errs_outer += errs_outer
            self.bits_outer += c2.size
            self.iters_outer_sum += iters_outer
            errs += errs_outer
        self.frame_errors += 1 if errs else 0

    def __iadd__(self, other):
        for f in self.__dataclass_fields__:
            setattr(self, f, getattr(self, f) + getattr(other, f))
        return self


@dataclass(frozen=True)
class SweepPoint:
    esn0_db: float
    ebn0_db: float
    ber_inner: float
    ber_outer: float
    ber_combined: float
    fer: float
    frames: int
    bits_inner: int
    bits_outer: int
    errs_inner: int
    errs_outer: int
    frame_errors: int
    iters_inner_mean: float
    iters_outer_mean: float

    @property
    def bits(self):
        return self.bits_inner + self.bits_outer


@dataclass
class SweepResult:
    mode: str
    eta: float
    points: list


@dataclass(frozen=True)
class GeniePoint:
    esn0_db: float
    ebn0_db: float
    affected: SweepPoint
    genie: SweepPoint
    gap_inner_ber: float
    ci95_affected: float
    ci95_genie: float
    insignificant: bool


@dataclass
class GenieCompareResult:
    eta: float
    points: list


def _run_batch(cfg, esn0_db, kind, lo, hi):
    """Counters (primary, genie) of frames lo..hi-1; genie is empty unless kind is "pair"."""
    primary, genie = _Counters(), _Counters()
    for fi in range(lo, hi):
        if kind == "pair":
            _pair_frame(cfg, fi, esn0_db, primary, genie)
        else:
            t = run_frame(cfg, fi, esn0_db) if kind == "dmm" else run_baseline_frame(cfg, fi, esn0_db)
            primary.add_frame(t.c1, t.c1_hat, t.iters_inner, t.c2, t.c2_hat, t.iters_outer)
    return primary, genie


def _pair_frame(cfg, frame_index, esn0_db, affected, genie):
    # The genie branch derotates the receiver's received sequence by the
    # true rotation bits; when the rebuilt bits are exact the branches
    # coincide and the inner decode runs once.
    t = run_frame(cfg, frame_index, esn0_db)
    c1_hat, iters = t.c1_hat, t.iters_inner
    if not np.array_equal(t.v2_hat, t.v2):
        y1 = rotate_by_bits(t.received, t.v2, inverse=True)
        params = ChannelParams.from_esn0_db(cfg.es, t.esn0_db)
        _llr, c1_hat, iters, _conv = _inner_receive(cfg, y1, params)
    affected.add_frame(t.c1, t.c1_hat, t.iters_inner, t.c2, t.c2_hat, t.iters_outer)
    genie.add_frame(t.c1, c1_hat, iters, t.c2, t.c2_hat, t.iters_outer)


_WORKER_CFG = None


def _pool_init(cfg):
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _pool_batch(args):
    return _run_batch(_WORKER_CFG, *args)


def _stopped(cfg, counters):
    return (
        counters.frame_errors >= cfg.min_frame_errors
        or counters.frames >= cfg.max_frames
    )


def _batch_args(cfg, esn0_db, kind, j):
    """Pool arguments of batch j of a point, or None past max_frames."""
    lo = j * cfg.batch_frames
    if lo >= cfg.max_frames:
        return None
    return (esn0_db, kind, lo, min(lo + cfg.batch_frames, cfg.max_frames))


def _run_point(cfg, esn0_db, kind):
    """Accumulate one point's batches in index order until the stopping
    rule fires; the rule is checked at batch boundaries only."""
    primary, genie = _Counters(), _Counters()
    j = 0
    while not _stopped(cfg, primary):
        batch_primary, batch_genie = _run_batch(cfg, *_batch_args(cfg, esn0_db, kind, j))
        primary += batch_primary
        genie += batch_genie
        j += 1
    return primary, genie


def _run_rounds(cfg, kind, workers, pool):
    """(primary, genie) of every grid point, run on the pool in rounds.

    A round maps the next unmerged batch of every open point, in grid
    order. Only when fewer points than workers are open is the round
    topped up to ``workers`` with further batches of the open points, by
    depth, then grid order. Each point merges its results strictly in
    batch order and checks the stopping rule before each merge, so it
    counts the frames the serial loop counts; a batch of a point that has
    stopped is discarded, which only the top-up can produce.
    """
    grid = cfg.esn0_grid_db
    counters = [(_Counters(), _Counters()) for _ in grid]
    merged = [0] * len(grid)  # batches merged so far, per point
    while True:
        open_points = [i for i, (primary, _) in enumerate(counters) if not _stopped(cfg, primary)]
        if not open_points:
            return counters
        window = [(i, _batch_args(cfg, grid[i], kind, merged[i])) for i in open_points]
        depth = 1
        while len(window) < workers:
            extra = [
                (i, args) for i in open_points if (args := _batch_args(cfg, grid[i], kind, merged[i] + depth))
            ]
            if not extra:
                break
            window += extra[: workers - len(window)]
            depth += 1
        results = pool.map(_pool_batch, [args for _i, args in window])
        for (i, _args), (batch_primary, batch_genie) in zip(window, results):
            primary, genie = counters[i]
            if _stopped(cfg, primary):
                continue
            primary += batch_primary
            genie += batch_genie
            merged[i] += 1


def _make_point(esn0_db, eta, c):
    def ratio(a, b):
        return a / b if b else 0.0

    return SweepPoint(
        esn0_db=esn0_db,
        ebn0_db=ebn0_from_esn0(esn0_db, eta),
        ber_inner=ratio(c.errs_inner, c.bits_inner),
        ber_outer=ratio(c.errs_outer, c.bits_outer),
        ber_combined=ratio(c.errs_inner + c.errs_outer, c.bits_inner + c.bits_outer),
        fer=ratio(c.frame_errors, c.frames),
        frames=c.frames,
        bits_inner=c.bits_inner,
        bits_outer=c.bits_outer,
        errs_inner=c.errs_inner,
        errs_outer=c.errs_outer,
        frame_errors=c.frame_errors,
        iters_inner_mean=ratio(c.iters_inner_sum, c.frames),
        iters_outer_mean=ratio(c.iters_outer_sum, c.frames),
    )


def check_workers(workers):
    """Reject a worker count outside [1, os.cpu_count()]."""
    cores = os.cpu_count() or 1
    if not (_is_int(workers) and 1 <= workers <= cores):
        raise ConfigError(f"workers must be an integer in [1, {cores}], got {workers!r}")


def _grid(cfg, kind, workers, make):
    """make(esn0_db, primary, genie) per grid point: point after point on
    one worker, in rounds across the grid on a pool of several."""
    check_workers(workers)
    if workers == 1:
        counts = [_run_point(cfg, esn0, kind) for esn0 in cfg.esn0_grid_db]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init, initargs=(cfg,)) as pool:
            counts = _run_rounds(cfg, kind, workers, pool)
    return [make(esn0, *c) for esn0, c in zip(cfg.esn0_grid_db, counts)]


def _sweep(cfg, kind, eta, workers):
    points = _grid(cfg, kind, workers, lambda esn0, c, _genie: _make_point(esn0, eta, c))
    return SweepResult(mode=kind, eta=eta, points=points)


def run_sweep(cfg, workers=1):
    """BER/FER over the configured grid for the two-stream system.

    Each grid point runs frames (in fixed batches) until
    cfg.min_frame_errors frame errors on the combined stream or
    cfg.max_frames; zero-error points report their observed bit budget.
    """
    return _sweep(cfg, "dmm", cfg.eta, workers)


def run_bpsk_baseline(cfg, workers=1):
    """Plain BPSK with the inner code on the same seeds; eta = R1."""
    return _sweep(cfg, "baseline", cfg.r1, workers)


def _ci95_halfwidth(errs, bits):
    if bits == 0:
        return 0.0
    p = errs / bits
    return 1.96 * math.sqrt(p * (1.0 - p) / bits)


def _genie_point(cfg, esn0, aff_c, gen_c):
    aff = _make_point(esn0, cfg.eta, aff_c)
    gen = _make_point(esn0, cfg.eta, gen_c)
    gap = abs(aff.ber_inner - gen.ber_inner)
    ci_a = _ci95_halfwidth(aff.errs_inner, aff.bits_inner)
    ci_g = _ci95_halfwidth(gen.errs_inner, gen.bits_inner)
    return GeniePoint(
        esn0_db=esn0,
        ebn0_db=aff.ebn0_db,
        affected=aff,
        genie=gen,
        gap_inner_ber=gap,
        ci95_affected=ci_a,
        ci95_genie=ci_g,
        insignificant=gap <= ci_a + ci_g,
    )


def run_genie_compare(cfg, workers=1):
    """Paired sweeps on shared noise: receiver-estimated rotation bits
    vs the true ones. Both branches see the identical frame set; the
    stopping rule follows the error-affected branch. Outer-stream
    numbers are common to both branches by construction."""
    points = _grid(cfg, "pair", workers, lambda esn0, a, g: _genie_point(cfg, esn0, a, g))
    return GenieCompareResult(eta=cfg.eta, points=points)


# ------------------------------------------------------------ persistence


SWEEP_COLUMNS = (
    "esn0_db,ebn0_db,ber_inner,ber_outer,ber_combined,fer,frames,bits,"
    "bits_inner,bits_outer,errs_inner,errs_outer,frame_errors,"
    "iters_inner_mean,iters_outer_mean"
)

GENIE_COLUMNS = (
    "esn0_db,ebn0_db,ber_inner_affected,ber_inner_genie,gap_inner_ber,"
    "ci95_affected,ci95_genie,insignificant,frames,bits_inner,"
    "errs_inner_affected,errs_inner_genie,ber_outer"
)


def _fmt_sweep_row(p):
    return (
        f"{p.esn0_db:.4f},{p.ebn0_db:.4f},{p.ber_inner:.6e},{p.ber_outer:.6e},"
        f"{p.ber_combined:.6e},{p.fer:.6e},{p.frames},{p.bits},"
        f"{p.bits_inner},{p.bits_outer},{p.errs_inner},{p.errs_outer},"
        f"{p.frame_errors},{p.iters_inner_mean:.3f},{p.iters_outer_mean:.3f}"
    )


def write_sweep_csv(result, path):
    lines = [SWEEP_COLUMNS]
    lines += [_fmt_sweep_row(p) for p in result.points]
    Path(path).write_text("\n".join(lines) + "\n")


def write_genie_csv(result, path):
    lines = [GENIE_COLUMNS]
    for gp in result.points:
        a, g = gp.affected, gp.genie
        lines.append(
            f"{gp.esn0_db:.4f},{gp.ebn0_db:.4f},{a.ber_inner:.6e},{g.ber_inner:.6e},"
            f"{gp.gap_inner_ber:.6e},{gp.ci95_affected:.6e},{gp.ci95_genie:.6e},"
            f"{int(gp.insignificant)},{a.frames},{a.bits_inner},"
            f"{a.errs_inner},{g.errs_inner},{a.ber_outer:.6e}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


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


def config_to_dict(cfg):
    return {
        "inner_code": dict(cfg.inner.origin),
        "outer_code": {"base": dict(cfg.outer.base.origin), "rep_factor": cfg.outer.rep_factor},
        "es": cfg.es,
        "esn0_grid_db": list(cfg.esn0_grid_db),
        "max_iter": cfg.max_iter,
        "stop": {"min_frame_errors": cfg.min_frame_errors, "max_frames": cfg.max_frames},
        "seed": cfg.seed,
        "batch_frames": cfg.batch_frames,
        "rates": {"r1": cfg.r1, "r2": cfg.r2, "eta": cfg.eta},
    }


def _stop_record(cfg, p):
    """Frames, frame errors and the stopping rule that ended one point;
    read from its counters, so the same for any worker count."""
    stop = "min_frame_errors" if p.frame_errors >= cfg.min_frame_errors else "max_frames"
    return {"esn0_db": p.esn0_db, "frames": p.frames, "frame_errors": p.frame_errors, "stop": stop}


def build_manifest(cfg, command, outputs, eta=None, points=()):
    """Run manifest; ``points`` are the SweepPoints whose counters drove
    the stopping rule, listed with the reason each point stopped."""
    return {
        "command": command,
        "config": config_to_dict(cfg),
        "seed": cfg.seed,
        "eta": cfg.eta if eta is None else eta,
        "timestamp_utc": datetime.now(timezone.utc).isoformat(),
        "outputs": [str(p) for p in outputs],
        "points": [_stop_record(cfg, p) for p in points],
        "code_fingerprints": {
            "inner": cfg.inner.fingerprint(),
            "outer_base": cfg.outer.base.fingerprint(),
        },
        "version": version_string(),
    }


def write_manifest(manifest, path):
    Path(path).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------- config IO


def _expect(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _code_from_entry(entry, base_dir, where):
    try:
        return _build_code(entry, base_dir, where)
    except CodeConstructionError as exc:
        field = f"{where}.alist" if isinstance(entry, dict) and "alist" in entry else where
        raise ConfigError(f"{field}: {exc}") from exc


def _build_code(entry, base_dir, where):
    _expect(isinstance(entry, dict), f"{where} must be an object")
    if "alist" in entry:
        extra = set(entry) - {"alist"}
        _expect(not extra, f"{where}: unexpected fields {sorted(extra)}")
        _expect(isinstance(entry["alist"], str), f"{where}.alist must be a path string")
        p = Path(entry["alist"])
        if not p.is_absolute():
            p = base_dir / p
        _expect(p.exists(), f"{where}.alist: no such file {p}")
        return LdpcCode.from_alist(p)
    needed = {"n", "row_degree", "col_degree", "seed"}
    missing = needed - set(entry)
    _expect(not missing, f"{where}: missing fields {sorted(missing)}")
    extra = set(entry) - needed
    _expect(not extra, f"{where}: unexpected fields {sorted(extra)}")
    for k in needed:
        _expect(_is_int(entry[k]) and entry[k] >= 0, f"{where}.{k} must be a non-negative integer")
    return LdpcCode.random_regular(entry["n"], entry["row_degree"], entry["col_degree"], entry["seed"])


def load_config(path):
    """SystemConfig from a JSON document; every field of the dataclass
    is overridable and validation errors name the offending field.
    Values outside the code entries are checked by SystemConfig."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse")
    _expect(isinstance(data, dict), "config root must be an object")
    scalars = {"es", "max_iter", "seed", "batch_frames"}
    unknown = set(data) - scalars - {"inner_code", "outer_code", "esn0_grid_db", "stop"}
    _expect(not unknown, f"unknown config fields: {sorted(unknown)}")
    for k in ("inner_code", "outer_code", "esn0_grid_db"):
        _expect(k in data, f"missing required field {k}")
    base_dir = path.resolve().parent

    inner = _code_from_entry(data["inner_code"], base_dir, "inner_code")
    oc = data["outer_code"]
    _expect(isinstance(oc, dict), "outer_code must be an object")
    _expect("base" in oc, "outer_code.base is required")
    extra = set(oc) - {"base", "rep_factor"}
    _expect(not extra, f"outer_code: unexpected fields {sorted(extra)}")
    rep = oc.get("rep_factor", 1)
    _expect(_is_int(rep) and rep >= 1, "outer_code.rep_factor must be an integer >= 1")
    outer = RepetitionCode(_code_from_entry(oc["base"], base_dir, "outer_code.base"), rep)

    _expect(isinstance(data["esn0_grid_db"], list), "esn0_grid_db must be a list")
    kwargs = {k: data[k] for k in scalars & set(data)}
    stop = data.get("stop", {})
    _expect(isinstance(stop, dict), "stop must be an object")
    bad = set(stop) - {"min_frame_errors", "max_frames"}
    _expect(not bad, f"stop: unexpected fields {sorted(bad)}")
    kwargs.update(stop)
    return SystemConfig(inner=inner, outer=outer, esn0_grid_db=tuple(data["esn0_grid_db"]), **kwargs)
