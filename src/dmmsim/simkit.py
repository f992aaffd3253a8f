"""End-to-end pipeline and Monte-Carlo harness.

A frame carries two independently coded streams on one symbol sequence:
the inner stream as BPSK, the outer stream as a per-symbol rotation of
0 or a quarter turn. The receiver stores the received sequence once and
uses it twice: demap and decode the outer stream, rebuild its code
bits, derotate, then demap and decode the inner stream.

Per-frame reproducibility: every frame derives three Philox streams
(inner bits, outer bits, noise) from (seed, frame_index) through
``channel.philox``, so results are independent of scheduling. Frame
noise is drawn in the derotated (BPSK) frame and rotated together with
the symbol; the channel distribution is unchanged (isotropic Gaussian is
rotation-invariant) and exact genie derotation recovers the
BPSK-baseline received sequence bit-for-bit. The noise variance is
``channel.noise_var``'s: where it reads 0, from about 117 dB, a frame
draws no noise and both stages demap by hard decisions.

Sweeps process frames in fixed-size batches; the stopping rule is
evaluated only at batch boundaries, in batch order, so output is
identical for any worker count.
"""

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .channel import _is_int, add_noise, ebn0_from_esn0, noise_var, philox
# load_config is re-exported: the traced benchmark (perfbench/spans.py) binds simkit.load_config
from .config import MAX_FRAMES, ConfigError, _check_esn0, check_workers, load_config
from .ldpc import (
    LLR_CAP,
    decode_bp_full,
    encode,
    rep_combine,
    rep_encode,
)
from .modem import (
    demap_inner_llr,
    demap_outer_hard,
    demap_outer_llr,
    map_bpsk,
    rotate_by_bits,
)

# Per-frame stream domains; frame i uses stream ids (i << 2) | domain,
# which stay below 2**63, the code-construction stream
# (ldpc._CODEGEN_STREAM), for every frame index below 2**61.
DOMAIN_INNER_BITS = 0
DOMAIN_OUTER_BITS = 1
DOMAIN_NOISE = 2


def frame_stream(seed, frame_index, domain):
    """The generator of one frame and purpose."""
    return philox(seed, (frame_index << 2) | domain)


@dataclass
class LevelTrace:
    """One decoded level of a frame: the decoder input, the decoded
    information bits, the iteration count and the convergence flag."""

    llr: np.ndarray
    info_hat: np.ndarray
    iters: int
    converged: bool


@dataclass
class FrameTrace:
    """Every stage of one frame, as produced at the transmitter and receiver.
    The outer fields are None on a baseline frame, which has no outer stream.
    The transmit points are modem.POINTS[2 * v1 + v2], or the BPSK points
    of v1 on a baseline frame."""

    frame_index: int
    esn0_db: float
    c1: np.ndarray
    v1: np.ndarray
    received: np.ndarray
    inner: LevelTrace
    c2: np.ndarray = None
    v2: np.ndarray = None
    v2_hat: np.ndarray = None
    outer: LevelTrace = None


def _check_frame_index(frame_index):
    if not (_is_int(frame_index) and 0 <= frame_index < MAX_FRAMES):
        raise ConfigError(f"frame_index must be an integer in [0, 2**61), got {frame_index!r}")


def _frame_bits(cfg, frame_index, domain, k):
    return frame_stream(cfg.seed, frame_index, domain).integers(0, 2, k, dtype=np.uint8)


def _bpsk_front_end(cfg, frame_index, esn0_db):
    """A frame's inner bits, codeword and received BPSK sequence;
    the one place where its inner bits and noise are drawn."""
    sigma2_dim = noise_var(esn0_db)
    c1 = _frame_bits(cfg, frame_index, DOMAIN_INNER_BITS, cfg.inner.k_info)
    v1 = encode(cfg.inner, c1)
    y1 = add_noise(map_bpsk(v1), sigma2_dim, frame_stream(cfg.seed, frame_index, DOMAIN_NOISE))
    return sigma2_dim, c1, v1, y1


def _outer_stage(cfg, y, sigma2_dim):
    """The outer level of a received sequence and the rotation bits it rebuilds."""
    if sigma2_dim > 0:
        llr_sym = demap_outer_llr(y, sigma2_dim)
    else:
        llr_sym = (1.0 - 2.0 * demap_outer_hard(y)) * LLR_CAP
    llr = rep_combine(cfg.outer, llr_sym)
    hard_base, _post, iters, conv = decode_bp_full(cfg.outer.base, llr, cfg.max_iter)
    c2_hat = hard_base[cfg.outer.base.info_positions]
    # A converged decode has zero syndrome, so hard_base is the codeword
    # its info bits re-encode to; only a failed decode needs the encoder.
    v2_base = hard_base if conv else encode(cfg.outer.base, c2_hat)
    return LevelTrace(llr, c2_hat, iters, conv), np.repeat(v2_base, cfg.outer.rep_factor)


def _inner_receive(cfg, y1, sigma2_dim):
    """The inner level of an already derotated sequence."""
    if sigma2_dim > 0:
        llr = demap_inner_llr(y1, sigma2_dim)
    else:
        llr = np.sign(y1[..., 0]) * LLR_CAP
    hard, _post, iters, conv = decode_bp_full(cfg.inner, llr, cfg.max_iter)
    return LevelTrace(llr, hard[cfg.inner.info_positions], iters, conv)


def run_frame(cfg, frame_index, esn0_db):
    """One full transmit/receive cycle; decoding failure is data, not error.

    The transmitter rotates the BPSK frame's observation by the outer
    code bits. The received sequence is stored once (``received``) and
    consumed by both receiver stages: the outer stream is decoded, its
    rotation bits ``v2_hat`` are rebuilt, and the inner stream is decoded
    after derotating by them.
    """
    _check_frame_index(frame_index)
    esn0_db = _check_esn0(esn0_db, "esn0_db", frame=True)
    sigma2_dim, c1, v1, y1 = _bpsk_front_end(cfg, frame_index, esn0_db)
    c2 = _frame_bits(cfg, frame_index, DOMAIN_OUTER_BITS, cfg.outer.k_info)
    v2 = rep_encode(cfg.outer, c2)
    y = rotate_by_bits(y1, v2)
    outer, v2_hat = _outer_stage(cfg, y, sigma2_dim)
    inner = _inner_receive(cfg, rotate_by_bits(y, v2_hat, inverse=True), sigma2_dim)
    return FrameTrace(frame_index, esn0_db, c1, v1, y, inner, c2, v2, v2_hat, outer)


def run_baseline_frame(cfg, frame_index, esn0_db):
    """Conventional BPSK with the inner code only, on the same bit and
    noise streams as run_frame; the received sequence equals run_frame's
    received sequence derotated by the true rotation bits, bit-for-bit."""
    _check_frame_index(frame_index)
    esn0_db = _check_esn0(esn0_db, "esn0_db", frame=True)
    sigma2_dim, c1, v1, y = _bpsk_front_end(cfg, frame_index, esn0_db)
    return FrameTrace(frame_index, esn0_db, c1, v1, y, _inner_receive(cfg, y, sigma2_dim))


# ------------------------------------------------------------------ sweeps


def _ratio(num, den):
    """A property: attribute ``num`` over attribute ``den``, 0.0 when ``den`` is 0."""

    def get(self):
        d = getattr(self, den)
        return getattr(self, num) / d if d else 0.0

    return property(get)


@dataclass
class SweepPoint:
    """The error tally of one grid point: its Es/N0, its Eb/N0 and the
    integer counters of the frames it ran, stored once; every rate and
    mean is computed from them."""

    esn0_db: float
    ebn0_db: float
    frames: int = 0
    errs_inner: int = 0
    errs_outer: int = 0
    bits_inner: int = 0
    bits_outer: int = 0
    frame_errors: int = 0
    iters_inner_sum: int = 0
    iters_outer_sum: int = 0

    def add_frame(self, trace):
        """Count one FrameTrace; a baseline frame (``outer`` None) has no outer stream."""
        errs = int(np.count_nonzero(trace.c1 != trace.inner.info_hat))
        self.frames += 1
        self.errs_inner += errs
        self.bits_inner += trace.c1.size
        self.iters_inner_sum += trace.inner.iters
        if trace.outer is not None:
            errs_outer = int(np.count_nonzero(trace.c2 != trace.outer.info_hat))
            self.errs_outer += errs_outer
            self.bits_outer += trace.c2.size
            self.iters_outer_sum += trace.outer.iters
            errs += errs_outer
        self.frame_errors += 1 if errs else 0

    def __iadd__(self, other):
        """Add the counters of ``other``, a tally of further frames of this point."""
        for f in fields(self)[2:]:  # the counters, after esn0_db and ebn0_db
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    @property
    def errs(self):
        return self.errs_inner + self.errs_outer

    @property
    def bits(self):
        return self.bits_inner + self.bits_outer

    ber_inner = _ratio("errs_inner", "bits_inner")
    ber_outer = _ratio("errs_outer", "bits_outer")
    ber_combined = _ratio("errs", "bits")
    fer = _ratio("frame_errors", "frames")
    iters_inner_mean = _ratio("iters_inner_sum", "frames")
    iters_outer_mean = _ratio("iters_outer_sum", "frames")


def _ci95_halfwidth(errs, bits):
    if bits == 0:
        return 0.0
    p = errs / bits
    return 1.96 * math.sqrt(p * (1.0 - p) / bits)


@dataclass(frozen=True)
class GeniePoint:
    """The two branches of one paired grid point, on the same frames:
    derotated by the receiver's rebuilt rotation bits and by the true ones."""

    affected: SweepPoint
    genie: SweepPoint

    @property
    def esn0_db(self):
        return self.affected.esn0_db

    @property
    def ebn0_db(self):
        return self.affected.ebn0_db

    @property
    def gap_inner_ber(self):
        return abs(self.affected.ber_inner - self.genie.ber_inner)

    @property
    def ci95_affected(self):
        return _ci95_halfwidth(self.affected.errs_inner, self.affected.bits_inner)

    @property
    def ci95_genie(self):
        return _ci95_halfwidth(self.genie.errs_inner, self.genie.bits_inner)

    @property
    def insignificant(self):
        return self.gap_inner_ber <= self.ci95_affected + self.ci95_genie


@dataclass
class SweepResult:
    """One run over the grid: SweepPoints of a DMM or BPSK baseline sweep,
    or GeniePoints of a paired one."""

    eta: float
    points: list


def _eta(cfg, kind):
    """Information bits per symbol of a run: R1 on the BPSK baseline, else R1 + R2."""
    return cfg.r1 if kind == "baseline" else cfg.eta


def _tallies(cfg, esn0_db, kind):
    """Empty tallies (primary, genie) of one point."""
    ebn0_db = ebn0_from_esn0(esn0_db, _eta(cfg, kind))
    return SweepPoint(esn0_db, ebn0_db), SweepPoint(esn0_db, ebn0_db)


def _run_batch(cfg, esn0_db, kind, lo, hi):
    """Tallies (primary, genie) of frames lo..hi-1; genie stays empty unless kind is "pair"."""
    primary, genie = _tallies(cfg, esn0_db, kind)
    for fi in range(lo, hi):
        if kind == "pair":
            _pair_frame(cfg, fi, esn0_db, primary, genie)
        elif kind == "dmm":
            primary.add_frame(run_frame(cfg, fi, esn0_db))
        else:
            primary.add_frame(run_baseline_frame(cfg, fi, esn0_db))
    return primary, genie


def _pair_frame(cfg, frame_index, esn0_db, affected, genie):
    # The genie branch derotates the receiver's received sequence by the
    # true rotation bits; when the rebuilt bits are exact the branches
    # coincide and the inner decode runs once.
    t = run_frame(cfg, frame_index, esn0_db)
    affected.add_frame(t)
    if not np.array_equal(t.v2_hat, t.v2):
        y1 = rotate_by_bits(t.received, t.v2, inverse=True)
        t = replace(t, inner=_inner_receive(cfg, y1, noise_var(esn0_db)))
    genie.add_frame(t)


_WORKER_CFG = None


def _pool_init(cfg):
    global _WORKER_CFG
    _WORKER_CFG = cfg


def _pool_batch(args):
    return _run_batch(_WORKER_CFG, *args)


def _stopped(cfg, point):
    """The stopping rule that a point's tally has met, or None while it
    runs; frame errors win when both limits are reached at once."""
    if point.frame_errors >= cfg.min_frame_errors:
        return "min_frame_errors"
    if point.frames >= cfg.max_frames:
        return "max_frames"
    return None


def _batch_args(cfg, esn0_db, kind, j):
    """Pool arguments of batch j of a point, or None past max_frames."""
    lo = j * cfg.batch_frames
    if lo >= cfg.max_frames:
        return None
    return (esn0_db, kind, lo, min(lo + cfg.batch_frames, cfg.max_frames))


def _run_point(cfg, esn0_db, kind):
    """(primary, genie) of one point: the round loop over a one-point grid
    on one worker, each batch run in-process through ``_run_batch``."""
    return _run_rounds(cfg, kind, (esn0_db,), 1, lambda w: [_run_batch(cfg, *args) for args in w])[0]


def _run_rounds(cfg, kind, grid, workers, map_batches):
    """(primary, genie) of every point of ``grid``, run in rounds; the
    one loop that merges batch tallies, for every worker count.

    A round maps, through ``map_batches``, the first
    max(open points, ``workers``) unmerged batches of the open points in
    depth-then-grid order: the next batch of every open point, topped up
    with further batches only when fewer points than workers are open.
    Each point merges its results strictly in batch order and checks the
    stopping rule before each merge, so its tally does not depend on the
    worker count; a batch of a point that has stopped is discarded, which
    only the top-up can produce.
    """
    tallies = [_tallies(cfg, esn0, kind) for esn0 in grid]
    merged = [0] * len(grid)  # batches merged so far, per point
    while True:
        open_points = [i for i, (primary, _) in enumerate(tallies) if not _stopped(cfg, primary)]
        if not open_points:
            return tallies
        window = [
            (i, args)
            for depth in range(workers)
            for i in open_points
            if (args := _batch_args(cfg, grid[i], kind, merged[i] + depth))
        ][: max(len(open_points), workers)]
        results = map_batches([args for _i, args in window])
        for (i, _args), (batch_primary, batch_genie) in zip(window, results):
            primary, genie = tallies[i]
            if _stopped(cfg, primary):
                continue
            primary += batch_primary
            genie += batch_genie
            merged[i] += 1


def _sweep(cfg, kind, workers):
    """A SweepResult over the grid. One worker runs the round loop
    in-process, point after point (one ``_run_point`` each); several run
    it once over the whole grid on a process pool."""
    check_workers(workers)
    if workers == 1:
        tallies = [_run_point(cfg, esn0, kind) for esn0 in cfg.esn0_grid_db]
    else:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init, initargs=(cfg,)) as pool:
            tallies = _run_rounds(cfg, kind, cfg.esn0_grid_db, workers, lambda w: pool.map(_pool_batch, w))
    points = [GeniePoint(*pair) if kind == "pair" else pair[0] for pair in tallies]
    return SweepResult(eta=_eta(cfg, kind), points=points)


def run_sweep(cfg, workers=1):
    """BER/FER over the configured grid for the two-stream system.

    Each grid point runs frames (in fixed batches) until
    cfg.min_frame_errors frame errors on the combined stream or
    cfg.max_frames; zero-error points report their observed bit budget.
    """
    return _sweep(cfg, "dmm", workers)


def run_bpsk_baseline(cfg, workers=1):
    """Plain BPSK with the inner code on the same seeds; eta = R1."""
    return _sweep(cfg, "baseline", workers)


def run_genie_compare(cfg, workers=1):
    """Paired sweeps on shared noise: receiver-estimated rotation bits
    vs the true ones. Both branches see the identical frame set; the
    stopping rule follows the error-affected branch. Outer-stream
    numbers are common to both branches by construction."""
    return _sweep(cfg, "pair", workers)
