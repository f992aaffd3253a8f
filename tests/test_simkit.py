import copy
import json
import math
import re
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dmmsim import cli, config, simkit
from dmmsim.channel import ebn0_from_esn0, noise_var, philox
from dmmsim.ldpc import _CODEGEN_STREAM, LdpcCode, RepetitionCode, encode, rep_combine
from dmmsim.modem import (
    POINTS,
    demap_inner_llr,
    demap_outer_llr,
    map_bpsk,
    rotate_by_bits,
)
from dmmsim.config import ConfigError, SystemConfig, config_to_dict, load_config
from dmmsim.results import build_manifest, write_genie_csv, write_manifest, write_sweep_csv
from dmmsim.simkit import (
    DOMAIN_INNER_BITS,
    DOMAIN_NOISE,
    DOMAIN_OUTER_BITS,
    GeniePoint,
    SweepPoint,
    SweepResult,
    frame_stream,
    run_baseline_frame,
    run_bpsk_baseline,
    run_frame,
    run_genie_compare,
    run_sweep,
)
from oracles import (
    GENIE_HEADER_FORMER,
    SWEEP_HEADER_FORMER,
    genie_row_former,
    sweep_point_former,
    sweep_row_former,
)


def small_config(**overrides):
    inner = LdpcCode.random_regular(96, 6, 3, seed=5)
    outer = RepetitionCode(LdpcCode.random_regular(24, 6, 4, seed=8), rep_factor=4)
    kwargs = dict(
        inner=inner,
        outer=outer,
        esn0_grid_db=(-1.0,),
        max_iter=30,
        min_frame_errors=5,
        max_frames=64,
        seed=11,
        batch_frames=8,
    )
    kwargs.update(overrides)
    return SystemConfig(**kwargs)


def test_config_invariants():
    cfg = small_config()
    assert cfg.r1 == pytest.approx(0.5)
    assert cfg.r2 == pytest.approx(1 / 12)
    assert cfg.eta == pytest.approx(7 / 12)
    with pytest.raises(ConfigError):
        small_config(outer=RepetitionCode(LdpcCode.random_regular(24, 6, 4, seed=8), 3))
    with pytest.raises(ConfigError):
        small_config(esn0_grid_db=())
    with pytest.raises(ConfigError):
        small_config(max_iter=0)
    for field, value in [
        ("max_iter", 2.5),
        ("max_iter", True),
        ("seed", -1),
        ("seed", 2**64),
        ("esn0_grid_db", (True,)),
    ]:
        with pytest.raises(ConfigError, match=field):
            small_config(**{field: value})


def test_noiseless_roundtrip():
    cfg = small_config(esn0_grid_db=(math.inf,))
    for fi in range(5):
        t = run_frame(cfg, fi, math.inf)
        assert np.array_equal(t.inner.info_hat, t.c1)
        assert np.array_equal(t.outer.info_hat, t.c2)
        assert np.array_equal(t.v2_hat, t.v2)
        assert t.inner.converged and t.outer.converged


def _counters(p):
    """The counters of a point, one list per branch of a paired point."""
    branches = (p.affected, p.genie) if isinstance(p, GeniePoint) else (p,)
    return [[getattr(b, f.name) for f in fields(SweepPoint)[2:]] for b in branches]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("sweep", [run_sweep, run_bpsk_baseline, run_genie_compare])
def test_frames_above_the_noiseless_threshold_count_as_noiseless(sweep):
    # from about 117 dB the noise variance reads 0; a subnormal one would
    # overflow the demappers' divisions
    grid = (120.0, 300.0, 3078.0, 3100.0, 3200.0, math.inf)
    points = sweep(small_config(esn0_grid_db=grid, max_frames=16)).points
    assert {branch[0] for branch in _counters(points[-1])} == {16}  # frames
    for p in points[:-1]:
        assert _counters(p) == _counters(points[-1])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [run_frame, run_baseline_frame])
@pytest.mark.parametrize("esn0_db", [120.0, 3078.0, 3200.0])
def test_frame_above_the_noiseless_threshold_is_noiseless(run, esn0_db):
    cfg = small_config()
    t, noiseless = run(cfg, 2, esn0_db), run(cfg, 2, math.inf)
    assert t.received.tobytes() == noiseless.received.tobytes()
    assert t.inner.llr.tobytes() == noiseless.inner.llr.tobytes()


@pytest.mark.parametrize("run", [run_frame, run_baseline_frame])
def test_frame_index_checked(run):
    cfg = small_config()
    (esn0_db,) = cfg.esn0_grid_db
    assert run(cfg, 2**61 - 1, esn0_db).frame_index == 2**61 - 1
    for frame_index in (True, -1, np.int64(3), 2**61, 2**62, 1.5, None):
        with pytest.raises(ConfigError, match="frame_index"):
            run(cfg, frame_index, esn0_db)


def test_last_frame_streams_stay_below_the_code_stream():
    # frame 2**61 would key its inner bits at 2**63, the code-construction
    # stream; the last valid frame keys every purpose below it
    last = 2**61 - 1
    code_draws = philox(7, _CODEGEN_STREAM).integers(0, 2**63, 4)
    for domain in (DOMAIN_INNER_BITS, DOMAIN_OUTER_BITS, DOMAIN_NOISE):
        stream_id = (last << 2) | domain
        assert stream_id < _CODEGEN_STREAM
        draws = frame_stream(7, last, domain).integers(0, 2**63, 4)
        assert np.array_equal(draws, philox(7, stream_id).integers(0, 2**63, 4))
        assert not np.array_equal(draws, code_draws)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("run", [run_frame, run_baseline_frame])
@pytest.mark.parametrize("esn0_db", ["1", math.nan, -math.inf, True])
def test_explicit_esn0_checked_like_grid_entries(run, esn0_db):
    # refused before any frame work, so -inf raises no numpy warning
    with pytest.raises(ConfigError, match="esn0_db .* must be a number, not NaN or -inf"):
        run(small_config(), 0, esn0_db=esn0_db)


def test_explicit_integer_esn0_runs_as_float():
    t = run_frame(small_config(), 0, esn0_db=1)
    assert type(t.esn0_db) is float and t.esn0_db == 1.0


def test_frame_trace_lengths_consistent():
    cfg = small_config()
    t = run_frame(cfg, 0, esn0_db=-1.0)
    assert t.c1.size == cfg.inner.k_info
    assert t.v1.size == cfg.inner.n_code
    assert t.c2.size == cfg.outer.k_info
    assert t.v2.size == cfg.outer.n_code
    assert t.received.shape == (cfg.inner.n_code, 2)
    assert t.outer.llr.size == cfg.outer.base.n_code
    assert t.inner.llr.size == cfg.inner.n_code


def test_genie_equivalence_llr_bit_identical():
    # Derotating the received sequence by the true rotation bits recovers
    # the BPSK baseline's received sequence and inner LLRs bit for bit.
    cfg = small_config()
    s2d = noise_var(-2.0)
    for fi in range(30):
        t = run_frame(cfg, fi, esn0_db=-2.0)
        b = run_baseline_frame(cfg, fi, esn0_db=-2.0)
        y1 = rotate_by_bits(t.received, t.v2, inverse=True)
        assert y1.tobytes() == b.received.tobytes()
        assert demap_inner_llr(y1, s2d).tobytes() == b.inner.llr.tobytes()
        assert np.array_equal(t.c1, b.c1)


def test_received_sequence_used_twice():
    # Both receiver stages must consume the stored received sequence:
    # recomputing each stage's input from trace.received reproduces the
    # recorded decoder inputs exactly.
    cfg = small_config()
    t = run_frame(cfg, 3, esn0_db=-1.0)
    s2d = noise_var(-1.0)
    again_outer = rep_combine(cfg.outer, demap_outer_llr(t.received, s2d))
    assert np.array_equal(again_outer, t.outer.llr)
    y1 = rotate_by_bits(t.received, t.v2_hat, inverse=True)
    again_inner = demap_inner_llr(y1, s2d)
    assert np.array_equal(again_inner, t.inner.llr)


def test_symbols_follow_mapping():
    cfg = small_config(esn0_grid_db=(math.inf,))
    t = run_frame(cfg, 1, math.inf)
    pts = POINTS
    want = np.array([pts[2 * int(a) + int(b)] for a, b in zip(t.v1, t.v2)])
    assert np.array_equal(t.received, want)  # noiseless


def test_seed_isolation_noise_independent_of_outer_stream():
    # Same master seed, different outer code: the noise and inner bits
    # must not change.
    cfg_a = small_config()
    cfg_b = small_config(outer=RepetitionCode(LdpcCode.random_regular(24, 6, 4, seed=99), 4))
    for fi in (0, 7):
        ta = run_frame(cfg_a, fi, esn0_db=-1.0)
        tb = run_frame(cfg_b, fi, esn0_db=-1.0)
        assert np.array_equal(ta.c1, tb.c1)
        # noise in the derotated frame = derotate(received) - bpsk(v1)
        na = rotate_by_bits(ta.received, ta.v2, inverse=True)
        nb = rotate_by_bits(tb.received, tb.v2, inverse=True)
        na[:, 0] -= 1.0 - 2.0 * ta.v1
        nb[:, 0] -= 1.0 - 2.0 * tb.v1
        assert np.array_equal(na, nb)


def test_wrong_beta_lands_on_imaginary_axis():
    # One outer bit error makes the derotated symbol land on the
    # imaginary axis, so the inner LLR for that symbol is exactly 0.
    y_true_beta0 = POINTS[0]  # (+1, 0): v1 = 0, v2 = 0
    wrongly_derotated = rotate_by_bits(y_true_beta0, 1, inverse=True)
    assert np.array_equal(wrongly_derotated, [0.0, -1.0])
    assert demap_inner_llr(wrongly_derotated, 0.5) == 0.0
    y_true_beta1 = POINTS[1]  # (0, +1): v1 = 0, v2 = 1
    not_derotated = rotate_by_bits(y_true_beta1, 0, inverse=True)
    assert np.array_equal(not_derotated, [0.0, 1.0])
    assert demap_inner_llr(not_derotated, 0.5) == 0.0


def test_sweep_accounting_and_ebn0():
    cfg = small_config(esn0_grid_db=(-2.0, 2.0))
    res = run_sweep(cfg)
    assert res.eta == pytest.approx(7 / 12)
    for p in res.points:
        assert p.errs_inner <= p.bits_inner
        assert p.errs_outer <= p.bits_outer
        assert p.bits == p.bits_inner + p.bits_outer
        combined = (p.errs_inner + p.errs_outer) / p.bits
        assert p.ber_combined == combined
        assert p.fer == p.frame_errors / p.frames
        assert p.ebn0_db == ebn0_from_esn0(p.esn0_db, res.eta)
        assert p.frames >= 1


def test_sweep_duplicate_run_identical():
    cfg = small_config()
    assert run_sweep(cfg) == run_sweep(cfg)


def test_sweep_worker_count_invariant():
    cfg = small_config(max_frames=32)
    assert run_sweep(cfg, workers=1) == run_sweep(cfg, workers=2)


# all-error, waterfall and error-free points of small_config's codes
INVARIANCE_GRID_DB = (-10.0, -2.0, -1.0, 0.0, 12.0)


@st.composite
def pooled_configs(draw):
    batch_frames = draw(st.integers(1, 8))
    # the last batch is partial unless batch_frames is 1
    max_frames = batch_frames * draw(st.integers(0, 4)) + draw(st.integers(1, max(batch_frames - 1, 1)))
    return small_config(
        esn0_grid_db=tuple(draw(st.lists(st.sampled_from(INVARIANCE_GRID_DB), min_size=1, max_size=5))),
        batch_frames=batch_frames,
        max_frames=max_frames,
        min_frame_errors=draw(st.integers(1, 6)),
    )


# every example forks three pools
@settings(max_examples=8, deadline=None)
@given(cfg=pooled_configs())
@example(cfg=small_config(esn0_grid_db=(-10.0, -1.0, 12.0), batch_frames=4, max_frames=10, min_frame_errors=3))
# one open point: the pool runs a speculative batch that must be discarded
@example(cfg=small_config(esn0_grid_db=(-10.0,), batch_frames=2, max_frames=9, min_frame_errors=1))
def test_grid_results_invariant_to_workers(cfg):
    for run in (run_sweep, run_bpsk_baseline, run_genie_compare):
        assert run(cfg, workers=1) == run(cfg, workers=2)


_ROUND_CFG = small_config()
_FRAME_TALLIES = {}  # (esn0_db, kind, frame index) -> _run_batch of that one frame
_real_run_batch = simkit._run_batch


def _batch_of_memoized_frames(cfg, esn0_db, kind, lo, hi):
    """``_run_batch`` of _ROUND_CFG's codes and seed, summed from one-frame
    batches that are each run once per session; only the stopping fields
    vary between examples, and they do not change a frame."""
    primary, genie = simkit._tallies(cfg, esn0_db, kind)
    for fi in range(lo, hi):
        key = (esn0_db, kind, fi)
        if key not in _FRAME_TALLIES:
            _FRAME_TALLIES[key] = _real_run_batch(cfg, esn0_db, kind, fi, fi + 1)
        primary += _FRAME_TALLIES[key][0]
        genie += _FRAME_TALLIES[key][1]
    return primary, genie


@settings(max_examples=300, deadline=None)
@given(
    draws=st.lists(st.sampled_from((-10.0, -1.0, 12.0)), min_size=1, max_size=5),
    batch_frames=st.integers(1, 4),
    max_frames=st.integers(1, 12),
    min_frame_errors=st.integers(1, 6),
    workers=st.integers(2, 5),
    kind=st.sampled_from(("dmm", "baseline", "pair")),
)
def test_round_schedule(draws, batch_frames, max_frames, min_frame_errors, workers, kind):
    # The pool's round loop, driven in-process by a mapper that records
    # each round's window. Every grid entry is its own float object, so a
    # mapped batch names its point by identity even where two points
    # share an Es/N0.
    cfg = replace(_ROUND_CFG, batch_frames=batch_frames, max_frames=max_frames, min_frame_errors=min_frame_errors)
    grid = tuple(v + 0.0 for v in draws)
    point = {id(v): i for i, v in enumerate(grid)}
    windows = []

    def recording_map(window):
        windows.append([(point[id(esn0_db)], lo) for esn0_db, _kind, lo, _hi in window])
        return [_batch_of_memoized_frames(cfg, *args) for args in window]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simkit, "_run_batch", _batch_of_memoized_frames)
        tallies = simkit._run_rounds(cfg, kind, grid, workers, recording_map)
        assert tallies == [simkit._run_point(cfg, esn0_db, kind) for esn0_db in grid]
    for i, (primary, _genie) in enumerate(tallies):
        los = [lo for window in windows for j, lo in window if j == i]
        # each batch mapped once, in index order, from frame 0
        assert los == list(range(0, batch_frames * len(los), batch_frames))
        # the batches merged are those that cover the counted frames
        assert 0 <= len(los) - math.ceil(primary.frames / batch_frames) <= workers - 1
    for r, window in enumerate(windows):
        # a point that maps in this round or later was open at its start
        assert len(window) >= len({i for later in windows[r:] for i, _lo in later})


def tally_of(esn0_db, eta, traces):
    """A fresh SweepPoint that has counted the traces one by one."""
    point = SweepPoint(esn0_db, ebn0_from_esn0(esn0_db, eta))
    for t in traces:
        point.add_frame(t)
    return point


@settings(max_examples=15, deadline=None)
@given(
    grid=st.lists(st.sampled_from(INVARIANCE_GRID_DB), min_size=1, max_size=3),
    max_frames=st.integers(1, 6),
    seed=st.integers(0, 2**64 - 1),
)
# errors on both streams at -10 and -1 dB, none at 12 dB
@example(grid=[-10.0, -1.0, 12.0], max_frames=5, seed=11)
def test_merged_tally_equals_frame_by_frame_count(grid, max_frames, seed):
    # With the frame budget the only stop, every batch size merges to the
    # tally of counting each frame's trace into one SweepPoint. The genie
    # branch decodes what the baseline decodes (derotation by the true
    # bits is bit-identical to BPSK), beside the receiver's outer stream.
    base = small_config(
        esn0_grid_db=tuple(grid), max_frames=max_frames, min_frame_errors=max_frames + 1, seed=seed
    )
    frames = range(max_frames)
    dmm = {e: [run_frame(base, i, e) for i in frames] for e in set(grid)}
    bpsk = {e: [run_baseline_frame(base, i, e) for i in frames] for e in set(grid)}
    want = {
        run_sweep: [tally_of(e, base.eta, dmm[e]) for e in grid],
        run_bpsk_baseline: [tally_of(e, base.r1, bpsk[e]) for e in grid],
        run_genie_compare: [
            GeniePoint(
                tally_of(e, base.eta, dmm[e]),
                tally_of(
                    e,
                    base.eta,
                    [replace(t, inner=b.inner) for t, b in zip(dmm[e], bpsk[e])],
                ),
            )
            for e in grid
        ],
    }
    for batch_frames in range(1, max_frames + 1):
        cfg = replace(base, batch_frames=batch_frames)
        for run, points in want.items():
            assert run(cfg).points == points, (run.__name__, batch_frames)


def test_sweep_stops_at_batch_boundary():
    # At very low SNR every frame errors, so counting stops at the first
    # batch boundary at or past min_frame_errors.
    cfg = small_config(esn0_grid_db=(-10.0,), min_frame_errors=5, batch_frames=4, max_frames=64)
    p = run_sweep(cfg).points[0]
    assert p.frames == 8
    assert p.frame_errors == 8


def test_sweep_zero_errors_reports_bit_budget():
    cfg = small_config(esn0_grid_db=(12.0,), max_frames=12, batch_frames=4)
    p = run_sweep(cfg).points[0]
    assert p.frames == 12
    assert p.frame_errors == 0
    assert p.ber_combined == 0.0
    assert p.bits == 12 * (cfg.inner.k_info + cfg.outer.k_info)


def test_baseline_matches_genie_inner_branch():
    cfg = small_config(esn0_grid_db=(-2.0,), max_frames=16, min_frame_errors=1000)
    base = run_bpsk_baseline(cfg)
    assert base.eta == pytest.approx(0.5)
    pb = base.points[0]
    # frame-by-frame: baseline decode equals the genie-derotated decode
    for fi in range(5):
        t = run_frame(cfg, fi, esn0_db=-2.0)
        b = run_baseline_frame(cfg, fi, esn0_db=-2.0)
        y1 = rotate_by_bits(t.received, t.v2, inverse=True)
        assert y1.tobytes() == b.received.tobytes()
        inner = simkit._inner_receive(cfg, y1, noise_var(-2.0))
        assert inner.llr.tobytes() == b.inner.llr.tobytes()
        assert np.array_equal(inner.info_hat, b.inner.info_hat) and inner.iters == b.inner.iters
        # a baseline frame has no outer stream
        assert b.c2 is None and b.v2 is None and b.v2_hat is None and b.outer is None
    # and sends unrotated BPSK
    b = run_baseline_frame(cfg, 0, esn0_db=math.inf)
    assert np.array_equal(b.received, map_bpsk(b.v1))
    assert pb.bits_outer == 0
    assert pb.ber_outer == 0.0
    assert pb.ebn0_db == ebn0_from_esn0(-2.0, 0.5)


def test_genie_compare_shares_frames_and_flags():
    cfg = small_config(esn0_grid_db=(-1.0, 6.0), max_frames=24, batch_frames=8)
    res = run_genie_compare(cfg)
    for gp in res.points:
        assert gp.affected.frames == gp.genie.frames
        assert gp.affected.bits_inner == gp.genie.bits_inner
        # outer stage is common to both branches
        assert gp.affected.errs_outer == gp.genie.errs_outer
        assert gp.gap_inner_ber == abs(gp.affected.ber_inner - gp.genie.ber_inner)
        assert gp.insignificant == (gp.gap_inner_ber <= gp.ci95_affected + gp.ci95_genie)
    # at 6 dB the outer stream is error-free, so the branches coincide
    high = res.points[1]
    assert high.affected == high.genie or high.gap_inner_ber == 0.0


def test_genie_compare_noiseless_coincide():
    cfg = small_config(esn0_grid_db=(math.inf,), max_frames=8, batch_frames=4)
    res = run_genie_compare(cfg)
    gp = res.points[0]
    assert gp.affected.errs_inner == 0
    assert gp.genie.errs_inner == 0
    assert gp.gap_inner_ber == 0.0
    assert gp.insignificant


def test_sweep_genie_branch_equals_bpsk_baseline():
    # The genie branch of the paired sweep decodes the baseline's received
    # sequence, so its inner counters are the baseline's, frame for frame.
    cfg = small_config(esn0_grid_db=(-2.0,), max_frames=16, min_frame_errors=1000)
    gp = run_genie_compare(cfg).points[0]
    base = run_bpsk_baseline(cfg).points[0]
    assert gp.affected.errs_outer > 0  # so some frames ran the second inner decode
    assert gp.genie.errs_inner > 0
    for field in ("frames", "bits_inner", "errs_inner", "iters_inner_mean"):
        assert getattr(gp.genie, field) == getattr(base, field)


class _Recorder:
    """Stands in for a SweepPoint and keeps the traces it is given."""

    def __init__(self):
        self.traces = []

    def add_frame(self, trace):
        self.traces.append(trace)


def test_genie_record_is_the_baseline_inner_record():
    # The trace that the paired sweep counts on its genie branch carries
    # the baseline frame's inner level, whether the branch decoded again
    # (the rebuilt rotation bits were wrong) or shared the receiver's decode.
    cfg, esn0_db = small_config(), -2.0
    second_decode = set()
    for fi in range(16):
        affected, genie = _Recorder(), _Recorder()
        simkit._pair_frame(cfg, fi, esn0_db, affected, genie)
        (t,), (g,) = affected.traces, genie.traces
        b = run_baseline_frame(cfg, fi, esn0_db).inner
        assert g.inner.llr.tobytes() == b.llr.tobytes()
        assert np.array_equal(g.inner.info_hat, b.info_hat)
        assert (g.inner.iters, g.inner.converged) == (b.iters, b.converged)
        second_decode.add(g.inner is not t.inner)
    assert second_decode == {True, False}  # both branches ran


def test_rebuilt_rotation_bits_equal_reencode_on_desk_frames():
    # The receiver takes a converged outer decode as the rebuilt codeword
    # and re-encodes only a failed one; both must equal re-encoding always.
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json")
    converged = set()
    for esn0_db in (-1.5, -1.0, 0.5):
        for fi in range(24):
            t = run_frame(cfg, fi, esn0_db)
            always = np.repeat(encode(cfg.outer.base, t.outer.info_hat), cfg.outer.rep_factor)
            assert t.v2_hat.dtype == always.dtype and np.array_equal(t.v2_hat, always)
            converged.add(t.outer.converged)
    assert converged == {True, False}  # both branches ran


def test_frame_stream_domains_distinct():
    keys = [tuple(frame_stream(1, fi, d).bit_generator.state["state"]["key"]) for fi, d in ((0, 0), (0, 1), (1, 0))]
    assert keys == [(1, 0), (1, 1), (1, 4)]


# ------------------------------------------------------------- persistence


def test_write_sweep_csv(tmp_path):
    cfg = small_config(esn0_grid_db=(-1.0, 3.0), max_frames=8, batch_frames=4)
    res = run_sweep(cfg)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_sweep_csv(res, p1)
    write_sweep_csv(res, p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert lines[0].startswith("esn0_db,ebn0_db,ber_inner,ber_outer,ber_combined,fer,frames,bits")
    assert len(lines) == 3
    first = lines[1].split(",")
    assert first[0] == "-1.0000"
    assert len(first) == len(lines[0].split(","))


def test_write_genie_csv(tmp_path):
    cfg = small_config(esn0_grid_db=(2.0,), max_frames=8, batch_frames=4)
    res = run_genie_compare(cfg)
    out = tmp_path / "genie.csv"
    write_genie_csv(res, out)
    lines = out.read_text().splitlines()
    assert lines[0].split(",")[0:3] == ["esn0_db", "ebn0_db", "ber_inner_affected"]
    assert len(lines) == 2


# the tally's counters: its fields after esn0_db and ebn0_db
COUNTER_FIELDS = tuple(f.name for f in fields(SweepPoint))[2:]


@st.composite
def point_counters(draw):
    """Counters of one point: zero, small, or beyond 2**40; errors never
    exceed their bits."""
    count = st.one_of(st.just(0), st.integers(1, 5000), st.integers(2**40, 2**53))
    c = {f: draw(count) for f in COUNTER_FIELDS if not f.startswith("errs_")}
    for stream in ("inner", "outer"):
        c[f"errs_{stream}"] = draw(st.integers(0, c[f"bits_{stream}"]))
    return c


ZERO_COUNTERS = dict.fromkeys(COUNTER_FIELDS, 0)
BIG_COUNTERS = {**dict.fromkeys(COUNTER_FIELDS, 2**41 + 3), "bits_outer": 0, "errs_outer": 0}


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    esn0_db=st.floats(allow_nan=False),
    ebn0_db=st.floats(allow_nan=False),
    branches=st.lists(st.tuples(point_counters(), point_counters()), max_size=4),
)
@example(esn0_db=0.0, ebn0_db=2.3, branches=[(ZERO_COUNTERS, ZERO_COUNTERS)])
@example(esn0_db=-1.5, ebn0_db=0.8, branches=[(BIG_COUNTERS, ZERO_COUNTERS), (ZERO_COUNTERS, BIG_COUNTERS)])
def test_csv_rows_equal_former_formatters(tmp_path, esn0_db, ebn0_db, branches):
    # the column table writes, byte for byte, what the former per-file
    # header strings and f-string rows wrote
    points = [(SweepPoint(esn0_db, ebn0_db, **a), SweepPoint(esn0_db, ebn0_db, **g)) for a, g in branches]
    former = [
        (sweep_point_former(esn0_db, ebn0_db, a), sweep_point_former(esn0_db, ebn0_db, g))
        for a, g in branches
    ]
    out = tmp_path / "rows.csv"
    write_sweep_csv(SweepResult(0.5, [a for a, _g in points]), out)
    want = [SWEEP_HEADER_FORMER] + [sweep_row_former(a) for a, _g in former]
    assert out.read_text() == "\n".join(want) + "\n"
    write_genie_csv(SweepResult(0.5, [GeniePoint(a, g) for a, g in points]), out)
    want = [GENIE_HEADER_FORMER] + [genie_row_former(a, g) for a, g in former]
    assert out.read_text() == "\n".join(want) + "\n"


def test_manifest_contents(tmp_path):
    cfg = small_config()
    man = build_manifest(cfg, SweepResult(eta=cfg.eta, points=[]), "unit-test", [tmp_path / "x.csv"])
    assert man["code_fingerprints"]["inner"] == cfg.inner.fingerprint()
    assert man["code_fingerprints"]["outer_base"] == cfg.outer.base.fingerprint()
    assert man["eta"] == pytest.approx(7 / 12)
    assert man["rates"] == {"r1": cfg.r1, "r2": cfg.r2, "eta": cfg.eta}
    assert man["config"]["inner_code"] == {"n": 96, "row_degree": 6, "col_degree": 3, "seed": 5}
    assert "rates" not in man["config"]
    assert man["config"]["stop"] == {"min_frame_errors": 5, "max_frames": 64}
    assert man["points"] == []
    # a point that reaches both limits at once stopped on its frame errors
    both = small_config(esn0_grid_db=(-10.0, 12.0), batch_frames=4, max_frames=4, min_frame_errors=4)
    man_both = build_manifest(both, run_sweep(both), "unit-test", [])
    assert man_both["points"] == [
        {"esn0_db": -10.0, "frames": 4, "frame_errors": 4, "stop": "min_frame_errors"},
        {"esn0_db": 12.0, "frames": 4, "frame_errors": 0, "stop": "max_frames"},
    ]
    out = tmp_path / "manifest.json"
    write_manifest(man, out)
    again = json.loads(out.read_text())
    assert again["seed"] == cfg.seed
    assert isinstance(again["version"], str) and again["version"]


# ------------------------------------------------------------- config file


GOOD_CONFIG = {
    "inner_code": {"n": 96, "row_degree": 6, "col_degree": 3, "seed": 5},
    "outer_code": {"base": {"n": 24, "row_degree": 6, "col_degree": 4, "seed": 8}, "rep_factor": 4},
    "esn0_grid_db": [-2.0, 0.0],
    "max_iter": 30,
    "stop": {"min_frame_errors": 5, "max_frames": 64},
    "seed": 11,
    "batch_frames": 8,
}


def write_cfg(tmp_path, data):
    p = tmp_path / "cfg.json"
    p.write_text(json.dumps(data))
    return p


def config_record(cfg):
    """Every field of a SystemConfig, its codes by fingerprint."""
    record = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name not in ("inner", "outer")}
    record.update(
        inner=(cfg.inner.fingerprint(), cfg.inner.origin),
        outer=(cfg.outer.base.fingerprint(), cfg.outer.base.origin, cfg.outer.rep_factor),
    )
    return record


def assert_manifest_config_reloads(cfg_path, tmp_path):
    """The config block of a ber-sweep manifest, saved in another
    directory, loads back to the same config, and a ber-sweep rerun from
    it writes the same CSV byte for byte."""
    first, again = tmp_path / "first", tmp_path / "again"
    assert cli.main(["ber-sweep", str(cfg_path), "--out-dir", str(first)]) == 0
    block = json.loads((first / "dmm_sweep_manifest.json").read_text())["config"]
    rerun_path = first / "rerun.json"
    rerun_path.write_text(json.dumps(block))
    assert config_record(load_config(rerun_path)) == config_record(load_config(cfg_path))
    assert cli.main(["ber-sweep", str(rerun_path), "--out-dir", str(again)]) == 0
    assert (again / "dmm_sweep.csv").read_bytes() == (first / "dmm_sweep.csv").read_bytes()


def test_load_config_roundtrip(tmp_path):
    path = write_cfg(tmp_path, GOOD_CONFIG)
    cfg = load_config(path)
    assert cfg.inner.n_code == 96
    assert cfg.outer.rep_factor == 4
    assert cfg.esn0_grid_db == (-2.0, 0.0)
    assert cfg.max_iter == 30
    assert cfg.min_frame_errors == 5
    assert cfg.max_frames == 64
    assert cfg.seed == 11
    assert cfg.batch_frames == 8
    assert config_to_dict(cfg) == GOOD_CONFIG
    assert_manifest_config_reloads(path, tmp_path)


def test_load_config_defaults(tmp_path):
    minimal = {
        "inner_code": GOOD_CONFIG["inner_code"],
        "outer_code": GOOD_CONFIG["outer_code"],
        "esn0_grid_db": [0.0],
    }
    cfg = load_config(write_cfg(tmp_path, minimal))
    assert cfg.max_iter == 50
    assert cfg.min_frame_errors == 50
    assert cfg.max_frames == 1_000_000


def test_load_config_field_errors(tmp_path):
    cases = [
        ({**GOOD_CONFIG, "bogus": 1}, "bogus"),
        ({k: v for k, v in GOOD_CONFIG.items() if k != "inner_code"}, "inner_code"),
        ({**GOOD_CONFIG, "esn0_grid_db": []}, "esn0_grid_db"),
        ({**GOOD_CONFIG, "esn0_grid_db": ["x"]}, "esn0_grid_db"),
        ({**GOOD_CONFIG, "stop": {"min_frame_errors": 0}}, "stop.min_frame_errors"),
        ({**GOOD_CONFIG, "stop": {"foo": 1}}, "stop"),
        # receiver options that no longer exist are unknown, not ignored
        ({**GOOD_CONFIG, "genie_beta": False}, "unknown config fields: ['genie_beta']"),
        ({**GOOD_CONFIG, "outer_rebuild": "reencode"}, "unknown config fields: ['outer_rebuild']"),
        ({**GOOD_CONFIG, "es": 1.0}, "unknown config fields: ['es']"),
        ({**GOOD_CONFIG, "inner_code": {"n": 96}}, "inner_code"),
        ({**GOOD_CONFIG, "inner_code": {"alist": "missing.alist"}}, "alist"),
        ({**GOOD_CONFIG, "outer_code": {"base": GOOD_CONFIG["outer_code"]["base"], "rep_factor": 0}}, "rep_factor"),
        # JSON booleans are neither integers nor numbers
        ({**GOOD_CONFIG, "max_iter": True}, "max_iter"),
        ({**GOOD_CONFIG, "batch_frames": True}, "batch_frames"),
        ({**GOOD_CONFIG, "seed": False}, "seed"),
        ({**GOOD_CONFIG, "stop": {"max_frames": True}}, "stop.max_frames"),
        ({**GOOD_CONFIG, "inner_code": {**GOOD_CONFIG["inner_code"], "n": True}}, "inner_code.n"),
        ({**GOOD_CONFIG, "inner_code": {**GOOD_CONFIG["inner_code"], "row_degree": True}}, "inner_code.row_degree"),
        ({**GOOD_CONFIG, "inner_code": {**GOOD_CONFIG["inner_code"], "col_degree": True}}, "inner_code.col_degree"),
        ({**GOOD_CONFIG, "inner_code": {**GOOD_CONFIG["inner_code"], "seed": False}}, "inner_code.seed"),
        ({**GOOD_CONFIG, "outer_code": {"base": GOOD_CONFIG["outer_code"]["base"], "rep_factor": True}}, "rep_factor"),
        ({**GOOD_CONFIG, "esn0_grid_db": [True]}, "esn0_grid_db"),
        # out of range or of the wrong kind
        ({**GOOD_CONFIG, "seed": -1}, "seed"),
        ({**GOOD_CONFIG, "inner_code": {"alist": 7}}, "inner_code.alist"),
        ({**GOOD_CONFIG, "esn0_grid_db": 0.5}, "esn0_grid_db"),
        ({**GOOD_CONFIG, "esn0_grid_db": [0.5] * (config.MAX_GRID_POINTS + 1)}, "esn0_grid_db has 10001 points"),
        # too long to build; rejected before any allocation
        ({**GOOD_CONFIG, "inner_code": {**GOOD_CONFIG["inner_code"], "n": 10**9}}, "inner_code: n_code"),
    ]
    for data, needle in cases:
        with pytest.raises(ConfigError, match=re.escape(needle)):
            load_config(write_cfg(tmp_path, data))


# JSON values a malformed document may hold anywhere
# Each draw is a fresh copy: a later mutation may write into a drawn
# dict, and a shared one would leak into other examples or contain itself.
JSON_POOL = st.sampled_from(
    [None, True, False, "", "x", [], [0.5, "x"], {}, {"alist": ""}, {"n": 96},
     -1, -0.5, 0, 2, math.nan, 1e308, 2**64]
).map(copy.deepcopy)

# Paths of the GOOD_CONFIG entries a mutation may act on, nested ones too.
CONFIG_PATHS = [(k,) for k in GOOD_CONFIG]
CONFIG_PATHS += [(k, sub) for k, v in GOOD_CONFIG.items() if isinstance(v, dict) for sub in v]
CONFIG_PATHS += [("outer_code", "base", k) for k in GOOD_CONFIG["outer_code"]["base"]]


@st.composite
def malformed_configs(draw):
    """GOOD_CONFIG with one to three entries dropped, added or replaced.
    A code length is replaced only by an integer of at most 256, so no
    example builds a large code."""
    doc = json.loads(json.dumps(GOOD_CONFIG))
    for _ in range(draw(st.integers(1, 3))):
        *parents, key = draw(st.sampled_from(CONFIG_PATHS))
        obj = doc
        for p in parents:
            obj = obj.get(p) if isinstance(obj, dict) else None
        if not isinstance(obj, dict):
            continue
        action = draw(st.sampled_from(["drop", "add", "replace"]))
        if action == "drop":
            obj.pop(key, None)
        elif action == "add":
            obj["unknown_" + key] = draw(JSON_POOL)
        elif key == "n":
            obj[key] = draw(st.integers(-2, 256))
        else:
            obj[key] = draw(JSON_POOL)
    return doc


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=malformed_configs())
@example(doc={**GOOD_CONFIG, "inner_code": {"alist": ""}})  # the config's directory
def test_malformed_config_raises_only_config_error(tmp_path, doc):
    # tmp_path is shared by the examples; each rewrites the one file
    try:
        cfg = load_config(write_cfg(tmp_path, doc))
    except ConfigError:
        return
    assert isinstance(cfg, SystemConfig)


def test_load_config_bad_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        load_config(p)
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")


def test_load_config_alist_relative_path(tmp_path):
    # inner code from an alist file next to the config
    alist = """\
7 3
3 4
2 3 2 2 1 1 1
4 4 4
1 3
1 2 3
1 2
2 3
1
2
3
1 2 3 5
2 3 4 6
1 2 4 7
"""
    (tmp_path / "code.alist").write_text(alist)
    data = {
        "inner_code": {"alist": "code.alist"},
        "outer_code": {"base": {"alist": "code.alist"}, "rep_factor": 1},
        "esn0_grid_db": [0.0],
        "stop": {"min_frame_errors": 4, "max_frames": 32},
    }
    path = write_cfg(tmp_path, data)
    cfg = load_config(path)
    assert cfg.inner.n_code == 7
    assert cfg.outer.n_code == 7
    # the origin is the entry with its path resolved, so it reloads from anywhere
    assert cfg.inner.origin == {"alist": str((tmp_path / "code.alist").resolve())}
    assert_manifest_config_reloads(path, tmp_path)
