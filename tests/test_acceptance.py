"""System-level acceptance checks, one printed PASS/FAIL line each.

The Monte-Carlo checks run the shipped desk-scale configuration
(configs/desk_scale.json): inner (3,6) code of length 4032 at rate 1/2,
outer rate 1/12 built from a rate-1/3 length-1008 code repeated 4x.
One paired receiver/genie sweep over the full grid, on up to two pool
workers, feeds both the waterfall check and the gap check. Budget: a few
minutes total.
"""

import math
import os
from pathlib import Path

import numpy as np
import pytest
from oracles import exact_bit_posteriors, from_dense, g_dense, syndrome, TREE_H

from dmmsim.capacity import esn0_at_mi, mi_bpsk, mi_qpsk
from dmmsim.channel import add_noise, ebn0_from_esn0, noise_var, philox
from dmmsim.ldpc import decode_bp_full, encode, rep_combine
from dmmsim.modem import POINTS, demap_inner_llr, rotate_by_bits
from dmmsim.config import load_config
from dmmsim.simkit import run_baseline_frame, run_frame, run_genie_compare

pytestmark = pytest.mark.slow

CONFIG_PATH = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"


@pytest.fixture(scope="module")
def desk_cfg():
    return load_config(CONFIG_PATH)


@pytest.fixture(scope="module")
def genie_result(desk_cfg):
    # results are byte-identical for any worker count (tests/test_golden.py)
    return run_genie_compare(desk_cfg, workers=min(2, os.cpu_count() or 1))


def report(capsys, name, ok, detail):
    with capsys.disabled():
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_mi_engine(capsys):
    grid = np.linspace(-10.0, 15.0, 26)
    mi = [mi_bpsk(s).mi_bits for s in grid]
    monotone = all(b > a for a, b in zip(mi, mi[1:]))
    bounded = all(0.0 <= v <= 1.0 for v in mi)
    dgrid = np.linspace(-6.0, 12.0, 20)
    worst = max(
        abs(mi_qpsk(s).mi_bits - 2.0 * mi_bpsk(s - 3.0103).mi_bits) for s in dgrid
    )
    esn0_half = esn0_at_mi(0.5, "bpsk")
    ebn0_half = ebn0_from_esn0(esn0_half, 0.5)
    ok = monotone and bounded and worst <= 1e-6 and abs(ebn0_half - 0.187) <= 0.01
    report(
        capsys,
        "mi engine",
        ok,
        f"monotone={monotone} bounded={bounded} doubling_worst={worst:.2e} "
        f"ebn0@half-bit={ebn0_half:.4f} dB (want 0.187 +- 0.01)",
    )


def test_genie_llr_identity(desk_cfg, capsys):
    # derotating by the true rotation bits is the genie branch
    s2d = noise_var(-1.0)
    n_frames = 100
    same = 0
    for fi in range(n_frames):
        t = run_frame(desk_cfg, fi, esn0_db=-1.0)
        b = run_baseline_frame(desk_cfg, fi, esn0_db=-1.0)
        y1 = rotate_by_bits(t.received, t.v2, inverse=True)
        if (
            y1.tobytes() == b.received.tobytes()
            and demap_inner_llr(y1, s2d).tobytes() == b.inner.llr.tobytes()
            and np.array_equal(t.c1, b.c1)
        ):
            same += 1
    ok = same == n_frames
    report(
        capsys,
        "genie derotation equals plain binary signaling",
        ok,
        f"{same}/{n_frames} frames with bit-identical decoder-input soft values",
    )


def test_constellation_geometry(capsys):
    p = POINTS
    in_pair = ((p[0] - p[2]) ** 2).sum(), ((p[1] - p[3]) ** 2).sum()
    cross = (
        ((p[0] - p[1]) ** 2).sum(),
        ((p[1] - p[2]) ** 2).sum(),
        ((p[2] - p[3]) ** 2).sum(),
        ((p[3] - p[0]) ** 2).sum(),
    )
    ok = all(d == 4.0 for d in in_pair) and all(d == 2.0 for d in cross)
    report(capsys, "constellation geometry", ok, "in-pair distance^2 = 4 and cross-pair = 2 exactly at Es = 1")


def test_scaled_waterfall(desk_cfg, genie_result, capsys):
    pts = [gp.affected for gp in genie_result.points]
    in_window = all(-3.0 <= p.esn0_db <= 3.0 for p in pts)
    reaching = [p for p in pts if p.ber_combined <= 1e-4]
    monotone = all(b.ber_combined <= a.ber_combined for a, b in zip(pts, pts[1:]))
    errory = [p for p in pts if p.errs_inner + p.errs_outer > 0]
    outer_better = all(p.ber_outer < p.ber_inner for p in errory)
    budget = all(
        p.frame_errors >= desk_cfg.min_frame_errors or p.frames >= desk_cfg.max_frames
        for p in pts
    )
    ok = in_window and bool(reaching) and monotone and outer_better and budget
    at = f"{reaching[0].esn0_db:.4f} dB (ber={reaching[0].ber_combined:.2e})" if reaching else "none"
    report(
        capsys,
        "scaled waterfall",
        ok,
        f"ber<=1e-4 at {at}; monotone={monotone}; "
        f"outer<inner at all {len(errory)} error-bearing points={outer_better}; "
        f"stop-budget honored={budget}",
    )


def test_genie_gap_at_reliable_outer(genie_result, capsys):
    qual = [gp for gp in genie_result.points if gp.affected.ber_outer < 1e-5]
    ok = bool(qual)
    detail = "no grid point with outer ber < 1e-5"
    if qual:
        gp = qual[0]
        ok = gp.insignificant
        detail = (
            f"at {gp.esn0_db:.4f} dB: |affected - genie| inner ber gap = "
            f"{gp.gap_inner_ber:.2e} vs 95% interval width {gp.ci95_affected + gp.ci95_genie:.2e}"
        )
    report(capsys, "rotation-error effect insignificant where outer is reliable", ok, detail)


def test_ebn0_accounting(desk_cfg, capsys):
    shifts = [
        ebn0_from_esn0(esn0, desk_cfg.r1) - ebn0_from_esn0(esn0, desk_cfg.eta)
        for esn0 in (-3.0, 0.0, 2.5)
    ]
    ok = all(abs(s - 0.669) <= 1e-3 for s in shifts)
    report(
        capsys,
        "eb/n0 accounting",
        ok,
        f"eta 7/12 vs 1/2 baseline shift = {shifts[0]:.6f} dB (want 0.669 +- 0.001)",
    )


def test_codec_suite(desk_cfg, capsys):
    rng = np.random.default_rng(99)
    inner = desk_cfg.inner

    # syndrome invariant and linearity on the desk-scale code
    infos = rng.integers(0, 2, (20, inner.k_info), dtype=np.uint8)
    words = [encode(inner, u) for u in infos]
    syndromes_ok = all(not syndrome(inner, w).any() for w in words)
    linear_ok = not syndrome(inner, words[0] ^ words[1]).any()

    # cycle-free (7,4) code: decoder marginals match exhaustive enumeration
    tree = from_dense(TREE_H)
    worst = 0.0
    for _ in range(50):
        llr = rng.normal(0.0, 2.0, 7)
        _, post, _, _ = decode_bp_full(tree, llr, max_iter=20, early_exit=False)
        p1_bp = 1.0 / (1.0 + np.exp(post))
        worst = max(worst, float(np.max(np.abs(p1_bp - exact_bit_posteriors(g_dense(tree), llr)))))
    bp_ml_ok = worst <= 1e-6

    # repetition combining is an exact sum
    llr = rng.normal(0.0, 3.0, desk_cfg.outer.n_code)
    comb = rep_combine(desk_cfg.outer, llr)
    rep_ok = np.array_equal(comb, llr.reshape(-1, desk_cfg.outer.rep_factor).sum(axis=1))

    # noise calibration: per-dimension variance within 3 sigma at 1e6 samples
    sigma2_dim = 0.4
    n = add_noise(np.zeros((500_000, 2)), sigma2_dim, philox(4, 4)).ravel()
    se = sigma2_dim * math.sqrt(2.0 / (n.size - 1))
    noise_ok = abs(n.var(ddof=1) - sigma2_dim) <= 3.0 * se

    ok = syndromes_ok and linear_ok and bp_ml_ok and rep_ok and noise_ok
    report(
        capsys,
        "codec suite",
        ok,
        f"syndromes={syndromes_ok} linearity={linear_ok} "
        f"tree-decoder-vs-enumeration worst={worst:.1e} rep-combining={rep_ok} "
        f"noise-variance-3sigma={noise_ok}",
    )
