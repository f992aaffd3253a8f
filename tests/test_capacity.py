import hashlib
import math
import tracemalloc
import warnings
from dataclasses import astuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dmmsim import capacity
from dmmsim.capacity import (
    esn0_at_mi,
    mi_bpsk,
    mi_grid,
    mi_qpsk,
)
from dmmsim.config import MAX_GRID_POINTS
from dmmsim.results import write_mi_csv
from oracles import mi_bpsk_reference, mi_qpsk_reference

# Frozen from the independent quadrature + bisection oracle
# (two-Gaussian mixture entropy, 1-D noise variance sigma_n^2 / 2).
ESN0_AT_HALF_BIT_DB = -2.823239579262132
EBN0_AT_HALF_BIT_DB = 0.18706037737768
LOG10_2_DB = 3.010299956639812


def test_half_bit_crossing_matches_frozen_oracle():
    root = esn0_at_mi(0.5, "bpsk")
    assert abs(root - ESN0_AT_HALF_BIT_DB) < 1e-6
    ebn0 = root - 10 * math.log10(0.5)
    assert abs(ebn0 - EBN0_AT_HALF_BIT_DB) < 1e-6
    assert abs(ebn0 - 0.187) < 0.01


def test_mi_bpsk_at_frozen_root_is_half():
    assert mi_bpsk(ESN0_AT_HALF_BIT_DB).mi_bits == pytest.approx(0.5, abs=1e-8)


def test_mi_bpsk_limits():
    assert mi_bpsk(-40.0).mi_bits <= 1e-3
    assert mi_bpsk(20.0).mi_bits >= 0.9999


def test_mi_bpsk_monotone_and_bounded():
    grid = np.linspace(-10, 10, 21)
    vals = [mi_bpsk(s).mi_bits for s in grid]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_mi_qpsk_limits():
    assert mi_qpsk(30.0).mi_bits >= 1.9999
    assert mi_qpsk(-40.0).mi_bits <= 2e-3


def test_mi_qpsk_monotone_and_bounded():
    grid = np.linspace(-8, 12, 11)
    vals = [mi_qpsk(s).mi_bits for s in grid]
    assert all(0.0 <= v <= 2.0 for v in vals)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_qpsk_doubling_identity_20_points():
    # I/Q independence: mi_qpsk(s) = 2 * mi_bpsk(s - 3.0103 dB). Both sides
    # are the one per-axis rule, so here it holds by construction; the
    # check between two integration routes is
    # test_reference_qpsk_doubles_reference_bpsk.
    grid = np.linspace(-8.0, 11.0, 20)
    for s in grid:
        q = mi_qpsk(s).mi_bits
        b = mi_bpsk(s - LOG10_2_DB).mi_bits
        assert abs(q - 2.0 * b) <= 1e-6


# Deep noise, the half-bit region, the high-SNR bracket (40 dB), 60 dB
# (near the top of the band where the reference's node grid is still
# fine enough), Es/N0 where the reference's density underflows everywhere
# (300, 3080 dB) or its normaliser overflows (3100, 3200 dB), and the
# noiseless channel; from 300 dB up both sides read the 2-bit limit.
ORACLE_ESN0_DB = [-3000.0, -300.0, -40.0, *np.arange(-6.0, 6.25, 0.5).tolist(),
                  20.0, 30.0, 40.0, 45.0, 60.0, 300.0, 3080.0, 3100.0, 3200.0, math.inf]


@pytest.mark.parametrize("esn0_db", ORACLE_ESN0_DB)
def test_mi_qpsk_matches_reference(esn0_db):
    with np.errstate(all="ignore"):  # the reference overflows on the way to its limits
        want = mi_qpsk_reference(esn0_db)
    assert abs(mi_qpsk(esn0_db).mi_bits - want) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(st.floats(-40.0, 30.0))
def test_mi_qpsk_matches_reference_property(esn0_db):
    with np.errstate(all="ignore"):
        want = mi_qpsk_reference(esn0_db)
    assert abs(mi_qpsk(esn0_db).mi_bits - want) <= 1e-12


def test_reference_qpsk_doubles_reference_bpsk():
    # the I/Q identity between two independent integration routes: the
    # 2-D panel grid of mi_qpsk_reference and the 1-D adaptive quad of
    # mi_bpsk_reference
    for s in np.linspace(-8.0, 11.0, 20):
        q = mi_qpsk_reference(s)
        b = mi_bpsk_reference(s - 10.0 * math.log10(2.0))
        assert abs(q - 2.0 * b) <= 1e-10, s


# Deep noise, the half-bit region and up to 60 dB (within 1e-12), then
# from 70 dB across the noiseless threshold, about 117 dB, from where
# both read 1 bit (within 1e-11).
BPSK_ORACLE_ESN0_DB = [-3000.0, -300.0, -60.0, -40.0, *np.arange(-10.0, 10.5, 0.5).tolist(),
                       20.0, 40.0, 60.0]
BPSK_HIGH_ESN0_DB = [70.0, 80.0, 90.0, 100.0, 110.0, 116.9, 117.0, 118.0, math.inf]


@pytest.mark.parametrize("esn0_db", BPSK_ORACLE_ESN0_DB)
def test_mi_bpsk_matches_reference(esn0_db):
    assert abs(mi_bpsk(esn0_db).mi_bits - mi_bpsk_reference(esn0_db)) <= 1e-12


@pytest.mark.parametrize("esn0_db", BPSK_HIGH_ESN0_DB)
def test_mi_bpsk_matches_reference_at_high_snr(esn0_db):
    assert abs(mi_bpsk(esn0_db).mi_bits - mi_bpsk_reference(esn0_db)) <= 1e-11


@settings(max_examples=40, deadline=None)
@given(st.floats(-60.0, 60.0))
def test_mi_bpsk_matches_reference_property(esn0_db):
    assert abs(mi_bpsk(esn0_db).mi_bits - mi_bpsk_reference(esn0_db)) <= 1e-12


@settings(max_examples=20, deadline=None)
@given(st.floats(60.0, 117.0))
def test_mi_bpsk_matches_reference_property_at_high_snr(esn0_db):
    assert abs(mi_bpsk(esn0_db).mi_bits - mi_bpsk_reference(esn0_db)) <= 1e-11


# brentq takes 10 evaluations on both routes for the half-bit root, and
# 14 on mi_bpsk against 13 on the reference for the 0.25-bit root.
@pytest.mark.parametrize("target, n_evals, n_ref_evals", [(0.5, 10, 10), (0.25, 14, 13)])
def test_bpsk_root_matches_reference(target, n_evals, n_ref_evals, monkeypatch):
    evals = []

    def counted(esn0_db, _real=capacity.mi_bpsk):
        evals.append(esn0_db)
        return _real(esn0_db)

    monkeypatch.setattr(capacity, "mi_bpsk", counted)
    root = esn0_at_mi(target, "bpsk")
    ref_evals = []

    def ref(esn0_db):
        ref_evals.append(esn0_db)
        return mi_bpsk_reference(esn0_db) - target

    assert abs(root - brentq(ref, -40.0, 40.0, xtol=1e-9)) <= 1e-12
    assert (len(evals), len(ref_evals)) == (n_evals, n_ref_evals)


@pytest.mark.parametrize("esn0_db", [140.0, 200.0, 300.0, 330.0])
def test_mi_bpsk_high_snr_is_one_without_warnings(esn0_db):
    # the former adaptive quad warned from 140 dB and fell below 1 from 324 dB
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert mi_bpsk(esn0_db).mi_bits == 1.0


@pytest.mark.parametrize("target", [0.5, 1.5])
def test_qpsk_root_matches_reference(target, monkeypatch):
    evals = []

    def counted(esn0_db, _real=capacity.mi_qpsk):
        evals.append(esn0_db)
        return _real(esn0_db)

    monkeypatch.setattr(capacity, "mi_qpsk", counted)
    root = esn0_at_mi(target, "qpsk")
    ref_evals = []

    def ref(esn0_db):
        ref_evals.append(esn0_db)
        return mi_qpsk_reference(esn0_db) - target

    assert abs(root - brentq(ref, -40.0, 40.0, xtol=1e-9)) <= 1e-12
    assert len(evals) == len(ref_evals)


def test_mi_qpsk_high_snr_is_two_bits_without_warnings():
    # the former 360-panel cap left nodes farther apart than sigma above
    # about 61 dB: 66, 69, 72, 73.5 and 90 dB read from 1.9999976 down to 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for esn0_db in [*np.arange(55.0, 3300.0 + 0.125, 0.25).tolist(), math.inf]:
            assert abs(mi_qpsk(esn0_db).mi_bits - 2.0) <= 1e-12, esn0_db


@pytest.mark.parametrize("fn", [mi_bpsk, mi_qpsk])
def test_mi_at_minus_inf_is_zero_without_warnings(fn):
    # the zero-SNR limit, where mi_qpsk read NaN and mi_bpsk raised inside quad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = fn(-math.inf)
    assert p.mi_bits == 0.0
    assert p.ebn0_db == math.inf


@pytest.mark.parametrize("esn0_db", [-3062.0, -3064.0, -3081.0, -3082.4, -3083.0, -4000.0])
@pytest.mark.parametrize("fn", [mi_bpsk, mi_qpsk])
def test_mi_far_below_float_range_is_zero_without_warnings(fn, esn0_db):
    # below about -3000 dB MI is under the 1e-300-bit floor, and below
    # about -3082.5 dB the noise variance overflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        p = fn(esn0_db)
    assert p.mi_bits == 0.0
    assert p.ebn0_db == math.inf


@pytest.mark.parametrize("fn, axes", [(mi_bpsk, 1), (mi_qpsk, 2)])
def test_low_snr_series_agrees_with_quadrature(fn, axes, monkeypatch):
    # -80 to -50 dB spans the switch at d^2 = 2e-6 (-60 dB BPSK, -57 dB
    # QPSK); the two routes agree to the quadrature's absolute error of a
    # few 1e-16 bits per axis
    grid = np.arange(-80.0, -49.75, 0.5).tolist()
    monkeypatch.setattr(capacity, "_SERIES_D2", math.inf)
    series = [fn(s).mi_bits for s in grid]
    monkeypatch.setattr(capacity, "_SERIES_D2", 0.0)
    quadrature = [fn(s).mi_bits for s in grid]
    for s, a, b in zip(grid, series, quadrature):
        assert abs(a - b) <= 1e-15 * axes, s


@pytest.mark.parametrize("esn0_db", [-200.0, -1000.0, -2990.0])
@pytest.mark.parametrize("fn", [mi_bpsk, mi_qpsk])
def test_deep_noise_ebn0_is_the_low_snr_limit(fn, esn0_db):
    # MI tends to Es/N0 / ln 2 bits, so Eb/N0 tends to 10 log10(ln 2)
    assert abs(fn(esn0_db).ebn0_db - 10.0 * math.log10(math.log(2.0))) <= 1e-6


@pytest.mark.parametrize("fn", [mi_bpsk, mi_qpsk])
def test_mi_rejects_nan_without_warnings(fn):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="esn0_db.*NaN"):
            fn(math.nan)


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_mi_grid_rejects_nan_and_takes_minus_inf(modulation):
    with pytest.raises(ValueError, match="esn0_db.*NaN"):
        mi_grid([0.0, math.nan], modulation)
    assert [p.mi_bits for p in mi_grid([-math.inf], modulation)] == [0.0]


# Grid values for the row path: +-inf, both sides of the 1e-300-bit floor
# (-3001.6 dB BPSK, -2998.6 dB QPSK) and of the noise-variance overflow
# (-3082.5 dB), the series region (below about -60 dB BPSK, -57 dB
# QPSK), the noiseless threshold (about 117 dB) and ordinary values.
GRID_VALUES = st.one_of(
    st.sampled_from([math.inf, -math.inf, 117.0, 116.9, 0.0, -3001.6, -2998.6, -3082.5, -4000.0]),
    st.floats(-3100.0, -2990.0),
    st.floats(-70.0, -50.0),
    st.floats(110.0, 130.0),
    st.floats(-40.0, 60.0),
)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(GRID_VALUES, max_size=120).map(lambda g: g + g[::3]),
    st.sampled_from(["bpsk", "qpsk"]),
    st.sampled_from([1, 3, 64]),
)
def test_mi_grid_is_the_per_point_value_bit_for_bit(grid, modulation, rows):
    # the same bits at every block height: each row is its own BLAS dot
    fn = mi_bpsk if modulation == "bpsk" else mi_qpsk
    with mock.patch.object(capacity, "_GRID_ROWS", rows):
        points = mi_grid(grid, modulation)
    assert [repr(p) for p in points] == [repr(fn(s)) for s in grid]


_H = capacity._H_UNIT_NORMAL
# H(Y) - log2(sigma) below H(N) (bits below 0), above H(N) + 1 (above 1)
# and between, with both ends and the infinities
HY_VALUES = st.one_of(
    st.sampled_from([_H, _H + 1.0, math.inf, -math.inf]),
    st.floats(-10.0, _H),
    st.floats(_H, _H + 1.0),
    st.floats(_H + 1.0, 10.0),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(HY_VALUES, min_size=1, max_size=64))
def test_bits_clamps_a_column_as_the_scalar_rule(column):
    # mi_grid and the per-point functions share this one clamp, so
    # test_mi_grid_is_the_per_point_value_bit_for_bit cannot see it move
    want = np.array([min(max(h - _H, 0.0), 1.0) for h in column])[:, None]
    assert capacity._bits(np.array(column)[:, None]).tobytes() == want.tobytes()


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_mi_grid_blocks_a_long_grid_bit_for_bit(modulation):
    # 601 points of 13 to 15 panels, so every group spans several blocks
    fn = mi_bpsk if modulation == "bpsk" else mi_qpsk
    grid = np.linspace(-10.0, 20.0, 601)
    assert [repr(p) for p in mi_grid(grid, modulation)] == [repr(fn(float(s))) for s in grid]


# +-inf, both sides of the floor and of the variance overflow, the
# series region and its switch, the quadrature band, the noiseless
# threshold (about 117 dB) and the 2-bit QPSK region beyond it.
DIGEST_GRID = [
    -math.inf, math.inf, -4000.0, -3082.5, -3001.6, -2998.6, 116.9, 117.0, 117.5,
    *np.arange(-3100.0, -2980.0, 0.5).tolist(),
    *np.arange(-80.0, -40.0, 0.25).tolist(),
    *np.arange(-40.0, 130.0, 0.125).tolist(),
]
DIGEST_POINTS = [-60.5, -10.0, -2.8, 0.0, 3.0, 18.6, 21.6, 60.0, 112.0]
# SHA-256 of the float64 bytes of every field of every MiPoint of
# mi_grid(DIGEST_GRID) and of mi_bpsk/mi_qpsk at DIGEST_POINTS, then of
# the esn0_at_mi roots at 1/4, 1/2 and 3/4 of full scale, both
# modulations. Recorded with numpy 2.4.6 on an x86-64 CPU with AVX-512,
# before the row kernel evaluated in place: numpy's exp and log2 loops
# are chosen by CPU feature, so another CPU may read other last bits.
CAPACITY_DIGEST = "2c130ca2dfd34e9687b51a428e7ebe2b782b47c9bd8e7e985dafd6dbe2702822"


def test_capacity_outputs_keep_their_bits():
    values = []
    for modulation, fn in (("bpsk", mi_bpsk), ("qpsk", mi_qpsk)):
        values += [astuple(p) for p in mi_grid(DIGEST_GRID, modulation)]
        values += [astuple(fn(s)) for s in DIGEST_POINTS]
    roots = [esn0_at_mi(top * f, m) for m, top in (("bpsk", 1.0), ("qpsk", 2.0)) for f in (0.25, 0.5, 0.75)]
    digest = hashlib.sha256(np.array(values, dtype=np.float64).tobytes())
    digest.update(np.array(roots, dtype=np.float64).tobytes())
    assert digest.hexdigest() == CAPACITY_DIGEST


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_mi_grid_takes_any_iterable(modulation):
    assert mi_grid([], modulation) == []
    values = [-3.0, 0.0, 0.0, 117.5, -math.inf, 7.25]
    want = mi_grid(values, modulation)
    assert len(want) == len(values)
    for grid in (tuple(values), (v for v in values), np.array(values)):
        assert mi_grid(grid, modulation) == want


@pytest.mark.parametrize("grid", [[math.nan], [0.0, math.nan], [math.nan, 0.0, 1.0], [0.5] * 100 + [math.nan]])
@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_mi_grid_rejects_nan_before_any_quadrature(modulation, grid, monkeypatch):
    def reached(*args):
        raise AssertionError("quadrature before the NaN check")

    monkeypatch.setattr(capacity, "_hy_rows", reached)
    with pytest.raises(ValueError, match="esn0_db.*NaN"):
        mi_grid(grid, modulation)


@pytest.mark.parametrize("grid", [["1"], [0.0, "1"], [0.5] * 100 + ["1"], [b"1"]])
@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_mi_grid_rejects_a_string_before_any_quadrature(modulation, grid, monkeypatch):
    # as mi_bpsk("1") does: a value is a real number, not a text to parse
    def reached(*args):
        raise AssertionError("quadrature before the type check")

    monkeypatch.setattr(capacity, "_hy_rows", reached)
    with pytest.raises(TypeError):
        mi_grid(grid, modulation)
    with pytest.raises(TypeError):
        (mi_bpsk if modulation == "bpsk" else mi_qpsk)(grid[-1])


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_mi_grid_takes_numpy_values_below_the_variance_overflow(modulation):
    # warnings are errors: a numpy scalar's ** would overflow with one
    values = [-4000.0, -3082.5, -3001.6, 3.0]
    assert mi_grid(np.array(values), modulation) == mi_grid(values, modulation)
    assert mi_bpsk(np.float64(-4000.0)).mi_bits == mi_qpsk(np.float64(-4000.0)).mi_bits == 0.0


@pytest.mark.parametrize("fn, modulation, esn0_db", [(mi_bpsk, "bpsk", np.float64(3.0)), (mi_qpsk, "qpsk", 3)])
def test_mi_functions_return_one_point_form(fn, modulation, esn0_db):
    # Python floats from each function, whatever the number type of the input
    p = fn(esn0_db)
    assert [p] == mi_grid([esn0_db], modulation) == mi_grid([3.0], modulation)
    assert [type(v) for v in astuple(p)] == [float, float, float]


def test_mi_grid_peak_memory_is_bounded():
    # A grid of MAX_GRID_POINTS values holds its MiPoints (1.2 MiB) and a
    # few floats per point, and evaluates by blocks of at most 64 rows of
    # 384 nodes, about 200 KiB a temporary: it peaks at about 2.6 MiB.
    grid = np.linspace(-10.0, 30.0, MAX_GRID_POINTS).tolist()
    for modulation in ("bpsk", "qpsk"):
        mi_grid(grid[:100], modulation)
        tracemalloc.start()
        try:
            mi_grid(grid, modulation)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, modulation


@pytest.mark.parametrize("n_panels", [12, 18, 24])
def test_unit_panels_are_read_only(n_panels):
    nodes, weights = capacity._unit_panels(n_panels)
    assert nodes.shape == weights.shape == (16 * n_panels,)
    for shared in (nodes, weights):
        with pytest.raises(ValueError, match="read-only"):
            shared[0] = 0.0


def test_esn0_at_mi_rejects_nan_target():
    with pytest.raises(ValueError):
        esn0_at_mi(math.nan, "bpsk")


def test_mi_qpsk_non_decreasing():
    # near 2 bits the value carries a few ulps of rounding (up to 3.6e-15)
    grid = np.linspace(-40.0, 80.0, 2401)
    vals = [mi_qpsk(float(s)).mi_bits for s in grid]
    drops = [(s, a - b) for s, a, b in zip(grid[1:], vals, vals[1:]) if b < a - 1e-14]
    assert not drops


def test_mi_qpsk_peak_memory_is_bounded():
    # Both MI functions, despite the name: no Es/N0 forms more than 24
    # panels, that is 384 nodes, on its one axis, held in two buffers of
    # 3 KiB updated in place: a call peaks at about 6.7 KiB, where a
    # fresh array per step peaked at about 12.5 KiB. From 21.6 dB (QPSK)
    # or 18.6 dB (BPSK) on the window no longer touches the axis and
    # holds all 24 panels.
    for fn in (mi_bpsk, mi_qpsk):
        for esn0_db in (-40.0, 0.0, 21.6, 40.0, 60.0, 112.0):
            tracemalloc.start()
            try:
                fn(esn0_db)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 10 * 2**10, (fn.__name__, esn0_db)


def test_mi_point_ebn0_consistency():
    for s in (-5.0, 0.0, 3.0):
        p = mi_bpsk(s)
        assert abs(p.ebn0_db - (s - 10 * math.log10(p.mi_bits))) < 1e-12


def test_quadrature_vs_monte_carlo():
    # H(Y) from 1e6 channel samples falls within 4 standard errors of
    # the quadrature value.
    esn0 = 1.0
    s2 = 10 ** (-esn0 / 10) / 2
    p = mi_bpsk(esn0)
    hy_quad = p.mi_bits + 0.5 * math.log2(2 * math.pi * math.e * s2)
    rng = np.random.default_rng(77)
    n = 1_000_000
    x = np.where(rng.integers(0, 2, n) == 0, 1.0, -1.0)
    y = x + rng.normal(0.0, math.sqrt(s2), n)
    norm = 0.5 / math.sqrt(2 * math.pi * s2)
    f = norm * (np.exp(-((y - 1) ** 2) / (2 * s2)) + np.exp(-((y + 1) ** 2) / (2 * s2)))
    log2f = np.log2(f)
    hy_mc = -log2f.mean()
    se = log2f.std() / math.sqrt(n)
    assert abs(hy_mc - hy_quad) < 4 * se


def test_esn0_at_mi_validation():
    with pytest.raises(ValueError):
        esn0_at_mi(0.0, "bpsk")
    with pytest.raises(ValueError):
        esn0_at_mi(1.0, "bpsk")
    with pytest.raises(ValueError):
        esn0_at_mi(0.5, "8psk")


def test_write_mi_csv_deterministic(tmp_path):
    pts = mi_grid([-2.0, 0.0, 2.0], "bpsk")
    p1 = tmp_path / "a.csv"
    p2 = tmp_path / "b.csv"
    write_mi_csv(pts, p1)
    write_mi_csv(pts, p2)
    b1 = p1.read_bytes()
    assert b1 == p2.read_bytes()
    lines = b1.decode().splitlines()
    assert lines[0] == "esn0_db,mi_bits,ebn0_db"
    assert len(lines) == 4
    assert lines[1].startswith("-2.0000,")
    for ln in lines[1:]:
        esn0, mi, ebn0 = ln.split(",")
        assert len(esn0.split(".")[1]) == 4
        assert len(ebn0.split(".")[1]) == 4


def test_mi_grid_order_preserved():
    pts = mi_grid([3.0, -1.0], "bpsk")
    assert pts[0].esn0_db == 3.0
    assert pts[1].esn0_db == -1.0
