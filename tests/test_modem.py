import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dmmsim.modem import (
    POINTS,
    demap_inner_llr,
    demap_outer_hard,
    demap_outer_llr,
    map_bpsk,
    rotate_by_bits,
)
from oracles import bpsk_llr_density, demap_outer_llr_reference, nearest_outer_bit

# Symbol coordinates: signed zeros, subnormals, ordinary values and
# magnitudes up to 1e150, whose squares still fit a float64.
COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2e-308, 1e150, -1e150]),
    st.floats(-4.0, 4.0),
    st.floats(-1e150, 1e150),
)

# Symbol arrays of shape (2,), (n, 2) and (B, n, 2): one symbol, a frame, a batch.
SYMBOLS = st.one_of(
    st.just(()), st.tuples(st.integers(1, 6)), st.tuples(st.integers(1, 3), st.integers(1, 6))
).flatmap(lambda lead: arrays(np.float64, lead + (2,), elements=COORDS))

SIGMA2 = st.floats(1e-6, 1e3)

# One symbol for the hard demapper: one of the four points or the exact
# midpoint of two of them, a point on a diagonal (two points tie) or any
# pair of coordinates, at a scale from 1e-300 to 1e3.
HARD_SYMBOL = st.one_of(
    st.sampled_from(sorted({tuple((p + q) / 2) for p in POINTS for q in POINTS})),
    COORDS.flatmap(lambda c: st.sampled_from([(c, c), (c, -c)])),
    st.tuples(COORDS, COORDS),
).flatmap(lambda s: st.sampled_from([1e-300, 1e-10, 1.0, 1e3]).map(lambda k: (s[0] * k, s[1] * k)))


def test_map_bpsk_values():
    assert np.array_equal(map_bpsk(0), [1.0, 0.0])
    assert np.array_equal(map_bpsk(1), [-1.0, 0.0])


def test_map_bpsk_batch():
    out = map_bpsk(np.array([0, 1, 1, 0]))
    assert out.shape == (4, 2)
    assert np.array_equal(out[:, 0], [1.0, -1.0, -1.0, 1.0])
    assert not out[:, 1].any()


def test_rotate_quarter_turns():
    assert np.array_equal(rotate_by_bits([1.0, 0.0], 1), [0.0, 1.0])
    assert np.array_equal(rotate_by_bits([-1.0, 0.0], 1), [0.0, -1.0])
    assert np.array_equal(rotate_by_bits([0.3, -0.4], 0), [0.3, -0.4])
    assert np.array_equal(rotate_by_bits([0.3, -0.4], 0, inverse=True), [0.3, -0.4])
    assert np.array_equal(rotate_by_bits([0.1, -0.8], 1, inverse=True), [-0.8, -0.1])


def test_rotate_roundtrip_bit_exact():
    rng = np.random.default_rng(21)
    z = rng.normal(size=(256, 2))
    for bits in (np.zeros(256, dtype=np.uint8), np.ones(256, dtype=np.uint8), rng.integers(0, 2, 256)):
        back = rotate_by_bits(rotate_by_bits(z, bits), bits, inverse=True)
        assert np.array_equal(back, z)


def test_rotate_preserves_energy_exactly():
    rng = np.random.default_rng(22)
    z = rng.normal(size=(256, 2))
    for bits in (np.zeros(256, dtype=np.uint8), np.ones(256, dtype=np.uint8)):
        r = rotate_by_bits(z, bits)
        assert np.array_equal((r**2).sum(axis=-1), (z**2).sum(axis=-1))


def test_map_dmm_table():
    # Constellation point 2*v1 + v2 carries inner bit v1 and outer bit v2.
    pts = POINTS
    assert np.array_equal(pts[2 * 0 + 0], [1.0, 0.0])
    assert np.array_equal(pts[2 * 0 + 1], [0.0, 1.0])
    assert np.array_equal(pts[2 * 1 + 0], [-1.0, 0.0])
    assert np.array_equal(pts[2 * 1 + 1], [0.0, -1.0])


def test_map_dmm_matches_rotate_of_bpsk():
    pts = POINTS
    for v1 in (0, 1):
        for v2 in (0, 1):
            assert np.array_equal(rotate_by_bits(map_bpsk(v1), v2), pts[2 * v1 + v2])


def test_roundtrip_derotation_recovers_bpsk_point():
    pts = POINTS
    for v1 in (0, 1):
        for v2 in (0, 1):
            y1 = rotate_by_bits(pts[2 * v1 + v2], v2, inverse=True)
            assert np.array_equal(y1, map_bpsk(v1))


def test_rotate_by_bits_matches_scalar_rotate():
    # a whole frame rotates exactly as its symbols do one at a time
    rng = np.random.default_rng(23)
    z = rng.normal(size=(64, 2))
    bits = rng.integers(0, 2, 64)
    fwd = rotate_by_bits(z, bits)
    inv = rotate_by_bits(fwd, bits, inverse=True)
    assert np.array_equal(inv, z)
    for i in range(64):
        assert np.array_equal(fwd[i], rotate_by_bits(z[i], bits[i]))
        assert np.array_equal(fwd[i], [-z[i, 1], z[i, 0]] if bits[i] else z[i])


def test_constellation_geometry():
    pts = POINTS
    assert np.array_equal((pts**2).sum(axis=1), [1.0] * 4)
    # in-pair (same outer bit): 4; adjacent cross-pair: 2
    assert ((pts[0] - pts[2]) ** 2).sum() == 4
    assert ((pts[1] - pts[3]) ** 2).sum() == 4
    for i in (0, 2):
        for j in (1, 3):
            assert ((pts[i] - pts[j]) ** 2).sum() == 2
    # the one constellation of the package cannot be changed in place
    with pytest.raises(ValueError):
        pts[0, 0] = 2.0


def test_demap_outer_hard_examples():
    pts = POINTS
    y = np.array([0.9, 0.1])
    d2 = ((pts - y) ** 2).sum(axis=1)
    assert d2.argmin() == 0
    assert demap_outer_hard(y) == 0
    y2 = np.array([-0.1, -1.2])
    d2 = ((pts - y2) ** 2).sum(axis=1)
    assert d2.argmin() == 3
    assert demap_outer_hard(y2) == 1
    assert demap_outer_hard(pts[1]) == 1


@settings(max_examples=400, deadline=None)
@given(y=st.one_of(HARD_SYMBOL, st.lists(HARD_SYMBOL, min_size=1, max_size=8)).map(np.array))
# one symbol whose squares libm pow misrounds by one ulp
@example(y=np.array([-float.fromhex("0x1.3b1d0d1ded288p+57"), float.fromhex("0x1.b50344d3f31cep+55")]))
def test_demap_outer_hard_matches_nearest_point_oracle(y):
    got, want = demap_outer_hard(y), nearest_outer_bit(y)
    assert type(got) is type(want) and got.dtype == want.dtype == np.uint8
    assert np.shape(got) == np.shape(want) == y.shape[:-1]
    assert np.array_equal(got, want)


def test_demap_outer_llr_signs_and_zero_diagonal():
    assert demap_outer_llr(np.array([1.0, 0.0]), 0.5) > 0
    assert demap_outer_llr(np.array([-1.0, 0.0]), 0.5) > 0
    for c in (-1.3, -0.2, 0.0, 0.4, 2.0):
        assert demap_outer_llr(np.array([c, c]), 0.7) == 0.0


def test_demap_outer_llr_matches_density_oracle():
    s2 = 0.5
    rng = np.random.default_rng(24)
    ys = np.vstack([rng.normal(size=(30, 2)), [[0.9, 0.1]]])
    for y in ys:
        num = np.logaddexp.reduce(
            [-((y - POINTS[i]) ** 2).sum() / (2 * s2) for i in (0, 2)]
        )
        den = np.logaddexp.reduce(
            [-((y - POINTS[i]) ** 2).sum() / (2 * s2) for i in (1, 3)]
        )
        want = num - den
        got = demap_outer_llr(y, s2)
        assert abs(got - want) < 1e-12
    assert demap_outer_llr(np.array([0.9, 0.1]), s2) > 0


def test_demap_outer_hard_soft_consistent():
    rng = np.random.default_rng(25)
    y = rng.normal(scale=1.2, size=(500, 2))
    llr = demap_outer_llr(y, 0.4)
    hard = demap_outer_hard(y)
    strong = np.abs(llr) > 1e-12
    assert np.array_equal(llr[strong] < 0, hard[strong].astype(bool))


def test_demap_inner_llr():
    assert demap_inner_llr(np.array([1.0, 0.7]), 0.5) == pytest.approx(4.0)
    assert demap_inner_llr(np.array([0.0, -3.0]), 0.5) == 0.0
    assert demap_inner_llr(np.array([-0.8, -0.1]), 0.5) == pytest.approx(-3.2)
    # density-ratio oracle: same closed form
    got = demap_inner_llr(np.array([-0.8, -0.1]), 0.5)
    assert got == pytest.approx(bpsk_llr_density(-0.8, 1.0, 0.5), abs=1e-12)
    # a zero or NaN noise variance is refused by both demappers
    for s2 in (0.0, math.nan):
        with pytest.raises(ValueError):
            demap_inner_llr(np.array([0.1, 0.2]), s2)
        with pytest.raises(ValueError):
            demap_outer_llr(np.array([0.1, 0.2]), s2)


def test_demap_inner_llr_odd_symmetry():
    rng = np.random.default_rng(26)
    r = rng.normal(size=50)
    pos = demap_inner_llr(np.stack([r, np.zeros(50)], axis=-1), 0.7)
    neg = demap_inner_llr(np.stack([-r, np.zeros(50)], axis=-1), 0.7)
    assert np.array_equal(pos, -neg)


@settings(max_examples=400, deadline=None)
@given(y=SYMBOLS, sigma2_dim=SIGMA2)
# single symbols whose squares libm pow misrounds by one ulp
@example(y=np.array([0.0, float.fromhex("0x1.62c309582d686p+53")]), sigma2_dim=1.0)
@example(y=np.array([float.fromhex("0x1.25b59fa724a1cp+50"), -float.fromhex("0x1.5235ee73da192p-5")]), sigma2_dim=1.0)
def test_demap_outer_llr_matches_reference_bytes(y, sigma2_dim):
    got = demap_outer_llr(y, sigma2_dim)
    want = demap_outer_llr_reference(y, sigma2_dim)
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) == y.shape[:-1]
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@settings(max_examples=200, deadline=None)
@given(y=SYMBOLS, sigma2_dim=SIGMA2)
def test_demapper_symmetries_exact(y, sigma2_dim):
    llr = demap_outer_llr(y, sigma2_dim)
    # negating a symbol keeps its rotation; a quarter turn swaps the rotation pairs
    assert np.array_equal(demap_outer_llr(-y, sigma2_dim), llr)
    assert np.array_equal(demap_outer_llr(rotate_by_bits(y, 1), sigma2_dim), -llr)
    inner = demap_inner_llr(y, sigma2_dim)
    assert np.array_equal(demap_inner_llr(-y, sigma2_dim), -inner)


@settings(max_examples=200, deadline=None)
@given(z=SYMBOLS, data=st.data())
def test_rotation_exact_properties(z, data):
    bits = data.draw(arrays(np.uint8, z.shape[:-1], elements=st.integers(0, 1)))
    back = rotate_by_bits(rotate_by_bits(z, bits), bits, inverse=True)
    assert back.tobytes() == z.tobytes()
    turned = z
    for _ in range(4):
        turned = rotate_by_bits(turned, 1)
    assert turned.tobytes() == z.tobytes()
    energy = (z**2).sum(axis=-1)
    assert np.array_equal((rotate_by_bits(z, bits) ** 2).sum(axis=-1), energy)
    assert np.array_equal((rotate_by_bits(z, bits, inverse=True) ** 2).sum(axis=-1), energy)
