import math

import numpy as np
import pytest

from dmmsim.modem import (
    Constellation,
    demap_inner_llr,
    demap_outer_hard,
    demap_outer_llr,
    map_bpsk,
    rotate_by_bits,
)
from oracles import bpsk_llr_density


def test_map_bpsk_values():
    assert np.array_equal(map_bpsk(0, es=1.0), [1.0, 0.0])
    assert np.array_equal(map_bpsk(1, es=1.0), [-1.0, 0.0])
    assert np.array_equal(map_bpsk(0, es=4.0), [2.0, 0.0])
    with pytest.raises(ValueError):
        map_bpsk(0, es=0.0)


def test_map_bpsk_batch():
    out = map_bpsk(np.array([0, 1, 1, 0]), es=1.0)
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
    a = math.sqrt(2.0)
    pts = Constellation(2.0).points
    assert np.array_equal(pts[2 * 0 + 0], [a, 0.0])
    assert np.array_equal(pts[2 * 0 + 1], [0.0, a])
    assert np.array_equal(pts[2 * 1 + 0], [-a, 0.0])
    assert np.array_equal(pts[2 * 1 + 1], [0.0, -a])


def test_map_dmm_matches_rotate_of_bpsk():
    pts = Constellation(1.0).points
    for v1 in (0, 1):
        for v2 in (0, 1):
            assert np.array_equal(rotate_by_bits(map_bpsk(v1, 1.0), v2), pts[2 * v1 + v2])


def test_roundtrip_derotation_recovers_bpsk_point():
    pts = Constellation(1.0).points
    for v1 in (0, 1):
        for v2 in (0, 1):
            y1 = rotate_by_bits(pts[2 * v1 + v2], v2, inverse=True)
            assert np.array_equal(y1, map_bpsk(v1, 1.0))


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
    for es in (1.0, 4.0):
        cst = Constellation(es)
        pts = cst.points
        assert np.array_equal((pts**2).sum(axis=1), [es] * 4)
        # in-pair (same outer bit): 4*es; adjacent cross-pair: 2*es
        assert ((pts[0] - pts[2]) ** 2).sum() == 4 * es
        assert ((pts[1] - pts[3]) ** 2).sum() == 4 * es
        for i in (0, 2):
            for j in (1, 3):
                assert ((pts[i] - pts[j]) ** 2).sum() == 2 * es
    with pytest.raises(ValueError):
        Constellation(0.0)


def test_demap_outer_hard_examples():
    cst = Constellation(1.0)
    pts = cst.points
    y = np.array([0.9, 0.1])
    d2 = ((pts - y) ** 2).sum(axis=1)
    assert d2.argmin() == 0
    assert demap_outer_hard(y, cst) == 0
    y2 = np.array([-0.1, -1.2])
    d2 = ((pts - y2) ** 2).sum(axis=1)
    assert d2.argmin() == 3
    assert demap_outer_hard(y2, cst) == 1
    assert demap_outer_hard(pts[1], cst) == 1


def test_demap_outer_llr_signs_and_zero_diagonal():
    cst = Constellation(1.0)
    assert demap_outer_llr(np.array([1.0, 0.0]), cst, 0.5) > 0
    assert demap_outer_llr(np.array([-1.0, 0.0]), cst, 0.5) > 0
    for c in (-1.3, -0.2, 0.0, 0.4, 2.0):
        assert demap_outer_llr(np.array([c, c]), cst, 0.7) == 0.0


def test_demap_outer_llr_matches_density_oracle():
    cst = Constellation(1.0)
    s2 = 0.5
    rng = np.random.default_rng(24)
    ys = np.vstack([rng.normal(size=(30, 2)), [[0.9, 0.1]]])
    for y in ys:
        num = np.logaddexp.reduce(
            [-((y - cst.points[i]) ** 2).sum() / (2 * s2) for i in (0, 2)]
        )
        den = np.logaddexp.reduce(
            [-((y - cst.points[i]) ** 2).sum() / (2 * s2) for i in (1, 3)]
        )
        want = num - den
        got = demap_outer_llr(y, cst, s2)
        assert abs(got - want) < 1e-12
    assert demap_outer_llr(np.array([0.9, 0.1]), cst, s2) > 0


def test_demap_outer_hard_soft_consistent():
    cst = Constellation(1.0)
    rng = np.random.default_rng(25)
    y = rng.normal(scale=1.2, size=(500, 2))
    llr = demap_outer_llr(y, cst, 0.4)
    hard = demap_outer_hard(y, cst)
    strong = np.abs(llr) > 1e-12
    assert np.array_equal(llr[strong] < 0, hard[strong].astype(bool))


def test_demap_inner_llr():
    assert demap_inner_llr(np.array([1.0, 0.7]), 1.0, 0.5) == pytest.approx(4.0)
    assert demap_inner_llr(np.array([0.0, -3.0]), 1.0, 0.5) == 0.0
    assert demap_inner_llr(np.array([-0.8, -0.1]), 1.0, 0.5) == pytest.approx(-3.2)
    # density-ratio oracle: same closed form
    got = demap_inner_llr(np.array([-0.8, -0.1]), 1.0, 0.5)
    assert got == pytest.approx(bpsk_llr_density(-0.8, 1.0, 0.5), abs=1e-12)
    with pytest.raises(ValueError):
        demap_inner_llr(np.array([0.1, 0.2]), 1.0, 0.0)


def test_demap_inner_llr_odd_symmetry():
    rng = np.random.default_rng(26)
    r = rng.normal(size=50)
    pos = demap_inner_llr(np.stack([r, np.zeros(50)], axis=-1), 1.3, 0.7)
    neg = demap_inner_llr(np.stack([-r, np.zeros(50)], axis=-1), 1.3, 0.7)
    assert np.array_equal(pos, -neg)
