import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sigma2_dim_reference

from dmmsim.channel import add_noise, ebn0_from_esn0, noise_var, philox
from dmmsim.config import FRAME_ESN0_MIN_DB
from dmmsim.modem import rotate_by_bits

LOG10_2_DB = 3.010299956639812  # 10*log10(2)
ETA_7_12_SHIFT_DB = 2.3408320603336796  # -10*log10(7/12)

# Es/N0 (dB) at which the per-dimension noise deviation is 1e-6, the noiseless threshold
NOISELESS_DB = 10.0 * math.log10(0.5e12)

ESN0 = st.one_of(
    st.floats(-1e300, 1e300),
    st.sampled_from([math.inf, -math.inf, math.nan, NOISELESS_DB, 3078.0]),
    st.floats(FRAME_ESN0_MIN_DB - 1.0, FRAME_ESN0_MIN_DB, exclude_max=True),
    st.floats(NOISELESS_DB - 1e-9, NOISELESS_DB + 1e-9),
    st.floats(100.0, 140.0),
    st.floats(-3090.0, -3075.0),
)


@settings(max_examples=1000, deadline=None)
@given(esn0_db=ESN0)
def test_noise_var_matches_reference(esn0_db):
    # the former formula bit for bit while the deviation is at least 1e-6,
    # exactly 0.0 below; NaN is not an Es/N0
    if math.isnan(esn0_db):
        with pytest.raises(ValueError, match="esn0_db must not be NaN"):
            noise_var(esn0_db)
        return
    want = sigma2_dim_reference(esn0_db)
    got = noise_var(esn0_db)
    assert got.hex() == (want if math.sqrt(want) >= 1e-6 else 0.0).hex()


def test_params_derived_quantities():
    # the per-dimension variance is half the total noise power 1 / (Es/N0)
    assert noise_var(-10.0) == 5.0
    assert noise_var(0.0) == 0.5
    assert noise_var(LOG10_2_DB) == pytest.approx(0.25, rel=1e-15)


def test_params_from_esn0_roundtrip():
    for esn0 in (-7.3, 0.0, 4.25):
        assert abs(10 * math.log10(1.0 / (2.0 * noise_var(esn0))) - esn0) < 1e-12


def test_params_noiseless_limit():
    assert noise_var(math.inf) == 0.0


@pytest.mark.parametrize("esn0_db", [math.nan])
def test_params_reject_nan_and_inf(esn0_db):
    # -inf dB is the zero-SNR limit, so only NaN is refused
    with pytest.raises(ValueError, match="NaN"):
        noise_var(esn0_db)


def test_params_accept_infinite_noise():
    # the -inf dB limit; only NaN is refused
    assert noise_var(-math.inf) == math.inf


@pytest.mark.parametrize("esn0_db", [-3100.0, -1e300])
def test_overflowing_noise_power_reads_infinite(esn0_db):
    # a finite Es/N0 whose noise power overflows a float reads as the -inf dB limit
    assert noise_var(esn0_db) == math.inf


def test_noise_var_overflow_is_the_zero_snr_limit():
    assert noise_var(-3082.0) < math.inf
    assert noise_var(-3083.0) == math.inf
    assert noise_var(-math.inf) == math.inf


def test_seeded_rng_validation():
    for seed, stream_id in ((-1, 0), (0, 2**64), (2**64, 0), (0, -1), (1.0, 0), (0, np.int64(3)), (True, 0), (0, False)):
        with pytest.raises(ValueError, match=r"must be an integer in \[0, 2\*\*64\)"):
            philox(seed, stream_id)


def test_seeds_keep_all_64_bits():
    # a key passed through float64 would merge seeds from 2**63 up, and
    # map those within 1024 of 2**64 onto seed 0
    seeds = (0, 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    draws = {philox(s, 5).integers(0, 2**63) for s in seeds}
    assert len(draws) == len(seeds)


def test_noiseless_identity_and_copy():
    s = np.ones((16, 2))
    rng = philox(1)
    y = add_noise(s, 0.0, rng)
    assert np.array_equal(y, s)
    y[0, 0] = 99.0
    assert s[0, 0] == 1.0
    # nothing was drawn
    assert rng.integers(0, 2**63) == philox(1).integers(0, 2**63)


def test_same_stream_reproduces():
    s = np.zeros((64, 2))
    y1 = add_noise(s, 0.5, philox(7, 3))
    y2 = add_noise(s, 0.5, philox(7, 3))
    assert np.array_equal(y1, y2)


def test_distinct_streams_differ():
    s = np.zeros((64, 2))
    y1 = add_noise(s, 0.5, philox(7, 3))
    y2 = add_noise(s, 0.5, philox(7, 4))
    y3 = add_noise(s, 0.5, philox(8, 3))
    assert not np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_noise_calibration_one_million_samples():
    n = 1_000_000
    y = add_noise(np.zeros((n, 2)), 0.5, philox(99))
    var = y.var(axis=0)
    # tolerance band for the sample variance
    assert abs(var[0] - 0.5) < 0.005
    assert abs(var[1] - 0.5) < 0.005
    # mean within 4 standard errors
    se = math.sqrt(0.5 / n)
    assert np.all(np.abs(y.mean(axis=0)) < 4 * se)
    # dimensions balanced and summing to the total power
    assert abs(var.sum() - 1.0) < 0.01
    assert abs(var[0] - var[1]) < 0.01


def test_noise_rotation_invariance_moments():
    n = 200_000
    sigma2_dim = 0.4
    y = add_noise(np.zeros((n, 2)), sigma2_dim, philox(5))
    r = rotate_by_bits(y, np.ones(n, dtype=np.uint8))
    se = math.sqrt(sigma2_dim / n)
    assert np.all(np.abs(r.mean(axis=0)) < 4 * se)
    assert np.allclose(np.cov(r.T), np.cov(y.T)[::-1, ::-1] * [[1, -1], [-1, 1]], atol=1e-12)
    assert np.allclose(np.cov(r.T).diagonal(), sigma2_dim, atol=5 * sigma2_dim * math.sqrt(2 / n))


def test_ebn0_from_esn0():
    assert ebn0_from_esn0(0.0, 1.0) == 0.0
    assert ebn0_from_esn0(0.0, 0.5) == pytest.approx(LOG10_2_DB, abs=1e-12)
    assert ebn0_from_esn0(1.0, 7 / 12) == pytest.approx(1.0 + ETA_7_12_SHIFT_DB, abs=1e-12)
    with pytest.raises(ValueError):
        ebn0_from_esn0(0.0, 0.0)
    with pytest.raises(ValueError):
        ebn0_from_esn0(0.0, -1.0)
