import math

import numpy as np
import pytest

from dmmsim.channel import ChannelParams, SeededRng, add_noise, ebn0_from_esn0
from dmmsim.modem import rotate_by_bits

LOG10_2_DB = 3.010299956639812  # 10*log10(2)
ETA_7_12_SHIFT_DB = 2.3408320603336796  # -10*log10(7/12)


def test_params_derived_quantities():
    p = ChannelParams(sigma2_total=0.5)
    assert p.sigma2_dim == 0.25
    assert abs(p.esn0_db - 10 * math.log10(1.0 / 0.5)) < 1e-12


def test_params_from_esn0_roundtrip():
    for esn0 in (-7.3, 0.0, 4.25):
        p = ChannelParams.from_esn0_db(esn0)
        assert abs(p.esn0_db - esn0) < 1e-12
        assert p.sigma2_dim == p.sigma2_total / 2


def test_params_noiseless_limit():
    p = ChannelParams.from_esn0_db(math.inf)
    assert p.sigma2_total == 0.0
    assert p.esn0_db == math.inf


def test_params_validation():
    with pytest.raises(ValueError):
        ChannelParams(sigma2_total=-0.1)


@pytest.mark.parametrize("sigma2_total", [math.nan, -math.inf])
def test_params_reject_nan_and_inf(sigma2_total):
    with pytest.raises(ValueError):
        ChannelParams(sigma2_total=sigma2_total)


def test_params_accept_infinite_noise():
    # the -inf dB limit of from_esn0_db; only NaN is refused
    assert ChannelParams.from_esn0_db(-math.inf).sigma2_total == math.inf


@pytest.mark.parametrize("esn0_db", [-3100.0, -1e300])
def test_overflowing_noise_power_reads_infinite(esn0_db):
    # a finite Es/N0 whose noise power overflows a float reads as the -inf dB limit
    assert ChannelParams.from_esn0_db(esn0_db).sigma2_total == math.inf


def test_seeded_rng_validation():
    with pytest.raises(ValueError):
        SeededRng(seed=-1)
    with pytest.raises(ValueError):
        SeededRng(seed=0, stream_id=2**64)


def test_seeds_keep_all_64_bits():
    # a key passed through float64 would merge seeds from 2**63 up, and
    # map those within 1024 of 2**64 onto seed 0
    seeds = (0, 1, 2**63, 2**63 + 1, 2**64 - 2, 2**64 - 1)
    draws = {SeededRng(seed=s, stream_id=5).generator().integers(0, 2**63) for s in seeds}
    assert len(draws) == len(seeds)


def test_noiseless_identity_and_copy():
    s = np.ones((16, 2))
    p = ChannelParams(sigma2_total=0.0)
    y = add_noise(s, p, SeededRng(seed=1))
    assert np.array_equal(y, s)
    y[0, 0] = 99.0
    assert s[0, 0] == 1.0


def test_same_stream_reproduces():
    s = np.zeros((64, 2))
    p = ChannelParams(sigma2_total=1.0)
    y1 = add_noise(s, p, SeededRng(seed=7, stream_id=3))
    y2 = add_noise(s, p, SeededRng(seed=7, stream_id=3))
    assert np.array_equal(y1, y2)


def test_distinct_streams_differ():
    s = np.zeros((64, 2))
    p = ChannelParams(sigma2_total=1.0)
    y1 = add_noise(s, p, SeededRng(seed=7, stream_id=3))
    y2 = add_noise(s, p, SeededRng(seed=7, stream_id=4))
    y3 = add_noise(s, p, SeededRng(seed=8, stream_id=3))
    assert not np.array_equal(y1, y2)
    assert not np.array_equal(y1, y3)


def test_noise_calibration_one_million_samples():
    n = 1_000_000
    p = ChannelParams(sigma2_total=1.0)  # sigma2_dim = 0.5
    y = add_noise(np.zeros((n, 2)), p, SeededRng(seed=99))
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
    p = ChannelParams(sigma2_total=0.8)
    y = add_noise(np.zeros((n, 2)), p, SeededRng(seed=5))
    r = rotate_by_bits(y, np.ones(n, dtype=np.uint8))
    se = math.sqrt(p.sigma2_dim / n)
    assert np.all(np.abs(r.mean(axis=0)) < 4 * se)
    assert np.allclose(np.cov(r.T), np.cov(y.T)[::-1, ::-1] * [[1, -1], [-1, 1]], atol=1e-12)
    assert np.allclose(np.cov(r.T).diagonal(), p.sigma2_dim, atol=5 * p.sigma2_dim * math.sqrt(2 / n))


def test_ebn0_from_esn0():
    assert ebn0_from_esn0(0.0, 1.0) == 0.0
    assert ebn0_from_esn0(0.0, 0.5) == pytest.approx(LOG10_2_DB, abs=1e-12)
    assert ebn0_from_esn0(1.0, 7 / 12) == pytest.approx(1.0 + ETA_7_12_SHIFT_DB, abs=1e-12)
    with pytest.raises(ValueError):
        ebn0_from_esn0(0.0, 0.0)
    with pytest.raises(ValueError):
        ebn0_from_esn0(0.0, -1.0)
