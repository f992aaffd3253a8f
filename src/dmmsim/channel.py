"""Complex AWGN with explicit SNR bookkeeping.

Symbol energy is 1, so Es/N0 is 1 / sigma2_total with sigma2_total the
TOTAL complex noise power, and each dimension sees variance
sigma2_total / 2; ``noise_var`` is the one place that turns an Es/N0
into that variance, for frames and for the capacity layer alike.
Randomness is counter-based: ``philox`` keys a Philox generator by
(seed, stream id), so any pair reproduces its sequence independently of
every other stream, for frame bits, frame noise and code construction.
Noise uses numpy's ziggurat normals.
"""

import math

import numpy as np

# Per-dimension noise standard deviation below which the channel is
# noiseless (about 117 dB Es/N0): frames skip the noise and demap by
# hard decisions, and the capacity layer reports its full bits.
_SIG_NOISELESS = 1e-6


def noise_var(esn0_db):
    """Per-dimension noise variance at Es/N0 (dB): half the total noise
    power 10**(-esn0_db/10). It is +inf at -inf dB, the zero-SNR limit,
    and wherever the power overflows a float (below about -3082.5 dB);
    it is exactly 0.0 once its standard deviation falls below
    _SIG_NOISELESS, +inf dB included.

    Raises:
        ValueError: if esn0_db is NaN.
    """
    if math.isnan(esn0_db):
        raise ValueError(f"esn0_db must not be NaN, got {esn0_db!r}")
    try:
        # math.pow, not **: a numpy scalar's ** overflows to inf with a warning
        sigma2_total = math.pow(10.0, -esn0_db / 10.0)
    except OverflowError:
        sigma2_total = math.inf
    sigma2_dim = sigma2_total / 2.0
    return 0.0 if math.sqrt(sigma2_dim) < _SIG_NOISELESS else sigma2_dim


def _is_int(v):
    """The package's integer rule: a Python int, not a bool."""
    # bool is a subclass of int, but True is not a count or seed 1
    return isinstance(v, int) and not isinstance(v, bool)


def philox(seed, stream_id=0):
    """The reproducible generator of one (seed, stream_id) pair."""
    for name, v in (("seed", seed), ("stream_id", stream_id)):
        if not (_is_int(v) and 0 <= v < 2**64):
            raise ValueError(f"{name} must be an integer in [0, 2**64)")
    # as a list, a seed of 2**63 or more makes numpy round the key through float64
    key = np.array([seed, stream_id], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def add_noise(symbols, sigma2_dim, rng):
    """y = s + n with independent per-dimension Gaussian components of
    variance sigma2_dim, drawn from the generator rng; zero variance
    returns an exact copy and draws nothing."""
    symbols = np.asarray(symbols, dtype=np.float64)
    if sigma2_dim == 0:
        return symbols.copy()
    return symbols + rng.standard_normal(symbols.shape) * math.sqrt(sigma2_dim)


def ebn0_from_esn0(esn0_db, eta):
    """Eb/N0 = Es/N0 - 10*log10(eta) for spectral efficiency eta > 0."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return esn0_db - 10.0 * math.log10(eta)
