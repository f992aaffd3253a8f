"""Complex AWGN with explicit SNR bookkeeping.

Es/N0 is defined as es / sigma2_total with sigma2_total the TOTAL
complex noise power, so each dimension sees variance sigma2_total / 2.
Noise generation is counter-based (Philox keyed by seed and stream id)
with ziggurat normals, so any (seed, stream_id) pair reproduces its
sequence independently of every other stream.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ChannelParams:
    """Symbol energy and noise power; sigma2_total = 0 means noiseless."""

    es: float
    sigma2_total: float

    def __post_init__(self):
        # written as what must hold, so that NaN fails each check
        if not 0 < self.es < math.inf:
            raise ValueError("es must be positive and finite")
        if not self.sigma2_total >= 0:
            raise ValueError("sigma2_total must be non-negative")

    @property
    def sigma2_dim(self):
        return self.sigma2_total / 2.0

    @property
    def esn0_db(self):
        if self.sigma2_total == 0:
            return math.inf
        return 10.0 * math.log10(self.es / self.sigma2_total)

    @classmethod
    def from_esn0_db(cls, es, esn0_db):
        return cls(es=es, sigma2_total=es * 10.0 ** (-esn0_db / 10.0))


@dataclass(frozen=True)
class SeededRng:
    """Handle for one reproducible noise stream."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        for name in ("seed", "stream_id"):
            v = getattr(self, name)
            if not isinstance(v, int) or not 0 <= v < 2**64:
                raise ValueError(f"{name} must be an integer in [0, 2**64)")

    def generator(self):
        # as a list, a seed of 2**63 or more makes numpy round the key through float64
        key = np.array([self.seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))


def add_noise(symbols, params, rng):
    """y = s + n with independent per-dimension Gaussian components of
    variance params.sigma2_dim; zero variance returns an exact copy."""
    symbols = np.asarray(symbols, dtype=np.float64)
    if params.sigma2_dim == 0:
        return symbols.copy()
    g = rng.generator()
    return symbols + g.standard_normal(symbols.shape) * math.sqrt(params.sigma2_dim)


def ebn0_from_esn0(esn0_db, eta):
    """Eb/N0 = Es/N0 - 10*log10(eta) for spectral efficiency eta > 0."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return esn0_db - 10.0 * math.log10(eta)
