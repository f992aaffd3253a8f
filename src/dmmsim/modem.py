"""Bit/symbol mapping and soft demapping for BPSK with a rotation-borne
second bit.

A symbol is a length-2 float array (real, imaginary); all functions
broadcast over leading axes, so a frame is an (n, 2) array. The inner
bit selects the BPSK point on the real axis; the outer bit selects a
rotation of 0 or a quarter turn, which lands the symbol on one of four
points. The two admissible rotations are exact component swaps and
negations, never sin/cos, so rotation round trips are bit-exact.
"""

import math
from dataclasses import dataclass

import numpy as np

def map_bpsk(v1, es):
    """BPSK point for the inner bit: 0 -> (+sqrt(es), 0), 1 -> (-sqrt(es), 0)."""
    if es <= 0:
        raise ValueError("es must be positive")
    v = np.asarray(v1)
    amp = math.sqrt(es)
    out = np.zeros(v.shape + (2,), dtype=np.float64)
    out[..., 0] = np.where(v.astype(np.int64) & 1, -amp, amp)
    return out


def rotate_by_bits(z, bits, inverse=False):
    """Per-symbol rotation selected by a bit array (0: none, 1: quarter turn).

    A quarter turn maps (a, b) to (-b, a); the inverse maps (a, b) to
    (b, -a). Amplitude is preserved exactly and rotating forward then
    back returns the input bit-for-bit.
    """
    z = np.asarray(z, dtype=np.float64)
    b = np.asarray(bits).astype(bool)
    a, bb = z[..., 0], z[..., 1]
    if inverse:
        re = np.where(b, bb, a)
        im = np.where(b, -a, bb)
    else:
        re = np.where(b, -bb, a)
        im = np.where(b, a, bb)
    return np.stack([re, im], axis=-1)


@dataclass(frozen=True)
class Constellation:
    """The four rotated-BPSK points at symbol energy es, in order
    s1=(+a,0), s2=(0,+a), s3=(-a,0), s4=(0,-a) with a = sqrt(es): point
    2*v1 + v2 carries inner bit v1 and outer bit v2."""

    es: float

    def __post_init__(self):
        if self.es <= 0:
            raise ValueError("es must be positive")

    @property
    def points(self):
        a = math.sqrt(self.es)
        return np.array(
            [[a, 0.0], [0.0, a], [-a, 0.0], [0.0, -a]], dtype=np.float64
        )


def demap_outer_hard(y, cst):
    """Outer bit of the nearest constellation point (squared Euclidean
    distance; ties resolve to the lowest point index)."""
    y = np.asarray(y, dtype=np.float64)
    d2 = ((y[..., None, :] - cst.points) ** 2).sum(axis=-1)
    idx = np.argmin(d2, axis=-1)
    return (idx & 1).astype(np.uint8)


def demap_outer_llr(y, cst, sigma2_dim):
    """Exact pairwise log-sum-exp LLR for the outer bit.

    log[(p(y|s1)+p(y|s3)) / (p(y|s2)+p(y|s4))] with independent
    per-dimension Gaussian noise of variance sigma2_dim and equal
    priors; positive favors outer bit 0.
    """
    if sigma2_dim <= 0:
        raise ValueError("sigma2_dim must be positive")
    y = np.asarray(y, dtype=np.float64)
    e = -((y[..., None, :] - cst.points) ** 2).sum(axis=-1) / (2.0 * sigma2_dim)
    return np.logaddexp(e[..., 0], e[..., 2]) - np.logaddexp(e[..., 1], e[..., 3])


def demap_inner_llr(y1, es, sigma2_dim):
    """BPSK LLR on the real part of the derotated symbol:
    2*sqrt(es)*re(y1)/sigma2_dim. The imaginary part carries only
    quadrature noise and is discarded; positive favors inner bit 0."""
    if es <= 0:
        raise ValueError("es must be positive")
    if sigma2_dim <= 0:
        raise ValueError("sigma2_dim must be positive")
    y1 = np.asarray(y1, dtype=np.float64)
    return 2.0 * math.sqrt(es) * y1[..., 0] / sigma2_dim
