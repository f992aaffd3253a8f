"""Bit/symbol mapping and soft demapping for BPSK with a rotation-borne
second bit.

A symbol is a length-2 float array (real, imaginary); all functions
broadcast over leading axes, so a frame is an (n, 2) array. The inner
bit selects the BPSK point on the real axis; the outer bit selects a
rotation of 0 or a quarter turn, which lands the symbol on one of four
points. The two admissible rotations are exact component swaps and
negations, never sin/cos, so rotation round trips are bit-exact.
Symbol energy is 1: results depend on Es/N0 alone, so only the noise
variance varies.
"""

import numpy as np

# The four rotated-BPSK points, in order s1=(+1,0), s2=(0,+1), s3=(-1,0),
# s4=(0,-1): point 2*v1 + v2 carries inner bit v1 and outer bit v2.
POINTS = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]])
POINTS.flags.writeable = False


def map_bpsk(v1):
    """BPSK point for the inner bit: 0 -> (+1, 0), 1 -> (-1, 0)."""
    v = np.asarray(v1)
    out = np.zeros(v.shape + (2,), dtype=np.float64)
    out[..., 0] = np.where(v.astype(np.int64) & 1, -1.0, 1.0)
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


def _outer_d2(y):
    """Squared distances of y to the four POINTS, in order, each from the
    two coordinates x-term first: bit for bit the per-point sum over a
    length-2 axis, as y - 0 is y and y - (-1) is y + 1 in IEEE arithmetic."""
    y = np.asarray(y, dtype=np.float64)
    y0, y1 = y[..., 0], y[..., 1]
    sq = np.square  # not **: a numpy scalar's ** calls libm pow, which can misround by one ulp
    sq0, sq1 = sq(y0), sq(y1)
    return sq(y0 - 1.0) + sq1, sq0 + sq(y1 - 1.0), sq(y0 + 1.0) + sq1, sq0 + sq(y1 + 1.0)


def demap_outer_hard(y):
    """Outer bit of the nearest of POINTS (squared Euclidean distance;
    ties resolve to the lowest point index)."""
    idx = np.argmin(np.stack(_outer_d2(y), axis=-1), axis=-1)
    return (idx & 1).astype(np.uint8)


def demap_outer_llr(y, sigma2_dim):
    """Exact pairwise log-sum-exp LLR for the outer bit.

    log[(p(y|s1)+p(y|s3)) / (p(y|s2)+p(y|s4))] with independent
    per-dimension Gaussian noise of variance sigma2_dim and equal
    priors; positive favors outer bit 0.
    """
    # written as what must hold, so that NaN fails the check
    if not sigma2_dim > 0:
        raise ValueError("sigma2_dim must be positive")
    d1, d2, d3, d4 = _outer_d2(y)
    s = 2.0 * sigma2_dim
    return np.logaddexp(-d1 / s, -d3 / s) - np.logaddexp(-d2 / s, -d4 / s)


def demap_inner_llr(y1, sigma2_dim):
    """BPSK LLR on the real part of the derotated symbol:
    2*re(y1)/sigma2_dim. The imaginary part carries only quadrature
    noise and is discarded; positive favors inner bit 0."""
    if not sigma2_dim > 0:
        raise ValueError("sigma2_dim must be positive")
    y1 = np.asarray(y1, dtype=np.float64)
    return 2.0 * y1[..., 0] / sigma2_dim
