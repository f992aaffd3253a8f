"""Mutual information of BPSK and QPSK inputs over AWGN, computed as
output entropy minus noise entropy, plus the distance heuristic R1/4
for the rotation-borne stream's code rate.

BPSK is treated as one-dimensional: the decision variable sees the
per-dimension noise variance sigma2_total / 2. QPSK is computed as a
genuine two-dimensional four-point mixture so the I/Q doubling identity
is a cross-check between independent integration routes, not a tautology:
its density is formed and its log taken on a 2-D Gauss-Legendre node
grid, in units of the noise standard deviation about the positive
constellation point, at most 384 nodes per axis at any Es/N0, and reduced
by two matrix-vector products. Below one noise threshold both carry
their full bits without quadrature. Symbol energy is normalized to 1;
only the ratio enters.

SciPy's ``quad`` and ``brentq`` are imported inside the functions that
use them, so importing the package or running frames does not load
``scipy.integrate`` or ``scipy.optimize``.
"""

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import noise_var


@dataclass(frozen=True)
class MiPoint:
    esn0_db: float
    mi_bits: float
    ebn0_db: float


def _mi_point(esn0_db, mi):
    ebn0 = esn0_db - 10.0 * math.log10(mi) if mi > 0 else math.inf
    return MiPoint(esn0_db, mi, ebn0)


# Largest per-dimension noise standard deviation at which mi_bpsk's
# integrand is evaluated: it squares (y -+ 1) over y in +-(1 + 12 sigma),
# which must stay a finite float. Past it, below about -3063 dB, the
# mutual information is below 1e-300 bits.
_SIG_MAX_BPSK = math.sqrt(sys.float_info.max) / 13.0


def mi_bpsk(esn0_db):
    """Mutual information of equiprobable BPSK at the given Es/N0 (dB).

    I = H(Y) - H(N) with Y an equiprobable two-Gaussian mixture on the
    real line; H(Y) by adaptive quadrature over +-12 standard
    deviations (absolute tolerance well under 1e-9). Where
    ``noise_var`` reads 0, its standard deviation below the noiseless
    threshold (about 117 dB, inside the band from 73 dB up where the
    quadrature gives exactly 1.0), the channel carries the full 1 bit
    without quadrature: further up the integrand is two spikes that
    ``quad`` cannot resolve, so it warns and, above about 324 dB, falls
    short of 1. Es/N0 = +inf is such a channel;
    Es/N0 = -inf carries 0 bits, and so, to within 1e-300 bits, does any
    Es/N0 whose noise standard deviation exceeds _SIG_MAX_BPSK (below
    about -3063 dB), where the integrand would overflow.

    Raises:
        ValueError: if esn0_db is NaN.
    """
    from scipy.integrate import quad

    s2 = noise_var(esn0_db)
    if s2 == 0.0:
        return _mi_point(esn0_db, 1.0)
    sig = math.sqrt(s2)
    if sig > _SIG_MAX_BPSK:
        return _mi_point(esn0_db, 0.0)
    norm = 0.5 / math.sqrt(2.0 * math.pi * s2)

    def neg_flog2f(y):
        f = norm * (
            math.exp(-((y - 1.0) ** 2) / (2.0 * s2))
            + math.exp(-((y + 1.0) ** 2) / (2.0 * s2))
        )
        if f <= 0.0:
            return 0.0
        return -f * math.log2(f)

    lo, hi = -1.0 - 12.0 * sig, 1.0 + 12.0 * sig
    hy, _ = quad(neg_flog2f, lo, hi, epsabs=1e-12, epsrel=1e-12, limit=400,
                 points=[-1.0, 0.0, 1.0])
    hn = 0.5 * math.log2(2.0 * math.pi * math.e * s2)
    return _mi_point(esn0_db, min(max(hy - hn, 0.0), 1.0))


@functools.cache
def _gauss_legendre16():
    """16-point Gauss-Legendre rule on [-1, 1], computed on first use and
    kept: it is an eigenvalue problem that otherwise costs about a quarter
    of a QPSK point. The arrays are shared and must not be written."""
    return np.polynomial.legendre.leggauss(16)


def _panel_nodes(lo, hi, n_panels):
    x, w = _gauss_legendre16()
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return nodes, wts


def mi_qpsk(esn0_db):
    """Mutual information of equiprobable QPSK at the given Es/N0 (dB).

    Two-dimensional mixture of four Gaussians at (+-a, +-a), a=1/sqrt(2),
    minus the complex-noise entropy. The mixture density is even on both
    axes, so H(Y) is 4 times its integral over the positive quadrant,
    taken per axis in units of the noise standard deviation sigma about
    the positive point, x = a + sigma z, with z in [-min(a/sigma, 12), 12]
    (from the axis, or 12 sigma below the point, to 12 sigma above it) on
    16-point Gauss-Legendre panels about 1 sigma wide: at most 24 panels,
    384 nodes. With h(z) = exp(-z^2/2) + exp(-(z + 2a/sigma)^2/2) the
    per-axis Gaussian pair, the density on the node grid is
    F = norm * h h', so H(Y) = -4 norm sigma^2 u' log2(F) u with
    u = weights * h. The log is taken of the 2-D density, not split into
    per-axis terms, so the I/Q doubling identity against ``mi_bpsk``
    stays a check between two integration routes. Where ``noise_var``
    reads 0, below its noiseless threshold, the channel carries the full
    2 bits without quadrature; at Es/N0 = -inf it carries 0 bits.

    Raises:
        ValueError: if esn0_db is NaN.
    """
    s2 = noise_var(esn0_db)
    if s2 == math.inf:
        return _mi_point(esn0_db, 0.0)
    if s2 == 0.0:
        return _mi_point(esn0_db, 2.0)
    sig = math.sqrt(s2)
    a = 1.0 / math.sqrt(2.0)
    lo = -min(a / sig, 12.0)
    z, wts = _panel_nodes(lo, 12.0, math.ceil(12.0 - lo))
    h = np.exp(-0.5 * z * z) + np.exp(-0.5 * (z + 2.0 * a / sig) ** 2)
    u = wts * h
    norm = 0.25 / (2.0 * math.pi * s2)
    f = np.multiply.outer(norm * h, h)
    # at very low Es/N0 the density underflows to 0 in the corners, where
    # it adds nothing
    np.log2(f, out=f, where=f > 0.0)
    hy = -4.0 * norm * s2 * float(u @ (f @ u))
    hn = math.log2(2.0 * math.pi * math.e * s2)
    return _mi_point(esn0_db, min(max(hy - hn, 0.0), 2.0))


def _mi_function(modulation):
    """(MI function, its ceiling in bits) for a modulation name. The
    function is looked up in the module globals on each call, so a
    wrapper set on the module sees every evaluation."""
    if modulation == "bpsk":
        return mi_bpsk, 1.0
    if modulation == "qpsk":
        return mi_qpsk, 2.0
    raise ValueError(f"unknown modulation {modulation!r}")


def esn0_at_mi(target_mi, modulation="bpsk"):
    """Es/N0 (dB) at which the chosen modulation reaches target_mi bits,
    by bisection-style root finding on the quadrature curve."""
    from scipy.optimize import brentq

    fn, top = _mi_function(modulation)
    if not 0.0 < target_mi < top:
        raise ValueError(f"target mi must lie in (0, {top})")
    return brentq(lambda s: fn(s).mi_bits - target_mi, -40.0, 40.0, xtol=1e-9)


def mi_grid(esn0_grid_db, modulation="bpsk"):
    """MiPoint per grid value, in grid order."""
    fn, _top = _mi_function(modulation)
    return [fn(float(s)) for s in esn0_grid_db]


def rate_bound_outer(r1):
    """Distance heuristic r1/4 for the rotation-borne stream's rate.

    The squared distance within a rotation pair (4 Es) is twice the one
    across pairs (2 Es); from that geometry the rule of thumb keeps the
    outer rate below a quarter of the inner rate. It is not an
    information bound: the rotation bit's level capacity
    I(V2;Y) = C_QPSK - C_BPSK exceeds 1/8 bit from about -2.21 dB Es/N0
    and tends to 1 bit as Es/N0 grows, so capacity does not exclude an
    outer rate above r1/4.
    """
    if not 0.0 < r1 <= 1.0:
        raise ValueError("r1 must lie in (0, 1]")
    return r1 / 4.0


def eta_total(r1, r2):
    """Spectral efficiency of the combined scheme: r1 + r2 bits/symbol."""
    for name, r in (("r1", r1), ("r2", r2)):
        if not 0.0 < r < 1.0:
            raise ValueError(f"{name} must lie in (0, 1)")
    return r1 + r2

