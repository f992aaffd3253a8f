"""Mutual information of BPSK and QPSK inputs over AWGN, computed as
output entropy minus noise entropy, plus the distance heuristic R1/4
for the rotation-borne stream's code rate.

Both are sums of one 1-D rule, ``_mi_axis``: the bits per axis of a
two-point input +-a in Gaussian noise of per-dimension standard
deviation sigma, integrated in units of sigma on 16-point Gauss-Legendre
panels. BPSK is one such axis (a = 1); QPSK is two independent ones
(a = 1/sqrt(2)), since its four-point density is the product of the two
per-axis densities. Below one noise threshold both carry their full bits
without quadrature; at low Es/N0 the rule is a series in (a/sigma)^2.
Symbol energy is normalized to 1; only the ratio enters.

``esn0_at_mi`` finds its root with ``_brentq``, a port of SciPy's
``brentq`` that gives the same roots bit for bit, so no module of the
package imports SciPy.
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


@functools.cache
def _unit_panels(n_panels):
    """Nodes and weights of n_panels 16-point Gauss-Legendre panels of
    width 1 on [0, n_panels], computed once per panel count (12 to 24)
    and kept: the rule is an eigenvalue problem that costs more than a
    point. The arrays are shared and must not be written."""
    x, w = np.polynomial.legendre.leggauss(16)
    nodes = (np.arange(n_panels)[:, None] + 0.5 * (x + 1.0)[None, :]).ravel()
    return nodes, np.tile(0.5 * w, n_panels)


# Bits per axis below which _mi_axis returns 0: the Gaussian-input
# capacity d^2 / (2 ln 2) bounds the two-point one, so the 0 returned is
# within this of the truth.
_MI_FLOOR = 1e-300

# Entropy in bits of a unit normal, H(N) in units of sigma.
_H_UNIT_NORMAL = 0.5 * math.log2(2.0 * math.pi * math.e)

# d^2 below which _mi_axis sums its series in d^2 instead of the
# quadrature: the first omitted term, -5 d^8 / 24 nats, is under 1e-17 of
# the leading d^2 / 2 there ((5/12) d^6 < 3.4e-18), while the quadrature's
# absolute error of a few 1e-16 bits is already 3e-10 of the value.
_SERIES_D2 = 2e-6


def _mi_axis(d):
    """Bits per axis of an equiprobable input +-a in Gaussian noise of
    standard deviation sigma, with d = a / sigma.

    In units of sigma about the positive point, t = d + z, the output
    density is f = h / (2 sqrt(2 pi)) with h(z) = exp(-z^2/2) +
    exp(-(z + 2d)^2/2). It is even in t, so H(Y) - log2(sigma) is twice
    its integral over t >= 0, taken for z in [-min(d, 12), 12] (from the
    axis, or 12 sigma below the point, to 12 sigma above it) on 16-point
    Gauss-Legendre panels about 1 sigma wide: 12 to 24 panels, at most
    384 nodes. The noise entropy is H(N) = 1/2 log2(2 pi e) + log2(sigma),
    so the log sigma terms cancel exactly and I = -2 sum w f log2 f -
    1/2 log2(2 pi e). That difference of two terms near 2.05 bits keeps
    no digit below about 1e-15 bits, so where d^2 < _SERIES_D2 it returns
    the low-SNR series (d^2/2 - d^4/4 + d^6/6) / ln 2 instead, and where
    d^2 / (2 ln 2) < _MI_FLOOR it returns 0.
    """
    d2 = d * d
    if d2 / (2.0 * math.log(2.0)) < _MI_FLOOR:
        return 0.0
    if d2 < _SERIES_D2:
        return (d2 / 2.0 - d2 * d2 / 4.0 + d2**3 / 6.0) / math.log(2.0)
    lo = -min(d, 12.0)
    n_panels = math.ceil(12.0 - lo)
    width = (12.0 - lo) / n_panels
    u, w = _unit_panels(n_panels)
    z = lo + width * u
    f = (np.exp(-0.5 * z * z) + np.exp(-0.5 * (z + 2.0 * d) ** 2)) / (2.0 * math.sqrt(2.0 * math.pi))
    hy = -2.0 * width * float(w @ (f * np.log2(f)))
    return min(max(hy - _H_UNIT_NORMAL, 0.0), 1.0)


def mi_bpsk(esn0_db):
    """Mutual information of equiprobable BPSK at the given Es/N0 (dB):
    one ``_mi_axis`` with a = 1 and sigma^2 the per-dimension noise
    variance of ``noise_var``. Where that reads 0, below its noiseless
    threshold (about 117 dB, +inf included), the channel carries the
    full 1 bit without quadrature; at Es/N0 = -inf, and wherever the
    bound of ``_mi_axis`` puts it below 1e-300 bits (below about
    -3001.6 dB), it carries 0 bits.

    Raises:
        ValueError: if esn0_db is NaN.
    """
    s2 = noise_var(esn0_db)
    if s2 == 0.0:
        return _mi_point(esn0_db, 1.0)
    return _mi_point(esn0_db, _mi_axis(1.0 / math.sqrt(s2)))


def mi_qpsk(esn0_db):
    """Mutual information of equiprobable QPSK at the given Es/N0 (dB).

    The four points (+-a, +-a), a = 1/sqrt(2), in complex noise of
    per-dimension variance sigma^2 = ``noise_var``: the output density is
    the product of two independent per-axis two-Gaussian densities, so
    the mutual information is exactly 2 ``_mi_axis(a / sigma)``. Where
    ``noise_var`` reads 0, below its noiseless threshold, the channel
    carries the full 2 bits without quadrature; at Es/N0 = -inf, and
    below the bound of ``_mi_axis`` (about -2998.6 dB), it carries 0 bits.

    Raises:
        ValueError: if esn0_db is NaN.
    """
    s2 = noise_var(esn0_db)
    if s2 == 0.0:
        return _mi_point(esn0_db, 2.0)
    return _mi_point(esn0_db, 2.0 * _mi_axis(math.sqrt(0.5 / s2)))


def _mi_function(modulation):
    """(MI function, its ceiling in bits) for a modulation name. The
    function is looked up in the module globals on each call, so a
    wrapper set on the module sees every evaluation."""
    if modulation == "bpsk":
        return mi_bpsk, 1.0
    if modulation == "qpsk":
        return mi_qpsk, 2.0
    raise ValueError(f"unknown modulation {modulation!r}")


# SciPy's default and smallest relative tolerance of brentq.
_RTOL = 4.0 * sys.float_info.epsilon


def _signbit(x):
    return math.copysign(1.0, x) < 0.0


def _brentq(f, xa, xb, xtol, rtol=_RTOL, maxiter=100):
    """Root of f in [xa, xb] by Brent's method (Brent 1973, Algorithms
    for Minimization without Derivatives, ch. 4), to within xtol + rtol |x|.

    A statement-for-statement port of the C loop of SciPy's
    ``scipy.optimize.brentq`` with the checks of its Python wrapper, so
    it evaluates f at the same points and returns the same root bit for
    bit. Where C divides by zero (the extrapolation's slopes, or their
    product, underflow to 0 on tiny values of f), its inf or NaN step
    fails the step test and the loop bisects; Python raises
    ZeroDivisionError there, which is caught to the same effect. Signs
    are compared as C's signbit does, so -0.0 counts as negative.

    Raises:
        ValueError: if xtol <= 0, rtol < 4 eps, f(xa) and f(xb) have the
            same sign, or f returns NaN.
        RuntimeError: if it does not converge in maxiter iterations.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {_RTOL:g})")

    def value(x):
        fx = f(x)
        if math.isnan(fx):
            raise ValueError(f"The function value at x={x} is NaN; solver cannot converge.")
        return fx

    xpre, xcur = xa, xb
    xblk = fblk = spre = scur = 0.0
    fpre = value(xpre)
    fcur = value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if _signbit(fpre) == _signbit(fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and _signbit(fpre) != _signbit(fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.nan  # C's inf or NaN, which fails the test below
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


def esn0_at_mi(target_mi, modulation="bpsk"):
    """Es/N0 (dB) at which the chosen modulation reaches target_mi bits,
    by ``_brentq`` on the MI curve to 1e-9 dB.

    The bracket is [-40, 40] dB. Where MI at -40 dB already exceeds the
    target, the lower end moves down (-80, -160, ... dB) until MI there
    falls below it, and the search runs between the last two lower ends.

    Raises:
        ValueError: if target_mi is not in (0, top), top being 1 bit for
            BPSK and 2 for QPSK, or is below top * 1e-300 bits, the least
            MI above the floor of ``_mi_axis`` (about -3000 dB).
    """
    fn, top = _mi_function(modulation)
    if not 0.0 < target_mi < top:
        raise ValueError(f"target mi must lie in (0, {top})")
    # top is also the number of axes, each floored at _MI_FLOOR bits
    if target_mi < top * _MI_FLOOR:
        raise ValueError(f"target mi below {top * _MI_FLOOR:g} bits, the smallest {modulation} reaches")

    def excess(esn0_db):
        return fn(esn0_db).mi_bits - target_mi

    lo, hi = -40.0, 40.0
    f_lo, f_hi = excess(lo), excess(hi)
    while f_lo > 0.0 and f_hi > 0.0:
        lo, hi, f_hi = 2.0 * lo, lo, f_lo
        f_lo = excess(lo)
    # _brentq starts by reading both ends, which are evaluated already
    ends = {lo: f_lo, hi: f_hi}
    return _brentq(lambda s: ends.pop(s) if s in ends else excess(s), lo, hi, xtol=1e-9)


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

