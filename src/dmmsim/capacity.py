"""Mutual information of BPSK and QPSK inputs over AWGN, computed as
output entropy minus noise entropy.

Both are sums of one 1-D rule: the bits per axis of a two-point input
+-a in Gaussian noise of per-dimension standard deviation sigma,
integrated in units of sigma on 16-point Gauss-Legendre panels. BPSK is
one such axis (a = 1); QPSK is two independent ones (a = 1/sqrt(2)),
since its four-point density is the product of the two per-axis
densities. ``_MODULATIONS`` holds each modulation's number of axes and
its d = a / sigma. Symbol energy is normalized to 1; only the ratio
enters.

``_route`` decides each Es/N0 value once: the full bits below the
noiseless threshold of ``noise_var``, 0 below a floor, a series in
(a/sigma)^2 at low Es/N0, and elsewhere the row of quadrature nodes
that ``_hy_rows`` evaluates and ``_bits`` clamps. ``mi_bpsk`` and
``mi_qpsk`` evaluate that row on its own; ``mi_grid`` groups a whole
grid's rows by panel count and evaluates and clamps them in blocks, bit
for bit the per-point values, and calls neither function. So a wrapper
set on ``mi_bpsk`` or ``mi_qpsk`` sees the evaluations of ``esn0_at_mi``
only.

``esn0_at_mi`` finds its root with ``_brentq``, a port of SciPy's
``brentq`` that gives the same roots bit for bit, so no module of the
package imports SciPy.
"""

import collections
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .channel import ebn0_from_esn0, noise_var


@dataclass(frozen=True)
class MiPoint:
    esn0_db: float
    mi_bits: float
    ebn0_db: float


def _mi_point(esn0_db, mi):
    esn0_db = float(esn0_db)
    ebn0 = ebn0_from_esn0(esn0_db, mi) if mi > 0 else math.inf
    return MiPoint(esn0_db, mi, ebn0)


@functools.cache
def _unit_panels(n_panels):
    """Nodes and weights of n_panels 16-point Gauss-Legendre panels of
    width 1 on [0, n_panels], computed once per panel count (12 to 24)
    and kept: the rule is an eigenvalue problem that costs more than a
    point. The arrays are shared, so they are read-only."""
    x, w = np.polynomial.legendre.leggauss(16)
    nodes = (np.arange(n_panels)[:, None] + 0.5 * (x + 1.0)[None, :]).ravel()
    weights = np.tile(0.5 * w, n_panels)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


# Bits per axis below which _route settles 0: the Gaussian-input
# capacity d^2 / (2 ln 2) bounds the two-point one, so the 0 is within
# this of the truth.
_MI_FLOOR = 1e-300

# Entropy in bits of a unit normal, H(N) in units of sigma.
_H_UNIT_NORMAL = 0.5 * math.log2(2.0 * math.pi * math.e)

# d^2 below which _route sums its series in d^2 instead of the
# quadrature: the first omitted term, -5 d^8 / 24 nats, is under 1e-17 of
# the leading d^2 / 2 there ((5/12) d^6 < 3.4e-18), while the quadrature's
# absolute error of a few 1e-16 bits is already 3e-10 of the value.
_SERIES_D2 = 2e-6

# modulation -> (axes, d = a / sigma from the per-dimension noise
# variance s2); the axes are also the full bits of the noiseless channel
_MODULATIONS = {
    "bpsk": (1.0, lambda s2: 1.0 / math.sqrt(s2)),
    "qpsk": (2.0, lambda s2: math.sqrt(0.5 / s2)),
}


def _modulation(name):
    """(axes, d from s2), the ``_MODULATIONS`` row of a modulation name."""
    try:
        return _MODULATIONS[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown modulation {name!r}") from None


def _route(esn0_db, axes, d_of):
    """(bits, None) where MI at Es/N0 (dB) needs no quadrature, else
    (None, (d, lo, n_panels)): the row of ``_hy_rows`` whose
    ``axes * _bits`` is the MI, for a modulation of ``axes`` independent
    axes, each an equiprobable input +-a in Gaussian noise of standard
    deviation sigma, with d = a / sigma = ``d_of(s2)`` and s2 from
    ``noise_var``.

    In units of sigma about the positive point, t = d + z, the output
    density of an axis is f = h / (2 sqrt(2 pi)) with h(z) = exp(-z^2/2)
    + exp(-(z + 2d)^2/2). It is even in t, so H(Y) - log2(sigma) is twice
    its integral over t >= 0, taken for z in [lo, 12], lo = -min(d, 12)
    (from the axis, or 12 sigma below the point, to 12 sigma above it) on
    n_panels 16-point Gauss-Legendre panels about 1 sigma wide: 12 to 24
    panels, at most 384 nodes. The noise entropy is H(N) = 1/2 log2(2 pi
    e) + log2(sigma), so the log sigma terms cancel exactly and I = -2
    sum w f log2 f - 1/2 log2(2 pi e). That difference of two terms near
    2.05 bits keeps no digit below about 1e-15 bits, so where d^2 <
    _SERIES_D2 the bits are the low-SNR series (d^2/2 - d^4/4 + d^6/6) /
    ln 2 per axis instead, and where d^2 / (2 ln 2) < _MI_FLOOR they are
    0. Where ``noise_var`` reads 0 the channel carries its full ``axes``
    bits.

    Raises:
        ValueError: if esn0_db is NaN.
        TypeError: if esn0_db is not a real number.
    """
    s2 = noise_var(esn0_db)
    if s2 == 0.0:
        return axes, None
    d = d_of(s2)
    d2 = d * d
    if d2 / (2.0 * math.log(2.0)) < _MI_FLOOR:
        return 0.0, None
    if d2 < _SERIES_D2:
        return axes * ((d2 / 2.0 - d2 * d2 / 4.0 + d2**3 / 6.0) / math.log(2.0)), None
    lo = -min(d, 12.0)
    return None, (d, lo, math.ceil(12.0 - lo))


def _hy_rows(d, lo, n_panels):
    """H(Y) - log2(sigma) in bits, -2 width sum w f log2 f, for d and its
    window end lo: two floats, or two (n, 1) columns whose values all
    take n_panels panels. Each value is one row of 16 n_panels nodes,
    summed by ``np.vecdot``: the same BLAS dot per row in a block of any
    height, so a value reads the same bits in a grid as on its own.
    Returns an (n, 1) column, or a 1-element array for floats.

    The rows are formed in two buffers, z and f, updated in place. Each
    step is the operation, on the same operands and in the same order,
    that evaluating (exp(-z^2/2) + exp(-(z + 2d)^2/2)) / (2 sqrt(2 pi))
    and f log2 f with a fresh array per step would take, so every value
    has the same bits, without the temporaries."""
    width = (12.0 - lo) / n_panels
    u, w = _unit_panels(n_panels)
    z = width * u
    z += lo
    f = z * -0.5
    f *= z
    np.exp(f, out=f)
    z += 2.0 * d
    np.square(z, out=z)
    z *= -0.5
    f += np.exp(z, out=z)
    f /= 2.0 * math.sqrt(2.0 * math.pi)
    np.log2(f, out=z)
    z *= f
    return -2.0 * width * np.vecdot(z, w, keepdims=True)


def _bits(hy):
    """Bits per axis from a column of H(Y) - log2(sigma), each kept
    within [0, 1]."""
    return (hy - _H_UNIT_NORMAL).clip(0.0, 1.0)


def _mi_at(esn0_db, modulation):
    """The MiPoint of one value: its ``_route``, and its row on its own."""
    axes, d_of = _MODULATIONS[modulation]
    mi, row = _route(esn0_db, axes, d_of)
    if row is not None:
        mi = axes * _bits(_hy_rows(*row)).item()
    return _mi_point(esn0_db, mi)


def mi_bpsk(esn0_db):
    """Mutual information of equiprobable BPSK at the given Es/N0 (dB):
    one axis of ``_route`` with a = 1 and sigma^2 the per-dimension noise
    variance of ``noise_var``. Where that reads 0, below its noiseless
    threshold (about 117 dB, +inf included), the channel carries the
    full 1 bit without quadrature; at Es/N0 = -inf, and wherever the
    bound of ``_route`` puts it below 1e-300 bits (below about -3001.6
    dB), it carries 0 bits.

    Raises:
        ValueError: if esn0_db is NaN.
    """
    return _mi_at(esn0_db, "bpsk")


def mi_qpsk(esn0_db):
    """Mutual information of equiprobable QPSK at the given Es/N0 (dB).

    The four points (+-a, +-a), a = 1/sqrt(2), in complex noise of
    per-dimension variance sigma^2 = ``noise_var``: the output density is
    the product of two independent per-axis two-Gaussian densities, so
    the mutual information is exactly twice that of one axis with
    d = a / sigma, two axes of ``_route``. Where ``noise_var`` reads 0,
    below its noiseless threshold, the channel carries the full 2 bits
    without quadrature; at Es/N0 = -inf, and below the bound of
    ``_route`` (about -2998.6 dB), it carries 0 bits.

    Raises:
        ValueError: if esn0_db is NaN.
    """
    return _mi_at(esn0_db, "qpsk")


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
            MI above the floor of ``_route`` (about -3000 dB), or if the
            modulation is unknown.
    """
    # top is also the number of axes, each floored at _MI_FLOOR bits
    top, _d_of = _modulation(modulation)
    if not 0.0 < target_mi < top:
        raise ValueError(f"target mi must lie in (0, {top})")
    if target_mi < top * _MI_FLOOR:
        raise ValueError(f"target mi below {top * _MI_FLOOR:g} bits, the smallest {modulation} reaches")
    # looked up on each call, so a wrapper set on the module sees every evaluation
    fn = mi_bpsk if modulation == "bpsk" else mi_qpsk

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


# Rows of one _hy_rows call in mi_grid: 64 rows of at most 384 nodes
# keep each temporary near 200 KiB, whatever the grid length.
_GRID_ROWS = 64


def mi_grid(esn0_grid_db, modulation="bpsk"):
    """MiPoint per grid value, in grid order: bit for bit ``mi_bpsk`` or
    ``mi_qpsk`` at each value, the same ``_route`` taken, but with the
    rows grouped by panel count and evaluated in blocks of at most
    _GRID_ROWS rows, each block clamped by one ``_bits``.

    Raises:
        ValueError: if the modulation is unknown or any value is NaN,
            before any quadrature.
        TypeError: if any value is not a real number, before any
            quadrature.
    """
    axes, d_of = _modulation(modulation)
    grid, mi = [], []
    # panel count -> ([grid index, ...], [d, ...], [lo, ...])
    rows = collections.defaultdict(lambda: ([], [], []))
    for esn0_db in esn0_grid_db:
        bits, row = _route(esn0_db, axes, d_of)
        if row is not None:
            d, lo, n_panels = row
            at, ds, los = rows[n_panels]
            at.append(len(mi))
            ds.append(d)
            los.append(lo)
        grid.append(esn0_db)
        mi.append(bits)
    for n_panels, (at, ds, los) in rows.items():
        for start in range(0, len(at), _GRID_ROWS):
            block = slice(start, start + _GRID_ROWS)
            hy = _hy_rows(np.array(ds[block])[:, None], np.array(los[block])[:, None], n_panels)
            for i, m in zip(at[block], (axes * _bits(hy)).ravel().tolist()):
                mi[i] = m
    return [_mi_point(s, m) for s, m in zip(grid, mi)]

