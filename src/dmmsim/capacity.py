"""Mutual information of BPSK and QPSK inputs over AWGN, computed as
output entropy minus noise entropy, plus the distance-based bound on
the rotation-borne stream's code rate.

BPSK is treated as one-dimensional: the decision variable sees the
per-dimension noise variance sigma2_total / 2. QPSK is computed as a
genuine two-dimensional four-point mixture so the I/Q doubling identity
is a cross-check between independent integration routes, not a tautology:
its density is formed and its log taken on the 2-D Gauss-Legendre node
grid, in row blocks of at most 2**20 elements (8 MiB), each reduced by
two matrix-vector products. The node grid and the density are mirror
symmetric on both axes, so only the quadrant of positive nodes is formed,
less the nodes where the density underflows to 0. Symbol energy is
normalized to 1; only the ratio enters.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq


@dataclass(frozen=True)
class MiPoint:
    esn0_db: float
    mi_bits: float
    ebn0_db: float


def _mi_point(esn0_db, mi):
    ebn0 = esn0_db - 10.0 * math.log10(mi) if mi > 0 else math.inf
    return MiPoint(esn0_db, mi, ebn0)


# Per-dimension noise standard deviation below which BPSK carries 1 bit.
_BPSK_SIG_NOISELESS = 1e-6


def mi_bpsk(esn0_db):
    """Mutual information of equiprobable BPSK at the given Es/N0 (dB).

    I = H(Y) - H(N) with Y an equiprobable two-Gaussian mixture on the
    real line; H(Y) by adaptive quadrature over +-12 standard
    deviations (absolute tolerance well under 1e-9). Once the noise
    standard deviation falls below _BPSK_SIG_NOISELESS (about 117 dB,
    inside the band from 73 dB up where the quadrature gives exactly 1.0)
    the channel carries the full 1 bit without quadrature: further up the
    integrand is two spikes that ``quad`` cannot resolve, so it warns and,
    above about 324 dB, falls short of 1. Es/N0 = +inf is such a channel.
    """
    s2 = 10.0 ** (-esn0_db / 10.0) / 2.0
    sig = math.sqrt(s2)
    if sig < _BPSK_SIG_NOISELESS:
        return _mi_point(esn0_db, 1.0)
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


# Largest row block of the 2-D QPSK density, in elements (8 MiB of float64).
_QPSK_BLOCK = 1 << 20


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
    integrated on Gauss-Legendre panels of roughly one noise standard
    deviation, minus the complex-noise entropy. A noiseless channel
    carries the full 2 bits; so does one whose density normaliser
    overflows (Es/N0 above about 3090 dB).

    With h = g(+a) + g(-a) the per-axis Gaussian pair at the nodes, the
    mixture density on the node grid is f_ij = norm * h_i * h_j, so
    H(Y) = -norm * u' log2(F) u with u = weights * h. The panels span
    [-hi, hi], so the nodes come in mirror pairs (equal to about 1e-16),
    and h is even: the four quadrants of u_i u_j log2 f_ij are equal, and
    the sum is taken over the positive nodes, the upper half of the
    grid, and multiplied by 4. Nodes where h underflows to 0 add exactly
    nothing and are dropped first; at very high Es/N0 (300 dB, say) none
    is left, H(Y) is 0 and the clamp gives 2 bits. F is formed and its
    log taken in place in row blocks of at most _QPSK_BLOCK elements,
    then reduced by two matrix-vector products. The log is taken of the
    2-D density, not split into per-axis terms, so the I/Q doubling
    identity against ``mi_bpsk`` stays a check between two integration
    routes.
    """
    s2 = 10.0 ** (-esn0_db / 10.0) / 2.0
    if s2 == 0.0:
        return _mi_point(esn0_db, 2.0)
    norm = 0.25 / (2.0 * math.pi * s2)
    if not math.isfinite(norm):
        return _mi_point(esn0_db, 2.0)
    sig = math.sqrt(s2)
    a = 1.0 / math.sqrt(2.0)
    lo, hi = -a - 12.0 * sig, a + 12.0 * sig
    n_panels = int(min(max(math.ceil((hi - lo) / sig), 8), 360))
    nodes, wts = _panel_nodes(lo, hi, n_panels)
    # the nodes are mirror pairs and h is even, so the four quadrants of the
    # sum are equal: keep the positive nodes and take 4 times their sum
    half = nodes.size // 2
    nodes, wts = nodes[half:], wts[half:]
    # far from both points the exponent overflows to -inf, and exp gives the right 0
    with np.errstate(over="ignore"):
        h = np.exp(-((nodes - a) ** 2) / (2.0 * s2)) + np.exp(-((nodes + a) ** 2) / (2.0 * s2))
    keep = h > 0.0
    h = h[keep]
    u = wts[keep] * h
    acc = 0.0
    if h.size:
        rows = max(1, _QPSK_BLOCK // h.size)
        block = np.empty((min(rows, h.size), h.size))
        for i0 in range(0, h.size, rows):
            hb = h[i0:i0 + rows]
            f = np.multiply.outer(norm * hb, h, out=block[:hb.size])
            np.log2(f, out=f, where=f > 0.0)
            acc += float(u[i0:i0 + hb.size] @ (f @ u))
    hy = -4.0 * norm * acc
    hn = math.log2(2.0 * math.pi * math.e * s2)
    return _mi_point(esn0_db, min(max(hy - hn, 0.0), 2.0))


def esn0_at_mi(target_mi, modulation="bpsk"):
    """Es/N0 (dB) at which the chosen modulation reaches target_mi bits,
    by bisection-style root finding on the quadrature curve."""
    if modulation == "bpsk":
        fn, top = mi_bpsk, 1.0
    elif modulation == "qpsk":
        fn, top = mi_qpsk, 2.0
    else:
        raise ValueError(f"unknown modulation {modulation!r}")
    if not 0.0 < target_mi < top:
        raise ValueError(f"target mi must lie in (0, {top})")
    return brentq(lambda s: fn(s).mi_bits - target_mi, -40.0, 40.0, xtol=1e-9)


def mi_grid(esn0_grid_db, modulation="bpsk"):
    """MiPoint per grid value, in grid order."""
    if modulation == "bpsk":
        fn = mi_bpsk
    elif modulation == "qpsk":
        fn = mi_qpsk
    else:
        raise ValueError(f"unknown modulation {modulation!r}")
    return [fn(float(s)) for s in esn0_grid_db]


def rate_bound_outer(r1):
    """Upper bound r1/4 on the rotation-borne stream's rate.

    The in-pair squared distance (4 Es) is four times the cross-pair
    one (2 Es) after noise normalization, so the outer stream supports
    at most a quarter of the inner rate.
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


def write_mi_csv(points, path):
    """CSV rows (esn0_db, mi_bits, ebn0_db); dB at 4 decimals."""
    lines = ["esn0_db,mi_bits,ebn0_db"]
    for p in points:
        lines.append(f"{p.esn0_db:.4f},{p.mi_bits:.9f},{p.ebn0_db:.4f}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
