"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: plain-python elimination,
exhaustive codeword enumeration, direct density evaluation. Expected
values in the test files are either frozen from these oracles or
asserted against them at run time.
"""

import math
import sys
from itertools import product
from types import SimpleNamespace

import numpy as np
from scipy.special import logsumexp

from dmmsim.channel import noise_var
from dmmsim.gf2 import row_reduce
from dmmsim.ldpc import LLR_CAP, CodeConstructionError, LdpcCode, _edge_arrays, derive_generator
from dmmsim.modem import POINTS


def gf2_rank_naive(mat):
    """Rank over GF(2) by textbook row elimination on python lists."""
    rows = [[int(x) & 1 for x in row] for row in np.asarray(mat)]
    if not rows:
        return 0
    ncols = len(rows[0])
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, len(rows)):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                rows[i] = [a ^ b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == len(rows):
            break
    return r


def rank(mat):
    """GF(2) rank of a 0/1 matrix by the package's packed elimination,
    for comparison with gf2_rank_naive."""
    M = np.asarray(mat, dtype=np.uint8) & 1
    return len(row_reduce(np.packbits(M, axis=1), M.shape[1])[1])


def h_dense(code):
    """The dense 0/1 parity-check matrix of an LdpcCode."""
    H = np.zeros((code.n_checks, code.n_code), dtype=np.uint8)
    H[tuple(np.transpose(code.h_sparse))] = 1
    return H


def g_dense(code):
    """The (k_info, n_code) 0/1 systematic generator of an LdpcCode,
    derived again from its public parity-check matrix."""
    packed, _info_positions = derive_generator(code.h_sparse, code.n_code, code.k_info)
    return np.unpackbits(packed, axis=1, count=code.n_code)


def row_reduce_reference(mat):
    """Reduced row echelon form over GF(2), one pivot column at a time:
    the former body of ``gf2.row_reduce``, kept to pin the current one.
    Returns (rref, pivot_cols) like it."""
    M = np.asarray(mat, dtype=np.uint8) & 1
    if M.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    m, n = M.shape
    P = np.packbits(M, axis=1)
    pivot_cols = []
    r = 0
    for col in range(n):
        if r == m:
            break
        byte, bit = divmod(col, 8)
        mask = np.uint8(1 << (7 - bit))
        nz = np.nonzero(P[r:, byte] & mask)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            P[[r, i]] = P[[i, r]]
        hits = np.nonzero(P[:, byte] & mask)[0]
        hits = hits[hits != r]
        if hits.size:
            P[hits] ^= P[r]
        pivot_cols.append(col)
        r += 1
    R = np.unpackbits(P, axis=1)[:, :n]
    return R, pivot_cols


def derive_generator_reference(h_sparse, n_code, k_info):
    """Systematic generator from dense matrices: the former body of
    ``ldpc.derive_generator``, with ``row_reduce_reference`` for the
    elimination, kept to pin the bit-packed one. Returns
    (g_dense, info_positions) with g_dense a (k_info, n_code) uint8
    array, and raises CodeConstructionError like it."""
    rows, cols = _edge_arrays(h_sparse, n_code)
    H = np.zeros((int(rows.max()) + 1, n_code), dtype=np.uint8)
    H[rows, cols] = 1
    R, piv = row_reduce_reference(H)
    del H
    need = n_code - k_info
    if len(piv) != need:
        raise CodeConstructionError(
            f"parity-check matrix has GF(2) rank {len(piv)}, "
            f"need {need} for k_info={k_info}"
        )
    free = np.setdiff1d(np.arange(n_code), piv)
    gT = np.zeros((n_code, k_info), dtype=np.uint8)
    gT[free, np.arange(k_info)] = 1
    gT[piv] = R[:need].take(free, axis=1)
    del R
    return np.ascontiguousarray(gT.T), free


def from_dense(H):
    """The LdpcCode of a dense 0/1 parity-check matrix."""
    H = np.asarray(H, dtype=np.uint8) & 1
    return LdpcCode(np.argwhere(H), H.shape[1], H.shape[0])


def syndrome(code, bits):
    """Parity of each check of an LdpcCode for a hard bit vector: an XOR
    down each column of the code's check slot layout, whose pad slots
    read the appended 0."""
    ext = np.zeros(code.n_code + 1, dtype=np.uint8)
    ext[:-1] = np.asarray(bits, dtype=np.uint8) & 1
    return np.bitwise_xor.reduce(ext[code._slot_col], axis=0)


def syndrome_int(H, v):
    """H v mod 2 via plain integer matrix multiply."""
    return (np.asarray(H, dtype=np.int64) @ np.asarray(v, dtype=np.int64)) % 2


def all_codewords(g_dense):
    """Every (info, codeword) pair of a generator, by enumeration."""
    g = np.asarray(g_dense, dtype=np.int64)
    k = g.shape[0]
    out = []
    for bits in product((0, 1), repeat=k):
        info = np.array(bits, dtype=np.uint8)
        cw = (info.astype(np.int64) @ g) % 2
        out.append((info, cw.astype(np.uint8)))
    return out


def ml_codeword(g_dense, llr):
    """Maximum-likelihood codeword under bit LLRs (sign: LLR>0 favors 0).

    log p(y|c) = const - sum_i c_i * llr_i, so ML minimizes c . llr.
    """
    llr = np.asarray(llr, dtype=np.float64)
    best, best_score = None, np.inf
    for _info, cw in all_codewords(g_dense):
        score = float(cw @ llr)
        if score < best_score:
            best, best_score = cw, score
    return best


def exact_bit_posteriors(g_dense, llr):
    """P(bit=1 | channel) per code bit by exhaustive enumeration."""
    llr = np.asarray(llr, dtype=np.float64)
    cws = np.array([cw for _i, cw in all_codewords(g_dense)], dtype=np.float64)
    logw = -cws @ llr
    total = logsumexp(logw)
    p1 = np.empty(cws.shape[1])
    for i in range(cws.shape[1]):
        sel = cws[:, i] == 1
        p1[i] = np.exp(logsumexp(logw[sel]) - total) if sel.any() else 0.0
    return p1


def sigma2_dim_reference(esn0_db):
    """Per-dimension noise variance at Es/N0 (dB) as the former
    ``ChannelParams.from_esn0_db(esn0_db).sigma2_dim`` computed it, with
    no noiseless threshold; NaN fails the former constructor's check."""
    try:
        sigma2_total = 10.0 ** (-esn0_db / 10.0)
    except OverflowError:
        sigma2_total = math.inf
    if not sigma2_total >= 0:
        raise ValueError("sigma2_total must be non-negative")
    return sigma2_total / 2.0


def gaussian_logpdf(x, mu, var):
    return -0.5 * np.log(2 * np.pi * var) - (np.asarray(x) - mu) ** 2 / (2 * var)


def bpsk_llr_density(y, es, sigma2_dim):
    """BPSK LLR from direct density evaluation (amplitude +/- sqrt(es))."""
    a = np.sqrt(es)
    return gaussian_logpdf(y, a, sigma2_dim) - gaussian_logpdf(y, -a, sigma2_dim)


def demap_outer_llr_reference(y, sigma2_dim):
    """Outer-bit LLR from the squared distances to all four constellation
    points at once, an (..., 4, 2) broadcast summed over its last axis:
    the demapper's former body, kept to pin the current one bit for bit."""
    if sigma2_dim <= 0:
        raise ValueError("sigma2_dim must be positive")
    y = np.asarray(y, dtype=np.float64)
    e = -((y[..., None, :] - POINTS) ** 2).sum(axis=-1) / (2.0 * sigma2_dim)
    return np.logaddexp(e[..., 0], e[..., 2]) - np.logaddexp(e[..., 1], e[..., 3])


def nearest_outer_bit(y):
    """Outer bit of the nearest of the four constellation points, ties to
    the lowest point index, by an (..., 4, 2) broadcast summed over its
    last axis: the hard demapper's former body, kept to pin the current
    one bit for bit."""
    y = np.asarray(y, dtype=np.float64)
    d2 = ((y[..., None, :] - POINTS) ** 2).sum(axis=-1)
    return (np.argmin(d2, axis=-1) & 1).astype(np.uint8)


def decode_bp_reference(code, llr, max_iter, early_exit=True):
    """Sum-product decoding on a padded (n_checks, max row degree) edge
    table with cumulative products: the decoder's former kernel, kept to
    pin the current one bit for bit.

    Returns (hard_bits, posterior_llr, iterations_used, converged) with
    the same meaning as ``decode_bp_full``.
    """
    if max_iter < 1:
        raise ValueError("max_iter must be >= 1")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n_code,):
        raise ValueError(f"llr length {llr.shape} != ({code.n_code},)")
    if not np.all(np.isfinite(llr)):
        raise ValueError("llr contains non-finite values")
    llr = np.clip(llr, -LLR_CAP, LLR_CAP)
    edges = np.array(code.h_sparse, dtype=np.int64)  # sorted by (row, col)
    er, ec = edges[:, 0], edges[:, 1]
    deg = np.bincount(er, minlength=code.n_checks)
    mask = np.arange(deg.max())[None, :] < deg[:, None]
    m, dmax, n = code.n_checks, int(deg.max()), code.n_code
    atanh_lim = np.nextafter(1.0, 0.0)
    v2c = llr[ec]
    pad = np.empty((m, dmax))
    prefix = np.empty((m, dmax))
    sufrev = np.empty((m, dmax))
    hard = (llr < 0).astype(np.uint8)
    post = llr
    converged = False
    iters = max_iter
    for it in range(1, max_iter + 1):
        t = np.tanh(0.5 * v2c)
        pad.fill(1.0)
        pad[mask] = t
        prefix[:, 0] = 1.0
        np.cumprod(pad[:, :-1], axis=1, out=prefix[:, 1:])
        rev = np.ascontiguousarray(pad[:, ::-1])
        sufrev[:, 0] = 1.0
        np.cumprod(rev[:, :-1], axis=1, out=sufrev[:, 1:])
        loo = prefix * sufrev[:, ::-1]
        np.clip(loo, -atanh_lim, atanh_lim, out=loo)
        c2v = 2.0 * np.arctanh(loo[mask])
        np.clip(c2v, -LLR_CAP, LLR_CAP, out=c2v)
        post = llr + np.bincount(ec, weights=c2v, minlength=n)
        hard = (post < 0.0).astype(np.uint8)
        par = np.bincount(er, weights=hard[ec].astype(np.float64), minlength=m)
        converged = not np.any(par.astype(np.int64) & 1) and bool(np.all(post != 0.0))
        if converged and early_exit:
            iters = it
            break
        if it < max_iter:
            v2c = np.clip(post[ec] - c2v, -LLR_CAP, LLR_CAP)
    return hard, post, iters, converged


# Largest per-dimension noise standard deviation at which
# mi_bpsk_reference's integrand is evaluated: it squares (y -+ 1) over
# y in +-(1 + 12 sigma), which must stay a finite float. Past it, below
# about -3063 dB, the mutual information is below 1e-300 bits.
_SIG_MAX_BPSK = math.sqrt(sys.float_info.max) / 13.0


def mi_bpsk_reference(esn0_db):
    """BPSK mutual information in bits by SciPy's adaptive ``quad`` over
    +-12 standard deviations of the 1-D two-Gaussian output density: the
    former body of ``capacity.mi_bpsk``, kept as an integration route
    independent of its Gauss-Legendre rule. It takes the noise variance
    from ``channel.noise_var``, so it reads 1 bit from the noiseless
    threshold (about 117 dB) up; below it, from about 140 dB, ``quad``
    would warn and, above about 324 dB, fall short of 1."""
    from scipy.integrate import quad

    s2 = noise_var(esn0_db)
    if s2 == 0.0:
        return 1.0
    sig = math.sqrt(s2)
    if sig > _SIG_MAX_BPSK:
        return 0.0
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
    return min(max(hy - hn, 0.0), 1.0)


def _panel_nodes_reference(lo, hi, n_panels, order=16):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    wts = (half[:, None] * w[None, :]).ravel()
    return nodes, wts


def mi_qpsk_reference(esn0_db):
    """QPSK mutual information in bits from the full four-term density on
    each 4 M-element chunk of the 2-D Gauss-Legendre panel grid: the
    former body of ``capacity.mi_qpsk``, kept to pin the current one. It
    shares that body's node grid, capped at 360 panels per axis, so it is
    wrong above about 61 dB (2.4e-6 bits low at 66 dB) and must not be
    extended there."""
    s2 = 10.0 ** (-esn0_db / 10.0) / 2.0
    if s2 == 0.0:
        return 2.0
    sig = math.sqrt(s2)
    a = 1.0 / math.sqrt(2.0)
    lo, hi = -a - 12.0 * sig, a + 12.0 * sig
    n_panels = int(min(max(math.ceil((hi - lo) / sig), 8), 360))
    nodes, wts = _panel_nodes_reference(lo, hi, n_panels)
    gp = np.exp(-((nodes - a) ** 2) / (2.0 * s2))
    gm = np.exp(-((nodes + a) ** 2) / (2.0 * s2))
    norm = 0.25 / (2.0 * math.pi * s2)
    hy = 0.0
    chunk = max(1, 4_000_000 // nodes.size)
    for i0 in range(0, nodes.size, chunk):
        sl = slice(i0, i0 + chunk)
        f = norm * (
            gp[sl][:, None] * gp[None, :]
            + gp[sl][:, None] * gm[None, :]
            + gm[sl][:, None] * gp[None, :]
            + gm[sl][:, None] * gm[None, :]
        )
        w2 = wts[sl][:, None] * wts[None, :]
        contrib = np.where(f > 0.0, -f * np.log2(f, where=f > 0.0, out=np.zeros_like(f)), 0.0)
        hy += float((w2 * contrib).sum())
    hn = math.log2(2.0 * math.pi * math.e * s2)
    return min(max(hy - hn, 0.0), 2.0)


def alist_text(code, row_lists=True, pad=False):
    """An alist document for a code: "n m", the largest column and row
    degrees, the column and row degrees, then the 1-based row index list
    of every column and, with row_lists, the column index list of every
    row. With pad, each list is filled with zeros to the largest degree."""
    H = h_dense(code)
    cols = [np.flatnonzero(H[:, j]) + 1 for j in range(code.n_code)]
    rows = [np.flatnonzero(H[i]) + 1 for i in range(code.n_checks)]
    dv, dc = max(map(len, cols)), max(map(len, rows))

    def line(idx, width):
        return " ".join(map(str, list(idx) + [0] * (width - len(idx) if pad else 0)))

    out = [f"{code.n_code} {code.n_checks}", f"{dv} {dc}"]
    out += [" ".join(str(len(c)) for c in cols), " ".join(str(len(r)) for r in rows)]
    out += [line(c, dv) for c in cols]
    if row_lists:
        out += [line(r, dc) for r in rows]
    return "\n".join(out) + "\n"


HAMMING_H = np.array(
    [
        [1, 1, 1, 0, 1, 0, 0],
        [0, 1, 1, 1, 0, 1, 0],
        [1, 1, 0, 1, 0, 0, 1],
    ],
    dtype=np.uint8,
)

# Cycle-free (7,4) code: three checks chained through shared bits 2 and 4.
TREE_H = np.array(
    [
        [1, 1, 1, 0, 0, 0, 0],
        [0, 0, 1, 1, 1, 0, 0],
        [0, 0, 0, 0, 1, 1, 1],
    ],
    dtype=np.uint8,
)


# The sweep and genie CSV writers before the column table: a header string
# and an f-string row per file, over points whose rates the former
# SweepPoint and GeniePoint constructors computed from the counters.

SWEEP_HEADER_FORMER = (
    "esn0_db,ebn0_db,ber_inner,ber_outer,ber_combined,fer,frames,bits,"
    "bits_inner,bits_outer,errs_inner,errs_outer,frame_errors,"
    "iters_inner_mean,iters_outer_mean"
)

GENIE_HEADER_FORMER = (
    "esn0_db,ebn0_db,ber_inner_affected,ber_inner_genie,gap_inner_ber,"
    "ci95_affected,ci95_genie,insignificant,frames,bits_inner,"
    "errs_inner_affected,errs_inner_genie,ber_outer"
)


def _ratio(a, b):
    return a / b if b else 0.0


def sweep_point_former(esn0_db, ebn0_db, c):
    """The former SweepPoint fields from a dict of one point's counters."""
    return SimpleNamespace(
        esn0_db=esn0_db,
        ebn0_db=ebn0_db,
        ber_inner=_ratio(c["errs_inner"], c["bits_inner"]),
        ber_outer=_ratio(c["errs_outer"], c["bits_outer"]),
        ber_combined=_ratio(c["errs_inner"] + c["errs_outer"], c["bits_inner"] + c["bits_outer"]),
        fer=_ratio(c["frame_errors"], c["frames"]),
        frames=c["frames"],
        bits=c["bits_inner"] + c["bits_outer"],
        bits_inner=c["bits_inner"],
        bits_outer=c["bits_outer"],
        errs_inner=c["errs_inner"],
        errs_outer=c["errs_outer"],
        frame_errors=c["frame_errors"],
        iters_inner_mean=_ratio(c["iters_inner_sum"], c["frames"]),
        iters_outer_mean=_ratio(c["iters_outer_sum"], c["frames"]),
    )


def _ci95_halfwidth(errs, bits):
    if bits == 0:
        return 0.0
    p = errs / bits
    return 1.96 * math.sqrt(p * (1.0 - p) / bits)


def sweep_row_former(p):
    return (
        f"{p.esn0_db:.4f},{p.ebn0_db:.4f},{p.ber_inner:.6e},{p.ber_outer:.6e},"
        f"{p.ber_combined:.6e},{p.fer:.6e},{p.frames},{p.bits},"
        f"{p.bits_inner},{p.bits_outer},{p.errs_inner},{p.errs_outer},"
        f"{p.frame_errors},{p.iters_inner_mean:.3f},{p.iters_outer_mean:.3f}"
    )


def genie_row_former(a, g):
    """The former genie CSV row of the branches a (affected) and g (genie)."""
    gap = abs(a.ber_inner - g.ber_inner)
    ci_a = _ci95_halfwidth(a.errs_inner, a.bits_inner)
    ci_g = _ci95_halfwidth(g.errs_inner, g.bits_inner)
    return (
        f"{a.esn0_db:.4f},{a.ebn0_db:.4f},{a.ber_inner:.6e},{g.ber_inner:.6e},"
        f"{gap:.6e},{ci_a:.6e},{ci_g:.6e},"
        f"{int(gap <= ci_a + ci_g)},{a.frames},{a.bits_inner},"
        f"{a.errs_inner},{g.errs_inner},{a.ber_outer:.6e}"
    )
