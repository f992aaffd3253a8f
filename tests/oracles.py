"""Independent reference implementations used only by the tests.

Everything here is deliberately naive: plain-python elimination,
exhaustive codeword enumeration, direct density evaluation. Expected
values in the test files are either frozen from these oracles or
asserted against them at run time.
"""

from itertools import product

import numpy as np
from scipy.special import logsumexp

from dmmsim.ldpc import LLR_CAP


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


def gaussian_logpdf(x, mu, var):
    return -0.5 * np.log(2 * np.pi * var) - (np.asarray(x) - mu) ** 2 / (2 * var)


def bpsk_llr_density(y, es, sigma2_dim):
    """BPSK LLR from direct density evaluation (amplitude +/- sqrt(es))."""
    a = np.sqrt(es)
    return gaussian_logpdf(y, a, sigma2_dim) - gaussian_logpdf(y, -a, sigma2_dim)


def demap_outer_llr_reference(y, cst, sigma2_dim):
    """Outer-bit LLR from the squared distances to all four constellation
    points at once, an (..., 4, 2) broadcast summed over its last axis:
    the demapper's former body, kept to pin the current one bit for bit."""
    if sigma2_dim <= 0:
        raise ValueError("sigma2_dim must be positive")
    y = np.asarray(y, dtype=np.float64)
    e = -((y[..., None, :] - cst.points) ** 2).sum(axis=-1) / (2.0 * sigma2_dim)
    return np.logaddexp(e[..., 0], e[..., 2]) - np.logaddexp(e[..., 1], e[..., 3])


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
