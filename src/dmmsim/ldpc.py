"""Binary LDPC codes: parity-check representation, systematic generator
derivation, encoding, sum-product decoding, and a repetition wrapper
that lowers the base code rate by an integer factor.

Parity-check matrices arrive as sparse (row, col) pairs, from an alist
file, or from the seeded pseudo-random regular constructor. Encoding
XORs rows of the derived generator, which is kept bit-packed. Decoding
is exact sum-product with a tanh/atanh kernel and an LLR magnitude cap,
on check messages stored in a per-code slot layout.
"""

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import gf2
from .channel import _is_int, philox

# Magnitude cap applied to every LLR entering or produced by the decoder.
LLR_CAP = 30.0

# Largest code that is built. Construction holds bit-packed (n_checks,
# n_code) GF(2) matrices, and the seeded constructor socket arrays of
# n_code * col_degree entries, so both are bounded before allocation.
MAX_CODE_LENGTH = 1 << 14
MAX_EDGES = 1 << 20

# Generator bits assembled unpacked at a time by derive_generator. At
# 2^20 the 1 MiB block and two 0.5 MiB temporaries of its pivot part set
# the peak resident memory of a CLI run's parent process; 2^16 makes
# desk code construction 8 to 17 % slower in paired timings.
_GEN_BLOCK = 1 << 18

# Philox stream id of code construction; every per-frame id (simkit) is
# below it, since frame indices stop below 2**61 (config.MAX_FRAMES).
_CODEGEN_STREAM = 2**63


class CodeConstructionError(ValueError):
    """A parity-check matrix cannot support a valid code."""


def derive_generator(h_sparse, n_code, k_info):
    """Systematic generator for a parity-check matrix given as (row, col) pairs.

    Gaussian elimination over GF(2) with column pivoting; info bits
    appear verbatim at the non-pivot columns. Row j of the generator has
    a 1 at the j-th non-pivot column and, at the pivot columns, the
    reduced rows' entries in that non-pivot column. The parity-check
    matrix, its reduced form and the generator are held bit-packed
    throughout; the generator is assembled in row blocks of at most
    _GEN_BLOCK bits.

    Args:
        h_sparse: iterable of (row, col) integer pairs, or an
            (n_edges, 2) integer array of them.

    Returns:
        (g_packed, info_positions): the (k_info, n_code) generator packed
        along rows as by ``np.packbits(..., axis=1)``, a (k_info,
        ceil(n_code / 8)) uint8 array, and the sorted column indices
        where info bits appear unchanged.

    Raises:
        CodeConstructionError: if the pairs are not integers or out of
        range, or if the matrix rank differs from n_code - k_info.
    """
    rows, cols = _edge_arrays(h_sparse, n_code)
    n_bytes = (n_code + 7) // 8
    H = np.zeros((int(rows.max()) + 1, n_bytes), dtype=np.uint8)
    # OR, not assignment: a pair listed twice sets its bit once
    np.bitwise_or.at(H, (rows, cols >> 3), (0x80 >> (cols & 7)).astype(np.uint8))
    R, piv = gf2.row_reduce(H, n_code)
    del H
    need = n_code - k_info
    if len(piv) != need:
        raise CodeConstructionError(
            f"parity-check matrix has GF(2) rank {len(piv)}, "
            f"need {need} for k_info={k_info}"
        )
    free = np.setdiff1d(np.arange(n_code), piv)
    R = R[:need]
    g_packed = np.empty((k_info, n_bytes), dtype=np.uint8)
    step = max(1, _GEN_BLOCK // n_code)
    for lo in range(0, k_info, step):
        at = free[lo: lo + step]
        g = np.zeros((at.size, n_code), dtype=np.uint8)
        g[np.arange(at.size), at] = 1
        # generator row j's pivot part is column at[j] of the reduced rows
        g[:, piv] = (R[:, at >> 3] >> (7 - (at & 7)).astype(np.uint8) & 1).T
        g_packed[lo: lo + at.size] = np.packbits(g, axis=1)
    return g_packed, free


def _check_length(n_code):
    if n_code > MAX_CODE_LENGTH:
        raise CodeConstructionError(f"n_code={n_code} exceeds MAX_CODE_LENGTH={MAX_CODE_LENGTH}")


def _edge_arrays(h_sparse, n_code):
    if not isinstance(h_sparse, np.ndarray):
        h_sparse = list(h_sparse)
    try:
        pairs = np.asarray(h_sparse)
    except (TypeError, ValueError) as exc:
        raise CodeConstructionError(f"h_sparse is not an array of pairs: {exc}") from exc
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] == 0:
        raise CodeConstructionError("h_sparse must be a non-empty list of (row, col) pairs")
    # bool and float are refused, not cast: a cast would truncate 1.7 to 1
    if not np.issubdtype(pairs.dtype, np.integer):
        raise CodeConstructionError(f"h_sparse indices must be integers, got dtype {pairs.dtype}")
    pairs = pairs.astype(np.int64)
    rows, cols = pairs[:, 0], pairs[:, 1]
    if rows.min() < 0 or cols.min() < 0 or cols.max() >= n_code:
        raise CodeConstructionError("h_sparse indices out of range")
    return rows, cols


def _edge_order(rows, cols, n_code):
    """The stable row-major sort order of the edges (rows[i], cols[i]),
    and the edges that repeat the pair sorted just before them."""
    key = rows * n_code + cols
    order = np.argsort(key, kind="stable")
    key = key[order]
    return order, order[1:][key[1:] == key[:-1]]


def _alist_lists(toks, pos, degrees, bound, section, index):
    """The 1-based index lists of one alist section, one line per entry
    of ``degrees`` from the tokenised lines ``toks[pos:]`` with zero
    padding dropped, and the position after the last one taken. A blank
    line is the list of a degree-0 entry and is skipped elsewhere. Each
    list holds as many indices as its degree, each in [1, bound];
    ``section`` and ``index`` ("column" and "row", or the reverse) name
    them in errors.

    Raises:
        CodeConstructionError: if the lines run out or a list breaks a rule.
    """
    lists = []
    for k, d in enumerate(degrees):
        while d > 0 and pos < len(toks) and not toks[pos]:
            pos += 1
        if pos == len(toks):
            raise CodeConstructionError(f"alist {section} lists truncated")
        entries = [e for e in toks[pos] if e != 0]
        if len(entries) != d:
            raise CodeConstructionError(f"alist {section} {k} lists {len(entries)} {index}s, expected {d}")
        for e in entries:
            if not 1 <= e <= bound:
                raise CodeConstructionError(f"alist {section} {k} {index} index {e} out of range")
        lists.append(entries)
        pos += 1
    return lists, pos


class LdpcCode:
    """Immutable binary code defined by a full-row-rank parity-check matrix.

    Attributes:
        n_code: code length.
        k_info: number of information bits (n_code - n_checks).
        n_checks: number of parity-check rows.
        info_positions: columns where info bits appear verbatim.
    """

    def __init__(self, h_sparse, n_code, n_checks):
        if not (_is_int(n_code) and _is_int(n_checks)):
            raise CodeConstructionError("n_code and n_checks must be integers")
        _check_length(n_code)
        rows, cols = _edge_arrays(h_sparse, n_code)
        if rows.max() >= n_checks:
            raise CodeConstructionError("row index exceeds n_checks")
        order, dup = _edge_order(rows, cols, n_code)
        if dup.size:
            raise CodeConstructionError("duplicate (row, col) entries in h_sparse")
        self.n_code = n_code
        self.n_checks = n_checks
        self.k_info = self.n_code - self.n_checks
        if self.k_info < 1:
            raise CodeConstructionError(
                f"n_checks={n_checks} leaves no information bits for n_code={n_code}"
            )
        self._er = rows[order].astype(np.intp)
        self._ec = cols[order].astype(np.intp)
        self._g_packed, self.info_positions = derive_generator(
            np.column_stack((self._er, self._ec)), self.n_code, self.k_info
        )
        # Check slot layout: slot (j, i) holds the j-th edge of row i.
        # Rows shorter than the longest one are padded with slots that
        # point at variable n_code, one past the last code bit.
        deg = np.bincount(self._er, minlength=self.n_checks)
        starts = np.cumsum(deg) - deg
        pos = np.arange(self._er.size) - starts[self._er]
        self._slot_col = np.full((int(deg.max()), self.n_checks), self.n_code, dtype=np.intp)
        self._slot_col[pos, self._er] = self._ec
        self._edge_slot = pos * self.n_checks + self._er  # flat slot of each edge
        pad = self._slot_col == self.n_code
        self._pad = pad if pad.any() else None
        # the config entry that rebuilds this code, for run manifests; set by
        # the constructors a config file can name, None for an explicit matrix
        self.origin = None

    @property
    def h_sparse(self):
        return list(zip(self._er.tolist(), self._ec.tolist()))

    @property
    def rate(self):
        return self.k_info / self.n_code

    def fingerprint(self):
        """Stable hex digest of the parity-check matrix."""
        h = hashlib.sha256()
        h.update(f"{self.n_code} {self.n_checks}\n".encode())
        h.update(self._er.astype("<i4").tobytes())
        h.update(self._ec.astype("<i4").tobytes())
        return h.hexdigest()

    def __repr__(self):
        return (f"LdpcCode(n_code={self.n_code}, k_info={self.k_info}, "
                f"n_checks={self.n_checks})")

    @classmethod
    def from_alist(cls, path):
        """Load a parity-check matrix from an alist file.

        Expected layout: "n m", "max_col_deg max_row_deg", the n column
        degrees, the m row degrees, then n column lists of 1-based row
        indices (zero padding tolerated), one a line, and optionally the m
        row lists of 1-based column indices, which must then agree with
        the column lists; nothing may follow them. The header's row
        degrees must be those the column lists give. Blank lines are
        skipped, except that an unpadded degree-0 list is a blank line.
        """
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise CodeConstructionError(f"cannot read alist {path}: {exc}") from exc
        try:
            toks = [list(map(int, ln.split())) for ln in text.splitlines()]
        except ValueError as exc:
            raise CodeConstructionError(f"non-integer token in alist {path}") from exc
        head = [i for i, t in enumerate(toks) if t][:4]
        try:
            n, m = toks[head[0]]
            dv_max, dc_max = toks[head[1]]
            col_deg = toks[head[2]]
            row_deg = toks[head[3]]
        except (IndexError, ValueError) as exc:
            raise CodeConstructionError(f"malformed alist header in {path}") from exc
        if len(col_deg) != n or len(row_deg) != m:
            raise CodeConstructionError("alist degree list lengths disagree with n, m")
        if sum(col_deg) != sum(row_deg):
            raise CodeConstructionError("alist degree sums disagree")
        if max(col_deg) > dv_max or max(row_deg) > dc_max:
            raise CodeConstructionError("alist degree exceeds declared maximum")
        col_lists, pos = _alist_lists(toks, head[3] + 1, col_deg, m, "column", "row")
        edges = [(e - 1, j) for j, entries in enumerate(col_lists) for e in entries]
        degrees = [0] * m
        for i, _j in edges:
            degrees[i] += 1
        if degrees != row_deg:
            raise CodeConstructionError("alist row degrees disagree with column lists")
        if any(toks[pos:]):
            row_lists, pos = _alist_lists(toks, pos, row_deg, n, "row", "column")
            if any(toks[pos:]):
                raise CodeConstructionError("alist has lines after its row lists")
            alt = [(i, e - 1) for i, entries in enumerate(row_lists) for e in entries]
            if sorted(alt) != sorted(edges):
                raise CodeConstructionError("alist row lists disagree with column lists")
        code = cls(edges, n, m)
        code.origin = {"alist": str(Path(path).resolve())}
        return code

    @classmethod
    def random_regular(cls, n_code, row_degree, col_degree, seed):
        """Seeded pseudo-random regular code via socket permutation.

        (n_code, row_degree, col_degree, seed) fully determines the
        matrix: every draw comes from ``channel.philox(seed,
        _CODEGEN_STREAM)``, keyed as the frames' streams are. Duplicate
        sockets are swapped apart. If the regular graph is rank-deficient,
        single rows are redrawn with fresh columns until the matrix
        reaches full row rank, so a few columns may deviate from
        col_degree by one or two. A graph whose column
        degrees are all even is rank-deficient (its rows sum to zero), so
        it goes straight to the redraw without being built or
        row-reduced; this is always so for an even col_degree at first.
        """
        # checked before any arithmetic: the four are the origin that manifests write
        if not (all(map(_is_int, (n_code, row_degree, col_degree, seed))) and 0 <= seed < 2**64):
            raise CodeConstructionError("length, degrees and seed must be integers, the seed in [0, 2**64)")
        if n_code < 2 or row_degree < 1 or col_degree < 1:
            raise CodeConstructionError("degrees and length must be positive")
        _check_length(n_code)
        if n_code * col_degree > MAX_EDGES:
            raise CodeConstructionError(
                f"n_code*col_degree={n_code * col_degree} exceeds MAX_EDGES={MAX_EDGES}"
            )
        if (n_code * col_degree) % row_degree != 0:
            raise CodeConstructionError(
                f"n_code*col_degree={n_code * col_degree} not divisible by row_degree={row_degree}"
            )
        m = n_code * col_degree // row_degree
        if not 0 < m < n_code:
            raise CodeConstructionError(f"n_checks={m} must lie in (0, n_code)")
        if row_degree > n_code:
            raise CodeConstructionError("row_degree exceeds n_code")
        rng = philox(seed, _CODEGEN_STREAM)
        cols = np.repeat(np.arange(n_code, dtype=np.int64), col_degree)
        rows = rng.permutation(np.repeat(np.arange(m, dtype=np.int64), row_degree))
        n_edges = rows.size
        for _ in range(1000):
            _order, dup = _edge_order(rows, cols, n_code)
            if dup.size == 0:
                break
            partners = rng.integers(0, n_edges, size=dup.size)
            for e, f in zip(dup, partners):
                rows[e], rows[f] = rows[f], rows[e]
        else:
            raise CodeConstructionError("could not separate duplicate edges")
        for _ in range(60):
            # with every column degree even the rows sum to zero: rank < m
            if (np.bincount(cols, minlength=n_code) & 1).any():
                try:
                    code = cls(np.column_stack((rows, cols)), n_code, m)
                except CodeConstructionError:
                    pass
                else:
                    code.origin = dict(n=n_code, row_degree=row_degree, col_degree=col_degree, seed=seed)
                    return code
            r = int(rng.integers(m))
            slots = np.nonzero(rows == r)[0]
            cols[slots] = rng.choice(n_code, size=slots.size, replace=False)
        raise CodeConstructionError(
            f"failed to reach full rank for (n={n_code}, {row_degree}, {col_degree}, seed={seed})"
        )


def encode(code, info):
    """Codeword for an info-bit vector: each code bit is the GF(2) inner
    product of the info bits with a generator column."""
    info = np.asarray(info)
    if info.shape != (code.k_info,):
        raise ValueError(f"info length {info.shape} != ({code.k_info},)")
    sel = (info.astype(np.uint8) & 1).astype(bool)
    packed = np.bitwise_xor.reduce(code._g_packed[sel], axis=0)
    return np.unpackbits(packed)[: code.n_code]


def decode_bp_full(code, llr, max_iter, early_exit=True):
    """Sum-product decoding returning the full hard codeword and posterior.

    Returns (hard_bits, posterior_llr, iterations_used, converged).
    converged means the final hard decision has zero syndrome and no
    posterior is exactly zero; with early_exit the loop stops at the
    first iteration where that holds. Hard ties (LLR exactly 0) decide
    bit 0.

    Messages live in the code's (max row degree, n_checks) check slot
    layout, so each leave-one-out product is a run of contiguous row
    multiplies. The products multiply in the order of a running product
    along each check row, and check-to-variable messages are summed per
    variable in row-major edge order, so the result is fixed to the bit.
    """
    if not (_is_int(max_iter) and max_iter >= 1):
        raise ValueError("max_iter must be an integer >= 1")
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (code.n_code,):
        raise ValueError(f"llr length {llr.shape} != ({code.n_code},)")
    if not np.all(np.isfinite(llr)):
        raise ValueError("llr contains non-finite values")
    llr = np.clip(llr, -LLR_CAP, LLR_CAP)
    slot_col, pad = code._slot_col, code._pad
    dmax, n = slot_col.shape[0], code.n_code
    post = np.zeros(n + 1)  # post[n] stays 0: the pad slots' target
    post[:n] = llr
    msg = post.take(slot_col)  # variable-to-check, then tanh(msg / 2)
    loo = np.empty_like(msg)  # leave-one-out product, then check-to-variable
    neg = np.empty(msg.shape, dtype=bool)  # hard bits in the slot layout
    run = np.empty(msg.shape[1])
    msg_rows, loo_rows = list(msg), list(loo)
    # A message is capped at LLR_CAP, so a real factor is at most
    # tanh(LLR_CAP / 2) < 1 and a leave-one-out product reaches +-1 only
    # from pad slots alone, on a check of degree 1. arctanh(+-1) = +-inf
    # then clips to +-LLR_CAP, as 2 * arctanh(nextafter(1, 0)) would.
    with np.errstate(divide="ignore"):
        for it in range(1, max_iter + 1):
            np.multiply(msg, 0.5, out=msg)
            np.tanh(msg, out=msg)
            if pad is not None:
                msg[pad] = 1.0
            # loo[j] = (msg[0] * ... * msg[j-1]) * (msg[dmax-1] * ... * msg[j+1])
            loo_rows[0].fill(1.0)
            for j in range(1, dmax):
                np.multiply(loo_rows[j - 1], msg_rows[j - 1], out=loo_rows[j])
            np.copyto(run, msg_rows[dmax - 1])
            for j in range(dmax - 2, -1, -1):
                np.multiply(loo_rows[j], run, out=loo_rows[j])
                if j:
                    np.multiply(run, msg_rows[j], out=run)
            np.arctanh(loo, out=loo)
            np.multiply(loo, 2.0, out=loo)
            np.clip(loo, -LLR_CAP, LLR_CAP, out=loo)
            np.add(llr, np.bincount(code._ec, weights=loo.take(code._edge_slot), minlength=n),
                   out=post[:n])
            post.take(slot_col, out=msg, mode="clip")  # indices are in range
            if early_exit or it == max_iter:
                # the hard bit of a slot is msg < 0; a pad slot reads
                # post[n] = 0, so it adds nothing to its check's parity
                np.less(msg, 0.0, out=neg)
                converged = (not np.bitwise_xor.reduce(neg, axis=0).any()
                             and bool(np.all(post[:n] != 0.0)))
                if (converged and early_exit) or it == max_iter:
                    break
            np.subtract(msg, loo, out=msg)
            np.clip(msg, -LLR_CAP, LLR_CAP, out=msg)
    hard = (post[:n] < 0.0).astype(np.uint8)
    return hard, post[:n].copy(), it, converged


@dataclass(frozen=True)
class RepetitionCode:
    """A base code with each code bit repeated rep_factor consecutive times."""

    base: LdpcCode
    rep_factor: int = 1

    def __post_init__(self):
        if not isinstance(self.base, LdpcCode):
            raise CodeConstructionError(f"base must be an LdpcCode, got {type(self.base).__name__}")
        if not (_is_int(self.rep_factor) and self.rep_factor >= 1):
            raise CodeConstructionError("rep_factor must be an integer >= 1")

    @property
    def n_code(self):
        return self.base.n_code * self.rep_factor

    @property
    def k_info(self):
        return self.base.k_info

    @property
    def rate(self):
        return self.base.rate / self.rep_factor


def rep_encode(rc, info):
    """Base encode, then each code bit emitted rep_factor consecutive times."""
    return np.repeat(encode(rc.base, info), rc.rep_factor)


def rep_combine(rc, llr):
    """Sum the rep_factor LLR copies of each base code bit.

    Exact over a memoryless channel: the per-copy log-likelihood ratios
    of one repeated bit add.
    """
    llr = np.asarray(llr, dtype=np.float64)
    if llr.shape != (rc.n_code,):
        raise ValueError(f"llr length {llr.shape} != ({rc.n_code},)")
    return llr.reshape(rc.base.n_code, rc.rep_factor).sum(axis=1)
