"""Dense GF(2) linear algebra on bit-packed matrices.

Rows are packed eight columns per byte (``np.packbits`` order, the first
column in the high bit), and elimination works one packed byte, a strip
of eight columns, at a time, after the Method of Four Russians
(Arlazarov et al. 1970; Bard 2006): a reduced basis of the distinct byte
values picks the strip's pivot rows, the XOR combinations of those rows
are tabulated once, and every row is cleared with one gather from that
table. The Python-level cost is per strip, not per pivot, so matrices of
a few thousand columns reduce in tens of milliseconds.
"""

import operator

import numpy as np

# (256, 8) table: entry [x, i] is bit i of the byte value x.
_BITS = np.arange(256)[:, None] >> np.arange(8) & 1
_BITS.flags.writeable = False


def row_reduce(packed, n_cols):
    """Reduced row echelon form of a bit-packed binary matrix over GF(2).

    Strip by strip, with r rows pivoted so far: the rows r.. are zero
    left of the strip, so the strip's pivot columns are the leading bits
    of the span of their strip bytes. A basis of that span is drawn from
    the distinct byte values with Python ints, one source row per basis
    vector, and kept fully reduced as it grows: a new vector is cleared
    of the leading bits already held, then clears its own leading bit
    from the others, so each pivot bit belongs to one combination of
    sources. The 2**k XOR combinations of the k source rows are
    tabulated over the strip and the bytes right of it, and every row
    with a pivot bit set is XORed with the combination that clears its
    pivot bits, which leaves the source rows zero. The k reduced pivot
    rows then take positions r..r+k-1.

    The reduced row echelon form of a matrix is unique, so the result
    does not depend on which rows serve as sources or on the order of the
    rows not yet pivoted: it is the one a column-by-column elimination
    gives.

    Args:
        packed: (m, ceil(n_cols / 8)) uint8 array, each row packed as by
            ``np.packbits(..., axis=1)``. It is not modified. Bits past
            column n_cols - 1 are ignored.
        n_cols: number of matrix columns.

    Returns:
        (packed_rref, pivot_cols): the reduced matrix, packed like the
        input with its bits past n_cols - 1 zero, and the pivot column
        indices in increasing order. The GF(2) rank is
        ``len(pivot_cols)``.
    """
    P = np.array(packed, copy=True)
    if P.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    n = operator.index(n_cols)
    if P.dtype != np.uint8 or n < 0 or P.shape[1] != (n + 7) // 8:
        raise ValueError(
            f"expected a uint8 array of {(max(n, 0) + 7) // 8} packed bytes per row "
            f"for {n} columns, got {P.dtype} of shape {P.shape}"
        )
    if n % 8:
        P[:, -1] &= 0xFF << (8 - n % 8) & 0xFF
    m = P.shape[0]
    row_ids = np.arange(m)
    pivot_cols = []
    r = 0
    for b in range(P.shape[1]):
        if r == m:
            break
        strip = P[r:, b]
        # one row holding each byte value; -1 where the value is absent
        holder = np.full(256, -1, dtype=np.intp)
        holder[strip] = row_ids[: m - r]
        limit = min(8, n - 8 * b, m - r)
        # reduced basis: each leading bit maps to [value, mask of the
        # source rows whose XOR gives that value], and no value holds
        # another's leading bit
        basis = {}
        srcs = []
        for v in (np.flatnonzero(holder[1:] >= 0) + 1).tolist():
            x, c = v, 0
            for lead, (bv, bc) in basis.items():
                if x >> lead & 1:
                    x ^= bv
                    c ^= bc
            if x:
                lead, c = x.bit_length() - 1, c ^ 1 << len(srcs)
                for entry in basis.values():
                    if entry[0] >> lead & 1:
                        entry[0] ^= x
                        entry[1] ^= c
                basis[lead] = [x, c]
                srcs.append(r + int(holder[v]))
                if len(srcs) == limit:
                    break
        if not srcs:
            continue
        leads = sorted(basis, reverse=True)
        combs = [basis[lead][1] for lead in leads]
        k = len(srcs)
        table = np.zeros((1 << k, P.shape[1] - b), dtype=np.uint8)
        for j, s in enumerate(srcs):
            np.bitwise_xor(table[: 1 << j], P[s, b:], out=table[1 << j: 2 << j])
        # combination that clears the leading bits of each byte value; the
        # combinations are independent, so it is 0 only where none is set
        lut = np.bitwise_xor.reduce(_BITS[:, leads] * np.array(combs), axis=1)
        sel = lut[P[:, b]]
        hits = np.flatnonzero(sel)
        P[hits, b:] ^= table[sel[hits]]
        # the sources are zero now; rows in r..r+k-1 that are not sources
        # move into the source rows below that block
        out = [i for i in range(r, r + k) if i not in srcs]
        P[[s for s in srcs if s >= r + k]] = P[out]
        P[r: r + k, b:] = table[combs]
        pivot_cols.extend(8 * b + 7 - lead for lead in leads)
        r += k
    return P, pivot_cols

