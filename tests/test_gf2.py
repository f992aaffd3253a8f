import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmmsim import gf2
from oracles import gf2_rank_naive, rank, row_reduce_reference


def row_reduce(mat):
    """``gf2.row_reduce`` on a dense 0/1 matrix: packed on the way in,
    unpacked on the way out."""
    M = np.asarray(mat, dtype=np.uint8)
    P, piv = gf2.row_reduce(np.packbits(M, axis=1), M.shape[1])
    return np.unpackbits(P, axis=1, count=M.shape[1]), piv


def test_identity_is_its_own_rref():
    I = np.eye(5, dtype=np.uint8)
    R, piv = row_reduce(I)
    assert np.array_equal(R, I)
    assert piv == [0, 1, 2, 3, 4]


def test_known_small_reduction():
    # [[1,1,0,1],[1,0,1,0],[0,1,1,1]] reduces by hand to
    # [[1,0,1,0],[0,1,1,1],[0,0,0,0]] with pivots 0,1 (row3 = row1 + row2).
    M = [[1, 1, 0, 1], [1, 0, 1, 0], [0, 1, 1, 1]]
    R, piv = row_reduce(M)
    assert piv == [0, 1]
    assert np.array_equal(R, [[1, 0, 1, 0], [0, 1, 1, 1], [0, 0, 0, 0]])


def test_pivot_columns_are_unit_vectors():
    rng = np.random.default_rng(7)
    M = rng.integers(0, 2, size=(12, 20), dtype=np.uint8)
    R, piv = row_reduce(M)
    for i, c in enumerate(piv):
        col = R[:, c]
        assert col[i] == 1
        assert col.sum() == 1


def test_rref_is_idempotent():
    rng = np.random.default_rng(11)
    M = rng.integers(0, 2, size=(9, 15), dtype=np.uint8)
    R, piv = row_reduce(M)
    R2, piv2 = row_reduce(R)
    assert np.array_equal(R, R2)
    assert piv == piv2


def test_rank_matches_naive_elimination():
    rng = np.random.default_rng(3)
    for _ in range(50):
        m = int(rng.integers(1, 12))
        n = int(rng.integers(1, 16))
        M = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        assert rank(M) == gf2_rank_naive(M)


def test_duplicate_row_drops_rank():
    M = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 1]], dtype=np.uint8)
    assert rank(M) == 2


def test_row_space_preserved():
    # Every row of the input must be a GF(2) combination of rref rows:
    # stacking them cannot raise the rank.
    rng = np.random.default_rng(5)
    M = rng.integers(0, 2, size=(8, 13), dtype=np.uint8)
    R, piv = row_reduce(M)
    stacked = np.vstack([M, R])
    assert rank(stacked) == len(piv)


def test_packed_input_is_left_unchanged_and_padding_ignored():
    rng = np.random.default_rng(17)
    M = rng.integers(0, 2, size=(10, 21), dtype=np.uint8)
    P = np.packbits(M, axis=1)
    P[:, -1] |= 0x07  # the three bits past column 20
    before = P.copy()
    R, piv = gf2.row_reduce(P, 21)
    assert np.array_equal(P, before)
    R_ref, piv_ref = row_reduce_reference(M)
    assert R.tobytes() == np.packbits(R_ref, axis=1).tobytes()
    assert piv == piv_ref


@pytest.mark.parametrize("n_cols", [8, 17, -1])
def test_rejects_width_not_matching_n_cols(n_cols):
    with pytest.raises(ValueError, match="packed bytes per row"):
        gf2.row_reduce(np.zeros((3, 2), dtype=np.uint8), n_cols)


def test_rejects_unpacked_dtype():
    with pytest.raises(ValueError, match="uint8"):
        gf2.row_reduce(np.zeros((3, 2), dtype=np.int64), 16)


def test_rejects_non_2d():
    with pytest.raises(ValueError, match="2-D"):
        gf2.row_reduce(np.zeros(4, dtype=np.uint8), 4)


@pytest.mark.parametrize("shape", [(0, 13), (5, 0)], ids=["no-rows", "no-columns"])
def test_empty_matrix(shape):
    R, piv = row_reduce(np.zeros(shape, dtype=np.uint8))
    assert R.shape == shape and R.dtype == np.uint8
    assert piv == []


def test_single_column():
    R, piv = row_reduce([[0], [1]])
    assert np.array_equal(R, [[1], [0]])
    assert piv == [0]


@pytest.mark.parametrize("n", [9, 17, 129])
def test_pivot_in_last_partial_byte(n):
    # 8k+1 columns: the last column is alone in its packed byte. Row 0
    # reaches it only through row 1, so both the pivot list and the
    # cleared entry of row 0 depend on that byte.
    M = np.zeros((3, n), dtype=np.uint8)
    M[0, [0, n - 1]] = 1
    M[1, n - 1] = 1
    R, piv = row_reduce(M)
    expect = np.zeros((3, n), dtype=np.uint8)
    expect[0, 0] = expect[1, n - 1] = 1
    assert piv == [0, n - 1]
    assert np.array_equal(R, expect)


@st.composite
def binary_matrices(draw):
    """0/1 matrices up to 40x130, any density, with duplicated and zeroed
    rows mixed in; widths are often not multiples of 8."""
    m = draw(st.integers(0, 40))
    n = draw(st.integers(0, 130))
    density = draw(st.sampled_from([0.0, 0.01, 0.05, 0.2, 0.5, 0.9, 1.0]) | st.floats(0.0, 1.0))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    M = (rng.random((m, n)) < density).astype(np.uint8)
    if m:
        rows = st.integers(0, m - 1)
        for dst, src in draw(st.lists(st.tuples(rows, rows), max_size=6)):
            M[dst] = M[src]
        M[draw(st.lists(rows, max_size=4))] = 0
    return M


@settings(max_examples=400, deadline=None)
@given(M=binary_matrices())
def test_matches_reference_kernel(M):
    P, piv_packed = gf2.row_reduce(np.packbits(M, axis=1), M.shape[1])
    R, piv = row_reduce(M)
    R_ref, piv_ref = row_reduce_reference(M)
    assert P.tobytes() == np.packbits(R_ref, axis=1).tobytes() and piv_packed == piv_ref
    assert R.dtype == R_ref.dtype and R.shape == R_ref.shape
    assert R.tobytes() == R_ref.tobytes()
    assert piv == piv_ref
    assert all(type(c) is int for c in piv)


@st.composite
def tall_sparse_matrices(draw):
    """LDPC-like 0/1 matrices: up to 300 rows, often more than the 256
    byte values a strip can hold, of 1 to 6 ones each."""
    m = draw(st.integers(257, 300) | st.integers(1, 300))
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    weight = rng.integers(1, 7, size=m)
    cols = np.argsort(rng.random((m, n)), axis=1)[:, :6]
    M = np.zeros((m, n), dtype=np.uint8)
    take = np.arange(cols.shape[1]) < weight[:, None]
    M[np.nonzero(take)[0], cols[take]] = 1
    return M


@settings(max_examples=150, deadline=None)
@given(M=tall_sparse_matrices())
def test_matches_reference_kernel_on_tall_sparse(M):
    P, piv = gf2.row_reduce(np.packbits(M, axis=1), M.shape[1])
    R_ref, piv_ref = row_reduce_reference(M)
    assert P.tobytes() == np.packbits(R_ref, axis=1).tobytes()
    assert piv == piv_ref
