import hashlib
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dmmsim import ldpc
from dmmsim.ldpc import (
    LLR_CAP,
    MAX_CODE_LENGTH,
    CodeConstructionError,
    LdpcCode,
    RepetitionCode,
    decode_bp_full,
    derive_generator,
    encode,
    rep_combine,
    rep_encode,
)
from dmmsim.config import load_config
from oracles import (
    HAMMING_H,
    TREE_H,
    alist_text,
    all_codewords,
    bpsk_llr_density,
    decode_bp_reference,
    derive_generator_reference,
    exact_bit_posteriors,
    from_dense,
    gaussian_logpdf,
    g_dense,
    gf2_rank_naive,
    h_dense,
    ml_codeword,
    syndrome,
    syndrome_int,
)


DESK_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json"


def hamming_code():
    return from_dense(HAMMING_H)


def tree_code():
    return from_dense(TREE_H)


# ---------------------------------------------------------------- generator


def test_generator_trivial_rate_half_paired_columns():
    # Each parity bit equals one info bit: H = [I | I].
    edges = [(i, i) for i in range(3)] + [(i, i + 3) for i in range(3)]
    g_packed, info_pos = derive_generator(edges, 6, 3)
    g = np.unpackbits(g_packed, axis=1, count=6)
    assert np.array_equal(info_pos, [3, 4, 5])
    for j, row in enumerate(g):
        assert sorted(np.nonzero(row)[0].tolist()) == [j, j + 3]


def test_generator_hamming_rows_in_null_space():
    g_packed, info_pos = derive_generator(
        list(zip(*np.nonzero(HAMMING_H))), 7, 4
    )
    g = np.unpackbits(g_packed, axis=1, count=7)
    assert g.shape == (4, 7)
    assert len(info_pos) == 4
    for row in g:
        assert not syndrome_int(HAMMING_H, row).any()


def test_generator_rank_deficient_raises():
    # rows 0 and 1 duplicated: rank 2 < 3 = n - k
    edges = [(0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2), (2, 3)]
    with pytest.raises(CodeConstructionError, match="rank"):
        derive_generator(edges, 4, 1)


@st.composite
def generator_cases(draw):
    """(edges, n_code, k_info) for parity-check matrices up to 24 x 70,
    full rank or not, with duplicated rows and, at times, duplicated
    pairs. k_info is n_code - n_checks, which fails on a rank-deficient
    matrix, or n_code - rank, which succeeds on every matrix."""
    m = draw(st.integers(1, 24))
    n = draw(st.integers(m + 1, 70))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    H = (rng.random((m, n)) < draw(st.sampled_from([0.05, 0.2, 0.5, 0.9]))).astype(np.uint8)
    rows = st.integers(0, m - 1)
    for dst, src in draw(st.lists(st.tuples(rows, rows), max_size=3)):
        H[dst] = H[src]
    H[m - 1, draw(st.integers(0, n - 1))] = 1  # keep the last row, so n_checks is m
    edges = np.argwhere(H)
    if draw(st.booleans()):
        edges = np.concatenate([edges, edges[rng.integers(0, len(edges), size=3)]])
    rank = gf2_rank_naive(H)
    k_info = draw(st.sampled_from([n - m, n - rank]))
    return edges, n, k_info


@settings(max_examples=300, deadline=None)
@given(case=generator_cases(), block=st.sampled_from([None, 1, 40, 200]))
def test_generator_matches_dense_reference(case, block):
    # the packed build, in row blocks of every size, against the former
    # dense body: the same bits, positions and errors
    edges, n, k_info = case
    try:
        g_ref, info_ref = derive_generator_reference(edges, n, k_info)
    except CodeConstructionError as exc:
        with pytest.raises(CodeConstructionError) as got:
            with mock.patch.object(ldpc, "_GEN_BLOCK", block or ldpc._GEN_BLOCK):
                derive_generator(edges, n, k_info)
        assert str(got.value) == str(exc)
        return
    with mock.patch.object(ldpc, "_GEN_BLOCK", block or ldpc._GEN_BLOCK):
        g_packed, info_pos = derive_generator(edges, n, k_info)
    assert g_packed.dtype == np.uint8 and g_packed.shape == (k_info, (n + 7) // 8)
    assert np.unpackbits(g_packed, axis=1, count=n).tobytes() == g_ref.tobytes()
    assert g_packed.tobytes() == np.packbits(g_ref, axis=1).tobytes()  # padding bits 0
    assert info_pos.dtype == info_ref.dtype
    assert np.array_equal(info_pos, info_ref)


NON_INTEGER_EDGES = {
    "fractional": [(0.9, 1.7), (0, 0)],
    "integral-float": [(0.0, 1.0), (0, 0)],
    "float-array": np.array([[0.0, 1.0], [0.0, 0.0]]),
    "bool": [(True, False), (False, False)],
    "bool-array": np.array([[True, False], [False, False]]),
}


@pytest.mark.parametrize("edges", NON_INTEGER_EDGES.values(), ids=NON_INTEGER_EDGES.keys())
def test_non_integer_edge_indices_are_rejected(edges):
    # a cast would truncate 0.9 to 0 and 1.7 to 1, or read True as 1
    with pytest.raises(CodeConstructionError, match="must be integers"):
        LdpcCode(edges, 3, 1)
    with pytest.raises(CodeConstructionError, match="must be integers"):
        derive_generator(edges, 3, 2)


def test_ragged_edge_pairs_are_rejected():
    with pytest.raises(CodeConstructionError):
        LdpcCode([(0, 0), (0, 1, 2)], 3, 1)


def test_g_dense_oracle_unpacks_the_stored_generator():
    # the oracle rebuilds from public API the generator the encoder uses
    code = hamming_code()
    g = g_dense(code)
    assert g.shape == (4, 7) and g.dtype == np.uint8
    assert np.array_equal(np.packbits(g, axis=1), code._g_packed)


def test_generator_systematic_positions():
    code = hamming_code()
    for j, pos in enumerate(code.info_positions):
        unit = np.zeros(4, dtype=np.uint8)
        unit[j] = 1
        assert encode(code, unit)[pos] == 1
    # info bits appear verbatim
    rng = np.random.default_rng(0)
    for _ in range(10):
        info = rng.integers(0, 2, 4, dtype=np.uint8)
        cw = encode(code, info)
        assert np.array_equal(cw[code.info_positions], info)


# ------------------------------------------------------------------- encode


def test_encode_all_zero():
    code = hamming_code()
    assert not encode(code, np.zeros(4, dtype=np.uint8)).any()


def test_encode_single_one_gives_generator_row():
    code = hamming_code()
    for k in range(code.k_info):
        info = np.zeros(code.k_info, dtype=np.uint8)
        info[k] = 1
        assert np.array_equal(encode(code, info), g_dense(code)[k])


def test_encode_hamming_info_1011_zero_syndrome():
    code = hamming_code()
    cw = encode(code, [1, 0, 1, 1])
    assert np.array_equal(syndrome_int(HAMMING_H, cw), [0, 0, 0])
    assert np.array_equal(syndrome(code, cw), [0, 0, 0])


def test_encode_length_mismatch():
    code = hamming_code()
    with pytest.raises(ValueError):
        encode(code, [1, 0, 1])


def test_encode_linearity():
    code = hamming_code()
    rng = np.random.default_rng(2)
    for _ in range(20):
        a = rng.integers(0, 2, 4, dtype=np.uint8)
        b = rng.integers(0, 2, 4, dtype=np.uint8)
        assert np.array_equal(encode(code, a ^ b), encode(code, a) ^ encode(code, b))


def test_syndrome_invariant_random_info():
    codes = [
        hamming_code(),
        tree_code(),
        LdpcCode.random_regular(96, 6, 3, seed=5),
    ]
    rng = np.random.default_rng(3)
    for code in codes:
        H = h_dense(code)
        for _ in range(1000):
            info = rng.integers(0, 2, code.k_info, dtype=np.uint8)
            assert not syndrome_int(H, encode(code, info)).any()


# Small seeded regular codes, (n, row degree, column degree) with n <= 16,
# so the null space of H can be enumerated over all 2**n words.
SMALL_REGULAR = st.builds(
    lambda shape, seed: LdpcCode.random_regular(*shape, seed),
    st.sampled_from([(8, 4, 2), (9, 3, 2), (12, 6, 3), (12, 4, 3), (14, 7, 3), (16, 8, 4), (16, 4, 3)]),
    st.integers(0, 2**64 - 1),
)


@settings(max_examples=60, deadline=None)
@given(code=SMALL_REGULAR, data=st.data())
def test_encode_properties_on_random_regular_codes(code, data):
    # The receiver may take a converged decode as its rebuilt codeword
    # only if every zero-syndrome word re-encodes from its info bits.
    info = st.lists(st.integers(0, 1), min_size=code.k_info, max_size=code.k_info).map(
        lambda b: np.array(b, dtype=np.uint8))
    a, b = data.draw(info), data.draw(info)
    H = h_dense(code)
    assert not syndrome_int(H, encode(code, a)).any()
    assert np.array_equal(encode(code, a ^ b), encode(code, a) ^ encode(code, b))
    words = (np.arange(2**code.n_code)[:, None] >> np.arange(code.n_code)) & 1
    codewords = words[~syndrome_int(H, words.T).any(axis=0)].astype(np.uint8)
    assert len(codewords) == 2**code.k_info
    for c in codewords:
        assert np.array_equal(encode(code, c[code.info_positions]), c)


# ------------------------------------------------------------------- decode


def test_decode_strong_positive_llr_one_iteration():
    code = hamming_code()
    hard, _post, iters, converged = decode_bp_full(code, np.full(7, 20.0), max_iter=50)
    assert converged
    assert iters == 1
    assert not hard[code.info_positions].any()


def test_decode_hamming_corrects_single_flip():
    code = hamming_code()
    llr = np.full(7, 4.0)
    llr[2] = -2.0
    assert not ml_codeword(g_dense(code), llr).any()  # oracle: all-zero is ML
    hard, _post, _iters, converged = decode_bp_full(code, llr, max_iter=50)
    assert converged
    assert not hard[code.info_positions].any()


def test_decode_zero_llr_reports_no_convergence():
    code = hamming_code()
    hard, _post, iters, converged = decode_bp_full(code, np.zeros(7), max_iter=8)
    assert not converged
    assert iters == 8
    assert not hard.any()  # ties decide bit 0


def test_decode_matches_ml_on_random_llrs():
    code = hamming_code()
    rng = np.random.default_rng(9)
    agree = 0
    for _ in range(50):
        llr = rng.normal(1.5, 1.0, size=7) * 4.0
        ml = ml_codeword(g_dense(code), llr)
        hard, _post, _iters, converged = decode_bp_full(code, llr, max_iter=60)
        if converged and np.array_equal(hard, ml):
            agree += 1
    assert agree >= 45  # BP on a short loopy code occasionally diverges


def test_bp_posterior_equals_exact_marginals_on_tree():
    code = tree_code()
    rng = np.random.default_rng(4)
    for _ in range(25):
        llr = rng.normal(0.0, 2.0, size=7)
        hard, post, _iters, _conv = decode_bp_full(
            code, llr, max_iter=12, early_exit=False
        )
        p1_bp = 1.0 / (1.0 + np.exp(post))
        p1_exact = exact_bit_posteriors(g_dense(code), llr)
        assert np.allclose(p1_bp, p1_exact, atol=1e-6)


def test_roundtrip_large_llr():
    codes = [hamming_code(), tree_code(), LdpcCode.random_regular(96, 6, 3, seed=5)]
    rng = np.random.default_rng(6)
    for code in codes:
        for _ in range(50):
            info = rng.integers(0, 2, code.k_info, dtype=np.uint8)
            cw = encode(code, info)
            llr = (1.0 - 2.0 * cw) * 20.0
            hard, _post, _iters, converged = decode_bp_full(code, llr, max_iter=50)
            assert converged
            assert np.array_equal(hard[code.info_positions], info)


def test_decode_input_validation():
    code = hamming_code()
    with pytest.raises(ValueError):
        decode_bp_full(code, np.zeros(6), max_iter=10)
    # max_iter follows the package's integer rule, as config's does
    for max_iter in (0, -1, True, False, 2.5, 3.0, "3", np.int64(3), None):
        with pytest.raises(ValueError, match="max_iter"):
            decode_bp_full(code, np.zeros(7), max_iter=max_iter)
    bad = np.zeros(7)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        decode_bp_full(code, bad, max_iter=10)


def assert_same_decode(code, llr, max_iter, early_exit=True):
    hard, post, iters, converged = decode_bp_full(code, llr, max_iter, early_exit)
    ref_hard, ref_post, ref_iters, ref_converged = decode_bp_reference(code, llr, max_iter, early_exit)
    assert hard.dtype == ref_hard.dtype and hard.tobytes() == ref_hard.tobytes()
    assert post.tobytes() == ref_post.tobytes()
    assert (iters, converged) == (ref_iters, ref_converged)


@st.composite
def irregular_codes(draw):
    """Full-rank [A | I] codes, columns shuffled, whose first two rows
    differ in degree, so the check slot layout has pad slots."""
    m = draw(st.integers(2, 6))
    k = draw(st.integers(1, 8))
    a = np.array(draw(st.lists(st.lists(st.integers(0, 1), min_size=k, max_size=k),
                               min_size=m, max_size=m)), dtype=np.uint8)
    a[0] = 1
    a[1, 0] = 0
    perm = draw(st.permutations(range(k + m)))
    return from_dense(np.hstack([a, np.eye(m, dtype=np.uint8)])[:, perm])


LLR_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, LLR_CAP, -LLR_CAP, 2 * LLR_CAP, -1e300]),
    st.floats(-2 * LLR_CAP, 2 * LLR_CAP, allow_nan=False),
)


@settings(max_examples=300, deadline=None)
@given(code=irregular_codes(), data=st.data(), max_iter=st.integers(1, 60), early_exit=st.booleans())
def test_decode_matches_reference_kernel_on_irregular_codes(code, data, max_iter, early_exit):
    llr = np.array(data.draw(st.lists(LLR_VALUES, min_size=code.n_code, max_size=code.n_code)))
    assert_same_decode(code, llr, max_iter, early_exit)
    bits = (llr < 0).astype(np.uint8)
    assert np.array_equal(syndrome(code, bits), syndrome_int(h_dense(code), bits))


def test_decode_matches_reference_kernel_on_degree_one_checks():
    code = from_dense([[1, 0, 0], [0, 0, 1]])  # one slot per check
    for llr in ([1.0, -2.0, 3.0], [-1.0, 0.0, -40.0]):
        for early_exit in (True, False):
            assert_same_decode(code, np.array(llr), 5, early_exit)


def test_decode_matches_reference_kernel_on_padded_degree_one_check():
    # check 2 has degree 1 among checks of degree 3 and 2: its one edge's
    # leave-one-out product is the pad slots' 1.0, whose arctanh is inf
    code = from_dense([[1, 1, 0, 1, 0], [0, 1, 1, 0, 0], [0, 0, 0, 0, 1]])
    assert code._pad is not None
    for llr in ([1.0, -2.0, 3.0, 0.5, -0.25], [-1.0, 0.0, -40.0, 2.0, 0.0],
                [LLR_CAP, -LLR_CAP, 1e300, -1e300, LLR_CAP]):
        for early_exit in (True, False):
            assert_same_decode(code, np.array(llr), 7, early_exit)


@pytest.fixture(scope="module")
def desk_codes():
    cfg = load_config(DESK_CONFIG)
    return cfg.inner, cfg.outer.base


@pytest.mark.parametrize("esn0_db", [-1.5, -1.0, 0.5])
def test_decode_matches_reference_kernel_on_desk_codes(desk_codes, esn0_db):
    # BPSK codewords over AWGN at the desk grid's waterfall and error-free points
    sigma2 = 0.5 * 10.0 ** (-esn0_db / 10.0)
    rng = np.random.default_rng(int(100 * esn0_db) + 1000)
    for code in desk_codes:
        for early_exit in (True, False):
            cw = encode(code, rng.integers(0, 2, code.k_info, dtype=np.uint8))
            y = 1.0 - 2.0 * cw + rng.normal(0.0, np.sqrt(sigma2), code.n_code)
            assert_same_decode(code, 2.0 * y / sigma2, 50, early_exit)


@pytest.mark.parametrize("magnitude", [LLR_CAP, 1e300])
def test_decode_matches_reference_kernel_on_saturated_desk_codes(desk_codes, magnitude):
    # every message at the cap: the leave-one-out products of these
    # degree-6 checks come as close to +-1 as they can, 2 * arctanh of
    # them about 28.4, and no arctanh(+-1) may warn
    rng = np.random.default_rng(29)
    for code in desk_codes:
        cw = encode(code, rng.integers(0, 2, code.k_info, dtype=np.uint8))
        signs = 1.0 - 2.0 * cw
        flipped = signs.copy()
        flipped[rng.choice(code.n_code, code.n_code // 50, replace=False)] *= -1.0
        for llr in (signs * magnitude, flipped * magnitude):
            for early_exit in (True, False):
                assert_same_decode(code, llr, 8, early_exit)


# --------------------------------------------------------------- repetition


def rate_third_base():
    return LdpcCode(
        [(0, 0), (0, 2)], n_code=3, n_checks=1
    )  # G rows [0,1,0] and [1,0,1]


def test_rep_encode_consecutive_copies():
    rc = RepetitionCode(rate_third_base(), rep_factor=4)
    cw = rep_encode(rc, [0, 1])  # base codeword 101
    assert np.array_equal(cw, [1, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1, 1])


def test_rep_factor_one_is_identity():
    base = rate_third_base()
    rc = RepetitionCode(base, rep_factor=1)
    info = np.array([1, 1], dtype=np.uint8)
    assert np.array_equal(rep_encode(rc, info), encode(base, info))


def test_rep_effective_rate():
    base = LdpcCode.random_regular(12, 6, 4, seed=8)
    assert base.rate == pytest.approx(1 / 3)
    rc = RepetitionCode(base, rep_factor=4)
    assert rc.rate == pytest.approx(1 / 12)
    assert rc.n_code == 48
    assert rc.k_info == 4


def test_rep_combine_examples():
    rc = RepetitionCode(rate_third_base(), rep_factor=4)
    llr = np.array([1.0, 1, 1, 1, 2, -2, 3, -3, 0.5, 0.5, 0.5, 0.5])
    combined = rep_combine(rc, llr)
    assert np.array_equal(combined, [4.0, 0.0, 2.0])
    rc1 = RepetitionCode(rate_third_base(), rep_factor=1)
    x = np.array([0.3, -0.7, 2.0])
    assert np.array_equal(rep_combine(rc1, x), x)
    with pytest.raises(ValueError):
        rep_combine(rc, np.zeros(10))


def test_rep_factor_validation():
    with pytest.raises(ValueError):
        RepetitionCode(rate_third_base(), rep_factor=0)


@pytest.mark.parametrize("flag", [True, False])
def test_rep_factor_refuses_bool(flag):
    # as load_config refuses a JSON true
    with pytest.raises(ValueError, match="rep_factor"):
        RepetitionCode(rate_third_base(), rep_factor=flag)


@pytest.mark.parametrize("rep_factor", [0, True, 2.0])
def test_rep_factor_is_a_construction_error(rep_factor):
    with pytest.raises(CodeConstructionError, match="rep_factor must be an integer >= 1"):
        RepetitionCode(rate_third_base(), rep_factor=rep_factor)


def test_repetition_base_must_be_an_ldpc_code():
    inner = RepetitionCode(rate_third_base(), rep_factor=2)
    with pytest.raises(CodeConstructionError, match="base must be an LdpcCode, got RepetitionCode"):
        RepetitionCode(inner, rep_factor=2)


def test_rep_combine_matches_joint_density_llr():
    # For one bit repeated r times over AWGN/BPSK, the LLR given all
    # copies is the sum of per-copy LLRs; check against joint densities.
    rng = np.random.default_rng(12)
    es, s2 = 1.3, 0.4
    a = np.sqrt(es)
    for _ in range(20):
        y = rng.normal(-a, np.sqrt(s2), size=4)
        per_copy = bpsk_llr_density(y, es, s2)
        joint = gaussian_logpdf(y, a, s2).sum() - gaussian_logpdf(y, -a, s2).sum()
        assert np.isclose(per_copy.sum(), joint, atol=1e-9)


def test_rep_roundtrip_with_combining():
    base = LdpcCode.random_regular(12, 6, 4, seed=8)
    rc = RepetitionCode(base, rep_factor=4)
    rng = np.random.default_rng(13)
    for _ in range(20):
        info = rng.integers(0, 2, rc.k_info, dtype=np.uint8)
        cw = rep_encode(rc, info)
        llr = (1.0 - 2.0 * cw) * 6.0
        hard, _post, _iters, converged = decode_bp_full(rc.base, rep_combine(rc, llr), max_iter=50)
        assert converged
        assert np.array_equal(hard[rc.base.info_positions], info)


# ------------------------------------------------------------- construction


def test_code_rejects_length_above_bound():
    # checked before the dense GF(2) matrices are allocated
    with pytest.raises(CodeConstructionError, match="MAX_CODE_LENGTH"):
        LdpcCode([(0, 0), (0, 1)], n_code=MAX_CODE_LENGTH + 1, n_checks=1)


def test_code_rejects_duplicate_entries():
    with pytest.raises(CodeConstructionError, match="duplicate"):
        LdpcCode([(0, 0), (0, 0), (0, 1)], n_code=3, n_checks=1)


@pytest.mark.parametrize(
    "h_sparse, n_code, n_checks, message",
    [
        ([], 3, 1, "non-empty"),
        (np.zeros((0, 2), dtype=np.int64), 3, 1, "non-empty"),
        ([(0, 0), (-1, 1)], 3, 1, "out of range"),
        ([(0, 0), (0, -1)], 3, 1, "out of range"),
        ([(0, 0), (0, 3)], 3, 1, "out of range"),
        ([(0, 0), (1, 1)], 3, 1, "row index exceeds n_checks"),
        ([(0, 0), (1, 1)], 2, 2, "leaves no information bits"),
    ],
)
def test_code_refuses_bad_matrix(h_sparse, n_code, n_checks, message):
    with pytest.raises(CodeConstructionError, match=message):
        LdpcCode(h_sparse, n_code, n_checks)


# Values that equal an integer, or read as one, without being a Python int
NOT_INTS = st.sampled_from([3.0, 96.0, True, False, "3", np.int64(3), np.int64(96), np.uint8(5), None])


@settings(max_examples=100, deadline=None)
@given(bad=st.dictionaries(st.integers(0, 3), NOT_INTS, min_size=1))
@example(bad={2: 3.0, 3: True})
@example(bad={0: np.int64(96)})
def test_random_regular_refuses_non_int_parameters(bad):
    # The four parameters are the origin that config_to_dict writes, so
    # each must be a Python int: a float or bool one would be refused when
    # the document is loaded, and a numpy one would not serialise to JSON.
    # They are refused before the first draw.
    params = [96, 6, 3, 5]
    for at, v in bad.items():
        params[at] = v
    with mock.patch.object(ldpc, "philox", side_effect=AssertionError("drew before refusing")):
        with pytest.raises(CodeConstructionError, match="must be integers"):
            LdpcCode.random_regular(*params)


@pytest.mark.parametrize("n_code, n_checks", [(4.0, 1), (np.int64(4), 1), (4, 1.0), (4, True), (4, None)])
def test_code_refuses_non_int_sizes(n_code, n_checks):
    with pytest.raises(CodeConstructionError, match="must be integers"):
        LdpcCode([(0, 0), (0, 1)], n_code, n_checks)


def test_random_regular_is_deterministic():
    a = LdpcCode.random_regular(96, 6, 3, seed=42)
    b = LdpcCode.random_regular(96, 6, 3, seed=42)
    c = LdpcCode.random_regular(96, 6, 3, seed=43)
    assert a.h_sparse == b.h_sparse
    assert a.fingerprint() == b.fingerprint()
    assert a.fingerprint() != c.fingerprint()


def test_random_regular_36_structure():
    code = LdpcCode.random_regular(96, 6, 3, seed=5)
    assert code.n_checks == 48
    assert code.k_info == 48
    er = np.array([r for r, _ in code.h_sparse])
    ec = np.array([c for _, c in code.h_sparse])
    assert er.size == 96 * 3
    assert np.all(np.bincount(er, minlength=48) == 6)
    assert np.all(np.bincount(ec, minlength=96) == 3)


def test_random_regular_even_col_degree_near_regular():
    # Even column degree forces a rank repair; row degrees stay exact,
    # column degrees may shift by a few.
    code = LdpcCode.random_regular(48, 6, 4, seed=1)
    assert code.n_checks == 32
    assert code.k_info == 16
    er = np.array([r for r, _ in code.h_sparse])
    ec = np.array([c for _, c in code.h_sparse])
    assert er.size == 48 * 4
    assert np.all(np.bincount(er, minlength=32) == 6)
    cdeg = np.bincount(ec, minlength=48)
    assert cdeg.sum() == 192
    assert np.max(np.abs(cdeg - 4)) <= 4


# Fingerprints of the desk outer base code, the desk inner code and a small
# code of column degree 2, frozen before all-even graphs skipped the build.
RANDOM_REGULAR_FINGERPRINTS = {
    (1008, 6, 4, 2): "879cb1d7bb4acd88904629da62ec33b7b7a952fd3028449469624e96a8f40fb9",
    (4032, 6, 3, 1): "86d3a6a634638837e2d5cc002d0cf59c24179cae8a8a8fc4010585c482f8a178",
    (48, 6, 2, 5): "444aa42ded8200712affcfec2d22d77085f20edf8c287a49340059183cd769f7",
}


@pytest.mark.parametrize("shape", sorted(RANDOM_REGULAR_FINGERPRINTS),
                         ids=lambda shape: "-".join(map(str, shape)))
def test_random_regular_fingerprint_frozen(shape):
    assert LdpcCode.random_regular(*shape).fingerprint() == RANDOM_REGULAR_FINGERPRINTS[shape]


# SHA-256 of the generator bytes, then the info positions as <i8, for the
# codes above; frozen before the strip-wise GF(2) elimination.
GENERATOR_DIGESTS = {
    (1008, 6, 4, 2): "95f994487a1411f84cb989540b619f9e0384cf08d8451c9c5aea3a289f8bd771",
    (4032, 6, 3, 1): "865f77eaa040e733a15a07483c43315845797d5187dcbc60196dbcc9498a3e17",
    (48, 6, 2, 5): "b16ed2eb440e87e7306d96e815b2ef4475fafa21044884f0c307868d2d7cc823",
}


@pytest.mark.parametrize("shape", sorted(GENERATOR_DIGESTS),
                         ids=lambda shape: "-".join(map(str, shape)))
def test_generator_digest_frozen(shape):
    code = LdpcCode.random_regular(*shape)
    g = g_dense(code)
    assert g.dtype == np.uint8
    assert g.shape == (code.k_info, code.n_code)
    h = hashlib.sha256(g.tobytes())
    h.update(np.asarray(code.info_positions, dtype="<i8").tobytes())
    assert h.hexdigest() == GENERATOR_DIGESTS[shape]


def test_load_config_peak_memory_is_bounded():
    # Building both desk codes holds the parity-check matrix, its reduced
    # form and the generator bit-packed, and unpacks the generator only in
    # row blocks of 2^18 bits. It peaks at 4.26 MiB on a warm process
    # (5.33 MiB with blocks of 2^20 bits), and at 5.6 MiB as the first
    # call of a fresh process, which also traces about 1.3 MiB of modules
    # numpy imports on first use; the former build through dense
    # (n_checks, n_code) byte matrices peaked at 20.7 MiB, and the
    # per-column elimination before it at 30.2 MiB (2-core Xeon host,
    # numpy 2.4).
    tracemalloc.start()
    try:
        load_config(DESK_CONFIG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10.0 * 2**20


def test_derive_generator_peak_memory_is_bounded(desk_codes):
    # The generator's unpacked row blocks, 2^18 bits and their transposed
    # pivot columns, stay below the packed matrices: on the desk inner
    # code a warm call peaks at 3.14 MiB, against 4.22 MiB with blocks of
    # 2^20 bits, whose temporaries also set the peak resident memory of
    # a whole CLI run's parent process.
    inner = desk_codes[0]
    h_sparse = inner.h_sparse
    derive_generator(h_sparse, inner.n_code, inner.k_info)
    tracemalloc.start()
    try:
        derive_generator(h_sparse, inner.n_code, inner.k_info)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.6 * 2**20


def test_random_regular_skips_all_even_graph(monkeypatch):
    # col_degree 4: the first graph has only even column degrees, so it is
    # redrawn without a generator derivation; the repaired graph is built once.
    calls = []

    def counted(*args, _real=ldpc.derive_generator):
        calls.append(args[1:])
        return _real(*args)

    monkeypatch.setattr(ldpc, "derive_generator", counted)
    LdpcCode.random_regular(1008, 6, 4, 2)
    assert calls == [(1008, 336)]


def test_random_regular_validation():
    with pytest.raises(CodeConstructionError):
        LdpcCode.random_regular(10, 6, 4, seed=0)  # 40 % 6 != 0
    with pytest.raises(CodeConstructionError):
        LdpcCode.random_regular(12, 3, 3, seed=0)  # m == n, no info bits
    for seed in (-1, 2**64, 1.5):  # outside the Philox key range, or not an integer
        with pytest.raises(CodeConstructionError, match="seed"):
            LdpcCode.random_regular(96, 6, 3, seed=seed)
    # every seed in range is its own key, beyond float64 precision too
    seeds = (2**53, 2**53 + 1, 2**64 - 2, 2**64 - 1)
    assert len({LdpcCode.random_regular(96, 6, 3, seed=s).fingerprint() for s in seeds}) == len(seeds)
    # sizes are checked before anything is allocated
    with pytest.raises(CodeConstructionError, match="MAX_CODE_LENGTH"):
        LdpcCode.random_regular(MAX_CODE_LENGTH + 6, 6, 3, seed=0)
    with pytest.raises(CodeConstructionError, match="MAX_EDGES"):
        LdpcCode.random_regular(MAX_CODE_LENGTH, MAX_CODE_LENGTH, MAX_CODE_LENGTH - 1, seed=0)


def test_random_regular_duplicate_repair_is_bounded(monkeypatch):
    # a graph whose duplicate edges never separate ends in an error, not a hang
    monkeypatch.setattr(ldpc, "_edge_order", lambda rows, cols, n_code: (np.arange(rows.size), np.array([0])))
    with pytest.raises(CodeConstructionError, match="could not separate duplicate edges"):
        LdpcCode.random_regular(96, 6, 3, seed=5)


def test_random_regular_rank_repair_is_bounded(monkeypatch):
    # a graph that never reaches full rank ends in an error after its redraws
    calls = []

    def refuse(*args):
        calls.append(args)
        raise CodeConstructionError("rank deficient")

    monkeypatch.setattr(ldpc, "derive_generator", refuse)
    with pytest.raises(CodeConstructionError, match="failed to reach full rank"):
        LdpcCode.random_regular(96, 6, 3, seed=5)
    assert 0 < len(calls) <= 60


# -------------------------------------------------------------------- alist


ALIST_HAMMING = """\
7 3
3 4
2 3 2 2 1 1 1
4 4 4
1 3
1 2 3
1 2
2 3
1
2
3
1 2 3 5
2 3 4 6
1 2 4 7
"""


def test_alist_roundtrip(tmp_path):
    p = tmp_path / "hamming.alist"
    p.write_text(ALIST_HAMMING)
    code = LdpcCode.from_alist(p)
    assert np.array_equal(h_dense(code), HAMMING_H)
    assert code.k_info == 4


def test_alist_zero_padding_tolerated(tmp_path):
    padded = ALIST_HAMMING.replace("1 3\n", "1 3 0\n").replace("1\n2\n3\n", "1 0 0\n2 0 0\n3 0 0\n")
    p = tmp_path / "padded.alist"
    p.write_text(padded)
    code = LdpcCode.from_alist(p)
    assert np.array_equal(h_dense(code), HAMMING_H)


def test_alist_without_row_lists(tmp_path):
    text = "\n".join(ALIST_HAMMING.splitlines()[:11]) + "\n"
    p = tmp_path / "cols_only.alist"
    p.write_text(text)
    code = LdpcCode.from_alist(p)
    assert np.array_equal(h_dense(code), HAMMING_H)


def test_alist_malformed(tmp_path):
    bad_degree = ALIST_HAMMING.replace("2 3 2 2 1 1 1", "2 3 2 2 1 1 2")
    p1 = tmp_path / "bad_degree.alist"
    p1.write_text(bad_degree)
    with pytest.raises(CodeConstructionError):
        LdpcCode.from_alist(p1)

    bad_index = ALIST_HAMMING.replace("1 2 3\n", "1 2 9\n")
    p2 = tmp_path / "bad_index.alist"
    p2.write_text(bad_index)
    with pytest.raises(CodeConstructionError):
        LdpcCode.from_alist(p2)

    p3 = tmp_path / "truncated.alist"
    p3.write_text("7 3\n3 4\n")
    with pytest.raises(CodeConstructionError):
        LdpcCode.from_alist(p3)

    mismatch = ALIST_HAMMING.replace("1 2 4 7", "1 2 4 6")
    p4 = tmp_path / "mismatch.alist"
    p4.write_text(mismatch)
    with pytest.raises(CodeConstructionError):
        LdpcCode.from_alist(p4)

    p5 = tmp_path / "non_integer.alist"
    p5.write_text("7 3\n3 x\n")
    with pytest.raises(CodeConstructionError, match="non-integer"):
        LdpcCode.from_alist(p5)

    # unreadable files are construction errors too
    p6 = tmp_path / "latin1.alist"
    p6.write_bytes(b"7 3\n\xe9\n")
    for p in (p6, tmp_path):
        with pytest.raises(CodeConstructionError, match="cannot read alist"):
            LdpcCode.from_alist(p)


def _hamming_alist_with(at, line):
    """ALIST_HAMMING with its line ``at`` replaced, or cut there if ``line`` is None."""
    lines = ALIST_HAMMING.splitlines()
    lines = lines[:at] if line is None else lines[:at] + [line] + lines[at + 1:]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize(
    "at, line, message",
    [
        (3, "4 4 4 0", "degree list lengths disagree"),
        (1, "2 4", "degree exceeds declared maximum"),
        (7, None, "column lists truncated"),
        (4, "1", "column 0 lists 1 rows, expected 2"),
        (11, "1 2 3 9", "row 0 column index 9 out of range"),
    ],
)
def test_alist_refusals(tmp_path, at, line, message):
    p = tmp_path / "bad.alist"
    p.write_text(_hamming_alist_with(at, line))
    with pytest.raises(CodeConstructionError, match=message):
        LdpcCode.from_alist(p)


def _hamming_cols_only_with_row_degrees(limits, degrees):
    """The column lists of ALIST_HAMMING under a header that declares other row degrees."""
    lines = ALIST_HAMMING.splitlines()[:11]
    lines[1], lines[3] = limits, degrees
    return "\n".join(lines) + "\n"


# alist documents that name a matrix their own lines contradict, and the refusal of each
ALIST_CONTRADICTIONS = {
    "row-list-dropped": (_hamming_alist_with(13, None), "row lists truncated"),
    "lines-after-rows": (ALIST_HAMMING + "1 2 3\n4 5\n", "lines after its row lists"),
    "header-row-degrees": (_hamming_cols_only_with_row_degrees("3 5", "3 4 5"), "row degrees disagree"),
}


@pytest.mark.parametrize("case", ALIST_CONTRADICTIONS)
def test_alist_refuses_what_its_lines_contradict(tmp_path, case):
    # each reads as a code if the reader checks only part of what it reads
    text, message = ALIST_CONTRADICTIONS[case]
    p = tmp_path / "bad.alist"
    p.write_text(text)
    with pytest.raises(CodeConstructionError, match=message):
        LdpcCode.from_alist(p)


def test_alist_blank_lines_between_sections(tmp_path):
    # blank lines before the column lists and before the row lists are skipped
    lines = ALIST_HAMMING.splitlines()
    spaced = lines[:4] + ["", ""] + lines[4:11] + [""] + lines[11:]
    p = tmp_path / "spaced.alist"
    p.write_text("\n".join(spaced) + "\n")
    plain = tmp_path / "plain.alist"
    plain.write_text(ALIST_HAMMING)
    assert LdpcCode.from_alist(p).fingerprint() == LdpcCode.from_alist(plain).fingerprint()
    # the row lists past the blank line are read: a wrong one is refused
    p.write_text("\n".join(spaced[:-1] + ["1 2 4 6"]) + "\n")
    with pytest.raises(CodeConstructionError, match="row lists disagree"):
        LdpcCode.from_alist(p)


@st.composite
def codes_with_empty_column(draw):
    """An irregular code with an all-zero column inserted: an unpadded
    alist writes that column's row list as a blank line."""
    h = h_dense(draw(irregular_codes()))
    j = draw(st.integers(0, h.shape[1]))
    return from_dense(np.insert(h, j, 0, axis=1))


# column 2 is unchecked
EMPTY_COLUMN_CODE = from_dense(np.array([[1, 1, 0, 1, 0], [0, 1, 0, 0, 1]], dtype=np.uint8))


@settings(max_examples=90, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    code=st.one_of(SMALL_REGULAR, irregular_codes(), codes_with_empty_column()),
    row_lists=st.booleans(),
    pad=st.booleans(),
)
@example(code=EMPTY_COLUMN_CODE, row_lists=True, pad=False)
@example(code=EMPTY_COLUMN_CODE, row_lists=False, pad=False)
@example(code=EMPTY_COLUMN_CODE, row_lists=False, pad=True)
def test_alist_write_read_roundtrip(tmp_path, code, row_lists, pad):
    # Irregular codes have rows of unequal degree, so padding reaches the
    # row lists too; a degree-0 column's list is all zeros when padded and
    # a blank line when not. tmp_path is shared by the examples; each
    # rewrites the one file.
    p = tmp_path / "code.alist"
    p.write_text(alist_text(code, row_lists=row_lists, pad=pad))
    again = LdpcCode.from_alist(p)
    assert again.h_sparse == code.h_sparse
    assert again.fingerprint() == code.fingerprint()


def test_codewords_cover_null_space():
    # The 16 generator combinations are exactly the codewords with zero
    # syndrome among all 128 vectors.
    code = hamming_code()
    cws = {tuple(cw) for _info, cw in all_codewords(g_dense(code))}
    assert len(cws) == 16
    count = 0
    for x in range(128):
        v = np.array([(x >> i) & 1 for i in range(7)], dtype=np.uint8)
        if not syndrome_int(HAMMING_H, v).any():
            count += 1
            assert tuple(v) in cws
    assert count == 16
