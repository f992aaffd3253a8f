from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from dmmsim.simkit import load_config
from oracles import (
    HAMMING_H,
    TREE_H,
    all_codewords,
    bpsk_llr_density,
    decode_bp_reference,
    exact_bit_posteriors,
    gaussian_logpdf,
    ml_codeword,
    syndrome_int,
)


def hamming_code():
    return LdpcCode.from_dense(HAMMING_H)


def tree_code():
    return LdpcCode.from_dense(TREE_H)


# ---------------------------------------------------------------- generator


def test_generator_trivial_rate_half_paired_columns():
    # Each parity bit equals one info bit: H = [I | I].
    edges = [(i, i) for i in range(3)] + [(i, i + 3) for i in range(3)]
    g, info_pos = derive_generator(edges, 6, 3)
    assert np.array_equal(info_pos, [3, 4, 5])
    for j, row in enumerate(g):
        assert sorted(np.nonzero(row)[0].tolist()) == [j, j + 3]


def test_generator_hamming_rows_in_null_space():
    g, info_pos = derive_generator(
        list(zip(*np.nonzero(HAMMING_H))), 7, 4
    )
    assert g.shape == (4, 7)
    assert len(info_pos) == 4
    for row in g:
        assert not syndrome_int(HAMMING_H, row).any()


def test_generator_rank_deficient_raises():
    # rows 0 and 1 duplicated: rank 2 < 3 = n - k
    edges = [(0, 0), (0, 2), (1, 0), (1, 2), (2, 1), (2, 2), (2, 3)]
    with pytest.raises(CodeConstructionError, match="rank"):
        derive_generator(edges, 4, 1)


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
        assert np.array_equal(encode(code, info), code.g_dense[k])


def test_encode_hamming_info_1011_zero_syndrome():
    code = hamming_code()
    cw = encode(code, [1, 0, 1, 1])
    assert np.array_equal(syndrome_int(HAMMING_H, cw), [0, 0, 0])
    assert np.array_equal(code.syndrome(cw), [0, 0, 0])


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
        H = code.h_dense()
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
    H = code.h_dense()
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
    assert not ml_codeword(code.g_dense, llr).any()  # oracle: all-zero is ML
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
        ml = ml_codeword(code.g_dense, llr)
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
        p1_exact = exact_bit_posteriors(code.g_dense, llr)
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
    with pytest.raises(ValueError):
        decode_bp_full(code, np.zeros(7), max_iter=0)
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
    return LdpcCode.from_dense(np.hstack([a, np.eye(m, dtype=np.uint8)])[:, perm])


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
    assert np.array_equal(code.syndrome(bits), syndrome_int(code.h_dense(), bits))


def test_decode_matches_reference_kernel_on_degree_one_checks():
    code = LdpcCode.from_dense([[1, 0, 0], [0, 0, 1]])  # one slot per check
    for llr in ([1.0, -2.0, 3.0], [-1.0, 0.0, -40.0]):
        for early_exit in (True, False):
            assert_same_decode(code, np.array(llr), 5, early_exit)


@pytest.fixture(scope="module")
def desk_codes():
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs" / "desk_scale.json")
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
        LdpcCode([(0, 0), (0, 1)], n_code=MAX_CODE_LENGTH + 1)


def test_code_rejects_duplicate_entries():
    with pytest.raises(CodeConstructionError, match="duplicate"):
        LdpcCode([(0, 0), (0, 0), (0, 1)], n_code=3, n_checks=1)


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


def test_random_regular_validation():
    with pytest.raises(CodeConstructionError):
        LdpcCode.random_regular(10, 6, 4, seed=0)  # 40 % 6 != 0
    with pytest.raises(CodeConstructionError):
        LdpcCode.random_regular(12, 3, 3, seed=0)  # m == n, no info bits
    for seed in (-1, 2**64):  # outside the Philox key range
        with pytest.raises(CodeConstructionError, match="seed"):
            LdpcCode.random_regular(96, 6, 3, seed=seed)
    # sizes are checked before anything is allocated
    with pytest.raises(CodeConstructionError, match="MAX_CODE_LENGTH"):
        LdpcCode.random_regular(MAX_CODE_LENGTH + 6, 6, 3, seed=0)
    with pytest.raises(CodeConstructionError, match="MAX_EDGES"):
        LdpcCode.random_regular(MAX_CODE_LENGTH, MAX_CODE_LENGTH, MAX_CODE_LENGTH - 1, seed=0)


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
    assert np.array_equal(code.h_dense(), HAMMING_H)
    assert code.k_info == 4


def test_alist_zero_padding_tolerated(tmp_path):
    padded = ALIST_HAMMING.replace("1 3\n", "1 3 0\n").replace("1\n2\n3\n", "1 0 0\n2 0 0\n3 0 0\n")
    p = tmp_path / "padded.alist"
    p.write_text(padded)
    code = LdpcCode.from_alist(p)
    assert np.array_equal(code.h_dense(), HAMMING_H)


def test_alist_without_row_lists(tmp_path):
    text = "\n".join(ALIST_HAMMING.splitlines()[:11]) + "\n"
    p = tmp_path / "cols_only.alist"
    p.write_text(text)
    code = LdpcCode.from_alist(p)
    assert np.array_equal(code.h_dense(), HAMMING_H)


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


def test_codewords_cover_null_space():
    # The 16 generator combinations are exactly the codewords with zero
    # syndrome among all 128 vectors.
    code = hamming_code()
    cws = {tuple(cw) for _info, cw in all_codewords(code.g_dense)}
    assert len(cws) == 16
    count = 0
    for x in range(128):
        v = np.array([(x >> i) & 1 for i in range(7)], dtype=np.uint8)
        if not syndrome_int(HAMMING_H, v).any():
            count += 1
            assert tuple(v) in cws
    assert count == 16
