"""``capacity._brentq`` against SciPy's ``brentq`` as an oracle: the same
root (``==``) and the same number of function evaluations, or the same
error after the same evaluations, on MI curves, drawn monotone functions,
flat stretches, exact zeros and the wrapper's checks. Then the bracket
that ``esn0_at_mi`` widens for targets below MI at -40 dB."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from dmmsim import capacity
from dmmsim.capacity import _brentq, esn0_at_mi, mi_bpsk, mi_qpsk


def outcome(solver, f, a, b, **kwargs):
    """(root or error type, evaluations) of one solver run."""
    evals = []

    def counted(x):
        evals.append(x)
        return f(x)

    try:
        result = solver(counted, a, b, **kwargs)
    except (ValueError, RuntimeError) as exc:
        result = type(exc)
    return result, evals


def assert_same(f, a, b, **kwargs):
    got, got_evals = outcome(_brentq, f, a, b, **kwargs)
    want, want_evals = outcome(brentq, f, a, b, **kwargs)
    assert got == want
    assert got_evals == want_evals
    return got_evals


MI_CURVES = {"bpsk": (mi_bpsk, 1.0), "qpsk": (mi_qpsk, 2.0)}


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
@pytest.mark.parametrize("fraction", np.linspace(0.0, 1.0, 42)[1:-1].tolist())
def test_mi_roots_match_scipy(modulation, fraction):
    fn, top = MI_CURVES[modulation]
    target = fraction * top
    assert_same(lambda s: fn(s).mi_bits - target, -40.0, 40.0, xtol=1e-9)
    assert esn0_at_mi(target, modulation) == brentq(lambda s: fn(s).mi_bits - target, -40.0, 40.0, xtol=1e-9)


@pytest.mark.parametrize("target", [0.999999, 1.0 - 1e-15])
def test_mi_root_on_a_flat_stretch_matches_scipy(target):
    # from its noiseless threshold, about 117 dB, BPSK MI is clamped at 1
    # bit, so evaluations there repeat one value
    evals = assert_same(lambda s: mi_bpsk(s).mi_bits - target, -40.0, 400.0, xtol=1e-9)
    assert [mi_bpsk(s).mi_bits for s in evals].count(1.0) > 1


def monotone(kind, c, scale):
    if kind == "cubic":
        return lambda x: scale * (x - c) ** 3
    if kind == "tanh":
        return lambda x: math.tanh(scale * (x - c))
    if kind == "expm1":
        return lambda x: math.expm1(min(scale * (x - c), 700.0))
    if kind == "clamp":  # flat at both ends
        return lambda x: scale * min(max(x - c, -0.5), 0.5)
    return lambda x: math.floor(scale * (x - c)) + 0.5  # "stairs": flat with jumps, no zero


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from(["cubic", "tanh", "expm1", "clamp", "stairs"]),
    c=st.floats(-5.0, 5.0),
    log_scale=st.floats(-3.0, 3.0),
    log_amplitude=st.floats(-300.0, 0.0),
    log_xtol=st.floats(-14.0, -1.0),
    a=st.floats(-10.0, -5.5),
    b=st.floats(5.5, 10.0),
)
def test_monotone_functions_match_scipy(kind, c, log_scale, log_amplitude, log_xtol, a, b):
    g = monotone(kind, c, 10.0**log_scale)
    amplitude = 10.0**log_amplitude
    assert_same(lambda x: amplitude * g(x), a, b, xtol=10.0**log_xtol)


@pytest.mark.parametrize("kind", ["clamp", "stairs"])
@pytest.mark.parametrize("c", [-4.0, -1.3, 0.7, 2.2, 3.9])
def test_flat_stretches_match_scipy(kind, c):
    evals = assert_same(monotone(kind, c, 1.0), -10.0, 10.0, xtol=1e-12)
    f = monotone(kind, c, 1.0)
    values = [f(x) for x in evals]
    assert len(set(values)) < len(values)  # a value repeats


@pytest.mark.parametrize("kind", ["cubic", "tanh", "clamp"])
@pytest.mark.parametrize("amplitude", [1e-150, 1e-200, 1e-300])
def test_underflowing_steps_bisect_like_scipy(kind, amplitude):
    # With values this small the extrapolation's slopes or their product
    # underflow to 0 and its step divides by zero: C gets inf or NaN,
    # which fails the step test, and the port catches the
    # ZeroDivisionError and bisects the same way. (Exact ties cannot
    # reach a denominator: the step test needs |f(cur)| < |f(pre)|.)
    g = monotone(kind, 0.3, 1.0)
    assert_same(lambda x: amplitude * g(x), -10.0, 10.0, xtol=1e-12)


def test_exact_zero_at_either_end_matches_scipy():
    assert assert_same(lambda x: x, 0.0, 1.0, xtol=1e-12) == [0.0, 1.0]
    assert assert_same(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == [0.0, 1.0]
    assert _brentq(lambda x: x - 1.0, 0.0, 1.0, xtol=1e-12) == 1.0


def test_negative_zero_matches_scipy():
    # -0.0 is a zero, at either end and inside the bracket
    assert assert_same(lambda x: -0.0 if x == -1.0 else x, -1.0, 2.0, xtol=1e-12) == [-1.0, 2.0]
    assert assert_same(lambda x: -0.0 if x == 2.0 else x, -1.0, 2.0, xtol=1e-12) == [-1.0, 2.0]
    assert_same(lambda x: -0.0 if abs(x) < 0.25 else x, -1.0, 3.0, xtol=1e-12)


def test_nan_value_raises_like_scipy():
    assert_same(lambda x: math.nan if x > 0.5 else x, -1.0, 2.0, xtol=1e-12)
    assert_same(lambda x: math.nan if 0.2 < x < 0.8 else x - 0.5, 0.0, 2.0, xtol=1e-12)
    with pytest.raises(ValueError, match="NaN"):
        _brentq(lambda x: math.nan, -1.0, 2.0, xtol=1e-12)


def test_same_sign_bracket_raises_like_scipy():
    assert assert_same(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12) == [-1.0, 2.0]
    assert assert_same(lambda x: -1.0 - x * x, -1.0, 2.0, xtol=1e-12) == [-1.0, 2.0]
    with pytest.raises(ValueError, match="different signs"):
        _brentq(lambda x: x * x + 1.0, -1.0, 2.0, xtol=1e-12)


def test_wrapper_checks_and_nonconvergence_match_scipy():
    for xtol in (0.0, -1e-9):
        assert_same(lambda x: x, -1.0, 2.0, xtol=xtol)
    assert_same(lambda x: x, -1.0, 2.0, xtol=1e-12, rtol=1e-16)
    for maxiter in (0, 1, 3):
        assert_same(lambda x: x**3 - 0.1, -1.0, 2.0, xtol=1e-12, maxiter=maxiter)
    with pytest.raises(RuntimeError, match="converge"):
        _brentq(lambda x: x**3 - 0.1, -1.0, 2.0, xtol=1e-12, maxiter=3)


# Below MI at -40 dB (1.44e-4 bits BPSK, 2.9e-4 QPSK) the lower end of
# the bracket moves down; xtol 1e-9 dB holds MI to about 2.3e-10 of the
# target, since MI is proportional to Es/N0 there.
@pytest.mark.parametrize("target", [1e-5, 1e-12, 1e-200])
@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_low_targets_are_reached(modulation, target):
    fn, _top = MI_CURVES[modulation]
    root = esn0_at_mi(target, modulation)
    assert root < -40.0
    assert abs(fn(root).mi_bits - target) <= 1e-9 * target


@pytest.mark.parametrize("modulation", ["bpsk", "qpsk"])
def test_low_target_root_matches_scipy_on_the_widened_bracket(modulation, monkeypatch):
    fn, _top = MI_CURVES[modulation]
    calls = []

    def counted(esn0_db, _real=fn):
        calls.append(esn0_db)
        return _real(esn0_db)

    monkeypatch.setattr(capacity, f"mi_{modulation}", counted)
    root = esn0_at_mi(1e-12, modulation)
    ref_evals = []

    def ref(esn0_db):
        ref_evals.append(esn0_db)
        return fn(esn0_db).mi_bits - 1e-12

    # MI reads 1.4e-8 bits at -80 dB and 1.4e-16 at -160 dB, so the search
    # runs on [-160, -80]; its ends are not evaluated a second time
    assert root == brentq(ref, -160.0, -80.0, xtol=1e-9)
    assert calls == [-40.0, 40.0, -80.0, -160.0, *ref_evals[2:]]


@pytest.mark.parametrize("modulation, smallest", [("bpsk", "1e-300"), ("qpsk", "2e-300")])
def test_targets_below_the_floor_name_the_smallest(modulation, smallest):
    with pytest.raises(ValueError, match=f"below {smallest} bits"):
        esn0_at_mi(0.5e-300, modulation)
    esn0_at_mi(float(smallest) * 1.01, modulation)


def test_bracket_roots_take_no_extra_evaluations(monkeypatch):
    calls = []

    def counted(esn0_db, _real=capacity.mi_bpsk):
        calls.append(esn0_db)
        return _real(esn0_db)

    monkeypatch.setattr(capacity, "mi_bpsk", counted)
    esn0_at_mi(0.5, "bpsk")
    _root, ref_evals = outcome(brentq, lambda s: mi_bpsk(s).mi_bits - 0.5, -40.0, 40.0, xtol=1e-9)
    assert calls == ref_evals
