"""The config layer: one table states the config-file layout of every
scalar field, and the frame floor guards every Es/N0 a frame runs at."""

import json
import math
import re
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from dmmsim.config import (
    _FIELD_RULES,
    FRAME_ESN0_MIN_DB,
    MAX_FRAMES,
    ConfigError,
    SystemConfig,
    config_to_dict,
    load_config,
)
from dmmsim.ldpc import LdpcCode, RepetitionCode
from dmmsim.simkit import run_baseline_frame, run_frame
from test_simkit import small_config

# the SystemConfig fields that a config file holds as entries of their own
NOT_SCALAR = ("inner", "outer", "esn0_grid_db")


def test_every_scalar_field_has_one_rule():
    rules = sorted(name for name, *_ in _FIELD_RULES)
    assert rules == sorted(f.name for f in fields(SystemConfig) if f.name not in NOT_SCALAR)
    labels = [label for _name, label, *_ in _FIELD_RULES]
    assert len(set(labels)) == len(labels)


CODES = {
    "inner_code": {"n": 96, "row_degree": 6, "col_degree": 3, "seed": 5},
    "outer_code": {"base": {"n": 24, "row_degree": 6, "col_degree": 4, "seed": 8}, "rep_factor": 4},
}

COUNTS = st.integers(1, 2**64)
# in-range values of each scalar field, by field name
IN_RANGE = {
    "max_iter": COUNTS,
    "min_frame_errors": COUNTS,
    "max_frames": st.integers(1, MAX_FRAMES),
    "batch_frames": COUNTS,
    "seed": st.integers(0, 2**64 - 1),
}
# Es/N0 values above the frame floor
GRIDS = st.lists(st.one_of(st.floats(-30.0, 30.0), st.just(math.inf)), min_size=1, max_size=4)


def entry(doc, label):
    """The object of a document that holds the key at ``label``, and that key."""
    *parents, key = label.split(".")
    for p in parents:
        doc = doc.setdefault(p, {})
    return doc, key


@st.composite
def valid_documents(draw):
    """The two codes, a grid and any subset of the table's keys, each at an in-range value."""
    doc = {**json.loads(json.dumps(CODES)), "esn0_grid_db": draw(GRIDS)}
    for name, label, *_ in draw(st.lists(st.sampled_from(_FIELD_RULES), unique=True)):
        obj, key = entry(doc, label)
        obj[key] = draw(IN_RANGE[name])
    return doc


@settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=valid_documents())
def test_config_to_dict_inverts_load_config(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    want = json.loads(json.dumps(doc))
    defaults = {f.name: f.default for f in fields(SystemConfig)}
    for name, label, *_ in _FIELD_RULES:
        obj, key = entry(want, label)
        obj.setdefault(key, defaults[name])
    assert config_to_dict(load_config(path)) == want


@st.composite
def code_arguments(draw):
    """(inner, outer base, rep_factor) arguments of the two codes of
    CODES, with none, one or two of the nine replaced by a value that
    reads as the same integer but is not a Python int."""
    args = [*CODES["inner_code"].values(), *CODES["outer_code"]["base"].values(), CODES["outer_code"]["rep_factor"]]
    for at in draw(st.sets(st.integers(0, len(args) - 1), max_size=2)):
        args[at] = draw(st.sampled_from([float(args[at]), np.int64(args[at]), str(args[at]), True]))
    return args[:4], args[4:8], args[8]


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(code=code_arguments(), grid=GRIDS, scalar=st.fixed_dictionaries(IN_RANGE))
@example(code=((96, 6, 3.0, True), (24, 6, 4, 8), 4), grid=[0.0], scalar={})
@example(code=((np.int64(96), 6, 3, 5), (24, 6, 4, 8), 4), grid=[0.0], scalar={})
def test_code_built_config_reloads(tmp_path, code, grid, scalar):
    # a config built in code is refused if a code argument is not a Python
    # int, and otherwise its document loads back to it
    inner, base, rep = code
    ints = all(type(v) is int for v in (*inner, *base, rep))
    try:
        cfg = SystemConfig(
            inner=LdpcCode.random_regular(*inner),
            outer=RepetitionCode(LdpcCode.random_regular(*base), rep),
            esn0_grid_db=tuple(grid),
            **scalar,
        )
    except ValueError:  # CodeConstructionError, or RepetitionCode's refusal
        assert not ints
        return
    assert ints
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config_to_dict(cfg)))
    back = load_config(path)
    assert config_to_dict(back) == config_to_dict(cfg)
    assert back.inner.fingerprint() == cfg.inner.fingerprint()
    assert back.outer.base.fingerprint() == cfg.outer.base.fingerprint()


@pytest.mark.parametrize("esn0_db", [-3100.0, -1e300, -3080.0])
def test_infinite_noise_power_rejected(esn0_db):
    # -3080 dB has a finite noise power, but the outer demapper's squares overflow there
    with pytest.raises(ConfigError, match=r"esn0_grid_db entry .* is below the frame floor"):
        small_config(esn0_grid_db=(0.0, esn0_db))
    cfg = small_config()
    for run in (run_frame, run_baseline_frame):
        with pytest.raises(ConfigError, match=r"esn0_db .* is below the frame floor"):
            run(cfg, 0, esn0_db=esn0_db)


def test_eta_total():
    # the information bits per symbol of the two streams: R1 + R2
    assert small_config().eta == pytest.approx(7 / 12)
    third = small_config(inner=LdpcCode.random_regular(96, 3, 2, seed=5))
    assert third.r1 == pytest.approx(1 / 3) and third.eta == pytest.approx(5 / 12)
    # a rate no desk-sized code reaches, through the property itself
    assert SystemConfig.eta.fget(SimpleNamespace(r1=0.4, r2=1e-9)) == pytest.approx(0.4, abs=1e-8)


# SystemConfig fields it cannot run: (field, its value from a valid config, the refusal)
UNRUNNABLE = {
    "inner-is-repetition": ("inner", lambda cfg: cfg.outer, "inner must be LdpcCode, got RepetitionCode"),
    "outer-is-ldpc": ("outer", lambda cfg: cfg.inner, "outer must be RepetitionCode, got LdpcCode"),
    "grid-is-a-number": ("esn0_grid_db", lambda cfg: 3, "esn0_grid_db must be a list or tuple, got int"),
    "grid-is-a-dict": ("esn0_grid_db", lambda cfg: {0.5: "x"}, "list or tuple, got dict"),
    "grid-is-a-1-array": ("esn0_grid_db", lambda cfg: np.array([0.0]), "list or tuple, got ndarray"),
    "grid-is-a-2-array": ("esn0_grid_db", lambda cfg: np.array([0.0, 1.0]), "list or tuple, got ndarray"),
}


@pytest.mark.parametrize("case", UNRUNNABLE)
def test_system_config_refuses_what_it_cannot_run(case):
    # each once built and failed at the first frame, raised a TypeError or
    # numpy's ValueError, or was read as another grid
    field, value, message = UNRUNNABLE[case]
    with pytest.raises(ConfigError, match=message):
        small_config(**{field: value(small_config())})


# documents refused by a rule that needs no code: (the entries that differ from a valid one, the refusal)
BAD_DOCUMENTS = {
    "grid-is-an-object": ({"esn0_grid_db": {"0.5": "x"}}, "esn0_grid_db must be a list or tuple, got dict"),
    "max-iter-0": ({"max_iter": 0}, "max_iter must be an integer >= 1"),
    "max-frames-0": ({"stop": {"max_frames": 0}}, "stop.max_frames must be an integer in"),
    "seed-below-0": ({"seed": -1}, "seed must be an integer in"),
    "unknown-stop-key": ({"stop": {"frames": 8}}, "unknown stop fields: ['frames']"),
    # a valid inner entry beside a malformed outer base: neither code is built
    "outer-base-missing-fields": (
        {"outer_code": {"base": {"n": 1008}, "rep_factor": 4}},
        "missing outer_code.base fields: ['col_degree', 'row_degree', 'seed']",
    ),
    "unknown-inner-key": ({"inner_code": {**CODES["inner_code"], "girth": 6}}, "unknown inner_code fields: ['girth']"),
    "inner-n-string": ({"inner_code": {**CODES["inner_code"], "n": "96"}}, "inner_code.n must be a non-negative integer"),
    "outer-base-alist-not-string": (
        {"outer_code": {"base": {"alist": 5}, "rep_factor": 4}},
        "outer_code.base.alist must be a path string",
    ),
    "outer-base-not-object": ({"outer_code": {"base": [24], "rep_factor": 4}}, "outer_code.base must be an object"),
}


@pytest.mark.parametrize("case", BAD_DOCUMENTS)
def test_bad_document_refused_before_any_code_is_built(tmp_path, no_code_construction, case):
    changes, message = BAD_DOCUMENTS[case]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**CODES, "esn0_grid_db": [0.0], **changes}))
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_config(path)


def test_frames_run_at_the_floor():
    # warnings are errors, so an overflow in the demappers fails this
    cfg = small_config(esn0_grid_db=(FRAME_ESN0_MIN_DB,))
    for fi in range(4):
        assert run_frame(cfg, fi, FRAME_ESN0_MIN_DB).esn0_db == FRAME_ESN0_MIN_DB
        run_baseline_frame(cfg, fi, FRAME_ESN0_MIN_DB)


def test_integer_beyond_float_range_rejected():
    # such an integer has no float value; it is refused, not an OverflowError
    with pytest.raises(ConfigError, match="esn0_grid_db entry"):
        small_config(esn0_grid_db=(-(10**400),))


def test_max_frames_bounded_at_load(tmp_path):
    # a point of more than 2**61 frames would run frame index 2**61, whose
    # inner-bit stream is the code-construction stream; it is refused when
    # the config loads, not in the middle of a sweep
    path = tmp_path / "cfg.json"
    for max_frames, ok in ((MAX_FRAMES, True), (MAX_FRAMES + 1, False), (2**64, False)):
        path.write_text(json.dumps({**CODES, "esn0_grid_db": [0.0], "stop": {"max_frames": max_frames}}))
        if ok:
            assert load_config(path).max_frames == MAX_FRAMES
        else:
            with pytest.raises(ConfigError, match=r"stop\.max_frames must be an integer in \[1, 2\*\*61\]"):
                load_config(path)
    with pytest.raises(ConfigError, match="stop.max_frames"):
        small_config(max_frames=MAX_FRAMES + 1)
