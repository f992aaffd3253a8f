"""Experiment configuration: SystemConfig, load_config and config_to_dict.

Each scalar field is one row of _FIELD_RULES: its key path in a config
file and its rule. load_config, config_to_dict and SystemConfig read both
from that table, so a config built in code meets the rules of a file."""

import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from .ldpc import CodeConstructionError, LdpcCode, RepetitionCode, _is_int


class ConfigError(ValueError):
    """A configuration document or SystemConfig field is invalid."""


# Largest number of points an Es/N0 grid may hold, from a config file or a --grid.
MAX_GRID_POINTS = 10_000


def _is_real(v):
    # an integer beyond the float range has no float value
    return isinstance(v, float) or _is_int(v) and abs(v) <= sys.float_info.max


# Lowest Es/N0 (dB) of a frame, about -3058.5 dB. The outer demapper sums
# two squared distances, each at most (2 + |z| sigma)^2 for a per-dimension
# noise deviation sigma and a normal draw z. numpy's ziggurat never draws
# |z| above 14, so with a margin to 16 sigma each square stays below half
# the largest float while the total noise power 2 sigma^2 <= max / 16^2.
FRAME_ESN0_MIN_DB = -10.0 * math.log10(sys.float_info.max / 16.0**2)


def _check_esn0(v, label, frame=False):
    """An Es/N0 in dB as a float: a real number, not NaN and not -inf
    (+inf is the noiseless limit). The Es/N0 of a frame must also be at
    least FRAME_ESN0_MIN_DB, where the demapper's arithmetic stays finite."""
    if not _is_real(v) or math.isnan(v) or v == -math.inf:
        raise ConfigError(f"{label} {v!r} must be a number, not NaN or -inf")
    if frame and v < FRAME_ESN0_MIN_DB:
        raise ConfigError(
            f"{label} {v!r} is below the frame floor of {FRAME_ESN0_MIN_DB:.1f} dB, "
            "where the demapper's squared distances can overflow"
        )
    return float(v)


def check_workers(workers):
    """Reject a worker count outside [1, os.cpu_count()]."""
    cores = os.cpu_count() or 1
    if not (_is_int(workers) and 1 <= workers <= cores):
        raise ConfigError(f"workers must be an integer in [1, {cores}], got {workers!r}")


_COUNT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1)

# Most frames a point may run: frame indices then stay below 2**61, so
# their Philox stream ids stay below the code-construction stream 2**63.
MAX_FRAMES = 2**61

# (field, its key path in a config file, requirement, test) for each scalar field
_FIELD_RULES = (
    ("max_iter", "max_iter", *_COUNT),
    ("min_frame_errors", "stop.min_frame_errors", *_COUNT),
    ("max_frames", "stop.max_frames", "an integer in [1, 2**61]",
     lambda v: _is_int(v) and 1 <= v <= MAX_FRAMES),
    ("batch_frames", "batch_frames", *_COUNT),
    ("seed", "seed", "an integer in [0, 2**64)", lambda v: _is_int(v) and 0 <= v < 2**64),
)


def _layout():
    """{object: {key: field}} of the scalar fields in a config file, the root object being ""."""
    layout = {}
    for name, label, *_ in _FIELD_RULES:
        section, _, key = label.rpartition(".")
        layout.setdefault(section, {})[key] = name
    return layout


_LAYOUT = _layout()
# the entries of a config file that are not scalar fields; each is required
_REQUIRED = ("inner_code", "outer_code", "esn0_grid_db")
# every key of a config file's root object
_ROOT_KEYS = {*_REQUIRED, *(label.partition(".")[0] for _name, label, *_ in _FIELD_RULES)}


@dataclass(frozen=True)
class SystemConfig:
    """Full experiment description; immutable and shareable across workers.
    Every field is checked here; errors name it as a config file does."""

    inner: LdpcCode
    outer: RepetitionCode
    esn0_grid_db: tuple
    max_iter: int = 50
    min_frame_errors: int = 50
    max_frames: int = 1_000_000
    seed: int = 0
    batch_frames: int = 256

    def __post_init__(self):
        for name, kind in (("inner", LdpcCode), ("outer", RepetitionCode)):
            code = getattr(self, name)
            _expect(isinstance(code, kind), f"{name} must be {kind.__name__}, got {type(code).__name__}")
        if self.inner.n_code != self.outer.n_code:
            raise ConfigError(
                f"inner code length {self.inner.n_code} != outer encoded length "
                f"{self.outer.n_code}; one bit of each stream rides on every symbol"
            )
        scalars = {name: getattr(self, name) for name, *_ in _FIELD_RULES}
        checked = check_fields(esn0_grid_db=self.esn0_grid_db, **scalars)
        object.__setattr__(self, "esn0_grid_db", checked["esn0_grid_db"])

    @property
    def r1(self):
        return self.inner.rate

    @property
    def r2(self):
        return self.outer.rate

    @property
    def eta(self):
        return self.r1 + self.r2


def check_fields(**fields):
    """The SystemConfig fields given, checked by the rules of SystemConfig
    before any code is built: each scalar by its row of _FIELD_RULES, the
    grid as a list or tuple of frame Es/N0 values, returned as floats."""
    for name, label, requirement, ok in _FIELD_RULES:
        if name in fields and not ok(fields[name]):
            raise ConfigError(f"{label} must be {requirement}")
    if "esn0_grid_db" in fields:
        grid = fields["esn0_grid_db"]
        _expect(isinstance(grid, (list, tuple)), f"esn0_grid_db must be a list or tuple, got {type(grid).__name__}")
        _expect(grid, "esn0_grid_db must be non-empty")
        _expect(len(grid) <= MAX_GRID_POINTS, f"esn0_grid_db has {len(grid)} points, more than {MAX_GRID_POINTS}")
        fields["esn0_grid_db"] = tuple(_check_esn0(v, "esn0_grid_db entry", frame=True) for v in grid)
    return fields


def _expect(cond, msg):
    if not cond:
        raise ConfigError(msg)


def _object(obj, where, allowed, required=()):
    """obj, once it is an object holding no key outside ``allowed`` and
    every key of ``required``."""
    _expect(isinstance(obj, dict), f"{where} must be an object")
    _expect(not (extra := set(obj) - set(allowed)), f"unknown {where} fields: {sorted(extra)}")
    _expect(not (missing := set(required) - set(obj)), f"missing {where} fields: {sorted(missing)}")
    return obj


# the keys of a code entry for the seeded regular construction, in its argument order
_REGULAR_KEYS = ("n", "row_degree", "col_degree", "seed")


def _check_code(entry, where):
    """Refuse a code entry that no constructor could take: it holds an
    alist path string, or the four non-negative integers of the seeded
    regular construction, and nothing else."""
    alist = isinstance(entry, dict) and "alist" in entry
    keys = ("alist",) if alist else _REGULAR_KEYS
    _object(entry, where, keys, keys)
    if alist:
        _expect(isinstance(entry["alist"], str), f"{where}.alist must be a path string")
    else:
        for k in keys:
            _expect(_is_int(entry[k]) and entry[k] >= 0, f"{where}.{k} must be a non-negative integer")


def _build_code(entry, base_dir, where):
    """The LdpcCode of a code entry that _check_code passed: an alist
    file, its path relative to the config file's directory, or the
    seeded regular construction."""
    try:
        if "alist" in entry:
            where += ".alist"
            return LdpcCode.from_alist(base_dir / entry["alist"])
        return LdpcCode.random_regular(*(entry[k] for k in _REGULAR_KEYS))
    except CodeConstructionError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


def load_config(path):
    """SystemConfig from a JSON document; every field of the dataclass
    is overridable and validation errors name the offending field. Every
    value, the code entries included, is checked before either code is built."""
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} cannot be read: {exc}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    except RecursionError:
        raise ConfigError(f"config {path} nests too deeply to parse")
    _object(data, "config", _ROOT_KEYS, _REQUIRED)
    fields = {}
    for section, keys in _LAYOUT.items():
        obj = _object(data.get(section, {}), section, keys) if section else data
        fields.update((keys[k], obj[k]) for k in keys.keys() & obj.keys())
    fields = check_fields(esn0_grid_db=data["esn0_grid_db"], **fields)
    oc = _object(data["outer_code"], "outer_code", ("base", "rep_factor"), ("base",))
    rep = oc.get("rep_factor", 1)
    _expect(_is_int(rep) and rep >= 1, "outer_code.rep_factor must be an integer >= 1")
    _check_code(data["inner_code"], "inner_code")
    _check_code(oc["base"], "outer_code.base")
    base_dir = path.resolve().parent
    inner = _build_code(data["inner_code"], base_dir, "inner_code")
    outer = RepetitionCode(_build_code(oc["base"], base_dir, "outer_code.base"), rep)
    return SystemConfig(inner=inner, outer=outer, **fields)


def config_to_dict(cfg):
    """The config document of cfg, in the layout load_config reads; a code
    built from an explicit matrix has no config entry and is written null."""
    doc = {
        "inner_code": cfg.inner.origin,
        "outer_code": {"base": cfg.outer.base.origin, "rep_factor": cfg.outer.rep_factor},
        "esn0_grid_db": list(cfg.esn0_grid_db),
    }
    for section, keys in _LAYOUT.items():
        obj = doc.setdefault(section, {}) if section else doc
        obj.update((key, getattr(cfg, name)) for key, name in keys.items())
    return doc
