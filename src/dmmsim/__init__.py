"""Simulator for double-mapping modulation: LDPC-coded BPSK carrying a
second, rotation-borne stream on the same complex symbol, with an AWGN
channel, a two-stage receiver, and a mutual-information engine.

The package exports what the CLI and the experiments use; every other
name is imported from its own module.
"""

__version__ = "0.1.0"

from .capacity import esn0_at_mi, mi_bpsk, mi_grid, mi_qpsk
from .config import ConfigError, SystemConfig, load_config
from .ldpc import CodeConstructionError, LdpcCode, RepetitionCode
from .simkit import run_baseline_frame, run_bpsk_baseline, run_frame, run_genie_compare, run_sweep

__all__ = [
    "__version__",
    "ConfigError",
    "CodeConstructionError",
    "SystemConfig",
    "LdpcCode",
    "RepetitionCode",
    "load_config",
    "run_frame",
    "run_baseline_frame",
    "run_sweep",
    "run_bpsk_baseline",
    "run_genie_compare",
    "mi_bpsk",
    "mi_qpsk",
    "mi_grid",
    "esn0_at_mi",
]
