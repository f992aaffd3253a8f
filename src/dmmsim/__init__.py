"""Simulator for double-mapping modulation: LDPC-coded BPSK carrying a
second, rotation-borne stream on the same complex symbol, with an AWGN
channel, a two-stage receiver, and a mutual-information engine.
"""

__version__ = "0.1.0"

from .capacity import (
    MiPoint,
    esn0_at_mi,
    eta_total,
    mi_bpsk,
    mi_grid,
    mi_qpsk,
    rate_bound_outer,
)
from .channel import ChannelParams, SeededRng, add_noise, ebn0_from_esn0
from .ldpc import (
    LLR_CAP,
    CodeConstructionError,
    LdpcCode,
    RepetitionCode,
    decode_bp_full,
    derive_generator,
    encode,
    rep_combine,
    rep_encode,
)
from .modem import (
    Constellation,
    demap_inner_llr,
    demap_outer_hard,
    demap_outer_llr,
    map_bpsk,
    rotate_by_bits,
)
from .simkit import (
    ConfigError,
    FrameTrace,
    GenieCompareResult,
    SweepResult,
    SystemConfig,
    load_config,
    run_baseline_frame,
    run_bpsk_baseline,
    run_frame,
    run_genie_compare,
    run_sweep,
)

__all__ = [
    "__version__",
    "MiPoint",
    "esn0_at_mi",
    "eta_total",
    "mi_bpsk",
    "mi_grid",
    "mi_qpsk",
    "rate_bound_outer",
    "ChannelParams",
    "SeededRng",
    "add_noise",
    "ebn0_from_esn0",
    "LLR_CAP",
    "CodeConstructionError",
    "LdpcCode",
    "RepetitionCode",
    "decode_bp_full",
    "derive_generator",
    "encode",
    "rep_combine",
    "rep_encode",
    "Constellation",
    "demap_inner_llr",
    "demap_outer_hard",
    "demap_outer_llr",
    "map_bpsk",
    "rotate_by_bits",
    "ConfigError",
    "FrameTrace",
    "GenieCompareResult",
    "SweepResult",
    "SystemConfig",
    "load_config",
    "run_baseline_frame",
    "run_bpsk_baseline",
    "run_frame",
    "run_genie_compare",
    "run_sweep",
]
