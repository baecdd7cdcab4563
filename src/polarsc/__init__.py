"""polarsc: successive-cancellation polar decoding toolkit.

Functional SC decoders (exact, min-sum, quantized min-sum), recursive
time-chart construction for sequential and look-ahead schedules, bit-true
gate-level processing elements, an on-the-fly partial-sum network, a
cycle-accurate architecture simulator, and a gate-count cost model.
"""

from .code import CodeSpec, construct_frozen_set, encode, make_code_spec, polar_transform
from .errors import (
    EquivalenceError,
    InvalidParameterError,
    NotReadyError,
    SchedulingError,
    SequencingError,
)
from .llr import (
    MAX_LLR,
    DecodeTrace,
    decide,
    f_exact,
    f_minsum,
    g_update,
    lr_recursion_prob,
    quantize,
    sc_decode,
    sc_decode_batch,
    ssc_decode_batch,
)
from .schedule import (
    ActivityTable,
    ChartEntry,
    TimeChart,
    build_conventional,
    build_lookahead,
    latency,
    utilization,
)
from .gates import GateCount, WordQ, addsub_q, full_addsub_1bit, gate_count, merged_pe
from .igc import (
    ControlSignal,
    IgcNetwork,
    PartialSumState,
    build_network,
    control_schedule,
)
from .archsim import (EquivalenceReport, SimConfig, SimResult, parallel_activity_table, run,
                      verify_equivalence)
from .cost import CostReport, component_counts
from .channel import (
    ChannelConfig,
    SweepResult,
    ber_sweep,
    draw_trials,
    trial_rng,
)

__version__ = "0.1.0"

__all__ = [
    "ActivityTable", "ChannelConfig", "ChartEntry", "CodeSpec", "ControlSignal",
    "CostReport", "DecodeTrace", "EquivalenceError", "EquivalenceReport",
    "GateCount", "IgcNetwork", "InvalidParameterError", "MAX_LLR",
    "NotReadyError", "PartialSumState", "SchedulingError", "SequencingError",
    "SimConfig", "SimResult", "SweepResult", "TimeChart", "WordQ",
    "addsub_q", "ber_sweep", "build_conventional", "build_lookahead",
    "build_network", "component_counts", "construct_frozen_set",
    "control_schedule", "decide", "draw_trials", "encode", "f_exact", "f_minsum",
    "full_addsub_1bit", "g_update", "gate_count", "latency",
    "lr_recursion_prob", "make_code_spec", "merged_pe",
    "parallel_activity_table", "polar_transform", "quantize",
    "run", "sc_decode", "sc_decode_batch",
    "ssc_decode_batch", "trial_rng", "utilization", "verify_equivalence",
]
