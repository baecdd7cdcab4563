"""BPSK/AWGN channel simulation and Monte-Carlo error-rate sweeps.

Per-trial determinism: the random stream of trial t is derived from
(master_seed, t) through numpy's SeedSequence spawn mechanism
(``SeedSequence(master_seed).spawn`` keyed by the trial index), so results
do not depend on execution order and trials can be split across workers
without changing aggregate counts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .code import encode
from .errors import InvalidParameterError
from .llr import (
    MAX_LLR,
    MODE_MINSUM_Q,
    MODES,
    clip_llr,
    quantize,
    sc_decode_batch,  # unused here; perfbench/spans.py wraps it on this module
    ssc_decode_batch,
)
from .schedule import ARCHITECTURES

NOISELESS = "noiseless"
BPSK_AWGN = "bpsk_awgn"

FUNCTIONAL = "functional"


@dataclass(frozen=True)
class ChannelConfig:
    """Channel kind, operating point, and the master seed."""

    kind: str
    ebn0_db: float
    master_seed: int

    def __post_init__(self):
        if self.kind not in (NOISELESS, BPSK_AWGN):
            raise InvalidParameterError(f"unknown channel kind {self.kind!r}")
        if not np.isfinite(self.ebn0_db):
            raise InvalidParameterError("ebn0_db must be finite")


def trial_rng(master_seed, trial):
    """Deterministic per-trial generator, independent of execution order."""
    if master_seed < 0:
        raise InvalidParameterError(f"seed must be non-negative, got {master_seed}")
    seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(trial),))
    return np.random.default_rng(seq)


@dataclass(frozen=True)
class SweepResult:
    """Error counts for one (mode, architecture, Eb/N0) operating point."""

    ebn0_db: float
    trials: int
    bit_errors: int
    frame_errors: int
    ber: float
    fer: float
    mode: str
    q: int | None
    architecture: str

    def to_json_dict(self):
        return {
            "ebn0_db": self.ebn0_db,
            "trials": self.trials,
            "bit_errors": self.bit_errors,
            "frame_errors": self.frame_errors,
            "ber": self.ber,
            "fer": self.fer,
            "mode": self.mode,
            "q": self.q,
            "architecture": self.architecture,
        }


def draw_trials(spec, cfg, trials):
    """Messages and channel LLRs for trials 0..trials-1, one rng per trial.

    Trial t's stream draws its K message bits first, then its N noise
    samples; the noiseless channel draws the messages only. Bit 0 maps to
    +1 and bit 1 to -1. The AWGN LLR is 2y/sigma^2 with sigma^2 =
    1 / (2 (K/N) Eb/N0), clipped to the rail; the noiseless channel gives
    +/- MAX_LLR certainties.
    """
    n, k = spec.n_bits, spec.k_info
    if k < 1:
        raise InvalidParameterError(f"the channel needs K >= 1 message bits, got K = {k}")
    awgn = cfg.kind == BPSK_AWGN
    var = 1.0 / (2.0 * (k / n) * 10.0 ** (cfg.ebn0_db / 10.0))
    msgs = np.empty((trials, k), dtype=np.int64)
    noise = np.empty((trials, n))
    for t in range(trials):
        rng = trial_rng(cfg.master_seed, t)
        msgs[t] = rng.integers(0, 2, size=k)
        if awgn:
            noise[t] = rng.normal(0.0, np.sqrt(var), size=n)
    symbols = 1.0 - 2.0 * encode(msgs, spec)
    if not awgn:
        return msgs, symbols * MAX_LLR
    return msgs, clip_llr(2.0 * (symbols + noise) / var)


def _decode_functional(llrs, spec, mode, q, scale):
    if mode == MODE_MINSUM_Q:
        return ssc_decode_batch(quantize(llrs, q, scale), spec, mode, q=q)
    return ssc_decode_batch(llrs, spec, mode)


def _decode_architecture(llrs, spec, architecture, q, scale):
    # imported here to keep channel usable without the simulator stack
    from .archsim import SimConfig, decode_frames

    return decode_frames(SimConfig(spec=spec, q=q, architecture=architecture),
                         quantize(llrs, q, scale))


def ber_sweep(spec, modes, architectures, ebn0_points, trials, seed,
              channel_kind=BPSK_AWGN, q=6, scale=1.0):
    """Monte-Carlo sweep over operating points, modes, and decoders.

    ``modes`` holds functional decoder modes ("exact", "minsum",
    "minsum_q"); ``architectures`` holds cycle-accurate decoders
    ("conventional", "lookahead", "parallel2"), each run in quantized
    min-sum arithmetic. Every decoder sees the identical per-trial LLR
    vectors, so matching seeds give matching error counts across decoders
    that are exact re-schedulings of each other.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    for mode in modes:
        if mode not in MODES:
            raise InvalidParameterError(f"unknown mode {mode!r}")
    for arch in architectures:
        if arch not in ARCHITECTURES:
            raise InvalidParameterError(f"unknown architecture {arch!r}")
    info_mask = ~spec.frozen_mask
    results = []
    for ebn0 in ebn0_points:
        cfg = ChannelConfig(kind=channel_kind, ebn0_db=float(ebn0), master_seed=seed)
        msgs, llrs = draw_trials(spec, cfg, trials)
        decoders = [(m, None) for m in modes] + [(MODE_MINSUM_Q, a) for a in architectures]
        for mode, arch in decoders:
            if arch is None:
                u_hat = _decode_functional(llrs, spec, mode, q, scale)
                label = FUNCTIONAL
            else:
                u_hat = _decode_architecture(llrs, spec, arch, q, scale)
                label = arch
            decoded_msgs = u_hat[:, info_mask]
            bit_err = int(np.sum(decoded_msgs != msgs))
            frame_err = int(np.sum(np.any(decoded_msgs != msgs, axis=1)))
            results.append(SweepResult(
                ebn0_db=float(ebn0), trials=trials,
                bit_errors=bit_err, frame_errors=frame_err,
                ber=bit_err / (trials * spec.k_info),
                fer=frame_err / trials,
                mode=mode, q=q if mode == MODE_MINSUM_Q else None,
                architecture=label,
            ))
    return results


def sweep_results_to_json(results):
    return json.dumps([r.to_json_dict() for r in results], indent=2)
