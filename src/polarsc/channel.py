"""BPSK/AWGN channel simulation and Monte-Carlo error-rate sweeps.

Per-trial determinism: the random stream of trial t is derived from
(master_seed, t) through numpy's SeedSequence spawn mechanism
(``SeedSequence(master_seed).spawn`` keyed by the trial index), so results
do not depend on execution order and trials can be split across workers
without changing aggregate counts. Campaigns walk the trials in chunks
(``trial_chunks``), so their memory does not grow with the trial count: a
sweep reads each stream once, maps it to every operating point, and decodes
a chunk of trials at all points in one call per decoder, and the
simulator's equivalence campaign checks a chunk at a time.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .code import encode, require_count
from .errors import InvalidParameterError
from .llr import (
    MAX_LLR,
    MODE_MINSUM_Q,
    MODES,
    clip_llr,
    qmax,
    quantize,
    require_scale,
    sc_decode_batch,  # unused here; perfbench/spans.py wraps it on this module
    ssc_decode_batch,
)

NOISELESS = "noiseless"
BPSK_AWGN = "bpsk_awgn"

FUNCTIONAL = "functional"

_CHUNK_ELEMENTS = 1 << 18  # points x trials x N per decode call; bounds a sweep's memory


@dataclass(frozen=True)
class ChannelConfig:
    """Channel kind, operating point (kept as a Python float), and master seed."""

    kind: str
    ebn0_db: float
    master_seed: int

    def __post_init__(self):
        if self.kind not in (NOISELESS, BPSK_AWGN):
            raise InvalidParameterError(f"unknown channel kind {self.kind!r}")
        e = self.ebn0_db
        try:
            real = (isinstance(e, (int, float, np.integer, np.floating))
                    and not isinstance(e, bool) and math.isfinite(e))
        except OverflowError:  # an int beyond the float range
            real = False
        if not real:
            raise InvalidParameterError(f"ebn0_db must be a finite real number, got {e!r}")
        object.__setattr__(self, "ebn0_db", float(e))


def trial_rng(master_seed, trial):
    """Deterministic per-trial generator, independent of execution order."""
    seed = require_count(master_seed, name="seed")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(int(trial),)))


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
        return asdict(self)


def _draw(spec, kind, master_seed, trials, ebn0_points):
    """Messages of the trials in the range ``trials``, and their channel
    LLRs at each Eb/N0 point, stacked point after point."""
    n, k = spec.n_bits, spec.k_info
    if k < 1:
        raise InvalidParameterError(f"the channel needs K >= 1 message bits, got K = {k}")
    awgn = kind == BPSK_AWGN
    variances = []
    for ebn0 in ebn0_points if awgn else ():
        try:
            var = 1.0 / (2.0 * (k / n) * 10.0 ** (ebn0 / 10.0))
        except (OverflowError, ZeroDivisionError):  # 10 ** (Eb/N0 / 10) out of range
            var = 0.0
        if not 0.0 < var < np.inf:
            raise InvalidParameterError(
                f"Eb/N0 {ebn0} dB puts the noise variance outside the float range")
        variances.append(var)
    msgs = np.empty((len(trials), k), dtype=np.int64)
    normals = np.empty((len(trials), n)) if awgn else None
    for i, t in enumerate(trials):
        rng = trial_rng(master_seed, t)
        msgs[i] = rng.integers(0, 2, size=k)
        if awgn:
            normals[i] = rng.standard_normal(n)
    symbols = 1.0 - 2.0 * encode(msgs, spec)
    llrs = np.empty((len(ebn0_points), len(trials), n))
    if not awgn:
        llrs[:] = symbols * MAX_LLR
    for p, var in enumerate(variances):
        llrs[p] = clip_llr(2.0 * (symbols + np.sqrt(var) * normals) / var)
    return msgs, llrs.reshape(-1, n)


def draw_trials(spec, cfg, trials):
    """Messages and channel LLRs for trials 0..trials-1, one rng per trial.

    Trial t's stream draws its K message bits, then N standard normals z
    (AWGN only). Bit 0 maps to +1 and bit 1 to -1. The AWGN LLR is
    2(x + sigma z)/sigma^2, sigma^2 = 1 / (2 (K/N) Eb/N0), clipped to the
    rail (sigma z equals numpy's ``normal(0, sigma)`` on that stream); the
    noiseless channel gives +/- MAX_LLR certainties.
    """
    return _draw(spec, cfg.kind, cfg.master_seed, range(require_count(trials)),
                 [cfg.ebn0_db])


def trial_chunks(spec, cfgs, trials, per_trial=1):
    """Walk trials 0..trials-1 in chunks of at most ``_CHUNK_ELEMENTS``
    values (points x frames x N, at least one trial); yield (first trial,
    messages, LLRs at each point of ``cfgs`` stacked point after point).
    Trial t owns ``draw_trials``' frames per_trial*t .. per_trial*(t+1) - 1,
    in consecutive rows. ``cfgs`` share one channel kind and master seed.
    """
    kind, seed = cfgs[0].kind, cfgs[0].master_seed
    points = [c.ebn0_db for c in cfgs]
    chunk = max(1, _CHUNK_ELEMENTS // (len(points) * spec.n_bits * per_trial))
    for first in range(0, trials, chunk):
        frames = range(per_trial * first, per_trial * min(first + chunk, trials))
        yield (first, *_draw(spec, kind, seed, frames, points))


def ber_sweep(spec, modes, architectures, ebn0_points, trials, seed,
              channel_kind=BPSK_AWGN, q=6, scale=1.0):
    """Monte-Carlo sweep over operating points, modes, and decoders.

    ``modes`` holds functional decoder modes ("exact", "minsum",
    "minsum_q"); ``architectures`` holds cycle-accurate decoders
    ("conventional", "lookahead", "parallel2"), each run in quantized
    min-sum arithmetic. Every decoder sees the identical per-trial LLR
    vectors, so matching seeds give matching error counts across decoders
    that are exact re-schedulings of each other. The counts do not depend
    on how the trials are split into chunks. The seed, q, scale and
    architectures are checked whether or not a decoder or an operating
    point uses them.
    """
    # imported here to keep channel usable without the simulator stack
    from .archsim import SimConfig, decode_frames

    trials = require_count(trials, 1)
    require_count(seed, name="seed")
    qmax(q)
    require_scale(scale)
    for mode in modes:
        if mode not in MODES:
            raise InvalidParameterError(f"unknown mode {mode!r}")
    decoders = [(m, None) for m in modes] + [
        (MODE_MINSUM_Q, SimConfig(spec=spec, q=q, architecture=a)) for a in architectures]
    cfgs = [ChannelConfig(kind=channel_kind, ebn0_db=e, master_seed=seed)
            for e in ebn0_points]
    if not cfgs:
        return []
    quantized = any(mode == MODE_MINSUM_Q for mode, _ in decoders)
    errors = np.zeros((len(cfgs), len(decoders), 2), dtype=np.int64)  # bit, frame
    for _, msgs, llrs in trial_chunks(spec, cfgs, trials):
        q_llrs = quantize(llrs, q, scale) if quantized else None
        for d, (mode, sim) in enumerate(decoders):
            if sim is not None:
                u_hat = decode_frames(sim, q_llrs)[0]
            else:
                u_hat = ssc_decode_batch(q_llrs if mode == MODE_MINSUM_Q else llrs, spec,
                                         mode, q=q)
            wrong = u_hat[:, ~spec.frozen_mask].reshape(len(cfgs), len(msgs), -1) != msgs
            errors[:, d, 0] += wrong.sum(axis=(1, 2))
            errors[:, d, 1] += wrong.any(axis=2).sum(axis=1)
    return [
        SweepResult(
            ebn0_db=cfg.ebn0_db, trials=trials,
            bit_errors=bit_err, frame_errors=frame_err,
            ber=bit_err / (trials * spec.k_info),
            fer=frame_err / trials,
            mode=mode, q=q if mode == MODE_MINSUM_Q else None,
            architecture=FUNCTIONAL if sim is None else sim.architecture,
        )
        for cfg, point in zip(cfgs, errors.tolist())
        for (mode, sim), (bit_err, frame_err) in zip(decoders, point)
    ]
