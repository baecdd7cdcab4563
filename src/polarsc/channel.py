"""BPSK/AWGN channel simulation and Monte-Carlo error-rate sweeps.

Per-trial determinism: the random stream of trial t is derived from
(master_seed, t) through numpy's SeedSequence spawn mechanism
(``SeedSequence(master_seed).spawn`` keyed by the trial index), so results
do not depend on execution order and trials can be split across workers
without changing aggregate counts. ``trial_rng`` defines that stream. The
sweeps compute the same PCG64 states for a whole chunk of trials in one
pass, load them into one generator in turn, and check the chunk's first
trial against ``trial_rng``. Campaigns walk the trials in chunks
(``trial_chunks``), so their memory does not grow with the trial count: a
sweep reads each stream once, maps it to every operating point, and decodes
a chunk of trials at all points in one call per decoder, and the
simulator's equivalence campaign checks a chunk at a time. The functional
decoders see a chunk wire-major, one row per wire and one column per
frame, as the SSC walk runs it: the float LLRs are transposed once for
``exact`` and ``minsum``, the quantized ones once into ``minsum_q``'s
narrow integers, and errors are counted on the information rows of the
wire-major decisions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .code import encode, require_array, require_count, require_real
from .errors import InvalidParameterError
from .llr import (
    MAX_LLR,
    MODE_MINSUM_Q,
    MODES,
    _ssc_wires,
    _wire_dtype,
    clamp,
    qmax,
    quantize,
    require_scale,
    sc_decode_batch,  # unused here; perfbench/spans.py wraps it on this module
)

NOISELESS = "noiseless"
BPSK_AWGN = "bpsk_awgn"
# the noiseless channel is BPSK/AWGN at this point, where sigma^2 = N/(2K) * 1e-30:
# every LLR 2(x + sigma z)/sigma^2 clips at +/-MAX_LLR with the sign of x
NOISELESS_EBN0_DB = 300.0

FUNCTIONAL = "functional"

_CHUNK_ELEMENTS = 1 << 18  # points x trials x N per decode call; bounds a sweep's memory


@dataclass(frozen=True)
class ChannelConfig:
    """Channel kind, operating point (kept as a Python float), and master
    seed (kept as a Python int)."""

    kind: str
    ebn0_db: float
    master_seed: int

    def __post_init__(self):
        if self.kind not in (NOISELESS, BPSK_AWGN):
            raise InvalidParameterError(f"unknown channel kind {self.kind!r}")
        object.__setattr__(self, "ebn0_db", require_real(self.ebn0_db, "ebn0_db"))
        object.__setattr__(self, "master_seed", require_count(self.master_seed, name="seed"))


def trial_rng(master_seed, trial):
    """Deterministic per-trial generator, independent of execution order."""
    seed = require_count(master_seed, name="seed")
    key = require_count(trial, name="trial")
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(key,)))


# numpy's SeedSequence hashing (a hash step i xors h_i = init * mult**i mod 2**32,
# then multiplies by h_{i+1}; _hashmix and _mix take Python ints or uint64
# arrays of uint32 words) and PCG64's 128-bit LCG multiplier
_M32, _M128 = (1 << 32) - 1, (1 << 128) - 1
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_HASH_B = np.array([_INIT_B * pow(_MULT_B, i, 1 << 32) & _M32 for i in range(9)], dtype=np.uint64)


@lru_cache(maxsize=8)  # seeds and trial indices are unbounded, so no one table covers all
def _hash_a(count):
    """The first ``count`` multipliers h_i of SeedSequence's pool hash."""
    return tuple(_INIT_A * pow(_MULT_A, i, 1 << 32) & _M32 for i in range(count))


def _hashmix(value, xor, mul):
    value = (value ^ xor) * mul & _M32
    return value ^ value >> 16


def _mix(x, y):
    value = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
    return value ^ value >> 16


def _trial_states(seed, trials):
    """PCG64 (state, inc) of ``trial_rng(seed, t)`` for each t in ``trials``.

    The seed words fill SeedSequence's pool of 4 once, in Python ints. The
    words past the pool (a long seed's, then the spawn key's) and the 8
    ``generate_state`` words hash as columns over the chunk; key word j
    mixes only into the trials whose index has that word.
    """
    seed = require_count(seed, name="seed")
    words = [seed >> s & _M32 for s in range(0, max(seed.bit_length(), 128), 32)]
    bits = np.maximum([t.bit_length() for t in trials], 1)
    shifts = range(0, int(bits.max()), 32)
    extra = np.array([[w] * len(trials) for w in words[4:]]
                     + [[t >> s & _M32 for t in trials] for s in shifts], dtype=np.uint64)
    h = _hash_a(17 + 4 * len(extra))
    pool = [_hashmix(w, h[i], h[i + 1]) for i, w in enumerate(words[:4])]
    pairs = [(src, dst) for src in range(4) for dst in range(4) if src != dst]
    for i, (src, dst) in enumerate(pairs, start=4):
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], h[i], h[i + 1]))
    pool = np.array(pool, dtype=np.uint64)  # one row, broadcast over the trials
    for c, column in enumerate(extra):  # seed words, then key word j = c + 4 - len(words)
        hc = np.array(h[16 + 4 * c:21 + 4 * c], dtype=np.uint64)
        mixed = _mix(pool, _hashmix(column[:, None], hc[:-1], hc[1:]))
        pool = np.where((bits > 32 * (c + 4 - len(words)))[:, None], mixed, pool)
    out = _hashmix(pool[:, [0, 1, 2, 3] * 2], _HASH_B[:-1], _HASH_B[1:])
    seeds = (out[:, 0::2] | out[:, 1::2] << 32).tolist()  # (state hi, lo, seq hi, lo) words
    incs = [(w[2] << 65 | w[3] << 1 | 1) & _M128 for w in seeds]
    return [(((inc + (w[0] << 64 | w[1])) * _PCG_MULT + inc) & _M128, inc)
            for w, inc in zip(seeds, incs)]


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
    if kind == NOISELESS:
        ebn0_points = [NOISELESS_EBN0_DB] * len(ebn0_points)
    variances = []
    for ebn0 in ebn0_points:
        try:
            var = 1.0 / (2.0 * (k / n) * 10.0 ** (ebn0 / 10.0))
        except (OverflowError, ZeroDivisionError):  # 10 ** (Eb/N0 / 10) out of range
            var = 0.0
        if not 0.0 < var < np.inf:
            raise InvalidParameterError(
                f"Eb/N0 {ebn0} dB puts the noise variance outside the float range")
        variances.append(var)
    if not trials:
        return np.empty((0, k), dtype=np.int64), np.empty((0, n))
    # one generator takes each trial's state in turn, after drawing the
    # chunk's first trial as trial_rng defines it, to check the pass
    rng = trial_rng(master_seed, trials[0])
    fresh = rng.bit_generator.state
    first = rng.integers(0, 2, size=k), rng.standard_normal(n)
    states = _trial_states(master_seed, trials)
    raw = np.empty((len(trials), (k + 1) // 2), dtype=np.uint64)
    llrs = np.empty((len(ebn0_points), len(trials), n))
    normals = llrs[-1]  # the last point's LLRs are formed on them in place
    pcg = {}
    state = {**fresh, "state": pcg}  # refilled per trial; the setter copies it out
    for i, (pcg["state"], pcg["inc"]) in enumerate(states):
        rng.bit_generator.state = state
        raw[i] = rng.bit_generator.random_raw(raw.shape[1])
        rng.standard_normal(out=normals[i])
    # integers(0, 2) takes the top bit of each 32-bit half, low half first
    msgs = np.right_shift(raw.view(np.uint32)[:, :k], 31, dtype=np.int64)
    if (states[0] != (fresh["state"]["state"], fresh["state"]["inc"])
            or not np.array_equal(msgs[0], first[0])
            or not np.array_equal(normals[0], first[1])):
        raise RuntimeError("numpy's SeedSequence, PCG64 seeding or integers() changed: "
                           "the chunk's first trial no longer matches trial_rng")
    symbols = encode(msgs, spec)  # the bits, turned into +/-1 in place: exact as floats
    symbols *= -2
    symbols += 1
    for out, var in zip(llrs, variances):  # 2.0 * (symbols + sqrt(var) * normals) / var, in order
        np.multiply(normals, np.sqrt(var), out=out)
        out += symbols
        out *= 2.0
        out /= var
        clamp(out, MAX_LLR, out=out)
    return msgs, llrs.reshape(-1, n)


def draw_trials(spec, cfg, trials):
    """Messages and channel LLRs for trials 0..trials-1.

    Trial t's stream is ``trial_rng(seed, t)``: it draws its K message bits
    (``integers(0, 2)``), then N standard normals z. The states
    of all the trials come out of one seeding pass, checked against
    ``trial_rng`` on the first trial. Bit 0 maps to +1 and bit 1 to -1. The
    AWGN LLR is 2(x + sigma z)/sigma^2, sigma^2 = 1 / (2 (K/N) Eb/N0),
    clipped to the rail (sigma z equals numpy's ``normal(0, sigma)`` on that
    stream). The noiseless channel is this channel at ``NOISELESS_EBN0_DB``,
    whatever the config's point, so every LLR is a +/- MAX_LLR certainty.
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
    on how the trials are split into chunks. ``ebn0_points`` is a list of
    at least one point. The seed, q, scale and architectures are checked
    whether or not a decoder uses them.
    """
    # imported here to keep channel usable without the simulator stack
    from .archsim import SimConfig, _run

    trials = require_count(trials, 1)
    qmax(q)
    require_scale(scale)
    for name, names in (("modes", modes), ("architectures", architectures)):
        if not isinstance(names, (list, tuple)):
            raise InvalidParameterError(f"{name} must be a list or a tuple, got {names!r}")
    for mode in modes:
        if mode not in MODES:
            raise InvalidParameterError(f"unknown mode {mode!r}")
    decoders = [(m, None) for m in modes] + [
        (MODE_MINSUM_Q, SimConfig(spec=spec, q=q, architecture=a)) for a in architectures]
    if require_array(ebn0_points, "Eb/N0 points").ndim != 1:  # each is checked below
        raise InvalidParameterError(f"Eb/N0 points must form a list, got {ebn0_points!r}")
    cfgs = [ChannelConfig(kind=channel_kind, ebn0_db=e, master_seed=seed)
            for e in ebn0_points]
    if not cfgs:
        raise InvalidParameterError("ber_sweep needs at least one Eb/N0 point")
    quantized = any(mode == MODE_MINSUM_Q for mode, _ in decoders)
    info = ~spec.frozen_mask
    errors = np.zeros((len(cfgs), len(decoders), 2), dtype=np.int64)  # bit, frame
    for _, msgs, llrs in trial_chunks(spec, cfgs, trials):
        q_llrs = quantize(llrs, q, scale) if quantized else None
        wires = {}  # per arithmetic, the chunk's LLRs one row per wire (within the rail)
        guess = None  # the minsum_q decoder's decisions, each simulator's first guess
        for d, (mode, sim) in enumerate(decoders):
            if sim is not None:
                u_wires = _run(sim, q_llrs, guess).decisions.T
            else:
                dtype = _wire_dtype(mode, q)
                if dtype not in wires:
                    wires[dtype] = np.ascontiguousarray(
                        (q_llrs if mode == MODE_MINSUM_Q else llrs).T, dtype=dtype)
                u_wires = _ssc_wires(wires[dtype], spec, mode, q)
                if mode == MODE_MINSUM_Q:
                    guess = u_wires
            # wrong[k, p, t]: information bit k of trial t at point p
            wrong = u_wires[info].reshape(-1, len(cfgs), len(msgs)) != msgs.T[:, None]
            errors[:, d, 0] += wrong.sum(axis=(0, 2))
            errors[:, d, 1] += wrong.any(axis=0).sum(axis=1)
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
