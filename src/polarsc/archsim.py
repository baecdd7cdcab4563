"""Cycle-accurate simulation of the sequential and look-ahead decoders.

The simulator executes a time chart cycle by cycle. In look-ahead mode
every activation is a merged PE pass producing the f output and both
precomputed g candidates; candidates stay buffered until the partial-sum
network delivers their select bits, at which point a multiplexer resolves
them. Decisions at the final stage resolve their own candidate pair in
the producing cycle (the one place same-cycle selection is required);
every other consumed value must have been produced in a strictly earlier
cycle, by the parent firing that owns the consumer's block.

None of this depends on the LLRs, so legality is checked once per
``SimConfig``, when it is built, not once per run: ``check_schedule``
reads no data, raises SchedulingError on any violation and yields each
stream's (cycle, stage, op, select) firings, the per-cycle PE activity and
the candidate-buffer peak. A run fires the checked sequence with no
further checks, each firing on a whole (batch, N) array of frames; one
frame is a batch of one. A legal schedule fires one sequence in every
stream, so a run is one lockstep batch: the frames of all streams (both
streams of the 2-parallel decoder) are stacked and decided together, with
one partial-sum state, and split apart at the end.

Arithmetic is saturating q-bit integer min-sum, bit-identical to the
functional quantized decoder, on one shared-adder datapath like the paper's
merged PE: a PE forms s0 = b + a and s1 = b - a once, its g candidates are
s0 and s1 clamped to the q-bit rail, and its f output is (|s0| - |s1|) / 2,
since sgn(a) * sgn(b) * min(|a|, |b|) = (|a + b| - |a - b|) / 2 for integers
with sgn(0) = +1. The numerator is always even, and nothing overflows for
q <= MAX_Q, where |a| + |b| <= 2^54 - 2. The functional decoder computes f
as sign times minimum, so the equivalence check compares two formulas.
Optionally all PEs of a firing, in every frame, go through one bit-sliced
call of the gate-level models instead (slower, used for cross-checks).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelConfig, trial_chunks, BPSK_AWGN
from .code import CodeSpec, require_count, require_power_of_two
from .errors import InvalidParameterError, SchedulingError
from .gates import WordQ, merged_pe
from .igc import PartialSumState, refreshed_stage, select_ready
from .llr import (
    MODE_MINSUM_Q,
    as_quantized,
    clamp,
    decide,
    qmax,
    quantize,
    sc_decode_batch,
)
from .schedule import (
    ARCHITECTURES,
    CONVENTIONAL,
    PARALLEL2,
    ActivityTable,
    PE_F,
    STREAM_LABELS,
    build_conventional,
    build_lookahead,
)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: code, quantizer width, architecture."""

    spec: CodeSpec
    q: int
    architecture: str
    record_trace: bool = False
    use_gate_pes: bool = False

    def __post_init__(self):
        if not isinstance(self.spec, CodeSpec):
            raise InvalidParameterError(f"spec must be a CodeSpec, got {self.spec!r}")
        if self.use_gate_pes and self.architecture == CONVENTIONAL:
            raise InvalidParameterError("use_gate_pes needs merged PEs; conventional has none")
        qmax(self.q)  # validates q
        schedule = check_schedule(self.architecture, self.spec.n_bits)
        object.__setattr__(self, "schedule", schedule)  # not a field


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    decisions: list  # per stream, an int array shaped like its input
    decision_llrs: list  # decision-time values, likewise
    cycles_elapsed: int
    activity: ActivityTable
    candidate_buffer_peak: int
    trace: list

    def to_json_dict(self):
        return {
            "cycles": self.cycles_elapsed,
            "u_hat": [d.tolist() for d in self.decisions],
            "activity": self.activity.to_json_dict(),
            "buffer_peak": self.candidate_buffer_peak,
        }


TRACE_HEADER = ("cycle", "stream", "stage", "pe_index", "op", "inputs", "outputs",
                "select_bit")


def _build_schedule(architecture, n):
    """Per-cycle list of (stream_index, chart_entry) activations."""
    build = build_conventional if architecture == CONVENTIONAL else build_lookahead
    entries = build(n).cycles
    if architecture == PARALLEL2:
        # two look-ahead streams on one N/2-PE pool: C1 stalls for one cycle after
        # its channel-stage cycle and C2 runs the unstalled chart one cycle later,
        # so the pair spans N cycles and no cycle holds more than N/2 active PEs
        return [[(0, entries[0])], [(1, entries[0])]] + [[(0, e), (1, e)] for e in entries[1:]]
    return [[(0, e)] for e in entries]


def check_schedule(architecture, n):
    """Legality pass over the schedule of ``architecture`` at N; it reads no LLRs.

    Raises SchedulingError at the first firing that reads a buffer or
    select bits its producers have not delivered, refires over unresolved
    candidates or overfills the PE pool, and when a stream ends short of N
    decisions. Returns each stream's (cycle, stage, op, select) firings, the
    ActivityTable and the candidate-buffer peak in pairs.
    """
    if architecture not in ARCHITECTURES:
        raise InvalidParameterError(f"unknown architecture {architecture!r}")
    n = require_power_of_two(n, "N", 4)
    m = n.bit_length() - 1
    merged = architecture != CONVENTIONAL
    schedule = _build_schedule(architecture, n)
    labels = STREAM_LABELS if architecture == PARALLEL2 else STREAM_LABELS[:1]
    fired = [[0] * (m + 1) for _ in labels]  # firings so far, per stage
    buffered = [{} for _ in labels]  # stage -> (producing cycle, producing block)
    unresolved = [set() for _ in labels]  # stages holding live candidate pairs
    decided = [0 for _ in labels]
    counts = [[0] * len(schedule) for _ in labels]
    streams = [[] for _ in labels]
    live = peak = 0  # buffered candidate pairs, now and at most
    for cycle, activations in enumerate(schedule, start=1):
        used = 0
        for s, entry in activations:
            stage = entry.stage
            blk = fired[s][stage]
            fired[s][stage] += 1
            op = "fg" if merged else ("f" if entry.pe_type == PE_F else "g")
            if stage > 1:
                parent = stage - 1
                if parent not in buffered[s]:
                    raise SchedulingError(
                        f"cycle {cycle}: stage {stage} needs stage {parent} output "
                        f"that was never produced"
                    )
                produced, parent_blk = buffered[s][parent]
                if produced >= cycle:
                    raise SchedulingError(
                        f"cycle {cycle}: stage {stage} consumes stage {parent} output "
                        f"produced in cycle {produced}"
                    )
                if parent_blk != blk // 2:
                    raise SchedulingError(
                        f"cycle {cycle}: stage {stage} block {blk + 1} needs stage "
                        f"{parent} block {blk // 2 + 1}, but the buffer holds block "
                        f"{parent_blk + 1}"
                    )
            # the stage whose select bits the firing reads: its own for a
            # sequential g, its parent's for an odd look-ahead block
            if op == "g":
                select = stage
            elif merged and stage > 1 and blk % 2:
                select = stage - 1
            else:
                select = None
            if select is not None and not select_ready(decided[s], select, n):
                raise SchedulingError(
                    f"cycle {cycle}: stage {select} select bits not ready after "
                    f"{decided[s]} decisions"
                )
            if merged and stage < m:
                if stage in unresolved[s]:
                    raise SchedulingError(
                        f"cycle {cycle}: stage {stage} refires with unresolved candidates"
                    )
                unresolved[s].add(stage)
                live += n >> stage
            buffered[s][stage] = (cycle, blk)
            if stage == m:
                for _ in range(2 if merged else 1):
                    decided[s] += 1
                    resolved = refreshed_stage(decided[s], n)
                    if resolved in unresolved[s]:
                        unresolved[s].remove(resolved)
                        live -= n >> resolved
            counts[s][cycle - 1] = n >> stage
            used += n >> stage
            streams[s].append((cycle, stage, op, select))
        if merged and used > n // 2:
            raise SchedulingError(
                f"cycle {cycle}: {used} merged PEs requested from a pool of {n // 2}"
            )
        peak = max(peak, live)
    for label, count in zip(labels, decided):
        if count != n:
            raise SchedulingError(f"stream {label}: {count} of {n} bits decided")
    activity = ActivityTable(n, labels, tuple(map(tuple, counts)))
    return streams, activity, peak


def parallel_activity_table(n):
    """Per-cycle active PEs of the two interleaved look-ahead streams, as checked."""
    return check_schedule(PARALLEL2, n)[1]


def run(config, channel_llrs):
    """Execute the configured architecture on quantized channel LLRs.

    ``channel_llrs`` is a list or tuple of blocks, one per stream of the
    checked schedule (two for the 2-parallel architecture, batch sizes may
    differ); a bare array is the single block of a one-stream architecture.
    A block is one length-N integer vector or a (batch, N) array of frames.
    The schedule was checked when the config was built.
    A legal schedule fires the same (stage, op, select) sequence in every
    stream, so all streams run it in lockstep, their frames stacked on one
    batch axis, and each step applies its PE to every frame at once.
    Decisions come back in the shape of their input. A trace row has no
    frame column, so ``record_trace`` takes one vector per stream.
    """
    streams, activity, peak = config.schedule
    blocks = channel_llrs if isinstance(channel_llrs, (list, tuple)) else [channel_llrs]
    if len(blocks) != len(streams):
        raise InvalidParameterError(
            f"{config.architecture} expects {len(streams)} LLR block(s), got {len(blocks)}")
    n = config.spec.n_bits
    shapes, channels = [], []
    for label, block in zip(STREAM_LABELS, blocks):
        llrs = as_quantized(block, config.q)
        if llrs.ndim not in (1, 2) or llrs.shape[-1] != n:
            raise InvalidParameterError(
                f"stream {label}: expected {n} LLRs or a (batch, {n}) array, "
                f"got shape {llrs.shape}"
            )
        if config.record_trace and llrs.ndim == 2:
            raise InvalidParameterError("record_trace needs one LLR vector per stream")
        shapes.append(llrs.shape)
        channels.append(llrs.reshape(-1, n))
    rows = []

    def record(k, a, b, outs, sel):
        # with record_trace every stream is one frame: row s is stream s
        for s, firings in enumerate(streams):
            cycle, stage, op, _ = firings[k]
            rows.extend(
                (cycle, STREAM_LABELS[s], stage, i, op, f"{a[s, i]}|{b[s, i]}",
                 "|".join(str(o[s, i]) for o in outs),
                 "" if sel is None else str(sel[s, i]))
                for i in range(a.shape[1]))

    # every stream of a legal schedule fires C1's sequence (see above)
    u, llrs = _dataflow(config, streams[0], np.concatenate(channels),
                        record if config.record_trace else None)
    cuts = np.cumsum([len(c) for c in channels])[:-1]
    decisions = [d.reshape(shape) for d, shape in zip(np.split(u, cuts), shapes)]
    dec_llrs = [d.reshape(shape) for d, shape in zip(np.split(llrs, cuts), shapes)]
    return SimResult(
        decisions=decisions,
        decision_llrs=dec_llrs,
        cycles_elapsed=activity.span,
        activity=activity,
        candidate_buffer_peak=peak,
        trace=sorted(rows, key=lambda row: row[:2]),  # by cycle, C1 before C2
    )


def _dataflow(config, firings, frames, record):
    """Run checked (cycle, stage, op, select) firings on a (batch, N) stack of
    frames decided in lockstep, reading stage ``select``'s proved-ready select
    bits; return the decisions and decision-time LLRs. ``record(k, a, b, outs,
    sel)``, unless None, sees the inputs, outputs and select bits of firing k.

    Values are held wire-major, one row per wire and one column per frame,
    so each PE input is a contiguous block of rows."""
    spec, q = config.spec, config.q
    n = spec.n_bits
    m = n.bit_length() - 1
    rail = np.int64(qmax(q))  # read once; a Python int would be converted by every ufunc
    psums = PartialSumState(n)
    bufs = {}  # stage -> outputs: (f, g0, g1) or (f,) or (g,)
    wires = np.ascontiguousarray(frames.T)
    decisions = np.zeros(wires.shape, dtype=np.int64)
    dec_llrs = np.zeros(wires.shape, dtype=np.int64)

    def leaf(llrs):
        k = psums.decided + 1
        dec_llrs[k - 1] = llrs
        u = decisions[k - 1]
        u[:] = decide(llrs, k, spec)
        psums.push(u, k)
        return u

    for k, (_, stage, op, select) in enumerate(firings):
        half = n >> stage
        if stage == 1:
            inp = wires
        elif op == "fg" and select is not None:
            _, g0, g1 = bufs[select]
            inp = np.where(psums.selection_bits(select).T, g1, g0)
        else:
            inp = bufs[stage - 1][0]
        a, b = inp[:half], inp[half:]
        sel = None
        if op == "g":
            sel = psums.selection_bits(select)
            outs = (clamp(np.where(sel.T, b - a, b + a), rail),)
        elif config.use_gate_pes:
            outs = tuple(w.value for w in merged_pe(WordQ(a, q), WordQ(b, q)))
        else:
            s0, s1 = b + a, b - a
            f = (np.abs(s0) - np.abs(s1)) >> 1
            outs = (f,) if op == "f" else (f, clamp(s0, rail), clamp(s1, rail))
        bufs[stage] = outs
        if stage == m:
            u = leaf(outs[0][0])
            if op == "fg":
                # same-cycle select: the fresh decision resolves this PE's pair
                sel = u[:, None]
                leaf(np.where(u, outs[2][0], outs[1][0]))
        if record is not None:
            record(k, a.T, b.T, [o.T for o in outs], sel)
    return decisions.T, dec_llrs.T


def decode_frames(config, q_llrs):
    """Decisions and decision LLRs of a (frames, N) batch of quantized LLRs.

    Frame f runs on stream f mod k of the checked schedule's k streams (odd
    frames on C2 for the 2-parallel architecture), gathered back in order.
    """
    k = len(config.schedule[0])
    result = run(config, [q_llrs[s::k] for s in range(k)])
    u, llrs = np.empty((2,) + q_llrs.shape, dtype=np.int64)
    for s in range(k):
        u[s::k], llrs[s::k] = result.decisions[s], result.decision_llrs[s]
    return u, llrs


@dataclass
class EquivalenceReport:
    """Outcome of an architectural-vs-functional comparison campaign."""

    architecture: str
    n: int
    q: int
    trials: int
    matches: int
    mismatches: int
    first_divergence: dict | None

    @property
    def passed(self):
        return self.mismatches == 0

    def to_json_dict(self):
        fields = asdict(self)
        first = fields.pop("first_divergence")
        return {**fields, "passed": self.passed, "first_divergence": first}


def divergence(got, got_llrs, reference, ref_llrs, per_trial):
    """The equivalence rule: decisions and decision LLRs, (frames, N) with a
    trial's ``per_trial`` streams in consecutive frames, equal the reference's.
    Returns wrong[t, s] (stream s of trial t diverged) and the first
    divergence, or None."""
    differs = (got != reference) | (got_llrs != ref_llrs)
    wrong = np.any(differs, axis=1).reshape(-1, per_trial)
    if not wrong.any():
        return wrong, None
    t, s = (int(i) for i in np.argwhere(wrong)[0])
    frame = t * per_trial + s
    i = int(np.argmax(differs[frame]))
    return wrong, {
        "trial": t,
        "stream": s,
        "first_bit_index": i + 1,
        "sim": got[frame].tolist(),
        "reference": reference[frame].tolist(),
        "sim_llr": got_llrs[frame, i].item(),
        "reference_llr": ref_llrs[frame, i].item(),
    }


def verify_equivalence(config, trials, seed, ebn0_db=1.0, scale=1.0):
    """Random-message campaign: the architectural decisions and decision
    LLRs must be identical to the functional quantized min-sum decoder's.

    Each trial draws fresh messages and noise (two independent frames per
    trial for the 2-parallel architecture, consecutive frames going to
    streams C1 and C2). The trials are walked in ``ber_sweep``'s chunks, so
    memory does not grow with their count; the simulator decodes a chunk in
    one batched run, checked by ``divergence`` against the functional
    reference on the very same quantized inputs. Returns a report.
    """
    trials = require_count(trials, 1)
    spec = config.spec
    per_trial = len(config.schedule[0])  # one frame per stream
    cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=ebn0_db, master_seed=seed)
    mismatches, first_divergence = 0, None
    for first, _, llrs in trial_chunks(spec, [cfg], trials, per_trial):
        q_llrs = quantize(llrs, config.q, scale)
        wrong, found = divergence(*decode_frames(config, q_llrs),
                                  *sc_decode_batch(q_llrs, spec, MODE_MINSUM_Q, q=config.q),
                                  per_trial)
        mismatches += int(wrong.any(axis=1).sum())
        if found is not None and first_divergence is None:
            found["trial"] += first
            first_divergence = found
    return EquivalenceReport(
        architecture=config.architecture, n=spec.n_bits, q=config.q,
        trials=trials, matches=trials - mismatches, mismatches=mismatches,
        first_divergence=first_divergence,
    )
