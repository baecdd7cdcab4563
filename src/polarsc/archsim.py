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
further checks, each firing on a whole (frames, N) array; one frame is a
batch of one. A legal schedule fires one sequence in every stream, so a
run is one lockstep batch: frame f stands for stream f mod k of the k
streams (odd frames on C2 of the 2-parallel decoder), and all frames are
decided together, with one partial-sum state.

Arithmetic is saturating q-bit integer min-sum, bit-identical to the
functional quantized decoder, on one shared-adder datapath like the paper's
merged PE: a PE forms s0 = b + a and s1 = b - a once, its g candidates are
s0 and s1 clamped to the q-bit rail, and its f output is (|s0| - |s1|) / 2,
since sgn(a) * sgn(b) * min(|a|, |b|) = (|a + b| - |a - b|) / 2 for integers
with sgn(0) = +1. The numerator is always even, and nothing overflows for
q <= MAX_Q, where |a| + |b| <= 2^54 - 2. The functional decoder computes f
as sign times minimum, so the equivalence check compares two formulas.
Optionally all PEs of a firing, in every frame, go through one bit-sliced
call of the gate-level models instead (slower, used for cross-checks); a
firing of one PE in one frame takes the models' int path.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelConfig, trial_chunks, BPSK_AWGN
from .code import CodeSpec, require_count, require_power_of_two
from .errors import InvalidParameterError, SchedulingError
from .gates import _unchecked_word, merged_pe
from .igc import PartialSumState, refreshed_stage, select_ready
from .llr import (
    MODE_MINSUM_Q,
    _genie_llrs,
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

    decisions: np.ndarray  # (frames, N) int decisions, row f for frame f
    decision_llrs: np.ndarray  # (frames, N) decision-time values, likewise
    cycles_elapsed: int
    activity: ActivityTable
    candidate_buffer_peak: int
    trace: list

    def to_json_dict(self):
        return {
            "cycles": self.cycles_elapsed,
            "u_hat": self.decisions.tolist(),
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

    ``channel_llrs`` is one length-N integer vector or a (frames, N) array
    (a list of vectors is one). Frame f stands for stream f mod k of the
    checked schedule's k streams, but a legal schedule fires the same
    (stage, op, select) sequence in every stream, so all frames run it in
    lockstep on one batch axis and each step applies its PE to every frame
    at once. The schedule was checked when the config was built. Decisions
    and decision LLRs come back as (frames, N) arrays, row f for frame f. A
    trace row has no frame column, so ``record_trace`` takes exactly one
    frame per stream, and frame s is traced as stream s.
    """
    streams, activity, peak = config.schedule
    n = config.spec.n_bits
    llrs = as_quantized(channel_llrs, config.q)
    if llrs.ndim not in (1, 2) or llrs.shape[-1] != n:
        raise InvalidParameterError(
            f"expected {n} LLRs or a (frames, {n}) array, got shape {llrs.shape}")
    frames = llrs.reshape(-1, n)
    if config.record_trace and len(frames) != len(streams):
        raise InvalidParameterError(
            f"record_trace needs {len(streams)} frame(s), one per stream, got {len(frames)}")
    rows = []

    def record(k, a, b, outs, sel):
        # with record_trace frame s is stream s
        for s, firings in enumerate(streams):
            cycle, stage, op, _ = firings[k]
            rows.extend(
                (cycle, STREAM_LABELS[s], stage, i, op, f"{a[s, i]}|{b[s, i]}",
                 "|".join(str(o[s, i]) for o in outs),
                 "" if sel is None else str(sel[s, i]))
                for i in range(a.shape[1]))

    # every stream of a legal schedule fires C1's sequence (see above)
    decisions, dec_llrs = _dataflow(config, streams[0], frames,
                                    record if config.record_trace else None)
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
            # the words are in range by construction: checked input, PE outputs
            # and MUX picks of them; one PE of one frame takes the int path
            one = a.size == 1
            words = merged_pe(*(_unchecked_word(v.item() if one else v, q) for v in (a, b)))
            outs = tuple(np.array([[w.value]]) if one else w.value for w in words)
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


def divergence(config, q_llrs, result):
    """The equivalence rule: ``result``, the run of ``config`` on the (frames,
    N) quantized ``q_llrs`` with a trial's streams in consecutive frames, has
    the decisions and decision LLRs of the functional reference, min-sum at
    the config's q. Returns wrong[t, s] (stream s of trial t diverged) and
    the first divergence, or None.

    The chunk is screened by SC's genie pass ``llr._genie_llrs``: from the
    run's decisions it yields L, SC's LLR of bit i after decisions 1..i-1
    equal to the run's, and the reference decides on L by ``decide``'s
    rule. A frame is flagged where its decisions differ from the reference
    or its LLRs from L. As LLR i depends on decisions 1..i-1 alone, that is
    so if and only if the frame differs from ``sc_decode_batch``: a frame
    equal to SC's makes L and the reference SC's, and at the first bit where
    a frame differs from SC, L and the reference are still SC's. Only a
    flagged chunk is decoded by the oracle, and the report is read off it;
    an oracle whose wrong frames are not the screen's raises RuntimeError."""
    got, got_llrs = result.decisions, result.decision_llrs
    spec, q = config.spec, config.q
    per_trial = len(config.schedule[0])  # one frame per stream
    genie = _genie_llrs(q_llrs, got, q)
    reference = np.where(spec.frozen_mask, spec.frozen_value_array, genie < 0)
    wrong = np.any((got != reference) | (got_llrs != genie), axis=1).reshape(-1, per_trial)
    if not wrong.any():
        return wrong, None
    reference, ref_llrs = sc_decode_batch(q_llrs, spec, MODE_MINSUM_Q, q=q)
    differs = (got != reference) | (got_llrs != ref_llrs)
    if not np.array_equal(np.any(differs, axis=1).reshape(-1, per_trial), wrong):
        raise RuntimeError("the genie pass llr._genie_llrs flagged other frames than the oracle")
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
    one batched run, checked by ``divergence`` on the very same quantized
    inputs: by SC's genie pass, and by the oracle ``sc_decode_batch`` only
    on a chunk the pass flags. Returns a report.
    """
    trials = require_count(trials, 1)
    spec = config.spec
    per_trial = len(config.schedule[0])  # one frame per stream
    cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=ebn0_db, master_seed=seed)
    mismatches, first_divergence = 0, None
    for first, _, llrs in trial_chunks(spec, [cfg], trials, per_trial):
        q_llrs = quantize(llrs, config.q, scale)
        wrong, found = divergence(config, q_llrs, run(config, q_llrs))
        mismatches += int(wrong.any(axis=1).sum())
        if found is not None and first_divergence is None:
            found["trial"] += first
            first_divergence = found
    return EquivalenceReport(
        architecture=config.architecture, n=spec.n_bits, q=config.q,
        trials=trials, matches=trials - mismatches, mismatches=mismatches,
        first_divergence=first_divergence,
    )
