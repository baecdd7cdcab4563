"""Cycle-accurate simulation of the sequential and look-ahead decoders.

In look-ahead mode every activation is a merged PE pass producing the f
output and both precomputed g candidates; candidates stay buffered until
the partial-sum network delivers their select bits, at which point a
multiplexer resolves them. Decisions at the final stage resolve their own
candidate pair in the producing cycle (the one place same-cycle selection
is required); every other consumed value must have been produced in a
strictly earlier cycle, by the parent firing that owns the consumer's block.

None of this depends on the LLRs, so legality is checked once per
``SimConfig``, when it is built: ``check_schedule`` reads no data, raises
SchedulingError on any violation and yields each stream's firings with the
blocks and decision counts it checked, the per-cycle PE activity and the
candidate-buffer peak. A legal schedule fires one sequence in every stream,
so all frames run in lockstep on C1's firings, compiled into one gather per
tree level: frame f stands for stream f mod k of the k streams (odd frames
on C2 of the 2-parallel decoder). A run evaluates a level at a time, on
guessed decisions that it then confirms (``_dataflow``); the order of
evaluation does not change a determinate dataflow graph (Kahn, IFIP 1974).

Arithmetic is saturating q-bit integer min-sum, bit-identical to the
functional quantized decoder, on one shared-adder datapath like the paper's
merged PE: a PE forms s0 = b + a and s1 = b - a once, its g candidates are
s0 and s1 clamped to the q-bit rail, and its f output is (|s0| - |s1|) / 2,
since sgn(a) * sgn(b) * min(|a|, |b|) = (|a + b| - |a - b|) / 2 for integers
with sgn(0) = +1. The numerator is always even, and nothing overflows for
q <= MAX_Q, where |a| + |b| <= 2^54 - 2. The functional decoder computes f
as sign times minimum, so the equivalence check compares two formulas.
Optionally all PEs of a level, in every frame, go through one bit-sliced
call of the gate-level models instead (slower, used for cross-checks).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .channel import ChannelConfig, trial_chunks, BPSK_AWGN
from .code import CodeSpec, require_count, require_power_of_two
from .errors import InvalidParameterError, SchedulingError
from .gates import _unchecked_word, merged_pe
from .igc import refreshed_stage, select_levels, select_ready
from .llr import (
    MODE_MINSUM_Q,
    _genie_llrs,
    _ssc_wires,
    _wire_dtype,
    as_quantized,
    clamp,
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
        object.__setattr__(self, "schedule", schedule)  # not fields
        object.__setattr__(self, "levels", _level_gathers(
            schedule[0][0], self.spec.n_bits, self.architecture != CONVENTIONAL))


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
    decisions. Returns each stream's (cycle, stage, op, select, block,
    parent, decided) firings, the ActivityTable and the candidate-buffer
    peak in pairs: a firing reads stage ``select``'s select bits (or none)
    and its parent block from the buffer (block 0, the channel, at stage 1)
    after ``decided`` decisions.
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
            parent_blk = 0
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
            streams[s].append((cycle, stage, op, select, blk, parent_blk, decided[s]))
            if stage == m:
                for _ in range(2 if merged else 1):
                    decided[s] += 1
                    resolved = refreshed_stage(decided[s], n)
                    if resolved in unresolved[s]:
                        unresolved[s].remove(resolved)
                        live -= n >> resolved
            counts[s][cycle - 1] = n >> stage
            used += n >> stage
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
    (a list of vectors is one), frame f standing for stream f mod k of the
    checked schedule's k streams; all run in lockstep. Decisions and
    decision LLRs come back as (frames, N) arrays, row f for frame f. A
    trace row has no frame column, so ``record_trace`` takes exactly one
    frame per stream, and frame s is traced as stream s.
    """
    return _run(config, channel_llrs, None)


def _run(config, channel_llrs, guess):
    """``run``, given a first guess of its decisions: SC's (N, frames)
    decisions on ``channel_llrs``, read and not written, or None for the
    run's own walk. ``ber_sweep`` passes its minsum_q decoder's, so a chunk
    is walked once; the level pass confirms any guess (see ``_dataflow``)."""
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

    def record(levels):  # frame s is stream s: per PE its inputs, outputs and select bit
        for s, firings in enumerate(streams):
            for cycle, stage, op, select, blk, parent, decided in firings:
                nodes, pe, sel_blocks = levels[stage - 1]
                src = blk if op == "fg" else parent  # the node this PE reads
                a, b = nodes[src, :, s].reshape(2, -1)
                f, g0, g1 = (v[src, :, s] for v in pe)
                sel = sel_blocks[decided // (2 * (n >> stage)), :, s]  # a g's, or a leaf's bit
                outs = {"f": [f], "g": [np.where(sel, g1, g0)], "fg": [f, g0, g1]}[op]
                shown = op == "g" or stage == n.bit_length() - 1 and op == "fg"
                rows.extend(
                    (cycle, STREAM_LABELS[s], stage, i, op, f"{a[i]}|{b[i]}",
                     "|".join(str(o[i]) for o in outs), str(int(sel[i])) if shown else "")
                    for i in range(len(a)))

    decisions, dec_llrs = _dataflow(config, config.levels, frames,
                                    record if config.record_trace else None, guess)
    return SimResult(
        decisions=decisions,
        decision_llrs=dec_llrs,
        cycles_elapsed=activity.span,
        activity=activity,
        candidate_buffer_peak=peak,
        trace=sorted(rows, key=lambda row: row[:2]),  # by cycle, C1 before C2
    )


def _level_gathers(firings, n, merged):
    """Per tree level, ((f_dst, f_src), (g_dst, g_src, g_sel)) from checked
    firings: node dst of the level is f, or the g pair MUXed by select block
    g_sel, of the PE on node src above; a merged stage-s firing builds its
    input (level s - 1), a sequential one its output, a leaf its decision."""
    m = n.bit_length() - 1
    reads = [[] for _ in range(m)]  # per level: (node, source node, select block or -1)
    for _, stage, op, select, blk, parent, decided in firings:
        level = stage - 1 if merged else stage
        if level:
            sel = -1 if select is None else decided // (2 * (n >> select))
            reads[level - 1].append((decided if level == m else blk, parent, sel))
        if merged and stage == m:  # the leaf's pair: f decides, and its bit selects
            reads[m - 1] += [(decided, blk, -1), (decided + 1, blk, decided // 2)]
    return [(ix[:2, ix[2] < 0], ix[:, ix[2] >= 0]) for ix in (np.array(r).T for r in reads)]


def _level_pass(config, gathers, wires, guess, levels):
    """The tree a level at a time on (N, frames) ``wires``, with the select
    bits of the (N, frames) decisions ``guess``; returns the decision LLRs
    and decisions and appends each level's (input nodes, (f, g0, g1), select
    blocks) to ``levels`` unless it is None."""
    spec, q = config.spec, config.q
    rail = qmax(q)
    nodes = wires[None]
    for ((f_dst, f_src), (g_dst, g_src, g_sel)), sel in zip(gathers, select_levels(guess.T)):
        h = nodes.shape[1] // 2
        a, b = nodes[:, :h], nodes[:, h:]
        if config.use_gate_pes:  # in range by construction: checked input, PE outputs, MUX picks
            pe = tuple(w.value for w in merged_pe(_unchecked_word(a, q), _unchecked_word(b, q)))
        else:
            s0, s1 = b + a, b - a
            pe = ((np.abs(s0) - np.abs(s1)) >> 1, clamp(s0, rail, out=s0), clamp(s1, rail, out=s1))
        if levels is not None:
            levels.append((nodes, pe, sel))
        f, g0, g1 = pe
        nodes = np.empty((len(f_dst) + len(g_dst),) + f.shape[1:], dtype=np.int64)
        nodes[f_dst] = f[f_src]
        nodes[g_dst] = np.where(sel[g_sel], g1[g_src], g0[g_src])
    llrs = nodes[:, 0]
    return llrs, np.where(spec.frozen_mask[:, None], spec.frozen_value_array[:, None], llrs < 0)


def _dataflow(config, gathers, frames, record, guess):
    """Decide a (batch, N) stack of frames in lockstep by level passes over
    ``gathers``; return the decisions and decision-time LLRs, and show the
    last pass's level arrays to ``record(levels)`` unless it is None.

    The first guess is SC's: ``guess`` (N, frames) if given, else by the
    fast path's walk. LLR i depends on decisions 1..i-1 alone, so a pass
    whose guess agrees with the cycle-by-cycle dataflow on decisions 1..i-1
    agrees on 1..i: one that decides exactly its guess is confirmed, and
    otherwise the frames run again on its decisions, settling within N + 1
    passes."""
    spec, q = config.spec, config.q
    wires = np.ascontiguousarray(frames.T)
    if guess is None:
        guess = _ssc_wires(wires.astype(_wire_dtype(MODE_MINSUM_Q, q)), spec, MODE_MINSUM_Q, q)
    for _ in range(len(wires) + 1):
        levels = None if record is None else []
        llrs, u = _level_pass(config, gathers, wires, guess, levels)
        if np.array_equal(u, guess):
            if record is not None:
                record(levels)
            return u.T, llrs.T
        guess = u
    raise RuntimeError(f"the level pass did not settle in {len(wires) + 1} passes")


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
