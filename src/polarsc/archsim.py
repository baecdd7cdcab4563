"""Cycle-accurate simulation of the sequential and look-ahead decoders.

The simulator walks a time chart cycle by cycle. In look-ahead mode every
activation is a merged PE pass producing the f output and both
precomputed g candidates; candidates stay buffered until the partial-sum
network delivers their select bits, at which point a multiplexer resolves
them. Decisions at the final stage resolve their own candidate pair in
the producing cycle (the one place same-cycle selection is required);
every other consumed value must have been produced in a strictly earlier
cycle, by the parent firing that owns the consumer's block, and the
simulator enforces that.

Arithmetic is saturating q-bit integer min-sum, bit-identical to the
functional quantized decoder; optionally each PE can be evaluated through
the gate-level models instead (slower, used for cross-checks).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .channel import ChannelConfig, draw_trials, BPSK_AWGN
from .code import require_power_of_two
from .errors import InvalidParameterError, NotReadyError, SchedulingError
from .gates import WordQ, merged_pe
from .igc import PartialSumState
from .llr import (
    MODE_MINSUM_Q,
    as_quantized,
    decide,
    f_minsum,
    g_update,
    qmax,
    quantize,
    saturate,
    sc_decode_batch,
)
from .schedule import (
    ARCHITECTURES,
    CONVENTIONAL,
    LOOKAHEAD,
    PARALLEL2,
    ActivityTable,
    PE_F,
    build_conventional,
    build_lookahead,
)


@dataclass(frozen=True)
class SimConfig:
    """Simulation parameters: code, quantizer width, architecture."""

    spec: object
    q: int
    architecture: str
    record_trace: bool = False
    use_gate_pes: bool = False

    def __post_init__(self):
        if self.architecture not in ARCHITECTURES:
            raise InvalidParameterError(f"unknown architecture {self.architecture!r}")
        qmax(self.q)  # validates q
        require_power_of_two(self.spec.n_bits, "N", 4)


@dataclass
class SimResult:
    """Outcome of one simulated run."""

    decisions: list  # one int array per stream
    decision_llrs: list  # decision-time values per stream
    cycles_elapsed: int
    activity: ActivityTable
    candidate_buffer_peak: int
    trace: list = field(default_factory=list)

    def to_json_dict(self):
        return {
            "cycles": self.cycles_elapsed,
            "u_hat": [[int(b) for b in d] for d in self.decisions],
            "activity": self.activity.to_json_dict(),
            "buffer_peak": self.candidate_buffer_peak,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


TRACE_HEADER = ("cycle", "stream", "stage", "pe_index", "op", "inputs", "outputs",
                "select_bit")


class _Stream:
    """Per-stream decoder state: LLR buffers, candidate buffers, partial sums."""

    def __init__(self, spec, q, llrs, label):
        self.spec = spec
        self.q = q
        self.label = label
        self.n = spec.n_bits
        self.m = self.n.bit_length() - 1
        self.channel = as_quantized(llrs, q)
        if self.channel.shape != (self.n,):
            raise InvalidParameterError(
                f"stream {label}: expected {self.n} LLRs, got {self.channel.shape}"
            )
        self.psum = PartialSumState(self.n)
        self.fired = {s: 0 for s in range(1, self.m + 1)}  # firings so far, per stage
        # stage -> (outputs, produced cycle, producing firing); outputs are
        # (f, g0, g1) in look-ahead mode and the single f or g output otherwise
        self.buf = {}
        self.pending = {}   # stage -> dict(pairs, produced, dead) candidate sets
        self.next_index = 1
        self.decisions = np.zeros(self.n, dtype=np.int64)
        self.dec_llrs = np.zeros(self.n, dtype=np.int64)

    def push(self, bit):
        k = self.next_index
        self.decisions[k - 1] = bit
        self.psum.push(bit, k)
        self.next_index += 1
        # level at which the push settled; stage m - level just became ready
        level = (k & -k).bit_length() - 1
        stage = self.m - level
        if stage >= 1:
            entry = self.pending.get(stage)
            if entry is not None and not entry["dead"]:
                entry["dead"] = True  # selector resolved: pair collapses

    def alive_pairs(self):
        return sum(e["pairs"] for e in self.pending.values() if not e["dead"])


def _gate_eval(a_arr, b_arr, q):
    """Evaluate (f, g0, g1) through the bit-true gate models, elementwise."""
    f = np.empty_like(a_arr)
    g0 = np.empty_like(a_arr)
    g1 = np.empty_like(a_arr)
    for i in range(a_arr.shape[0]):
        fw, g0w, g1w = merged_pe(WordQ(int(a_arr[i]), q), WordQ(int(b_arr[i]), q))
        f[i], g0[i], g1[i] = fw.value, g0w.value, g1w.value
    return f, g0, g1


def _merged_outputs(a, b, q, use_gates):
    if use_gates:
        return _gate_eval(a, b, q)
    return f_minsum(a, b), saturate(a + b, q), saturate(b - a, q)


def _fmt(arr):
    return "|".join(str(int(v)) for v in np.atleast_1d(arr))


class _Sim:
    def __init__(self, config, streams):
        self.config = config
        self.spec = config.spec
        self.q = config.q
        self.n = self.spec.n_bits
        self.m = self.n.bit_length() - 1
        self.streams = streams
        self.trace = []
        self.peak = 0

    def _record(self, cycle, stream, stage, op, a, b, outs, sel=None):
        if not self.config.record_trace:
            return
        for i in range(len(np.atleast_1d(a))):
            sel_bit = "" if sel is None else str(int(np.atleast_1d(sel)[i]))
            self.trace.append((
                cycle, stream.label, stage, i, op,
                _fmt([np.atleast_1d(a)[i], np.atleast_1d(b)[i]]),
                _fmt([np.atleast_1d(o)[i] for o in outs]),
                sel_bit,
            ))

    def _fire(self, st, stage, cycle):
        """Count one firing of ``stage``; returns its block index ``blk`` and
        its input: the channel, or what the parent left in its buffer. The
        buffer must hold the parent's firing ``blk // 2`` (the one that owns
        this block), produced in an earlier cycle; odd blocks resolve
        look-ahead g candidates through the select MUX."""
        blk = st.fired[stage]
        st.fired[stage] += 1
        if stage == 1:
            return blk, st.channel
        parent = stage - 1
        if parent not in st.buf:
            raise SchedulingError(
                f"cycle {cycle}: stage {stage} needs stage {parent} output "
                f"that was never produced"
            )
        outs, produced, parent_blk = st.buf[parent]
        if produced >= cycle:
            raise SchedulingError(
                f"cycle {cycle}: stage {stage} consumes stage {parent} output "
                f"produced in cycle {produced}"
            )
        if parent_blk != blk // 2:
            raise SchedulingError(
                f"cycle {cycle}: stage {stage} block {blk + 1} needs stage {parent} "
                f"block {blk // 2 + 1}, but the buffer holds block {parent_blk + 1}"
            )
        if len(outs) == 1 or blk % 2 == 0:  # a sequential output, or the f side
            return blk, outs[0]
        _, g0, g1 = outs
        return blk, np.where(self._select_bits(st, parent, cycle) == 1, g1, g0)

    def _select_bits(self, st, stage, cycle):
        try:
            return st.psum.selection_bits(stage)
        except NotReadyError as exc:
            raise SchedulingError(
                f"cycle {cycle}: stage {stage} select bits not ready: {exc}"
            ) from exc

    def exec_merged(self, st, stage, cycle):
        """One merged-PE activation of the look-ahead decoder."""
        half = self.n >> stage
        blk, inp = self._fire(st, stage, cycle)
        a, b = inp[:half], inp[half:]
        f_out, g0, g1 = _merged_outputs(a, b, self.q, self.config.use_gate_pes)
        if stage == self.m:
            k = st.next_index
            u_odd = int(decide(f_out[0], k, self.spec))
            st.dec_llrs[k - 1] = f_out[0]
            st.push(u_odd)
            # same-cycle select: the fresh decision resolves this PE's pair
            g_val = g1[0] if u_odd else g0[0]
            st.dec_llrs[k] = g_val
            st.push(int(decide(g_val, k + 1, self.spec)))
            self._record(cycle, st, stage, "fg", a, b, (f_out, g0, g1), sel=[u_odd])
        else:
            stale = st.pending.get(stage)
            if stale is not None and not stale["dead"]:
                raise SchedulingError(
                    f"cycle {cycle}: stage {stage} refires with unresolved candidates"
                )
            st.buf[stage] = ((f_out, g0, g1), cycle, blk)
            st.pending[stage] = {"pairs": half, "produced": cycle, "dead": False}
            self._record(cycle, st, stage, "fg", a, b, (f_out, g0, g1))
        return half

    def exec_conventional(self, st, stage, pe_type, cycle):
        """One f or g activation of the sequential decoder."""
        half = self.n >> stage
        blk, inp = self._fire(st, stage, cycle)
        a, b = inp[:half], inp[half:]
        if pe_type == PE_F:
            out = f_minsum(a, b)
            self._record(cycle, st, stage, "f", a, b, (out,))
        else:
            sel = self._select_bits(st, stage, cycle)
            out = g_update(a, b, sel, q=self.q)
            self._record(cycle, st, stage, "g", a, b, (out,), sel=sel)
        st.buf[stage] = ((out,), cycle, blk)
        if stage == self.m:
            k = st.next_index
            st.dec_llrs[k - 1] = out[0]
            st.push(int(decide(out[0], k, self.spec)))
        return half

    def end_of_cycle(self):
        self.peak = max(self.peak, sum(st.alive_pairs() for st in self.streams))


def _build_schedule(config):
    """Per-cycle list of (stream_index, chart_entry) activations."""
    n = config.spec.n_bits
    if config.architecture == CONVENTIONAL:
        chart = build_conventional(n)
        return [[(0, cycle[0])] for cycle in chart.cycles]
    chart = build_lookahead(n)
    entries = [cycle[0] for cycle in chart.cycles]
    if config.architecture == LOOKAHEAD:
        return [[(0, e)] for e in entries]
    # two-stream interleaving: C1 stalls one cycle after its channel-stage
    # cycle, C2 runs the unstalled chart offset by one cycle; span = N
    schedule = [[] for _ in range(n)]
    schedule[0].append((0, entries[0]))
    schedule[1].append((1, entries[0]))
    for t in range(2, n):
        schedule[t].append((0, entries[t - 1]))
        schedule[t].append((1, entries[t - 1]))
    return schedule


def run(config, channel_llrs):
    """Execute the configured architecture on quantized channel LLRs.

    ``channel_llrs`` is one length-N integer vector for the single-stream
    architectures, or a pair of vectors for the 2-parallel one.
    """
    if config.architecture == PARALLEL2:
        if not isinstance(channel_llrs, (list, tuple)) or len(channel_llrs) != 2:
            raise InvalidParameterError("parallel2 expects two LLR blocks")
        streams = [
            _Stream(config.spec, config.q, channel_llrs[0], "C1"),
            _Stream(config.spec, config.q, channel_llrs[1], "C2"),
        ]
    else:
        streams = [_Stream(config.spec, config.q, channel_llrs, "C1")]
    sim = _Sim(config, streams)
    schedule = _build_schedule(config)
    n = config.spec.n_bits
    pe_pool = n // 2
    counts = [[0] * len(schedule) for _ in streams]
    for t, activations in enumerate(schedule, start=1):
        used = 0
        for stream_idx, entry in activations:
            st = streams[stream_idx]
            if config.architecture == CONVENTIONAL:
                active = sim.exec_conventional(st, entry.stage, entry.pe_type, t)
            else:
                active = sim.exec_merged(st, entry.stage, t)
            counts[stream_idx][t - 1] = active
            used += active
        if config.architecture != CONVENTIONAL and used > pe_pool:
            raise SchedulingError(
                f"cycle {t}: {used} merged PEs requested from a pool of {pe_pool}"
            )
        sim.end_of_cycle()
    for st in streams:
        if st.next_index != n + 1:
            raise SchedulingError(
                f"stream {st.label}: only {st.next_index - 1} of {n} bits decided"
            )
    activity = ActivityTable(
        n, tuple(st.label for st in streams), tuple(tuple(c) for c in counts)
    )
    return SimResult(
        decisions=[st.decisions.copy() for st in streams],
        decision_llrs=[st.dec_llrs.copy() for st in streams],
        cycles_elapsed=len(schedule),
        activity=activity,
        candidate_buffer_peak=sim.peak,
        trace=sim.trace,
    )


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
        return {
            "architecture": self.architecture,
            "n": self.n,
            "q": self.q,
            "trials": self.trials,
            "matches": self.matches,
            "mismatches": self.mismatches,
            "passed": self.passed,
            "first_divergence": self.first_divergence,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


def verify_equivalence(config, trials, seed, ebn0_db=1.0, scale=1.0):
    """Random-message campaign: the architectural decisions must be
    bit-identical to the functional quantized min-sum decoder.

    Each trial draws fresh messages and noise (two independent frames per
    trial for the 2-parallel architecture), decodes them through the
    simulator, and compares against the functional reference on the very
    same quantized inputs. Returns a report rather than raising.
    """
    if trials < 1:
        raise InvalidParameterError("trials must be >= 1")
    spec = config.spec
    frames_per_trial = 2 if config.architecture == PARALLEL2 else 1
    cfg = ChannelConfig(
        kind=BPSK_AWGN, ebn0_db=ebn0_db, master_seed=seed,
        code_rate=spec.k_info / spec.n_bits,
    )
    _, llrs = draw_trials(spec, cfg, trials * frames_per_trial)
    q_llrs = quantize(llrs, config.q, scale)
    reference, _ = sc_decode_batch(q_llrs, spec, MODE_MINSUM_Q, q=config.q)
    matches = 0
    mismatches = 0
    first_divergence = None
    for t in range(trials):
        base = t * frames_per_trial
        if config.architecture == PARALLEL2:
            result = run(config, [q_llrs[base], q_llrs[base + 1]])
        else:
            result = run(config, q_llrs[base])
        ok = True
        for s in range(frames_per_trial):
            got = result.decisions[s]
            want = reference[base + s]
            if not np.array_equal(got, want):
                ok = False
                if first_divergence is None:
                    idx = int(np.argmax(got != want))
                    first_divergence = {
                        "trial": t,
                        "stream": s,
                        "first_bit_index": idx + 1,
                        "sim": [int(b) for b in got],
                        "reference": [int(b) for b in want],
                    }
        if ok:
            matches += 1
        else:
            mismatches += 1
    return EquivalenceReport(
        architecture=config.architecture, n=spec.n_bits, q=config.q,
        trials=trials, matches=matches, mismatches=mismatches,
        first_divergence=first_divergence,
    )
