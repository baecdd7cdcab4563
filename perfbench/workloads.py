"""Workloads of the polarsc host-time benchmark, and the checks they share.

A workload is one request shape, sent by one client in a closed loop.
Every workload offers the same five steps:

* ``build()`` constructs the code and simulator configurations as a
  ``Ctx`` (part of set-up time);
* ``prepare(ctx, seed)`` turns a request seed into inputs, untimed;
* ``request(ctx, inputs)`` is the timed call into the package;
* ``check(ctx, inputs, index, out)`` returns the problems found in ``out``
  (empty when it is correct), untimed;
* ``digest(out)`` hashes every output that must stay byte-identical at
  equal seeds, and ``corrupt(ctx, inputs, index, out)`` returns damaged
  copies of a good output that ``check`` must reject.

The package's public functions are always looked up on their modules at
call time (``channel.ber_sweep``, ``archsim.run``), so the traced run can
wrap them without touching the package.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import NamedTuple

import numpy as np

from polarsc import archsim, channel, code, llr

Q = 6
MODES = ("exact", "minsum", "minsum_q")
ARCHS = ("conventional", "lookahead", "parallel2")


class Ctx(NamedTuple):
    spec: object
    configs: object = None


def sub_seed(*key):
    """32-bit seed derived from a tuple of non-negative integers."""
    return int(np.random.SeedSequence(list(key)).generate_state(1)[0])


def digest(obj):
    """SHA-256 of the canonical JSON form of ``obj``."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _ints(arr):
    return [int(v) for v in np.asarray(arr).ravel()]


def _floats(arr):
    return [float(v) for v in np.asarray(arr).ravel()]


def generator_matrix(n):
    """F^{(x)m} with F = [[1, 0], [1, 1]]: the natural-order polar transform
    as a matrix, built independently of the package's butterfly."""
    g = np.ones((1, 1), dtype=np.int64)
    kernel = np.array([[1, 0], [1, 1]], dtype=np.int64)
    while g.shape[0] < n:
        g = np.kron(g, kernel)
    return g


def draw_frames(spec, ebn0_db, master_seed, frames):
    """Messages and channel LLRs of trials 0..frames-1 under the package's
    documented stream: trial t owns ``SeedSequence(master_seed)`` spawned
    by ``t``, which draws the K message bits and then the N noise samples.

    Frozen values must be zero, as ``make_code_spec`` makes them.
    """
    n, k = spec.n_bits, spec.k_info
    var = 1.0 / (2.0 * (k / n) * 10.0 ** (ebn0_db / 10.0))
    gen = generator_matrix(n)[~spec.frozen_mask].astype(float)
    msgs = np.empty((frames, k), dtype=np.int64)
    noise = np.empty((frames, n))
    for t in range(frames):
        seq = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(t,))
        rng = np.random.default_rng(seq)
        msgs[t] = rng.integers(0, 2, size=k)
        noise[t] = rng.normal(0.0, np.sqrt(var), size=n)
    x = (msgs @ gen).astype(np.int64) % 2
    y = (1.0 - 2.0 * x) + noise
    return msgs, np.clip(2.0 * y / var, -llr.MAX_LLR, llr.MAX_LLR)


@dataclasses.dataclass(frozen=True)
class Sweep:
    """``ber_sweep`` over functional decoder modes on BPSK/AWGN."""

    name: str
    n: int
    k: int
    modes: tuple
    ebn0: tuple
    trials: int
    target: tuple  # layer-name prefixes this workload is chosen to load
    archs = ()     # architectures of the set-up noiseless check

    @property
    def frames_per_request(self):
        return len(self.ebn0) * self.trials

    def build(self):
        return Ctx(code.make_code_spec(self.n, self.k))

    def prepare(self, ctx, seed):
        return seed

    def request(self, ctx, seed):
        return channel.ber_sweep(ctx.spec, list(self.modes), [], list(self.ebn0),
                                 self.trials, seed, q=Q)

    def check(self, ctx, seed, index, out):
        expect = [(float(e), m) for e in self.ebn0 for m in self.modes]
        got = [(r.ebn0_db, r.mode) for r in out]
        if got != expect:
            return [f"sweep points {got} != {expect}"]
        bits = self.trials * self.k
        problems = []
        for r in out:
            label = f"{r.mode}@{r.ebn0_db}dB"
            q = Q if r.mode == "minsum_q" else None
            if (r.trials, r.architecture, r.q) != (self.trials, "functional", q):
                problems.append(f"{label}: wrong trials/architecture/q")
            if not (0 <= r.frame_errors <= min(r.bit_errors, self.trials)
                    and r.bit_errors <= bits
                    and (r.bit_errors == 0) == (r.frame_errors == 0)):
                problems.append(f"{label}: inconsistent counts "
                                f"{r.bit_errors}/{r.frame_errors}")
            if r.ber != r.bit_errors / bits or r.fer != r.frame_errors / self.trials:
                problems.append(f"{label}: ber/fer disagree with the counts")
        # Oracle: one operating point per request, rotating with the index,
        # re-drawn here and decoded by the full-recursion batch decoder.
        r = out[index % len(out)]
        spec = ctx.spec
        msgs, llrs = draw_frames(spec, r.ebn0_db, seed, self.trials)
        if r.mode == "minsum_q":
            u_hat = llr.sc_decode_batch(llr.quantize(llrs, Q), spec, r.mode, q=Q)[0]
        else:
            u_hat = llr.sc_decode_batch(llrs, spec, r.mode)[0]
        wrong = u_hat[:, ~spec.frozen_mask] != msgs
        want = (int(wrong.sum()), int(wrong.any(axis=1).sum()))
        if (r.bit_errors, r.frame_errors) != want:
            problems.append(f"{r.mode}@{r.ebn0_db}dB: counts "
                            f"{(r.bit_errors, r.frame_errors)} != oracle {want}")
        return problems

    def digest(self, out):
        return digest([[r.ebn0_db, r.mode, r.architecture, r.trials,
                        r.bit_errors, r.frame_errors] for r in out])

    def corrupt(self, ctx, seed, index, out):
        pick = index % len(out)
        r = out[pick]
        bit_errors = r.bit_errors + 1
        frame_errors = max(r.frame_errors, 1)
        bad = dataclasses.replace(
            r, bit_errors=bit_errors, frame_errors=frame_errors,
            ber=bit_errors / (r.trials * self.k), fer=frame_errors / r.trials)
        return [out[:pick] + [bad] + out[pick + 1:]]


@dataclasses.dataclass(frozen=True)
class ArchsimVerify:
    """``verify_equivalence`` for every architecture: the acceptance
    suite's simulator call shape."""

    name: str
    n: int
    k: int
    trials: int
    target: tuple
    archs = ARCHS

    @property
    def frames_per_request(self):
        # one frame per trial, two for the interleaved pair
        return self.trials * (1 + 1 + 2)

    def build(self):
        spec = code.make_code_spec(self.n, self.k)
        return Ctx(spec, [archsim.SimConfig(spec, Q, arch) for arch in ARCHS])

    def prepare(self, ctx, seed):
        # distinct frames for each architecture
        return [sub_seed(seed, j) for j in range(len(ARCHS))]

    def request(self, ctx, seeds):
        return [archsim.verify_equivalence(cfg, self.trials, s)
                for cfg, s in zip(ctx.configs, seeds)]

    def check(self, ctx, seeds, index, out):
        problems = []
        for arch, rep in zip(ARCHS, out):
            got = (rep.architecture, rep.n, rep.q, rep.trials, rep.matches,
                   rep.mismatches, rep.first_divergence)
            want = (arch, self.n, Q, self.trials, self.trials, 0, None)
            if got != want:
                problems.append(f"{arch}: report {got} != {want}")
        if len(out) != len(ARCHS):
            problems.append(f"{len(out)} reports for {len(ARCHS)} architectures")
        return problems

    def digest(self, out):
        return digest([rep.to_json_dict() for rep in out])

    def corrupt(self, ctx, seeds, index, out):
        bad = dataclasses.replace(out[0], matches=self.trials - 1, mismatches=1)
        return [[bad] + out[1:]]


@dataclasses.dataclass(frozen=True)
class GateCrosscheck:
    """One frame through the functional decoder and through the look-ahead
    simulator with gate-level PEs; decisions and decision LLRs must agree."""

    name: str
    n: int
    k: int
    ebn0: float
    target: tuple
    archs = ARCHS
    frames_per_request = 1

    def build(self):
        spec = code.make_code_spec(self.n, self.k)
        return Ctx(spec, archsim.SimConfig(spec, Q, "lookahead", use_gate_pes=True))

    def prepare(self, ctx, seed):
        _, llrs = draw_frames(ctx.spec, self.ebn0, seed, 1)
        return llr.quantize(llrs[0], Q)

    def request(self, ctx, q_llrs):
        return (llr.sc_decode(q_llrs, ctx.spec, "minsum_q", q=Q),
                archsim.run(ctx.configs, q_llrs))

    def check(self, ctx, q_llrs, index, out):
        trace, sim = out
        problems = []
        if not np.array_equal(sim.decisions[0], trace.u_hat):
            problems.append("gate-level decisions differ from the functional trace")
        if not np.array_equal(sim.decision_llrs[0], trace.decision_llrs):
            problems.append("gate-level decision LLRs differ from the functional trace")
        if sim.cycles_elapsed != self.n - 1:
            problems.append(f"look-ahead took {sim.cycles_elapsed} cycles, not N-1")
        return problems

    def digest(self, out):
        trace, sim = out
        return digest([_ints(trace.u_hat), _floats(trace.decision_llrs),
                       _ints(sim.decisions[0]), _ints(sim.decision_llrs[0]),
                       sim.cycles_elapsed, sim.candidate_buffer_peak])

    def corrupt(self, ctx, q_llrs, index, out):
        trace, sim = out
        info = int(np.flatnonzero(~ctx.spec.frozen_mask)[0])
        bits = sim.decisions[0].copy()
        bits[info] ^= 1
        llrs = sim.decision_llrs[0].copy()
        llrs[info] += 1
        return [(trace, dataclasses.replace(sim, decisions=[bits])),
                (trace, dataclasses.replace(sim, decision_llrs=[llrs]))]


WORKLOADS = {w.name: w for w in (
    Sweep(
        name="sweep_short",
        n=64, k=32, modes=("minsum_q",), ebn0=(1.0, 2.0, 3.0), trials=200,
        target=("channel.", "code."),
    ),
    Sweep(
        name="sweep_long",
        n=1024, k=512, modes=MODES, ebn0=(1.5, 2.5), trials=64,
        target=("llr.sc_decode_batch.",),
    ),
    ArchsimVerify(
        name="archsim_verify",
        n=256, k=128, trials=4,
        target=("archsim.run", "schedule.", "igc.", "gates."),
    ),
    GateCrosscheck(
        name="gate_crosscheck",
        n=64, k=32, ebn0=2.0,
        target=("gates.",),
    ),
)}


def closed_forms(spec, seed):
    """Run every architecture once at the workload's N and check the paper's
    closed forms: 2(N-1) cycles sequential, N-1 look-ahead, N for an
    interleaved pair, at most N/2 merged PEs in any cycle, and decisions and
    decision LLRs equal to the functional trace. Returns the modelled
    statistics per architecture and the problems found."""
    n = spec.n_bits
    want_cycles = {"conventional": 2 * (n - 1), "lookahead": n - 1, "parallel2": n}
    _, llrs = draw_frames(spec, 2.0, seed, 2)
    q_llrs = llr.quantize(llrs, Q)
    traces = [llr.sc_decode(row, spec, "minsum_q", q=Q) for row in q_llrs]
    stats, problems = {}, []
    for arch in ARCHS:
        blocks = [q_llrs[0], q_llrs[1]] if arch == "parallel2" else q_llrs[0]
        try:
            res = archsim.run(archsim.SimConfig(spec, Q, arch), blocks)
        except Exception as exc:  # a simulator that raises fails the closed forms
            problems.append(f"{arch}: run raised {type(exc).__name__}: {exc}")
            stats[arch] = {"cycles": 0, "buffer_peak": 0, "pe_activations": 0,
                           "decisions": "failed"}
            continue
        if res.cycles_elapsed != want_cycles[arch]:
            problems.append(f"{arch}: {res.cycles_elapsed} cycles, "
                            f"closed form {want_cycles[arch]}")
        if arch != "conventional" and max(res.activity.column_sums()) > n // 2:
            problems.append(f"{arch}: a cycle uses more than N/2 merged PEs")
        for s, dec in enumerate(res.decisions):
            if not (np.array_equal(dec, traces[s].u_hat)
                    and np.array_equal(res.decision_llrs[s], traces[s].decision_llrs)):
                problems.append(f"{arch}: stream {s} differs from the functional trace")
        stats[arch] = {
            "cycles": res.cycles_elapsed,
            "buffer_peak": res.candidate_buffer_peak,
            "pe_activations": sum(sum(row) for row in res.activity.counts),
            "decisions": digest([_ints(d) for d in res.decisions]),
        }
    return stats, problems


def noiseless(spec, archs, seed):
    """Noiseless round trip: every mode, and every listed architecture, must
    decode without a single error."""
    try:
        results = channel.ber_sweep(spec, list(MODES), list(archs), [0.0], 4, seed,
                                    channel_kind=channel.NOISELESS, q=Q)
    except Exception as exc:  # a sweep that raises fails the check
        return [f"noiseless sweep raised {type(exc).__name__}: {exc}"]
    return [f"noiseless {r.mode}/{r.architecture}: {r.bit_errors} bit errors"
            for r in results if r.bit_errors or r.frame_errors]


def digests_agree(digests):
    """True when every digest in the list is the same."""
    return len(set(digests)) == 1


def self_test(wl, ctx, inputs, out):
    """The benchmark's gate must reject damaged outputs: a flipped decision,
    a changed decision LLR or error count, and a mismatched digest."""
    problems = []
    if wl.check(ctx, inputs, 0, out):
        problems.append("self-test: the check rejects a good output")
    good = wl.digest(out)
    for bad in wl.corrupt(ctx, inputs, 0, out):
        if not wl.check(ctx, inputs, 0, bad):
            problems.append("self-test: the check accepts a corrupted output")
        if wl.digest(bad) == good:
            problems.append("self-test: the digest misses a corrupted output")
    if digests_agree([good, good, good[::-1]]):
        problems.append("self-test: a mismatched digest passes")
    return problems
