"""Cycle-accurate simulator: cycle counts, equivalence, buffers, traces."""

import json
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polarsc import (
    CodeSpec,
    InvalidParameterError,
    MAX_LLR,
    PartialSumState,
    SchedulingError,
    SimConfig,
    ber_sweep,
    encode,
    make_code_spec,
    quantize,
    run,
    sc_decode,
    sc_decode_batch,
    verify_equivalence,
)
from polarsc import WordQ, archsim, channel, gates
from polarsc.channel import ChannelConfig, draw_trials
from polarsc.llr import qmax

ARCHS = ("conventional", "lookahead", "parallel2")


def noisy_llrs(spec, seed, ebn0_db=1.0, frames=1):
    cfg = ChannelConfig(kind="bpsk_awgn", ebn0_db=ebn0_db, master_seed=seed)
    _, llrs = draw_trials(spec, cfg, frames)
    return llrs


class TestCycleCounts:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512, 1024])
    def test_closed_forms(self, n):
        spec = make_code_spec(n, n // 2)
        q_llrs = quantize(np.full(n, MAX_LLR), 6)
        la = run(SimConfig(spec=spec, q=6, architecture="lookahead"), q_llrs)
        assert la.cycles_elapsed == n - 1
        conv = run(SimConfig(spec=spec, q=6, architecture="conventional"), q_llrs)
        assert conv.cycles_elapsed == 2 * (n - 1)
        par = run(SimConfig(spec=spec, q=6, architecture="parallel2"),
                  [q_llrs, q_llrs])
        assert par.cycles_elapsed == n


class TestDecisionEquivalence:
    @pytest.mark.parametrize("arch", ["conventional", "lookahead"])
    @pytest.mark.parametrize("n", [8, 32, 128])
    def test_noisy_single_stream(self, arch, n):
        spec = make_code_spec(n, n // 2)
        llrs = noisy_llrs(spec, seed=n, frames=25)
        q_llrs = quantize(llrs, 6)
        cfg = SimConfig(spec=spec, q=6, architecture=arch)
        for t in range(q_llrs.shape[0]):
            result = run(cfg, q_llrs[t])
            ref = sc_decode(q_llrs[t], spec, "minsum_q", q=6)
            assert np.array_equal(result.decisions[0], ref.u_hat)
            assert np.array_equal(result.decision_llrs[0], ref.decision_llrs)

    def test_two_parallel_distinct_streams(self):
        spec = make_code_spec(16, 8)
        llrs = noisy_llrs(spec, seed=99, frames=20)
        q_llrs = quantize(llrs, 6)
        cfg = SimConfig(spec=spec, q=6, architecture="parallel2")
        for t in range(0, 20, 2):
            result = run(cfg, [q_llrs[t], q_llrs[t + 1]])
            for s in (0, 1):
                ref = sc_decode(q_llrs[t + s], spec, "minsum_q", q=6)
                assert np.array_equal(result.decisions[s], ref.u_hat)

    def test_conventional_vs_lookahead_identical(self):
        spec = make_code_spec(64, 32)
        q_llrs = quantize(noisy_llrs(spec, seed=5, frames=10), 6)
        for t in range(10):
            a = run(SimConfig(spec=spec, q=6, architecture="conventional"), q_llrs[t])
            b = run(SimConfig(spec=spec, q=6, architecture="lookahead"), q_llrs[t])
            assert np.array_equal(a.decisions[0], b.decisions[0])

    def test_gate_level_pes_match_integer_path(self):
        spec = make_code_spec(8, 4)
        q_llrs = quantize(noisy_llrs(spec, seed=3, frames=10), 5)
        for t in range(10):
            fast = run(SimConfig(spec=spec, q=5, architecture="lookahead"), q_llrs[t])
            gated = run(
                SimConfig(spec=spec, q=5, architecture="lookahead", use_gate_pes=True),
                q_llrs[t],
            )
            assert np.array_equal(fast.decisions[0], gated.decisions[0])
            assert np.array_equal(fast.decision_llrs[0], gated.decision_llrs[0])


class TestVerifyEquivalence:
    def test_noiseless_inputs_match(self):
        for n in (8, 64, 256):
            spec = make_code_spec(n, n // 2)
            msg = np.zeros(spec.k_info, dtype=int)
            x = encode(msg, spec)
            q_llrs = quantize((1 - 2 * x) * MAX_LLR, 6)
            res = run(SimConfig(spec=spec, q=6, architecture="lookahead"), q_llrs)
            ref = sc_decode(q_llrs, spec, "minsum_q", q=6)
            assert np.array_equal(res.decisions[0], ref.u_hat)

    @pytest.mark.parametrize("arch", ["conventional", "lookahead", "parallel2"])
    def test_randomized_campaign(self, arch):
        spec = make_code_spec(32, 16)
        cfg = SimConfig(spec=spec, q=6, architecture=arch)
        report = verify_equivalence(cfg, trials=60, seed=2)
        assert report.passed
        assert report.matches == 60 and report.mismatches == 0
        assert report.first_divergence is None

    def test_report_json_keys(self):
        spec = make_code_spec(8, 4)
        cfg = SimConfig(spec=spec, q=6, architecture="lookahead")
        d = verify_equivalence(cfg, trials=3, seed=0).to_json_dict()
        assert set(d) == {"architecture", "n", "q", "trials", "matches",
                          "mismatches", "passed", "first_divergence"}


class TestActivityAndBuffers:
    def test_parallel_activity_matches_reference_table(self):
        spec = make_code_spec(8, 4)
        q_llrs = quantize(np.full(8, MAX_LLR), 6)
        res = run(SimConfig(spec=spec, q=6, architecture="parallel2"),
                  [q_llrs, q_llrs])
        assert res.activity.counts[0] == (4, 0, 2, 1, 1, 2, 1, 1)
        assert res.activity.counts[1] == (0, 4, 2, 1, 1, 2, 1, 1)
        assert max(res.activity.column_sums()) <= 4

    @pytest.mark.parametrize("n", [8, 16, 64, 256])
    def test_candidate_buffer_peak_bound(self, n):
        spec = make_code_spec(n, n // 2)
        q_llrs = quantize(noisy_llrs(spec, seed=n + 1)[0], 6)
        res = run(SimConfig(spec=spec, q=6, architecture="lookahead"), q_llrs)
        assert res.candidate_buffer_peak <= n - 2
        # the first descent holds one unresolved candidate set per stage
        assert res.candidate_buffer_peak == n - 2

    def test_parallel_peak_within_register_budget(self):
        n, q = 64, 6
        spec = make_code_spec(n, n // 2)
        q_llrs = quantize(noisy_llrs(spec, seed=1, frames=2), q)
        res = run(SimConfig(spec=spec, q=q, architecture="parallel2"),
                  [q_llrs[0], q_llrs[1]])
        assert res.candidate_buffer_peak <= 2 * (n - 2)
        # two words per buffered pair still fit the "other registers" budget
        assert 2 * res.candidate_buffer_peak <= 9 * n // 2 + 4
        # the checked schedule's peak in closed form: N - 2 pairs per stream
        for n in (4, 8, 16, 32, 64, 128, 256, 512, 1024):
            assert archsim.check_schedule("parallel2", n)[2] == 2 * n - 4
            assert archsim.check_schedule("lookahead", n)[2] == n - 2

    def test_conventional_has_no_candidate_buffer(self):
        spec = make_code_spec(16, 8)
        q_llrs = quantize(np.full(16, MAX_LLR), 6)
        res = run(SimConfig(spec=spec, q=6, architecture="conventional"), q_llrs)
        assert res.candidate_buffer_peak == 0


class TestBatchedRun:
    """One run takes a (frames, N) array and decodes every frame exactly as
    a run of its own would."""

    @pytest.mark.parametrize("arch", ["conventional", "lookahead", "parallel2"])
    def test_batch_equals_per_frame_runs(self, arch):
        spec = make_code_spec(32, 16)
        q_llrs = quantize(noisy_llrs(spec, seed=21, frames=12), 6)
        cfg = SimConfig(spec=spec, q=6, architecture=arch)
        batched = run(cfg, q_llrs)
        assert batched.decisions.shape == batched.decision_llrs.shape == (12, 32)
        for f, frame in enumerate(q_llrs):
            single = run(cfg, frame)
            assert np.array_equal(batched.decisions[f], single.decisions[0])
            assert np.array_equal(batched.decision_llrs[f], single.decision_llrs[0])
        assert batched.cycles_elapsed == single.cycles_elapsed
        assert batched.activity == single.activity
        assert batched.candidate_buffer_peak == single.candidate_buffer_peak

    @pytest.mark.parametrize("sizes", [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)])
    def test_parallel2_unequal_batches(self, sizes):
        # frame f stands for stream f mod 2, so frame counts 0 to 5 hold
        # ``sizes`` frames of C1 and C2; an odd count leaves C2 one short
        spec = make_code_spec(16, 8)
        q_llrs = quantize(noisy_llrs(spec, seed=8, frames=5), 6)[:sum(sizes)]
        res = run(SimConfig(spec=spec, q=6, architecture="parallel2"), q_llrs)
        assert res.decisions.shape == res.decision_llrs.shape == (sum(sizes), 16)
        assert [len(res.decisions[s::2]) for s in range(2)] == list(sizes)
        ref, ref_llrs = sc_decode_batch(q_llrs, spec, "minsum_q", q=6)
        assert np.array_equal(res.decisions, ref)
        assert np.array_equal(res.decision_llrs, ref_llrs)
        assert res.cycles_elapsed == 16

    @pytest.mark.parametrize("trials", [1, 3])
    def test_ber_sweep_parallel2_odd_trials(self, trials):
        # consecutive frames alternate between C1 and C2; an odd count
        # leaves C2 one frame short (empty at one trial)
        spec = make_code_spec(32, 16)
        results = ber_sweep(spec, ["minsum_q"], ["lookahead", "parallel2"],
                            [-3.0, -1.0], trials, seed=4)
        counts = {}
        for r in results:
            counts.setdefault(r.architecture, []).append((r.bit_errors, r.frame_errors))
        assert counts["parallel2"] == counts["lookahead"] == counts["functional"]
        assert counts["lookahead"][0][1] == trials  # every frame has errors at -3 dB

    @pytest.mark.parametrize("q", [3, 5])
    def test_gate_level_pes_on_a_batch(self, q):
        spec = make_code_spec(8, 4)
        q_llrs = quantize(noisy_llrs(spec, seed=3, frames=10), q)
        fast = run(SimConfig(spec=spec, q=q, architecture="lookahead"), q_llrs)
        gated = run(SimConfig(spec=spec, q=q, architecture="lookahead", use_gate_pes=True),
                    q_llrs)
        assert np.array_equal(fast.decisions, gated.decisions)
        assert np.array_equal(fast.decision_llrs, gated.decision_llrs)

    @pytest.mark.parametrize("sizes", [(1, 0), (0, 0)])
    def test_gate_level_pes_on_empty_batches(self, sizes):
        # ``sizes`` frames of C1 and C2: one frame leaves C2 empty, and an
        # empty batch evaluates zero-width bit-planes
        spec = make_code_spec(16, 8)
        q_llrs = quantize(noisy_llrs(spec, seed=8, frames=2), 6)[:sum(sizes)]
        fast = run(SimConfig(spec=spec, q=6, architecture="parallel2"), q_llrs)
        gated = run(SimConfig(spec=spec, q=6, architecture="parallel2", use_gate_pes=True),
                    q_llrs)
        assert gated.decisions.shape == gated.decision_llrs.shape == (sum(sizes), 16)
        assert np.array_equal(fast.decisions, gated.decisions)
        assert np.array_equal(fast.decision_llrs, gated.decision_llrs)

    def test_trace_rejects_a_batch(self):
        # a trace row has no frame column: exactly one frame per stream
        spec = make_code_spec(8, 4)
        q_llrs = quantize(noisy_llrs(spec, seed=6, frames=3), 6)
        for arch, streams in (("lookahead", 1), ("parallel2", 2)):
            cfg = SimConfig(spec=spec, q=6, architecture=arch, record_trace=True)
            for frames in range(4):
                if frames == streams:
                    assert run(cfg, q_llrs[:frames]).trace
                    continue
                with pytest.raises(InvalidParameterError, match="one per stream"):
                    run(cfg, q_llrs[:frames])
        cfg = SimConfig(spec=spec, q=6, architecture="parallel2", record_trace=True)
        with pytest.raises(InvalidParameterError, match="one per stream"):
            run(cfg, q_llrs[0])  # one vector is one frame
        # frame s is traced as stream s
        rows = run(cfg, q_llrs[:2]).trace
        for s, label in enumerate(("C1", "C2")):
            first = [r for r in rows if r[1] == label and r[2] == 1 and r[3] == 0][0]
            assert first[5] == f"{q_llrs[s, 0]}|{q_llrs[s, 4]}"

    def test_json_for_both_shapes(self):
        spec = make_code_spec(8, 4)
        q_llrs = quantize(noisy_llrs(spec, seed=6, frames=3), 6)
        cfg = SimConfig(spec=spec, q=6, architecture="lookahead")
        single = run(cfg, q_llrs[0])
        assert json.dumps(single.to_json_dict()["u_hat"]) == json.dumps(
            [[int(b) for b in single.decisions[0]]])
        batched = json.loads(json.dumps(run(cfg, q_llrs).to_json_dict(), indent=2))
        # one row per frame, each the u_hat of the frame's own run
        assert batched["u_hat"][0] == single.to_json_dict()["u_hat"][0]
        assert batched["u_hat"] == [run(cfg, f).to_json_dict()["u_hat"][0] for f in q_llrs]
        assert len(batched["u_hat"]) == 3

    def test_first_divergence_located(self, monkeypatch):
        # a simulator that differs from the reference in trial 2, stream C2,
        # and in trial 3, stream C1, must report trial 2 first
        dataflow = archsim._dataflow

        def flipped(*args):
            u_hat, llrs = dataflow(*args)
            u_hat[2 * 2 + 1, 5] ^= 1
            u_hat[3 * 2 + 0, 2] ^= 1
            return u_hat, llrs

        monkeypatch.setattr(archsim, "_dataflow", flipped)
        spec = make_code_spec(16, 8)
        report = verify_equivalence(SimConfig(spec=spec, q=6, architecture="parallel2"),
                                    trials=4, seed=7)
        assert (report.matches, report.mismatches) == (2, 2)
        div = report.first_divergence
        assert (div["trial"], div["stream"], div["first_bit_index"]) == (2, 1, 6)
        assert [a ^ b for a, b in zip(div["sim"], div["reference"])] == [0] * 5 + [1] + [0] * 10

    @pytest.mark.parametrize("arch", ["lookahead", "parallel2"])
    def test_decision_llr_divergence_located(self, monkeypatch, arch):
        # right decisions with one wrong decision LLR still fail the campaign
        dataflow = archsim._dataflow
        per_trial = 2 if arch == "parallel2" else 1

        def shifted(*args):
            u_hat, llrs = dataflow(*args)
            llrs[1 * per_trial, 6] -= 1  # trial 1, stream C1, bit 7
            return u_hat, llrs

        monkeypatch.setattr(archsim, "_dataflow", shifted)
        spec = make_code_spec(16, 8)
        report = verify_equivalence(SimConfig(spec=spec, q=6, architecture=arch),
                                    trials=3, seed=7)
        assert (report.matches, report.mismatches) == (2, 1)
        div = report.first_divergence
        assert (div["trial"], div["stream"], div["first_bit_index"]) == (1, 0, 7)
        assert div["sim"] == div["reference"]
        assert div["reference_llr"] == div["sim_llr"] + 1


class TestScreenThenOracle:
    """divergence screens each chunk by SC's genie pass on the run's own
    decisions; the oracle, sc_decode_batch, rules only on a chunk the pass
    flags."""

    @staticmethod
    def spy(monkeypatch, name, outputs, damage=None):
        # wrap archsim's ``name``, keep each output, and let ``damage`` edit it
        fn = getattr(archsim, name)

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            if damage is not None:
                damage(out)
            outputs.append(out)
            return out

        monkeypatch.setattr(archsim, name, wrapper)

    def test_clean_campaign_never_calls_the_oracle(self, monkeypatch):
        spec = make_code_spec(16, 8)
        config = SimConfig(spec=spec, q=6, architecture="parallel2")
        monkeypatch.setattr(channel, "_CHUNK_ELEMENTS", 3 * 2 * spec.n_bits)  # 3 trials
        screens, oracles = [], []
        self.spy(monkeypatch, "_genie_llrs", screens)
        self.spy(monkeypatch, "sc_decode_batch", oracles)
        assert verify_equivalence(config, trials=7, seed=3).passed
        assert (len(screens), len(oracles)) == (3, 0)  # chunks of 3, 3 and 1 trials

    def test_flagged_chunk_reported_from_the_oracle(self, monkeypatch):
        spec = make_code_spec(16, 8)
        config = SimConfig(spec=spec, q=6, architecture="lookahead")
        sims, oracles = [], []

        def flip(out):
            out[0][2, 3] ^= 1  # frame 2's fourth decision

        self.spy(monkeypatch, "_dataflow", sims, flip)
        self.spy(monkeypatch, "sc_decode_batch", oracles)
        report = verify_equivalence(config, trials=4, seed=5)
        assert len(oracles) == 1
        (got, got_llrs), (want, want_llrs) = sims[0], oracles[0]
        assert report.mismatches == 1
        assert report.first_divergence == {
            "trial": 2, "stream": 0, "first_bit_index": 4,
            "sim": got[2].tolist(), "reference": want[2].tolist(),
            "sim_llr": got_llrs[2, 3].item(), "reference_llr": want_llrs[2, 3].item()}
        assert isinstance(report.first_divergence["reference_llr"], float)

    @pytest.mark.parametrize("part", ["decision", "decision_llr"])
    def test_genie_flagging_a_clean_chunk_raises(self, monkeypatch, part):
        spec = make_code_spec(16, 8)
        config = SimConfig(spec=spec, q=6, architecture="lookahead")
        info = int(np.flatnonzero(~spec.frozen_mask)[0])

        def damage(llrs):
            # ~L flips the sign of an information bit's LLR in frame 1, and so
            # its reference decision; L ^ 1 moves bit 2's LLR but keeps its sign
            if part == "decision":
                llrs[1, info] = ~llrs[1, info]
            else:
                llrs[1, 1] ^= 1

        self.spy(monkeypatch, "_genie_llrs", [], damage)
        with pytest.raises(RuntimeError, match="_genie_llrs"):
            verify_equivalence(config, trials=4, seed=5)

    @pytest.mark.parametrize("q", [2, 6, 8, 16])
    def test_screen_flags_exactly_the_frames_that_differ(self, q):
        # a fake run that is the oracle's decode, damaged in one frame: a
        # decision at a frozen or an information position, or one decision
        # LLR (a tie among them moved to +1 or -1); the screen must flag that
        # frame alone, locate the damage, and a clean copy must flag nothing
        m = qmax(q)
        rng = np.random.default_rng(3000 + q)
        rails = np.array([[m] * 4, [-m] * 4, [m, -m] * 2, [0, m] * 2])
        seen = set()
        for _ in range(12):
            n = 1 << int(rng.integers(2, 8))
            frozen = tuple(int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.5))
            values = tuple(int(v) for v in rng.integers(0, 2, len(frozen)))
            spec = CodeSpec(n, n - len(frozen), frozen, values)
            config = SimConfig(spec=spec, q=q, architecture="lookahead")
            q_llrs = np.vstack([np.tile(rails, n)[:, :n],
                                rng.choice([m, -m, 1, -1, 0, 0, 0], size=(4, n))])
            u, llrs = sc_decode_batch(q_llrs, spec, "minsum_q", q=q)
            llrs = llrs.astype(np.int64)  # the simulator's decision LLRs are integers
            clean = SimpleNamespace(decisions=u, decision_llrs=llrs)
            wrong, found = archsim.divergence(config, q_llrs, clean)
            assert not wrong.any() and found is None
            frame = int(rng.integers(len(q_llrs)))
            damages = [("frozen", spec.frozen_mask), ("information", ~spec.frozen_mask),
                       ("tie", llrs[frame] == 0), ("decision_llr", np.ones(n, bool))]
            for kind, where in damages:
                if not where.any():
                    continue
                i = int(rng.choice(np.flatnonzero(where)))
                got, got_llrs = u.copy(), llrs.copy()
                if kind in ("frozen", "information"):
                    got[frame, i] ^= 1
                elif kind == "tie":
                    got_llrs[frame, i] = rng.choice([-1, 1])
                else:
                    got_llrs[frame, i] ^= 1
                wrong, found = archsim.divergence(
                    config, q_llrs, SimpleNamespace(decisions=got, decision_llrs=got_llrs))
                differs = np.any((got != u) | (got_llrs != llrs), axis=1)
                assert np.array_equal(wrong[:, 0], differs), (kind, n, i)
                assert (found["trial"], found["first_bit_index"]) == (frame, i + 1)
                seen.add(kind)
        assert seen == {"frozen", "information", "tie", "decision_llr"}


class TestLockstepStreams:
    """The two 2-parallel streams fire the same sequence, so one run decides
    both in lockstep, as two look-ahead runs would one stream each."""

    @pytest.mark.parametrize("sizes", [(2, 1), (1, 1), (4, 4)])
    def test_parallel2_equals_two_lookahead_runs(self, sizes):
        # ``sizes`` frames of C1 and C2; frame f stands for stream f mod 2
        spec = make_code_spec(32, 16)
        q_llrs = quantize(noisy_llrs(spec, seed=13, frames=sum(sizes)), 6)
        par = run(SimConfig(spec=spec, q=6, architecture="parallel2"), q_llrs)
        lookahead = SimConfig(spec=spec, q=6, architecture="lookahead")
        for s, size in enumerate(sizes):
            ref = run(lookahead, q_llrs[s::2])
            assert len(ref.decisions) == size
            assert np.array_equal(par.decisions[s::2], ref.decisions)
            assert np.array_equal(par.decision_llrs[s::2], ref.decision_llrs)
        # so the pair equals one look-ahead run, row for row
        ref = run(lookahead, q_llrs)
        assert np.array_equal(par.decisions, ref.decisions)
        assert np.array_equal(par.decision_llrs, ref.decision_llrs)

    @pytest.mark.parametrize("arch", ["conventional", "lookahead", "parallel2"])
    def test_one_push_per_decision(self, monkeypatch, arch):
        # the streams of a lockstep batch share one level form of their
        # decisions, built once from all of them; a run pushes no decision
        indices, forms = [], []
        push, select_levels = PartialSumState.push, archsim.select_levels

        def counted(self, u_hat, index):
            indices.append(index)
            return push(self, u_hat, index)

        def spied(u):
            forms.append(u.copy())
            return select_levels(u)

        monkeypatch.setattr(PartialSumState, "push", counted)
        monkeypatch.setattr(archsim, "select_levels", spied)
        spec = make_code_spec(16, 8)
        q_llrs = quantize(noisy_llrs(spec, seed=4, frames=4), 6)
        res = run(SimConfig(spec=spec, q=6, architecture=arch), q_llrs)
        assert indices == []
        assert len(forms) == 1 and np.array_equal(forms[0], res.decisions)

    @pytest.mark.parametrize("arch", ["conventional", "lookahead", "parallel2"])
    def test_dataflow_reads_the_checked_select_stages(self, arch):
        # the level gathers read exactly the select bits the checker proved
        # ready, at each read's checked stage and decision count, and no others
        n = 16
        cfg = SimConfig(spec=make_code_spec(n, n // 2), q=6, architecture=arch)
        stages = [(level, int(j)) for level, (_, (_, _, g_sel)) in enumerate(cfg.levels, 1)
                  for j in g_sel]
        checked = [(select, decided // (2 * (n >> select)))
                   for _, stage, op, select, _, _, decided in cfg.schedule[0][0]
                   if select is not None]
        checked += [(4, decided // 2) for _, stage, op, _, _, _, decided in cfg.schedule[0][0]
                    if op == "fg" and stage == 4]  # a merged leaf's pair, by its first bit
        assert stages and sorted(stages) == sorted(checked)

    @pytest.mark.parametrize("n", [8, 16])
    def test_legal_schedules_fire_one_sequence_per_stream(self, monkeypatch, n):
        # run decides every stream with C1's firings, which is sound only if
        # no schedule the checker accepts lets C2 fire another sequence
        base = archsim._build_schedule("parallel2", n)
        rng = random.Random(n)
        schedules = [_drop(c)(base) for c in range(1, len(base) + 1)]
        schedules += [_swap(c)(base) for c in range(1, len(base))]
        schedules += [_repack(base, rng) for _ in range(2000)]
        accepted = 0
        for sched in schedules:
            monkeypatch.setattr(archsim, "_build_schedule", lambda arch, n, s=sched: s)
            try:
                streams, _, _ = archsim.check_schedule("parallel2", n)
            except SchedulingError:
                continue
            accepted += 1
            c1, c2 = ([firing[1:] for firing in stream] for stream in streams)
            assert c1 == c2
        assert accepted > 100  # the random re-packings reach legal schedules


def frozen_ones_code(n, seed):
    """A random code of length n whose frozen values include ones."""
    rng = np.random.default_rng(seed)
    frozen = tuple(int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.5)) or (1,)
    values = (1,) + tuple(int(v) for v in rng.integers(0, 2, len(frozen) - 1))
    return CodeSpec(n, n - len(frozen), frozen, values)


class TestLevelPass:
    """A run guesses its decisions, evaluates the tree a level at a time on
    the guess and confirms it; a wrong guess costs passes, never the result."""

    @staticmethod
    def count_passes(monkeypatch):
        passes = []
        level_pass = archsim._level_pass

        def counted(*args):
            passes.append(args[3].copy())  # the pass's guess
            return level_pass(*args)

        monkeypatch.setattr(archsim, "_level_pass", counted)
        return passes

    @pytest.mark.parametrize("arch", ARCHS)
    @pytest.mark.parametrize("guess", ["zeros", "last_information_bit_flipped", "random"])
    def test_wrong_guesses_reach_the_oracle(self, monkeypatch, arch, guess):
        n, q = 32, 6
        spec = frozen_ones_code(n, seed=7)
        rng = np.random.default_rng(11)
        q_llrs = rng.integers(-qmax(q), qmax(q) + 1, size=(6, n))
        ref, ref_llrs = sc_decode_batch(q_llrs, spec, "minsum_q", q=q)
        cfg = SimConfig(spec=spec, q=q, architecture=arch)
        clean = run(cfg, q_llrs)
        last = int(np.flatnonzero(~spec.frozen_mask)[-1])

        def guessed(wires, *args):  # stands in for the fast path's walk
            if guess == "zeros":
                return np.zeros(wires.shape, dtype=np.int8)
            if guess == "random":
                return rng.integers(0, 2, size=wires.shape, dtype=np.int8)
            u = ref.T.astype(np.int8)
            u[last] ^= 1
            return u

        monkeypatch.setattr(archsim, "_ssc_wires", guessed)
        passes = self.count_passes(monkeypatch)
        res = run(cfg, q_llrs)
        for got, want in ((res.decisions, ref), (res.decision_llrs, ref_llrs),
                          (res.decisions, clean.decisions),
                          (res.decision_llrs, clean.decision_llrs)):
            assert np.array_equal(got, want)
        assert 2 <= len(passes) <= n + 1
        if guess == "last_information_bit_flipped":
            assert len(passes) == 2  # no decision depends on the last information bit
        # after pass t, the first t decisions are final
        for t, u in enumerate(passes[1:], start=1):
            assert np.array_equal(u[:t], ref.T[:t])

    @pytest.mark.parametrize("arch", ARCHS)
    def test_trace_after_a_wrong_guess(self, monkeypatch, arch):
        # the rows come from the pass that confirmed its guess
        spec = frozen_ones_code(16, seed=3)
        cfg = SimConfig(spec=spec, q=6, architecture=arch, record_trace=True)
        q_llrs = quantize(noisy_llrs(spec, seed=6, frames=len(cfg.schedule[0])), 6)
        clean = run(cfg, q_llrs)
        monkeypatch.setattr(archsim, "_ssc_wires",
                            lambda wires, *args: np.zeros(wires.shape, dtype=np.int8))
        passes = self.count_passes(monkeypatch)
        res = run(cfg, q_llrs)
        assert len(passes) > 2 and res.trace == clean.trace
        assert np.array_equal(res.decisions, clean.decisions)

    def test_a_pass_that_never_confirms_raises(self, monkeypatch):
        n = 16
        spec = make_code_spec(n, n // 2)
        level_pass, passes = archsim._level_pass, []

        def contrary(config, gathers, wires, guess, levels):
            passes.append(1)
            llrs, _ = level_pass(config, gathers, wires, guess, levels)
            return llrs, 1 - guess.astype(np.int64)

        monkeypatch.setattr(archsim, "_level_pass", contrary)
        q_llrs = quantize(noisy_llrs(spec, seed=2, frames=3), 6)
        with pytest.raises(RuntimeError, match="did not settle in 17 passes"):
            run(SimConfig(spec=spec, q=6, architecture="lookahead"), q_llrs)
        assert len(passes) == n + 1

    @pytest.mark.parametrize("arch", ARCHS)
    def test_a_disarmed_checker_lets_the_campaign_fail(self, monkeypatch, arch):
        # a checker that accepts one stale parent read (the buffer holds the
        # block before the one the firing needs): the run gathers its levels
        # from the checked firings, so the campaign must report mismatches
        check = archsim.check_schedule

        def disarmed(architecture, n):
            streams, activity, peak = check(architecture, n)
            k = next(k for k, f in enumerate(streams[0]) if f[1] > 1 and f[5] > 0)
            for stream in streams:
                cycle, stage, op, select, blk, parent, decided = stream[k]
                stream[k] = (cycle, stage, op, select, blk, parent - 1, decided)
            return streams, activity, peak

        spec = make_code_spec(16, 8)
        config = SimConfig(spec=spec, q=6, architecture=arch)
        assert verify_equivalence(config, trials=20, seed=1).passed
        monkeypatch.setattr(archsim, "check_schedule", disarmed)
        report = verify_equivalence(SimConfig(spec=spec, q=6, architecture=arch),
                                    trials=20, seed=1)
        assert report.mismatches > 0 and not report.passed


def assert_matches_oracle(spec, q, q_llrs):
    """run on every architecture, and through the gate-level merged PEs for
    q <= 16, gives the decisions and decision LLRs of the oracle."""
    ref, ref_llrs = sc_decode_batch(q_llrs, spec, "minsum_q", q=q)
    configs = [SimConfig(spec=spec, q=q, architecture=arch) for arch in ARCHS]
    if q <= 16:
        configs += [SimConfig(spec=spec, q=q, architecture=arch, use_gate_pes=True)
                    for arch in ARCHS[1:]]
    for cfg in configs:
        res = run(cfg, q_llrs)
        assert np.array_equal(res.decisions, ref), (cfg.architecture, cfg.use_gate_pes)
        assert np.array_equal(res.decision_llrs, ref_llrs), (cfg.architecture, cfg.use_gate_pes)


@st.composite
def random_codes(draw):
    """N in 4..64, K in 0..N, a random frozen set with random frozen values."""
    n = 1 << draw(st.integers(2, 6))
    k = draw(st.integers(0, n))
    frozen = sorted(draw(st.permutations(range(1, n + 1)))[:n - k])
    values = draw(st.lists(st.integers(0, 1), min_size=n - k, max_size=n - k))
    return CodeSpec(n, k, tuple(frozen), tuple(values))


class TestSimulatorAgainstOracle:
    """The simulator's shared-adder arithmetic computes f as (|b + a| - |b - a|) / 2;
    the oracle computes it as sign times minimum. Both must agree everywhere."""

    @settings(max_examples=150)
    @given(spec=random_codes(), q=st.sampled_from([2, 3, 4, 6, 8, 16, 31, 32, 53, 54]),
           kind=st.sampled_from(["unit", "full", "rails"]), frames=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    def test_random_codes(self, spec, q, kind, frames, seed):
        rng = np.random.default_rng(seed)
        top = qmax(q)
        shape = (frames, spec.n_bits)
        if kind == "unit":
            q_llrs = rng.integers(-1, 2, size=shape)
        elif kind == "full":
            q_llrs = rng.integers(-top, top + 1, size=shape)
        else:  # rails mixed with zeros
            q_llrs = rng.choice(np.array([-top, 0, top]), size=shape)
        assert_matches_oracle(spec, q, q_llrs)

    @pytest.mark.parametrize("q", [2, 3, 6, 31, 32, 53, 54])
    def test_every_pe_input_pair_at_n4(self, q):
        # every pair of q-bit values at both stage-1 PEs; for wide q the rails,
        # zero and their neighbours, where |b +/- a| reaches 2^q - 2
        top = qmax(q)
        if q <= 6:
            values = np.arange(-top, top + 1)
        else:
            values = np.array([-top, 1 - top, -1, 0, 1, top - 1, top])
        a, b = (v.ravel() for v in np.meshgrid(values, values))
        # PE 1 reads wires (1, 3) and PE 2 wires (2, 4)
        q_llrs = np.stack([a, b[::-1], b, a[::-1]], axis=1)
        assert_matches_oracle(CodeSpec(4, 4, (), ()), q, q_llrs)


class TestSingleFrameGatePEs:
    """One frame through gate-level PEs: each tree level is one call of the
    models, and its operand words skip WordQ's range check, up to q = 54
    (``assert_matches_oracle`` runs the gate models only to q = 16)."""

    @pytest.mark.parametrize("kind", ["rails", "ties"])
    @pytest.mark.parametrize("q", [2, 6, 16, 54])
    def test_matches_the_integer_datapath_and_sc_decode(self, q, kind, monkeypatch):
        n = 32
        rng = np.random.default_rng(q)
        base = make_code_spec(n, n // 2)
        spec = CodeSpec(n, n // 2, base.frozen_set,
                        tuple(int(v) for v in rng.integers(0, 2, n // 2)))
        top = qmax(q)
        if kind == "rails":
            levels = [-top, 1 - top, top - 1, top]
        else:  # equal magnitudes and zeros, so f ties and g cancels
            levels = [-max(1, top // 2), 0, max(1, top // 2)]
        x = rng.choice(np.array(levels), size=n)
        gated = SimConfig(spec=spec, q=q, architecture="lookahead", use_gate_pes=True)
        res = run(gated, x)
        fast = run(SimConfig(spec=spec, q=q, architecture="lookahead"), x)
        trace = sc_decode(x, spec, "minsum_q", q=q)
        assert np.array_equal(res.decisions, fast.decisions)
        assert np.array_equal(res.decision_llrs, fast.decision_llrs)
        assert np.array_equal(res.decisions[0], trace.u_hat)
        assert np.array_equal(res.decision_llrs[0], trace.decision_llrs)

        # with every unchecked word built by the checked WordQ, no word is out
        # of range and nothing changes; each of the log2(n) levels is one call
        merged_pe, operands = archsim.merged_pe, []

        def spy(a, b):
            operands.append(type(a.value))
            return merged_pe(a, b)

        monkeypatch.setattr(archsim, "merged_pe", spy)
        monkeypatch.setattr(archsim, "_unchecked_word", WordQ)
        monkeypatch.setattr(gates, "_unchecked_word", WordQ)
        checked = run(gated, x)
        assert np.array_equal(checked.decisions, res.decisions)
        assert np.array_equal(checked.decision_llrs, res.decision_llrs)
        assert len(operands) == n.bit_length() - 1 and operands.count(int) == 0


class TestTraceAndValidation:
    def test_trace_rows_recorded(self):
        spec = make_code_spec(8, 4)
        q_llrs = quantize(np.full(8, MAX_LLR), 6)
        res = run(SimConfig(spec=spec, q=6, architecture="lookahead",
                            record_trace=True), q_llrs)
        # one row per PE activation: (N/2) * log2(N)
        assert len(res.trace) == 12
        cycles = sorted({row[0] for row in res.trace})
        assert cycles == list(range(1, 8))

    def test_rejects_per_stream_blocks(self):
        # one (batch, N) block per stream is no frame batch: equal sizes make
        # a 3-D array, unequal sizes a ragged one
        spec = make_code_spec(8, 4)
        q_llrs = quantize(noisy_llrs(spec, seed=2, frames=4), 6)
        cfg = SimConfig(spec=spec, q=6, architecture="parallel2")
        with pytest.raises(InvalidParameterError, match=r"got shape \(2, 2, 8\)"):
            run(cfg, [q_llrs[:2], q_llrs[2:]])
        for blocks in ([q_llrs[:3], q_llrs[3:]], [q_llrs[:2], q_llrs[2:2]],
                       [q_llrs[0], q_llrs[1:2]]):
            with pytest.raises(InvalidParameterError, match="regular array"):
                run(cfg, blocks)

    def test_rejects_out_of_range_inputs(self):
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError):
            run(SimConfig(spec=spec, q=4, architecture="lookahead"),
                np.full(8, 31, dtype=np.int64))

    @pytest.mark.parametrize("bad", [np.nan, 1.5, np.iinfo(np.int64).min, "3", 1 - 3j])
    def test_rejects_non_quantized_inputs(self, bad):
        spec = make_code_spec(8, 4)
        llrs = np.zeros(8, dtype=np.asarray(bad).dtype)
        llrs[3] = bad
        with pytest.raises(InvalidParameterError):
            run(SimConfig(spec=spec, q=6, architecture="lookahead"), llrs)

    def test_config_validation(self):
        spec = make_code_spec(8, 4)
        assert SimConfig(spec=spec, q=54, architecture="lookahead").q == 54
        for kwargs in ({"q": 55, "architecture": "lookahead"},
                       {"q": 1, "architecture": "lookahead"},
                       {"q": 6.0, "architecture": "lookahead"},
                       {"q": 6, "architecture": "lookahead_2parallel"},
                       {"q": 6, "architecture": "conventional", "use_gate_pes": True}):
            with pytest.raises(InvalidParameterError):
                SimConfig(spec=spec, **kwargs)
        with pytest.raises(InvalidParameterError):
            SimConfig(spec=make_code_spec(2, 1), q=6, architecture="lookahead")
        for not_a_spec in (None, spec.to_json_dict(), 8):
            with pytest.raises(InvalidParameterError, match="CodeSpec"):
                SimConfig(spec=not_a_spec, q=6, architecture="lookahead")

    @pytest.mark.parametrize("shape", [(7,), (2, 7), (2, 2, 8), ()])
    def test_rejects_bad_shapes(self, shape):
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError):
            run(SimConfig(spec=spec, q=6, architecture="lookahead"),
                np.zeros(shape, dtype=np.int64))

    def test_sim_result_json_keys(self):
        spec = make_code_spec(8, 4)
        q_llrs = quantize(np.full(8, MAX_LLR), 6)
        d = run(SimConfig(spec=spec, q=6, architecture="lookahead"), q_llrs).to_json_dict()
        assert set(d) == {"cycles", "u_hat", "activity", "buffer_peak"}


def _drop(cycle):
    """Schedule mutation: remove the given 1-based cycle."""
    return lambda sched: sched[:cycle - 1] + sched[cycle:]


def _swap(cycle):
    """Schedule mutation: exchange the given 1-based cycle with the next."""
    def mutate(sched):
        sched = list(sched)
        sched[cycle - 1], sched[cycle] = sched[cycle], sched[cycle - 1]
        return sched
    return mutate


def _remove_c1_stall(sched):
    """Run stream C1 of the interleaved pair without its one-cycle stall."""
    c1 = [e for cycle in sched for s, e in cycle if s == 0]
    c2 = [e for cycle in sched for s, e in cycle if s == 1]
    return ([[(0, c1[0])]]
            + [[(0, c1[t]), (1, c2[t - 1])] for t in range(1, len(c1))]
            + [[(1, c2[-1])]])


def _repack(sched, rng):
    """Schedule mutation: move firings a few places or exchange the streams
    of two nearby firings, then pack the firings into cycles of one or two."""
    flat = [activation for cycle in sched for activation in cycle]
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(flat))
        j = min(len(flat) - 1, max(0, i + rng.randint(-3, 3)))
        if rng.random() < 0.5:
            flat.insert(j, flat.pop(i))
        else:
            (si, ei), (sj, ej) = flat[i], flat[j]
            flat[i], flat[j] = (sj, ei), (si, ej)
    cycles = []
    while flat:
        width = rng.choice((1, 2))
        cycles.append(flat[:width])
        flat = flat[width:]
    return cycles


def _merge_first_cycles(sched):
    """Put both streams' channel-stage firings into cycle 1."""
    return [list(sched[0]) + list(sched[1])] + list(sched[2:])


def _merge(cycle):
    """Schedule mutation: run the given 1-based cycle and the next as one."""
    return lambda sched: (sched[:cycle - 1] + [list(sched[cycle - 1]) + list(sched[cycle])]
                          + sched[cycle + 1:])


def _repeat(cycle):
    """Schedule mutation: fire the given 1-based cycle twice in a row."""
    return lambda sched: sched[:cycle] + sched[cycle - 1:]


class TestLegalityChecker:
    """An illegal schedule must raise SchedulingError, never decode silently."""

    N = 16

    def run_mutated(self, monkeypatch, arch, mutate, frames):
        spec = make_code_spec(self.N, self.N // 2)
        q_llrs = quantize(noisy_llrs(spec, seed=3, frames=frames), 6)
        build = archsim._build_schedule
        monkeypatch.setattr(archsim, "_build_schedule", lambda a, n: mutate(build(a, n)))
        cfg = SimConfig(spec=spec, q=6, architecture=arch)
        if arch == "parallel2":
            return [run(cfg, [q_llrs[t], q_llrs[t + 1]]) for t in range(0, frames, 2)]
        return [run(cfg, q_llrs[t]) for t in range(frames)]

    @pytest.mark.parametrize("arch,mutate", [
        # a stage consumes its parent's buffer before the parent has
        # refilled it for the consumer's block
        ("lookahead", _drop(9)),       # the second stage-2 firing
        ("conventional", _swap(16)),   # stage-1 g, then stage-2 f
        ("parallel2", _drop(10)),
        ("lookahead", _swap(2)),
        ("lookahead", _drop(15)),
        ("parallel2", _remove_c1_stall),
        ("parallel2", _merge_first_cycles),  # PE-pool overflow
    ], ids=["stale-lookahead", "stale-conventional", "stale-parallel2", "adjacent-swap",
            "dropped-cycle", "c1-stall-removed", "pe-pool-overflow"])
    def test_illegal_schedule_rejected(self, monkeypatch, arch, mutate):
        with pytest.raises(SchedulingError):
            self.run_mutated(monkeypatch, arch, mutate, frames=2)

    @pytest.mark.parametrize("arch,mutate,match", [
        ("lookahead", _drop(1), "cycle 1: stage 2 needs stage 1 output that was never"),
        ("lookahead", _merge(1), "cycle 1: stage 2 consumes stage 1 output produced in "
                                 "cycle 1"),
        ("lookahead", _drop(9), "cycle 9: stage 3 block 3 needs stage 2 block 2, but the "
                                "buffer holds block 1"),
        ("lookahead", _swap(8), "cycle 8: stage 1 select bits not ready after 6 "),
        ("conventional", _drop(4), "select bits not ready"),
        ("lookahead", _repeat(1), "cycle 2: stage 1 refires with unresolved candidates"),
        ("parallel2", _merge_first_cycles, "cycle 1: 16 merged PEs requested from a pool "
                                           "of 8"),
        ("lookahead", _drop(15), "stream C1: 14 of 16 bits decided"),
    ], ids=["never-produced", "same-cycle-chaining", "stale-buffer", "merged-select-early",
            "g-select-early", "refire-unresolved", "pe-pool-overflow", "undecided-bits"])
    def test_each_check_names_its_violation(self, monkeypatch, arch, mutate, match):
        with pytest.raises(SchedulingError, match=match):
            self.run_mutated(monkeypatch, arch, mutate, frames=2)

    def test_check_reads_no_data(self, monkeypatch):
        # an empty batch carries no LLRs, yet the illegal schedule is rejected
        spec = make_code_spec(self.N, self.N // 2)
        build = archsim._build_schedule
        monkeypatch.setattr(archsim, "_build_schedule", lambda a, n: _drop(9)(build(a, n)))
        with pytest.raises(SchedulingError, match="buffer holds block"):
            run(SimConfig(spec=spec, q=6, architecture="lookahead"),
                np.zeros((0, self.N), dtype=np.int64))

    @pytest.mark.parametrize("arch", ["conventional", "lookahead", "parallel2"])
    def test_every_drop_and_adjacent_swap(self, monkeypatch, arch):
        # either the mutation is rejected or it is a legal reordering (such
        # as exchanging two identical firings) that decodes identically
        length = len(archsim._build_schedule(arch, self.N))
        want = [r.decisions for r in self.run_mutated(monkeypatch, arch, list, frames=4)]
        mutations = [_drop(c) for c in range(1, length + 1)]
        mutations += [_swap(c) for c in range(1, length)]
        for mutate in mutations:
            monkeypatch.undo()
            try:
                got = [r.decisions for r in self.run_mutated(monkeypatch, arch, mutate, 4)]
            except SchedulingError:
                continue
            assert np.array_equal(got, want)


@pytest.mark.parametrize("arch,mutate", [
    ("lookahead", _drop(9)), ("conventional", _swap(16)), ("parallel2", _drop(10)),
])
def test_illegal_schedule_rejected_when_config_built(monkeypatch, arch, mutate):
    # the schedule is checked when its config is built, before any run
    spec = make_code_spec(16, 8)
    build = archsim._build_schedule
    monkeypatch.setattr(archsim, "_build_schedule", lambda a, n: mutate(build(a, n)))
    with pytest.raises(SchedulingError):
        SimConfig(spec=spec, q=6, architecture=arch)
