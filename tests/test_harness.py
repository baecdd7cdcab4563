"""Channel model, per-trial determinism, and Monte-Carlo sweeps."""

import dataclasses
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from polarsc import (
    ChannelConfig,
    CodeSpec,
    InvalidParameterError,
    MAX_LLR,
    SimConfig,
    archsim,
    ber_sweep,
    channel,
    encode,
    make_code_spec,
    quantize,
    sc_decode_batch,
    trial_rng,
    verify_equivalence,
)
from polarsc.channel import BPSK_AWGN, NOISELESS, draw_trials, trial_chunks
from polarsc.llr import MODES
from polarsc.schedule import ARCHITECTURES


def reference_trials(spec, cfg, trials):
    """draw_trials written out one trial at a time: K message bits, then N
    normals from the trial's own stream, and one encode per row."""
    n, k = spec.n_bits, spec.k_info
    var = 1.0 / (2.0 * (k / n) * 10.0 ** (cfg.ebn0_db / 10.0))
    msgs = np.zeros((trials, k), dtype=np.int64)
    llrs = np.zeros((trials, n))
    for t in range(trials):
        rng = trial_rng(cfg.master_seed, t)
        msgs[t] = rng.integers(0, 2, size=k)
        symbols = 1.0 - 2.0 * encode(msgs[t], spec)
        if cfg.kind == NOISELESS:
            llrs[t] = symbols * MAX_LLR
        else:
            y = symbols + rng.normal(0.0, np.sqrt(var), size=n)
            llrs[t] = np.clip(2.0 * y / var, -MAX_LLR, MAX_LLR)
    return msgs, llrs


class TestChannel:
    def test_noiseless_certainties(self):
        spec = make_code_spec(16, 8)
        cfg = ChannelConfig(kind=NOISELESS, ebn0_db=0.0, master_seed=1)
        msgs, llrs = draw_trials(spec, cfg, 3)
        assert np.array_equal(llrs, MAX_LLR * (1 - 2 * encode(msgs, spec)))

    @pytest.mark.parametrize("n,k", [(8, 4), (64, 1), (64, 63), (1024, 1)])
    def test_noiseless_is_awgn_at_the_rail(self, n, k):
        # the noiseless channel draws BPSK/AWGN at a point where every LLR
        # clips at +/-MAX_LLR, whatever point it is asked for
        spec = make_code_spec(n, k)
        msgs, llrs = channel._draw(spec, NOISELESS, 5, range(3), [0.0, 4000.0])
        certain = MAX_LLR * (1.0 - 2.0 * encode(msgs, spec))
        assert llrs.tobytes() == np.concatenate([certain, certain]).tobytes()
        assert np.array_equal(msgs, channel._draw(spec, BPSK_AWGN, 5, range(3), [0.0])[0])

    def test_replay_is_bit_identical(self):
        spec = make_code_spec(64, 32)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=2.0, master_seed=42)
        first = draw_trials(spec, cfg, 8)
        second = draw_trials(spec, cfg, 8)
        assert np.array_equal(first[0], second[0])
        assert np.array_equal(first[1], second[1])

    def test_trials_are_independent_streams(self):
        spec = make_code_spec(64, 32)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=2.0, master_seed=42)
        _, llrs = draw_trials(spec, cfg, 2)
        assert not np.array_equal(llrs[0], llrs[1])

    def test_trial_rng_order_independent(self):
        a = trial_rng(9, 3).normal(size=5)
        trial_rng(9, 0).normal(size=100)  # unrelated consumption
        b = trial_rng(9, 3).normal(size=5)
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError):
            trial_rng(-1, 0)

    @pytest.mark.parametrize("trial", [-1, 1.5, True, "3", None])
    def test_bad_trial_index_rejected(self, trial):
        # none of these is read as some other trial's stream
        with pytest.raises(InvalidParameterError):
            trial_rng(0, trial)

    def test_draw_order_message_then_noise(self):
        # every row against its own trial's stream, at rate 1/2 and others
        for n, k in [(16, 8), (64, 32), (64, 16), (32, 20)]:
            spec = make_code_spec(n, k)
            for kind in (BPSK_AWGN, NOISELESS):
                cfg = ChannelConfig(kind=kind, ebn0_db=1.5, master_seed=4)
                for trials in (0, 5):
                    msgs, llrs = draw_trials(spec, cfg, trials)
                    want_msgs, want_llrs = reference_trials(spec, cfg, trials)
                    assert msgs.shape == (trials, k) and llrs.shape == (trials, n)
                    assert np.array_equal(msgs, want_msgs), (n, k, kind, trials)
                    assert np.array_equal(llrs, want_llrs), (n, k, kind, trials)

    def test_noise_variance_formula(self):
        # a rate-1/4 code gets sigma^2 = 1 / (2 * 1/4 * Eb/N0), from the spec
        spec = make_code_spec(64, 16)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=3.0, master_seed=0)
        msgs, llrs = draw_trials(spec, cfg, 1)
        var = 1.0 / (2.0 * 0.25 * 10.0 ** 0.3)
        rng = trial_rng(0, 0)
        rng.integers(0, 2, size=16)
        y = 1.0 - 2.0 * encode(msgs[0], spec) + rng.normal(0.0, np.sqrt(var), 64)
        assert np.array_equal(llrs[0], np.clip(2.0 * y / var, -MAX_LLR, MAX_LLR))

    def test_zero_information_bits_rejected(self):
        spec = CodeSpec(8, 0, tuple(range(1, 9)), (0,) * 8)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=0)
        with pytest.raises(InvalidParameterError):
            draw_trials(spec, cfg, 2)
        with pytest.raises(InvalidParameterError):
            ber_sweep(spec, ["minsum"], [], [1.0], trials=2, seed=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("ebn0", [4000.0, -4000.0, -3233.0,
                                      pytest.param(np.float64(4000), id="numpy-4000.0")])
    def test_noise_variance_out_of_float_range_rejected(self, ebn0):
        # 10^(Eb/N0/10) overflows, underflows to 0, or leaves an infinite
        # variance that would turn the LLRs into NaN; a numpy float raises
        # like a Python float, with no numpy overflow warning first
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError, match=f"Eb/N0 {ebn0} dB"):
            draw_trials(spec, ChannelConfig(BPSK_AWGN, ebn0, 0), 2)

    def test_config_validation(self):
        assert [f.name for f in dataclasses.fields(ChannelConfig)] == [
            "kind", "ebn0_db", "master_seed"]
        with pytest.raises(InvalidParameterError):
            ChannelConfig(kind="carrier_pigeon", ebn0_db=0.0, master_seed=0)
        for bad in (float("inf"), "1", None, True, 10**400):
            with pytest.raises(InvalidParameterError):
                ChannelConfig(kind=BPSK_AWGN, ebn0_db=bad, master_seed=0)
        for bad in ("x", -5, True, 1.5):
            with pytest.raises(InvalidParameterError, match="seed"):
                ChannelConfig(kind=BPSK_AWGN, ebn0_db=0.0, master_seed=bad)


def documented_rows(spec, kind, seed, trials, points):
    """Trials' messages and LLRs as trial_rng defines them: integers(0, 2,
    size=K), then standard_normal(N) (AWGN only), mapped to LLRs at each
    point, stacked point after point."""
    n, k = spec.n_bits, spec.k_info
    msgs = np.zeros((len(trials), k), dtype=np.int64)
    normals = np.zeros((len(trials), n))
    for i, t in enumerate(trials):
        rng = trial_rng(seed, t)
        msgs[i] = rng.integers(0, 2, size=k)
        if kind == BPSK_AWGN:
            normals[i] = rng.standard_normal(n)
    symbols = 1.0 - 2.0 * encode(msgs, spec)
    llrs = []
    for ebn0 in points:
        var = 1.0 / (2.0 * (k / n) * 10.0 ** (ebn0 / 10.0))
        llrs.append(symbols * MAX_LLR if kind == NOISELESS else
                    np.clip(2.0 * (symbols + np.sqrt(var) * normals) / var, -MAX_LLR, MAX_LLR))
    return msgs, np.concatenate(llrs).reshape(-1, n)


seed_values = st.one_of(st.integers(0, 2**130 - 1), st.integers(0, 2**63 - 1).map(np.int64),
                        st.integers(0, 2**64 - 1).map(np.uint64))
code_shapes = st.sampled_from([2, 4, 16, 64]).flatmap(
    lambda n: st.tuples(st.just(n), st.one_of(st.sampled_from([1, n]), st.integers(1, n))))
channel_kinds = st.sampled_from([BPSK_AWGN, NOISELESS])
point_lists = st.lists(st.sampled_from([-2.0, 0.0, 1.5, 4.0]), min_size=1, max_size=3)


class TestSeedingPass:
    """A chunk's trial states come out of one hashing pass and its message
    bits off the raw stream; every row must still be trial_rng's."""

    @given(seed_values, code_shapes, channel_kinds, point_lists,
           st.sampled_from([0, 2**32, 2**64]), st.integers(-3, 2), st.integers(0, 5))
    def test_rows_and_states_equal_trial_rng(self, seed, code, kind, points, base, offset,
                                             count):
        # trial ranges around 2**32 and 2**64 mix one-, two- and three-word keys
        spec = make_code_spec(*code)
        start = max(base + offset, 0)
        trials = range(start, start + count)
        msgs, llrs = channel._draw(spec, kind, seed, trials, points)
        want_msgs, want_llrs = documented_rows(spec, kind, seed, trials, points)
        assert msgs.shape == (count, spec.k_info)
        assert llrs.shape == (len(points) * count, spec.n_bits)
        assert np.array_equal(msgs, want_msgs) and np.array_equal(llrs, want_llrs)
        if count:
            want = [trial_rng(seed, t).bit_generator.state["state"] for t in trials]
            assert channel._trial_states(seed, trials) == [(w["state"], w["inc"]) for w in want]

    @given(seed_values, code_shapes, channel_kinds, point_lists, st.integers(0, 7),
           st.integers(1, 3))
    def test_draw_trials_and_chunks_equal_trial_rng(self, seed, code, kind, points, count,
                                                    per_chunk):
        spec = make_code_spec(*code)
        cfgs = [ChannelConfig(kind=kind, ebn0_db=e, master_seed=seed) for e in points]
        msgs, llrs = draw_trials(spec, cfgs[0], count)
        want_msgs, want_llrs = documented_rows(spec, kind, seed, range(count), points[:1])
        assert msgs.shape == (count, spec.k_info) and llrs.shape == (count, spec.n_bits)
        assert np.array_equal(msgs, want_msgs) and np.array_equal(llrs, want_llrs)
        budget = per_chunk * len(points) * spec.n_bits
        with mock.patch.object(channel, "_CHUNK_ELEMENTS", budget):
            chunks = list(trial_chunks(spec, cfgs, count))
        assert [first for first, *_ in chunks] == list(range(0, count, per_chunk))
        for first, msgs, llrs in chunks:
            trials = range(first, first + len(msgs))
            want_msgs, want_llrs = documented_rows(spec, kind, seed, trials, points)
            assert np.array_equal(msgs, want_msgs) and np.array_equal(llrs, want_llrs)

    @pytest.mark.parametrize("kind", [BPSK_AWGN, NOISELESS])
    def test_shifted_states_are_caught(self, monkeypatch, kind):
        # states one trial off give other trials' rows; the check against
        # trial_rng on the chunk's first trial must refuse them
        states = channel._trial_states
        monkeypatch.setattr(channel, "_trial_states",
                            lambda seed, trials: states(seed, [t + 1 for t in trials]))
        with pytest.raises(RuntimeError, match="trial_rng"):
            channel._draw(make_code_spec(16, 8), kind, 3, range(4), [1.0])


class TestDrawTrials:
    def test_deterministic_and_order_free(self):
        spec = make_code_spec(16, 8)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=5)
        msgs_a, llrs_a = draw_trials(spec, cfg, 10)
        msgs_b, llrs_b = draw_trials(spec, cfg, 10)
        assert np.array_equal(msgs_a, msgs_b)
        assert np.array_equal(llrs_a, llrs_b)
        # a shorter campaign is a prefix of a longer one
        msgs_c, llrs_c = draw_trials(spec, cfg, 4)
        assert np.array_equal(msgs_c, msgs_a[:4])
        assert np.array_equal(llrs_c, llrs_a[:4])


class TestBerSweep:
    def test_noiseless_error_free(self):
        spec = make_code_spec(32, 16)
        results = ber_sweep(
            spec, modes=["exact", "minsum", "minsum_q"], architectures=["lookahead"],
            ebn0_points=[0.0], trials=20, seed=3, channel_kind=NOISELESS, q=6,
        )
        for r in results:
            assert r.ber == 0.0 and r.fer == 0.0

    def test_functional_vs_architecture_counts_match(self):
        spec = make_code_spec(16, 8)
        results = ber_sweep(
            spec, modes=["minsum_q"], architectures=["lookahead"],
            ebn0_points=[1.0], trials=60, seed=11, q=6,
        )
        by_decoder = {r.architecture: r for r in results}
        assert by_decoder["functional"].bit_errors == by_decoder["lookahead"].bit_errors
        assert by_decoder["functional"].frame_errors == by_decoder["lookahead"].frame_errors

    def test_error_rates_normalized(self):
        spec = make_code_spec(16, 8)
        (r,) = ber_sweep(spec, modes=["minsum"], architectures=[],
                         ebn0_points=[0.0], trials=50, seed=1)
        assert r.ber == pytest.approx(r.bit_errors / (50 * 8))
        assert r.fer == pytest.approx(r.frame_errors / 50)
        assert r.frame_errors <= 50

    def test_same_seed_same_counts(self):
        spec = make_code_spec(32, 16)
        a = ber_sweep(spec, ["minsum"], [], [1.5], trials=40, seed=8)
        b = ber_sweep(spec, ["minsum"], [], [1.5], trials=40, seed=8)
        assert [(r.bit_errors, r.frame_errors) for r in a] == [
            (r.bit_errors, r.frame_errors) for r in b
        ]

    def test_rejects_empty_points(self):
        with pytest.raises(InvalidParameterError, match="Eb/N0 point"):
            ber_sweep(make_code_spec(8, 4), ["minsum"], [], [], trials=1, seed=0)

    @pytest.mark.parametrize("points", [1.0, "1.0", [[1.0, 2.0]]],
                             ids=["scalar", "string", "nested"])
    def test_rejects_points_that_are_not_a_list(self, points):
        with pytest.raises(InvalidParameterError, match="Eb/N0 point"):
            ber_sweep(make_code_spec(8, 4), ["minsum"], [], points, trials=1, seed=0)

    @pytest.mark.parametrize("names", [None, 2.0, True, 3, "minsum", "lookahead"])
    @pytest.mark.parametrize("which", ["modes", "architectures"])
    def test_rejects_names_that_are_not_a_list(self, which, names):
        # a bare string is not read as its characters, and a non-iterable is no TypeError
        lists = {"modes": [], "architectures": [], which: names}
        with pytest.raises(InvalidParameterError, match=f"{which} must be a list"):
            ber_sweep(make_code_spec(8, 4), ebn0_points=[1.0], trials=2, seed=0, **lists)

    def test_rejects_unknown_mode_or_arch(self):
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError):
            ber_sweep(spec, ["turbo"], [], [0.0], trials=1, seed=0)
        with pytest.raises(InvalidParameterError):
            ber_sweep(spec, [], ["systolic"], [0.0], trials=1, seed=0)

    @pytest.mark.parametrize("kwargs", [
        {"seed": 1.5}, {"seed": 0, "scale": 0.0}, {"seed": 0, "scale": -2.0},
        {"seed": 0, "q": 99}, {"seed": 0, "q": 6.0},
    ], ids=["fractional-seed", "zero-scale", "negative-scale", "q99", "float-q"])
    def test_unused_arguments_checked(self, kwargs):
        # no quantizer runs in minsum mode, yet every argument is checked (an
        # empty point list would raise whatever the argument checks do)
        with pytest.raises(InvalidParameterError):
            ber_sweep(make_code_spec(16, 8), ["minsum"], [], [3.0], 2, **kwargs)

    def test_result_json_keys(self):
        spec = make_code_spec(8, 4)
        (r,) = ber_sweep(spec, ["minsum"], [], [0.0], trials=2, seed=0)
        d = r.to_json_dict()
        assert set(d) == {"ebn0_db", "trials", "bit_errors", "frame_errors",
                          "ber", "fer", "mode", "q", "architecture"}


class TestTrialCounts:
    """One count check guards draw_trials, ber_sweep and verify_equivalence."""

    @pytest.mark.parametrize("trials", [-1, 2.5, True, np.bool_(True), "3", None],
                             ids=["negative", "fraction", "bool", "numpy-bool", "str", "none"])
    def test_bad_counts_rejected(self, trials):
        spec = make_code_spec(16, 8)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=0)
        with pytest.raises(InvalidParameterError):
            draw_trials(spec, cfg, trials)
        with pytest.raises(InvalidParameterError):
            ber_sweep(spec, ["minsum"], [], [1.0], trials, seed=0)
        with pytest.raises(InvalidParameterError):
            verify_equivalence(SimConfig(spec, 6, "lookahead"), trials, seed=0)

    @pytest.mark.parametrize("seed", [1.5, True, -1], ids=["fraction", "bool", "negative"])
    def test_bad_seeds_rejected(self, seed):
        # the same check as for trial counts: no seed is truncated to an int,
        # and a channel config holds none
        spec = make_code_spec(16, 8)
        with pytest.raises(InvalidParameterError):
            ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=seed)
        with pytest.raises(InvalidParameterError):
            ber_sweep(spec, ["minsum"], [], [1.0], 2, seed=seed)
        with pytest.raises(InvalidParameterError):
            verify_equivalence(SimConfig(spec, 6, "lookahead"), 2, seed=seed)

    def test_numpy_integer_seed_accepted(self):
        spec = make_code_spec(16, 8)
        cfgs = [ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=s)
                for s in (7, np.int64(7), np.uint32(7))]
        assert all(type(cfg.master_seed) is int for cfg in cfgs)
        draws = [draw_trials(spec, cfg, 3)[1] for cfg in cfgs]
        assert all(np.array_equal(d, draws[0]) for d in draws)

    def test_numpy_integers_accepted(self):
        spec = make_code_spec(16, 8)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=0)
        assert draw_trials(spec, cfg, np.int64(3))[1].shape == (3, 16)
        (r,) = ber_sweep(spec, ["minsum"], [], [1.0], np.int32(3), seed=0)
        assert r.trials == 3 and type(r.trials) is int
        report = verify_equivalence(SimConfig(spec, 6, "lookahead"), np.uint8(2), seed=0)
        assert report.trials == 2 and type(report.trials) is int


class TestSweepChunks:
    """ber_sweep draws each trial once and decodes chunks of trials with
    all operating points stacked; none of that may show in the counts."""

    @staticmethod
    def set_chunk(monkeypatch, trials_per_chunk, points, spec):
        monkeypatch.setattr(channel, "_CHUNK_ELEMENTS",
                            trials_per_chunk * points * spec.n_bits)

    @pytest.mark.parametrize("kind", [BPSK_AWGN, NOISELESS])
    @pytest.mark.parametrize("trials", [7, 11])
    def test_counts_do_not_depend_on_chunk_size(self, monkeypatch, kind, trials):
        spec = make_code_spec(16, 8)
        points = [0.0, 1.5, 3.0]

        def sweep():
            return ber_sweep(spec, list(MODES), list(ARCHITECTURES), points, trials,
                             seed=5, channel_kind=kind, q=5, scale=1.5)

        whole = sweep()  # the default budget holds all trials in one chunk
        assert [(r.ebn0_db, r.mode, r.architecture) for r in whole] == [
            (e, m, a) for e in points
            for m, a in [(m, "functional") for m in MODES]
            + [("minsum_q", a) for a in ARCHITECTURES]]
        if kind == BPSK_AWGN:
            assert sum(r.bit_errors for r in whole) > 0
        for per_chunk in (1, 3):  # 3 divides neither trial count
            self.set_chunk(monkeypatch, per_chunk, len(points), spec)
            assert sweep() == whole, per_chunk

    def test_each_trial_drawn_once_and_encoded_once_per_chunk(self, monkeypatch):
        # one trial_rng (the chunk's generator and its check) and one encode
        # per chunk; the seeding pass covers every trial exactly once
        calls, seeded = Counter(), []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        def spied_states(seed, trials):
            seeded.append(trials)
            return states(seed, trials)

        states = channel._trial_states
        monkeypatch.setattr(channel, "trial_rng", counted("trial_rng", channel.trial_rng))
        monkeypatch.setattr(channel, "encode", counted("encode", channel.encode))
        monkeypatch.setattr(channel, "_trial_states", spied_states)
        spec = make_code_spec(16, 8)
        points = [0.0, 1.0, 2.0]

        def sweep():
            calls.clear()
            seeded.clear()
            ber_sweep(spec, ["minsum"], ["lookahead"], points, trials=10, seed=1)
            seen = [t for trials in seeded for t in trials]
            assert sorted(seen) == list(range(10))  # disjoint, and all of them
            return dict(calls)

        assert sweep() == {"trial_rng": 1, "encode": 1}
        self.set_chunk(monkeypatch, 4, len(points), spec)
        assert sweep() == {"trial_rng": 3, "encode": 3}

    def test_one_minsum_q_walk_per_chunk(self, monkeypatch):
        # the simulators take the minsum_q decoder's decisions as their first
        # guess, so a chunk is walked once; without minsum_q among the modes
        # each simulator walks it itself. The counts are the walk's and each
        # simulator's alone: a guess only ever costs level passes.
        walks = []
        for module in (channel, archsim):
            def spied(wires, *args, _walk=module._ssc_wires):
                walks.append(wires.shape)
                return _walk(wires, *args)
            monkeypatch.setattr(module, "_ssc_wires", spied)
        spec, points = make_code_spec(64, 32), [1.0, 2.0]

        def sweep(modes):
            walks.clear()
            results = ber_sweep(spec, modes, ["lookahead", "parallel2"], points, 10, seed=1)
            return [(r.ebn0_db, r.architecture, r.bit_errors, r.frame_errors) for r in results]

        want = [(1.0, "functional", 30, 2), (1.0, "lookahead", 30, 2), (1.0, "parallel2", 30, 2),
                (2.0, "functional", 0, 0), (2.0, "lookahead", 0, 0), (2.0, "parallel2", 0, 0)]
        assert sweep(["minsum_q"]) == want and walks == [(64, 20)]
        assert sweep([]) == [w for w in want if w[1] != "functional"]
        assert walks == [(64, 20)] * 2
        self.set_chunk(monkeypatch, 4, len(points), spec)
        assert sweep(["minsum_q"]) == want and walks == [(64, 8), (64, 8), (64, 4)]

    @pytest.mark.parametrize("n", [64, 256])
    def test_tie_heavy_minsum_q_counts_equal_sc(self, monkeypatch, n):
        # at q = 2 every quantized LLR is -1, 0 or +1, so many Rate-1 nodes
        # see an input of exactly 0; chunks of 3 trials split the 7
        spec = make_code_spec(n, n // 2)
        points, trials = [0.0, 2.0], 7
        self.set_chunk(monkeypatch, 3, len(points), spec)
        results = ber_sweep(spec, ["minsum_q"], [], points, trials, seed=9, q=2)
        zeros = 0
        for ebn0, result in zip(points, results):
            msgs, llrs = draw_trials(spec, ChannelConfig(BPSK_AWGN, ebn0, 9), trials)
            q_llrs = quantize(llrs, 2)
            zeros += (q_llrs == 0).sum()
            wrong = sc_decode_batch(q_llrs, spec, "minsum_q", q=2)[0][:, ~spec.frozen_mask] != msgs
            assert (result.bit_errors, result.frame_errors) == (
                wrong.sum(), wrong.any(axis=1).sum()), ebn0
        assert zeros > 0 and sum(r.bit_errors for r in results) > 0

    @pytest.mark.parametrize("modes, architectures, quantized", [
        (["minsum_q"], list(ARCHITECTURES), 1),
        (["exact", "minsum"], [], 0),
    ])
    def test_one_quantize_per_chunk(self, monkeypatch, modes, architectures, quantized):
        # every quantized decoder of a chunk reads one shared quantized array
        calls = []
        quantize = channel.quantize

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return quantize(*args, **kwargs)

        monkeypatch.setattr(channel, "quantize", counted)
        spec = make_code_spec(16, 8)
        ber_sweep(spec, modes, architectures, [0.0, 2.0], trials=6, seed=3)
        assert calls == [(2 * 6, 16)] * quantized

    @pytest.mark.parametrize("q, scale", [(6, 1.0), (4, 0.6)])
    def test_counts_match_the_full_recursion_oracle(self, q, scale):
        spec = make_code_spec(32, 16)
        points, trials, seed = [0.5, 2.0, 3.5], 13, 9
        results = ber_sweep(spec, list(MODES), list(ARCHITECTURES), points, trials,
                            seed=seed, q=q, scale=scale)
        got = {(r.ebn0_db, r.mode, r.architecture): (r.bit_errors, r.frame_errors)
               for r in results}
        for ebn0 in points:
            msgs, llrs = draw_trials(spec, ChannelConfig(BPSK_AWGN, ebn0, seed), trials)
            want = {}
            for mode in MODES:
                if mode == "minsum_q":
                    u_hat, _ = sc_decode_batch(quantize(llrs, q, scale), spec, mode, q=q)
                else:
                    u_hat, _ = sc_decode_batch(llrs, spec, mode)
                wrong = u_hat[:, ~spec.frozen_mask] != msgs
                want[mode] = (int(wrong.sum()), int(wrong.any(axis=1).sum()))
                assert got[(ebn0, mode, "functional")] == want[mode], (ebn0, mode)
            for arch in ARCHITECTURES:
                assert got[(ebn0, "minsum_q", arch)] == want["minsum_q"], (ebn0, arch)
        assert sum(bits for bits, _ in got.values()) > 0

    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        spec = make_code_spec(64, 32)
        points = [1.0, 2.0]
        self.set_chunk(monkeypatch, 128, len(points), spec)
        ber_sweep(spec, ["minsum_q"], ["lookahead"], points, 2, seed=1)  # warm caches
        peaks = []
        for trials in (128, 8 * 128):
            tracemalloc.start()
            try:
                ber_sweep(spec, ["minsum_q"], ["lookahead"], points, trials, seed=1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks

    def test_chunk_front_end_keeps_no_full_size_temporaries(self):
        # the draw forms its symbols in place and quantize runs in blocks, so
        # a chunk's front end allocates little beyond the arrays it returns;
        # with a whole-array quantize and float symbol temporaries this
        # request peaked at 1260 KiB
        spec = make_code_spec(64, 32)
        ber_sweep(spec, ["minsum_q"], [], [1, 2, 3], 200, 5)  # warm caches
        tracemalloc.start()
        try:
            ber_sweep(spec, ["minsum_q"], [], [1, 2, 3], 200, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.75 * 1260 * 1024, peak

    def test_one_sim_config_per_architecture(self, monkeypatch):
        # the sweep builds each simulator configuration once, not per chunk
        built = Counter()
        sim_config = archsim.SimConfig

        def counted(*args, **kwargs):
            built[kwargs["architecture"]] += 1
            return sim_config(*args, **kwargs)

        monkeypatch.setattr(archsim, "SimConfig", counted)
        spec = make_code_spec(16, 8)
        points = [0.0, 1.0]
        self.set_chunk(monkeypatch, 1, len(points), spec)
        ber_sweep(spec, ["minsum"], list(ARCHITECTURES), points, trials=4, seed=2)
        assert built == {arch: 1 for arch in ARCHITECTURES}

    @pytest.mark.parametrize("spec, architecture", [
        (make_code_spec(8, 4), "systolic"), (make_code_spec(2, 1), "lookahead"),
    ], ids=["unknown", "n2"])
    def test_architectures_checked_before_any_draw(self, monkeypatch, spec, architecture):
        drawn = []
        monkeypatch.setattr(channel, "trial_rng", lambda *args: drawn.append(args))
        for points in ([], [0.0]):
            with pytest.raises(InvalidParameterError):
                ber_sweep(spec, ["minsum"], [architecture], points, trials=2, seed=0)
        assert drawn == []


class TestEquivalenceChunks:
    """verify_equivalence walks the sweep's chunks of trials; none of that
    may show in its report, and its memory does not grow with the count."""

    @staticmethod
    def set_chunk(monkeypatch, trials_per_chunk, config):
        per_trial = 2 if config.architecture == "parallel2" else 1
        monkeypatch.setattr(channel, "_CHUNK_ELEMENTS",
                            trials_per_chunk * per_trial * config.spec.n_bits)

    @pytest.mark.parametrize("arch", ARCHITECTURES)
    def test_report_does_not_depend_on_chunk_size(self, monkeypatch, arch):
        spec = make_code_spec(16, 8)
        config = SimConfig(spec, 6, arch)
        per_trial = 2 if arch == "parallel2" else 1
        trials, seed, bad = 7, 4, 4  # trial 4 is in a later chunk of 1 or 3 trials
        _, llrs = draw_trials(spec, ChannelConfig(BPSK_AWGN, 1.0, seed), trials * per_trial)
        target = quantize(llrs, 6)[bad * per_trial + per_trial - 1]  # its last stream
        dataflow = archsim._dataflow
        chunks = []  # trials per chunk of the damaged run

        def damaged(config, firings, frames, record, guess):
            # a simulator that differs on the target frame, wherever it sits
            chunks.append(len(frames) // per_trial)
            u_hat, dec_llrs = dataflow(config, firings, frames, record, guess)
            u_hat[(frames == target).all(axis=1), 5] ^= 1
            return u_hat, dec_llrs

        def reports():
            chunks.clear()
            clean = verify_equivalence(config, trials, seed)
            with monkeypatch.context() as patched:
                patched.setattr(archsim, "_dataflow", damaged)
                return clean, verify_equivalence(config, trials, seed)

        whole = reports()  # the default budget holds all trials in one chunk
        assert chunks == [trials]
        assert whole[0].passed
        div = whole[1].first_divergence
        assert (whole[1].mismatches, div["trial"], div["stream"]) == (1, bad, per_trial - 1)
        for per_chunk in (1, 3):  # 3 divides neither 7 nor 14
            self.set_chunk(monkeypatch, per_chunk, config)
            assert reports() == whole, per_chunk
            assert max(chunks) == per_chunk and sum(chunks) == trials

    def test_memory_does_not_grow_with_the_trial_count(self, monkeypatch):
        config = SimConfig(make_code_spec(64, 32), 6, "lookahead")
        self.set_chunk(monkeypatch, 64, config)
        verify_equivalence(config, 2, seed=1)  # warm caches
        peaks = []
        for trials in (64, 8 * 64):
            tracemalloc.start()
            try:
                assert verify_equivalence(config, trials, seed=1).passed
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.2 * peaks[0], peaks


class TestScheduleCheckedOnce:
    """A schedule depends on (architecture, N) alone: each SimConfig checks
    its own when it is built, and no chunk or run checks it again."""

    def test_one_check_per_config(self, monkeypatch):
        spec = make_code_spec(16, 8)
        points = [0.0, 2.0]
        checks, draws = [], []
        check, draw = archsim.check_schedule, channel._draw

        def counted_check(architecture, n):
            checks.append(architecture)
            return check(architecture, n)

        def counted_draw(*args):
            draws.append(args)
            return draw(*args)

        monkeypatch.setattr(archsim, "check_schedule", counted_check)
        monkeypatch.setattr(channel, "_draw", counted_draw)
        # two trials per chunk: in the sweep at two points, and in the
        # parallel2 campaign at two frames per trial
        monkeypatch.setattr(channel, "_CHUNK_ELEMENTS", 2 * len(points) * spec.n_bits)
        ber_sweep(spec, [], list(ARCHITECTURES), points, trials=7, seed=1)
        assert (checks, len(draws)) == (list(ARCHITECTURES), 4)
        checks.clear()
        draws.clear()
        config = SimConfig(spec, 6, "parallel2")
        assert verify_equivalence(config, 7, seed=1).passed
        assert (checks, len(draws)) == (["parallel2"], 4)
        q_llrs = quantize(draw_trials(spec, ChannelConfig(BPSK_AWGN, 1.0, 2), 2)[1], 6)
        for _ in range(2):
            archsim.run(config, list(q_llrs))
        assert checks == ["parallel2"]
