"""Channel model, per-trial determinism, and Monte-Carlo sweeps."""

import dataclasses

import numpy as np
import pytest

from polarsc import (
    ChannelConfig,
    CodeSpec,
    InvalidParameterError,
    MAX_LLR,
    ber_sweep,
    encode,
    make_code_spec,
    trial_rng,
)
from polarsc.channel import BPSK_AWGN, NOISELESS, draw_trials


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

    def test_config_validation(self):
        assert [f.name for f in dataclasses.fields(ChannelConfig)] == [
            "kind", "ebn0_db", "master_seed"]
        with pytest.raises(InvalidParameterError):
            ChannelConfig(kind="carrier_pigeon", ebn0_db=0.0, master_seed=0)
        with pytest.raises(InvalidParameterError):
            ChannelConfig(kind=BPSK_AWGN, ebn0_db=float("inf"), master_seed=0)


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

    def test_rejects_unknown_mode_or_arch(self):
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError):
            ber_sweep(spec, ["turbo"], [], [0.0], trials=1, seed=0)
        with pytest.raises(InvalidParameterError):
            ber_sweep(spec, [], ["systolic"], [0.0], trials=1, seed=0)

    def test_result_json_keys(self):
        spec = make_code_spec(8, 4)
        (r,) = ber_sweep(spec, ["minsum"], [], [0.0], trials=2, seed=0)
        d = r.to_json_dict()
        assert set(d) == {"ebn0_db", "trials", "bit_errors", "frame_errors",
                          "ber", "fer", "mode", "q", "architecture"}
