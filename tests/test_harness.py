"""Channel model, per-trial determinism, and Monte-Carlo sweeps."""

import numpy as np
import pytest

from polarsc import (
    ChannelConfig,
    InvalidParameterError,
    MAX_LLR,
    ber_sweep,
    encode,
    make_code_spec,
    simulate_channel,
    trial_rng,
)
from polarsc.channel import BPSK_AWGN, NOISELESS, draw_trials


class TestChannel:
    def test_noiseless_certainties(self):
        cfg = ChannelConfig(kind=NOISELESS, ebn0_db=0.0, master_seed=1, code_rate=0.5)
        llrs = simulate_channel([0, 1, 0, 1], cfg, trial=0)
        assert list(llrs) == [MAX_LLR, -MAX_LLR, MAX_LLR, -MAX_LLR]

    def test_replay_is_bit_identical(self):
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=2.0, master_seed=42, code_rate=0.5)
        word = np.zeros(64, dtype=int)
        first = simulate_channel(word, cfg, trial=7)
        second = simulate_channel(word, cfg, trial=7)
        assert np.array_equal(first, second)

    def test_trials_are_independent_streams(self):
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=2.0, master_seed=42, code_rate=0.5)
        word = np.zeros(64, dtype=int)
        assert not np.array_equal(
            simulate_channel(word, cfg, trial=0), simulate_channel(word, cfg, trial=1)
        )

    def test_trial_rng_order_independent(self):
        a = trial_rng(9, 3).normal(size=5)
        trial_rng(9, 0).normal(size=100)  # unrelated consumption
        b = trial_rng(9, 3).normal(size=5)
        assert np.array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(InvalidParameterError):
            trial_rng(-1, 0)

    def test_draw_order_message_then_noise(self):
        spec = make_code_spec(16, 8)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=4, code_rate=0.5)
        msgs, llrs = draw_trials(spec, cfg, 3)
        rng = trial_rng(4, 2)
        msg = rng.integers(0, 2, size=8)
        y = 1.0 - 2.0 * encode(msg, spec) + rng.normal(0.0, np.sqrt(cfg.noise_variance), 16)
        assert np.array_equal(msgs[2], msg)
        assert np.array_equal(llrs[2], np.clip(2.0 * y / cfg.noise_variance, -MAX_LLR, MAX_LLR))

    def test_noise_variance_formula(self):
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=3.0, master_seed=0, code_rate=0.25)
        want = 1.0 / (2 * 0.25 * 10 ** 0.3)
        assert cfg.noise_variance == pytest.approx(want)

    def test_config_validation(self):
        with pytest.raises(InvalidParameterError):
            ChannelConfig(kind="carrier_pigeon", ebn0_db=0.0, master_seed=0)
        with pytest.raises(InvalidParameterError):
            ChannelConfig(kind=BPSK_AWGN, ebn0_db=float("inf"), master_seed=0)


class TestDrawTrials:
    def test_deterministic_and_order_free(self):
        spec = make_code_spec(16, 8)
        cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=1.0, master_seed=5, code_rate=0.5)
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
