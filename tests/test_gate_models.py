"""Bit-true gate-level PEs against integer oracles, plus cost accounting."""

import itertools

import numpy as np
import pytest

from polarsc import (
    InvalidParameterError,
    WordQ,
    addsub_q,
    f_minsum,
    full_addsub_1bit,
    gate_count,
    merged_pe,
)
from polarsc.gates import sharing_ratio
from polarsc.llr import clamp, qmax


def clamp_q(v, q):
    m = qmax(q)
    return max(-m, min(m, v))


def word_range(q):
    """Every two's-complement value of width q."""
    return range(-(1 << (q - 1)), 1 << (q - 1))


def llrq_range(q):
    """The symmetric operating range of the datapath."""
    m = qmax(q)
    return range(-m, m + 1)


class TestFullAddsub1Bit:
    def test_zero_case(self):
        assert full_addsub_1bit(0, 0, 0) == (0, 0, 0)

    def test_one_plus_one(self):
        # 1 + 1 carries; 1 - 1 borrows nothing
        assert full_addsub_1bit(1, 1, 0) == (0, 1, 0)

    def test_exhaustive_against_integer_semantics(self):
        for x, y, z in itertools.product((0, 1), repeat=3):
            sd, cout, bout = full_addsub_1bit(x, y, z)
            total = x + y + z
            assert sd == total % 2
            assert cout == total // 2
            diff = x - y - z
            assert sd == diff % 2
            assert bout == (1 if diff < 0 else 0)


class TestAddsubQ:
    def test_small_example(self):
        s, d = addsub_q(WordQ(2, 4), WordQ(3, 4))
        assert (s.value, d.value) == (5, 1)

    def test_additive_identity(self):
        for y in (-7, 0, 3, 7):
            s, d = addsub_q(WordQ(0, 4), WordQ(y, 4))
            assert s.value == y and d.value == y

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_exhaustive_integer_oracle(self, q):
        for x, y in itertools.product(word_range(q), repeat=2):
            s, d = addsub_q(WordQ(x, q), WordQ(y, q))
            assert s.value == clamp_q(x + y, q), (x, y, q)
            assert d.value == clamp_q(y - x, q), (x, y, q)

    def test_width_mismatch_rejected(self):
        with pytest.raises(InvalidParameterError):
            addsub_q(WordQ(1, 4), WordQ(1, 5))


class TestMinsumPE:
    """The merged PE's f output, the min-sum combine."""

    def test_small_example(self):
        assert merged_pe(WordQ(2, 6), WordQ(-3, 6))[0].value == -2

    def test_zero_input_positive_sign(self):
        for x in (-9, -1, 0, 5):
            assert merged_pe(WordQ(0, 6), WordQ(x, 6))[0].value == 0

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_exhaustive_against_functional(self, q):
        for a, b in itertools.product(llrq_range(q), repeat=2):
            got = merged_pe(WordQ(a, q), WordQ(b, q))[0].value
            assert got == f_minsum(a, b), (a, b, q)


class TestMergedPE:
    def test_small_example(self):
        f, g0, g1 = merged_pe(WordQ(2, 6), WordQ(3, 6))
        assert (f.value, g0.value, g1.value) == (2, 5, 1)

    def test_equal_inputs(self):
        for x in (-5, -1, 0, 4):
            f, g0, g1 = merged_pe(WordQ(x, 6), WordQ(x, 6))
            assert f.value == abs(x)
            assert g0.value == clamp_q(2 * x, 6)
            assert g1.value == 0

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_exhaustive_componentwise(self, q):
        for a, b in itertools.product(llrq_range(q), repeat=2):
            f, g0, g1 = merged_pe(WordQ(a, q), WordQ(b, q))
            assert f.value == f_minsum(a, b)
            assert g0.value == clamp_q(a + b, q)
            assert g1.value == clamp_q(b - a, q)

    def test_random_pairs_q8(self):
        rng = np.random.default_rng(808)
        m = qmax(8)
        for _ in range(10_000):
            a = int(rng.integers(-m, m + 1))
            b = int(rng.integers(-m, m + 1))
            f, g0, g1 = merged_pe(WordQ(a, 8), WordQ(b, 8))
            assert f.value == f_minsum(a, b)
            assert g0.value == clamp_q(a + b, 8)
            assert g1.value == clamp_q(b - a, 8)

    def test_candidate_identities_unsaturated(self):
        rng = np.random.default_rng(17)
        for _ in range(500):
            q = int(rng.choice([4, 6, 8]))
            lim = qmax(q) // 2  # keep sums inside the range
            a = int(rng.integers(-lim, lim + 1))
            b = int(rng.integers(-lim, lim + 1))
            _, g0, g1 = merged_pe(WordQ(a, q), WordQ(b, q))
            assert g0.value - g1.value == 2 * a
            assert g0.value + g1.value == 2 * b


class TestWordQ:
    def test_bits_round_trip(self):
        for q in (2, 4, 7):
            for v in word_range(q):
                bits = WordQ(v, q).bits()
                # bit i weighs 2^i, the sign bit -2^(q-1)
                assert sum(b << i for i, b in enumerate(bits)) - (bits[-1] << q) == v

    def test_range_enforced(self):
        # a scalar word is an integer in the q-bit range
        for value in (8, -9, 1.5, True, "3", None, np.float64(2.0)):
            with pytest.raises(InvalidParameterError):
                WordQ(value, 4)
        assert WordQ(np.int64(-8), 4).value == -8

    def test_equality(self):
        words = np.array([1, -2])
        assert WordQ(words, 4) == WordQ(words.copy(), 4)
        assert WordQ(words, 4) != WordQ(np.array([1, 2]), 4)
        assert WordQ(words, 4) != WordQ(words, 5)
        assert WordQ(words, 4) != WordQ(np.array([[1, -2]]), 4)
        assert WordQ(3, 4) == WordQ(3, 4) and WordQ(3, 4) != WordQ(3, 5)
        assert hash(WordQ(3, 4)) == hash(WordQ(3, 4))
        with pytest.raises(TypeError):
            hash(WordQ(words, 4))  # unhashable, like ndarray

    def test_q_bounds(self):
        assert WordQ(-(2**53), 54).value == -(2**53)
        for q in (1, 55, 6.0):
            with pytest.raises(InvalidParameterError):
                WordQ(0, q)
            with pytest.raises(InvalidParameterError):
                gate_count("merged_pe", q)
        assert gate_count("merged_pe", 54).xor == 9 * 54


class TestArrayWords:
    """One call on int64 arrays: bit j of every plane belongs to element j."""

    def test_planes_hold_one_element_per_bit(self):
        w = WordQ(np.array([[1, -2], [0, 3]]), 3)
        # patterns 001, 110, 000, 011 in row-major order; plane i reads bit i
        assert w.bits() == [0b1001, 0b1010, 0b0010]

    def test_zero_dimensional_array(self):
        f, g0, g1 = merged_pe(WordQ(np.array(-5), 4), WordQ(np.array(4), 4))
        assert [(w.value.shape, int(w.value)) for w in (f, g0, g1)] == [
            ((), -4), ((), -1), ((), 7)]

    @pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 0)])
    def test_empty_arrays(self, shape):
        empty = np.zeros(shape, dtype=np.int64)
        for q in (2, 6, 54):
            outs = merged_pe(WordQ(empty, q), WordQ(empty, q))
            outs += addsub_q(WordQ(empty, q), WordQ(empty, q))
            assert [w.value.shape for w in outs] == [shape] * 5
            assert all(w.value.dtype == np.int64 for w in outs)

    def test_q54_extremes(self):
        # planes of 54 bits and a sign weight of -2^53 need int64 throughout
        m = qmax(54)
        vals = np.array([-m - 1, -m, -(2**52), -1, 0, 1, 2**52 + 1, m], dtype=np.int64)
        a, b = np.meshgrid(vals, vals, indexing="ij")
        f, g0, g1 = merged_pe(WordQ(a, 54), WordQ(b, 54))
        assert np.array_equal(f.value, clamp(f_minsum(a, b), qmax(54)))
        assert np.array_equal(g0.value, clamp(a + b, qmax(54)))
        assert np.array_equal(g1.value, clamp(b - a, qmax(54)))

    @pytest.mark.parametrize("q,bad", [
        (4, [0, 8]), (4, [[-9]]), (54, [2**53]), (54, [-(2**53) - 1]),
        # v + 2^(q-1) wraps around for these
        (4, [2**63 - 1]), (54, [2**63 - 2**52]), (4, [-(2**63)]),
    ])
    def test_out_of_range_arrays_rejected(self, q, bad):
        with pytest.raises(InvalidParameterError):
            WordQ(np.array(bad, dtype=np.int64), q)

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint64, bool])
    def test_array_words_are_int64(self, dtype):
        with pytest.raises(InvalidParameterError):
            WordQ(np.zeros(3, dtype=dtype), 6)

    def test_operands_share_shape_and_width(self):
        zeros = np.zeros(3, dtype=np.int64)
        three = WordQ(zeros, 6)
        for other in (WordQ(zeros[:2], 6), WordQ(zeros[None], 6), WordQ(0, 6),
                      WordQ(zeros, 5)):
            for pe in (addsub_q, merged_pe):
                with pytest.raises(InvalidParameterError):
                    pe(three, other)


class TestGateCounts:
    def test_merged_pe_published_rows(self):
        for q in (4, 5, 6, 8):
            gc = gate_count("merged_pe", q)
            assert gc.xor == 9 * q
            assert gc.mux_bits == 6 * q
            assert gc.reg_bits == 0
            assert gc.unit_total == gc.xor + gc.and_or + gc.mux_bits + gc.reg_bits

    def test_reference_pe_published_rows(self):
        for q in (4, 5, 6, 8):
            gc = gate_count("reference_pe", q)
            assert gc.xor == 11 * q - 3
            assert gc.mux_bits == 5 * q
            assert gc.reg_bits == 1

    def test_sharing_ratio_below_threshold(self):
        fused = gate_count("full_addsub").unit_total
        separate = gate_count("separate_add_plus_sub").unit_total
        assert fused / separate < 0.6
        assert sharing_ratio() == pytest.approx(fused / separate)

    def test_counts_deterministic_in_q(self):
        assert gate_count("reference_pe", 6) == gate_count("reference_pe", 6)
        assert gate_count("merged_pe", 4).unit_total != gate_count("merged_pe", 8).unit_total

    def test_unknown_cell_rejected(self):
        # addsub_q and minsum_pe have no tally: no model traces to one
        for cell in ("nand_forest", "addsub_q", "minsum_pe"):
            with pytest.raises(InvalidParameterError):
                gate_count(cell, 4)
