"""Encoding transform, frozen-set construction, and CodeSpec contracts."""

import json

import numpy as np
import pytest

from polarsc import (
    CodeSpec,
    InvalidParameterError,
    construct_frozen_set,
    encode,
    make_code_spec,
    polar_transform,
)


def kernel_power_matrix(n):
    """Independent oracle: explicit Kronecker power of [[1,0],[1,1]]."""
    f = np.array([[1, 0], [1, 1]], dtype=np.int64)
    g = np.array([[1]], dtype=np.int64)
    while g.shape[0] < n:
        g = np.kron(f, g) % 2
    return g


def matrix_encode(u):
    u = np.asarray(u, dtype=np.int64)
    return (u @ kernel_power_matrix(len(u))) % 2


class TestPolarTransform:
    def test_single_kernel_stage(self):
        assert list(polar_transform([1, 1])) == [0, 1]

    def test_zero_maps_to_zero(self):
        assert list(polar_transform([0, 0, 0, 0])) == [0, 0, 0, 0]

    def test_matrix_oracle_n4(self):
        # frozen from the explicit 4x4 kernel power
        assert list(matrix_encode([1, 0, 1, 1])) == [1, 1, 0, 1]
        assert list(polar_transform([1, 0, 1, 1])) == [1, 1, 0, 1]

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32, 64])
    def test_matches_matrix_oracle(self, n):
        rng = np.random.default_rng(41 + n)
        for _ in range(20):
            u = rng.integers(0, 2, size=n)
            assert np.array_equal(polar_transform(u), matrix_encode(u))

    @pytest.mark.parametrize("n", [2, 4, 8, 16])
    def test_involution_exhaustive(self, n):
        for code in range(2**n):
            u = np.array([(code >> i) & 1 for i in range(n)])
            assert np.array_equal(polar_transform(polar_transform(u)), u)

    def test_linearity(self):
        rng = np.random.default_rng(7)
        for n in (8, 32, 128):
            a = rng.integers(0, 2, size=n)
            b = rng.integers(0, 2, size=n)
            assert np.array_equal(
                polar_transform(a ^ b), polar_transform(a) ^ polar_transform(b)
            )

    def test_batched_rows_match_single(self):
        rng = np.random.default_rng(3)
        batch = rng.integers(0, 2, size=(10, 16))
        out = polar_transform(batch)
        for row_in, row_out in zip(batch, out):
            assert np.array_equal(polar_transform(row_in), row_out)

    def test_rejects_non_power_of_two(self):
        with pytest.raises(InvalidParameterError):
            polar_transform([1, 0, 1])

    @pytest.mark.parametrize("u", [[0.5, 1.5], [2, 3], [-1, 0], 1, [np.nan, 0]],
                             ids=["fractions", "above-one", "negative", "scalar", "nan"])
    def test_rejects_non_bits(self, u):
        with pytest.raises(InvalidParameterError):
            polar_transform(u)

    def test_fortran_ordered_batch(self):
        rng = np.random.default_rng(12)
        batch = rng.integers(0, 2, size=(16, 6)).T
        assert batch.flags.f_contiguous and not batch.flags.c_contiguous
        want = polar_transform(np.ascontiguousarray(batch))
        assert np.array_equal(polar_transform(batch), want)
        assert np.array_equal(want, [polar_transform(row) for row in batch])

    def test_output_never_aliases_input(self):
        for u in (np.array([1, 0, 1, 1]), np.array([[1, 1], [0, 1]]),
                  np.ones((3, 8), dtype=np.int64)):
            before = u.copy()
            out = polar_transform(u)
            assert not np.shares_memory(out, u)
            assert np.array_equal(u, before)

    def test_empty_batch(self):
        assert polar_transform(np.zeros((0, 8), dtype=np.int64)).shape == (0, 8)
        spec = make_code_spec(8, 4)
        assert encode(np.zeros((0, 4), dtype=np.int64), spec).shape == (0, 8)


class TestFrozenSet:
    def test_n2_first_channel_always_degraded(self):
        for erasure in (0.1, 0.5, 0.9):
            assert construct_frozen_set(2, 1, erasure) == (1,)

    def test_n4_half_rate_hand_values(self):
        # z-values at erasure 0.5 are (0.9375, 0.5625, 0.4375, 0.0625)
        assert construct_frozen_set(4, 2, 0.5) == (1, 2)

    def test_full_rate_empty(self):
        assert construct_frozen_set(4, 4, 0.5) == ()

    def test_size_and_monotone_nesting(self):
        n = 64
        for k in range(2, n + 1):
            larger = set(construct_frozen_set(n, k - 1, 0.5))
            smaller = set(construct_frozen_set(n, k, 0.5))
            assert len(smaller) == n - k
            assert smaller <= larger

    def test_rejects_bad_k(self):
        with pytest.raises(InvalidParameterError):
            construct_frozen_set(8, 0, 0.5)
        with pytest.raises(InvalidParameterError):
            construct_frozen_set(8, 9, 0.5)
        with pytest.raises(InvalidParameterError):
            construct_frozen_set(8, 4, 1.0)  # design erasure outside (0, 1)
        for bad in ("0.5", None, float("nan"), float("inf"), True):
            with pytest.raises(InvalidParameterError):
                make_code_spec(8, 4, design_erasure=bad)
        for n, k in ((8.0, 4), (8, 4.0)):
            with pytest.raises(InvalidParameterError):
                make_code_spec(n, k)


class TestEncode:
    def test_full_rate_is_plain_transform(self):
        spec = CodeSpec(8, 8, (), ())
        rng = np.random.default_rng(11)
        m = rng.integers(0, 2, size=8)
        assert np.array_equal(encode(m, spec), polar_transform(m))

    def test_all_zero(self):
        spec = make_code_spec(16, 8)
        assert not encode(np.zeros(8, dtype=int), spec).any()

    def test_n4_hand_example(self):
        spec = CodeSpec(4, 2, (1, 2), (0, 0))
        # u = [0, 0, 1, 1] through the matrix oracle
        assert list(matrix_encode([0, 0, 1, 1])) == [0, 1, 0, 1]
        assert list(encode([1, 1], spec)) == [0, 1, 0, 1]

    def test_rejects_wrong_length(self):
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError):
            encode([1, 0, 1], spec)
        with pytest.raises(InvalidParameterError):
            encode(np.array(1), spec)  # 0-d: no length at all

    @pytest.mark.parametrize("message", [[2, 3, 0, 1], [0.5, 1, 0, 1], [-1, 0, 0, 1],
                                         [[0, 1, 1, 0], [1, 0, 0, 3]]])
    def test_rejects_non_bits(self, message):
        # no entry is reduced mod 2 or truncated into a bit
        with pytest.raises(InvalidParameterError):
            encode(message, make_code_spec(8, 4))

    def test_zero_information_bits_give_the_frozen_codeword(self):
        values = (1, 0, 1, 1, 0, 0, 1, 0)
        spec = CodeSpec(8, 0, tuple(range(1, 9)), values)
        want = polar_transform(np.array(values))
        single = encode([], spec)
        assert single.shape == (8,) and np.array_equal(single, want)
        batch = encode(np.zeros((3, 0)), spec)
        assert batch.shape == (3, 8) and np.array_equal(batch, np.tile(want, (3, 1)))


class TestCodeSpec:
    def test_json_round_trip(self):
        spec = make_code_spec(8, 4)
        d = json.loads(json.dumps(spec.to_json_dict(), indent=2))
        assert set(d) == {"n", "k", "frozen", "frozen_values"}
        assert d["frozen"] == sorted(d["frozen"])
        again = CodeSpec(d["n"], d["k"], tuple(d["frozen"]), tuple(d["frozen_values"]))
        assert again == spec
        # numpy ints are stored as Python ints, so the dict stays serialisable
        wide = make_code_spec(np.int64(8), np.int64(4))
        assert json.loads(json.dumps(wide.to_json_dict())) == make_code_spec(8, 4).to_json_dict()

    def test_invariants_enforced(self):
        with pytest.raises(InvalidParameterError):
            CodeSpec(6, 3, (1, 2, 3), (0, 0, 0))  # not a power of two
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4, (1, 2, 3), (0, 0, 0))  # wrong frozen count
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4, (1, 2, 9, 3), (0, 0, 0, 0))  # unsorted / out of range
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4, (1, 2, 3, 4), (0, 0, 2, 0))  # non-bit value
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4.0, (1, 2, 3, 4), (0, 0, 0, 0))  # non-integer K
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4, (1, 2.7, 3, 4), (0, 0, 0, 0))  # not truncated to 2
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4, (1, 2, 3, 4), (0, 0.5, 0, 0))  # not truncated to 0
        with pytest.raises(InvalidParameterError):
            CodeSpec(4, 5, (), ())  # K > N
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4, (1, 2, 3, 9), (0, 0, 0, 0))  # frozen index > N
        with pytest.raises(InvalidParameterError):
            CodeSpec(8, 4, (1, 2, 3, 4), (0, 0, 0))  # values misaligned
        spec = make_code_spec(8, 4)
        fields = dict(n_bits=8, k_info=4, frozen_set=spec.frozen_set,
                      frozen_values=spec.frozen_values)
        for key, bad in (("frozen_values", (0, 0.5, 0, 0)), ("n_bits", 8.5), ("k_info", 4.0)):
            with pytest.raises(InvalidParameterError):
                CodeSpec(**{**fields, key: bad})
