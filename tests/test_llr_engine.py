"""Functional decoder engine: update rules, decisions, quantization."""

import gc
import itertools
import math
import re
import tracemalloc
import warnings
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from polarsc import (
    CodeSpec,
    InvalidParameterError,
    MAX_LLR,
    SimConfig,
    archsim,
    construct_frozen_set,
    decide,
    encode,
    f_exact,
    f_minsum,
    g_update,
    lr_recursion_prob,
    make_code_spec,
    polar_transform,
    quantize,
    sc_decode,
    sc_decode_batch,
    ssc_decode_batch,
)
from polarsc import PartialSumState, llr
from polarsc.channel import BPSK_AWGN, ChannelConfig, ber_sweep, draw_trials
from polarsc.code import require_array
from polarsc.llr import as_quantized, clamp, qmax


class TestFMinsum:
    @pytest.mark.parametrize("a,b,want", [(2, -3, -2), (0, 5, 0), (-4, -4, 4)])
    def test_direct_values(self, a, b, want):
        assert f_minsum(a, b) == want

    def test_symmetry_and_sign(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=500)
        b = rng.normal(size=500)
        assert np.allclose(f_minsum(a, b), f_minsum(b, a))
        edge = np.array([0.0, -0.0, 1.5, -1.5, np.inf, -np.inf])
        ints = np.array([0, 3, -3, 31, -31], dtype=np.int64)
        cases = [
            (a, b),
            (edge[:, None], edge[None, :]),  # every pair, by broadcasting
            (ints[:, None], ints[None, :]),
            (ints, 7),
            (-0.0, -2.5), (3, -2), (-4, -4),  # Python scalars
        ]
        for x, y in cases:
            got = f_minsum(x, y)
            xs, ys = np.broadcast_arrays(x, y)
            # sgn(a) * sgn(b) * min(|a|, |b|) with sgn(0) = sgn(-0.0) = +1
            want = [(1 if p >= 0 else -1) * (1 if r >= 0 else -1) * min(abs(p), abs(r))
                    for p, r in zip(xs.ravel().tolist(), ys.ravel().tolist())]
            assert got.dtype == np.result_type(x, y) and got.shape == xs.shape
            assert got.ravel().tolist() == want
            assert np.array_equal(np.signbit(got.ravel()), np.signbit(want))

    def test_integer_dtype_preserved(self):
        out = f_minsum(np.array([3, -7]), np.array([-2, -9]))
        assert out.dtype == np.int64
        assert list(out) == [-2, 7]


class TestFExact:
    def test_annihilation_by_zero(self):
        for a in (-3.0, 0.0, 17.5):
            assert f_exact(a, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_lr_domain_hand_value(self):
        # L1 = L2 = 3 gives (9 + 1) / (3 + 3) in the ratio domain
        want = math.log(10.0 / 6.0)
        assert float(f_exact(math.log(3), math.log(3))) == pytest.approx(want, abs=1e-12)

    def test_rail_inputs_stay_saturated(self):
        assert float(f_exact(50.0, 50.0)) == 50.0
        assert float(f_exact(-50.0, 50.0)) == -50.0

    def test_magnitude_bounded_by_minsum(self):
        rng = np.random.default_rng(19)
        a = rng.normal(scale=4, size=2000)
        b = rng.normal(scale=4, size=2000)
        exact = f_exact(a, b)
        approx = f_minsum(a, b)
        assert np.all(np.abs(exact) <= np.abs(approx) + 1e-12)
        nz = (a != 0) & (b != 0)
        assert np.all(np.sign(exact[nz]) == np.sign(a[nz]) * np.sign(b[nz]))

    def test_never_above_minsum(self):
        # the magnitude is capped at min(|a|, |b|), which rounding alone could pass
        rng = np.random.default_rng(37)
        a, b = rng.uniform(-MAX_LLR, MAX_LLR, size=(2, 200_000))
        assert np.all(np.abs(f_exact(a, b)) <= np.minimum(np.abs(a), np.abs(b)))

    def test_zero_input_gives_positive_zero(self):
        out = f_exact(np.array([0.0, -0.0, -2.0, 0.0]), np.array([-1.0, -3.0, 0.0, 0.0]))
        assert list(out) == [0.0] * 4 and not np.signbit(out).any()

    def test_symmetry(self):
        rng = np.random.default_rng(23)
        a = rng.normal(scale=3, size=200)
        b = rng.normal(scale=3, size=200)
        assert np.allclose(f_exact(a, b), f_exact(b, a))

    def test_matches_tanh_form(self):
        rng = np.random.default_rng(29)
        a = rng.uniform(-8, 8, size=200)
        b = rng.uniform(-8, 8, size=200)
        ref = 2.0 * np.arctanh(np.tanh(a / 2) * np.tanh(b / 2))
        assert np.allclose(f_exact(a, b), ref, atol=1e-10)


class TestGUpdate:
    @pytest.mark.parametrize("a,b,u,want", [(2, 3, 0, 5), (2, 3, 1, 1)])
    def test_direct_values(self, a, b, u, want):
        assert g_update(a, b, u) == want

    def test_quantized_saturation(self):
        assert g_update(6, 5, 0, q=4) == 7
        assert g_update(6, -5, 1, q=4) == -7
        out = g_update(np.array([6, -6]), np.array([5, -5]), 0, q=4)
        assert out.dtype == np.int64 and list(out) == [7, -7]

    def test_rail_saturation(self):
        out = g_update(np.array([40.0, np.inf]), np.array([30.0, 1.0]), 0)
        assert list(out) == [MAX_LLR, MAX_LLR]

    def test_candidate_identities(self):
        rng = np.random.default_rng(31)
        a = rng.integers(-100, 100, size=300).astype(float)
        b = rng.integers(-100, 100, size=300).astype(float)
        g0 = b + a  # unsaturated candidates
        g1 = b - a
        assert np.array_equal(g0 + g1, 2 * b)
        assert np.array_equal(g0 - g1, 2 * a)


class TestDecide:
    def test_frozen_wins_over_llr(self):
        spec = CodeSpec(4, 2, (1, 2), (0, 1))
        assert decide(-9.0, 1, spec) == 0
        assert decide(9.0, 2, spec) == 1

    def test_tie_decides_zero(self):
        spec = CodeSpec(4, 4, (), ())
        assert decide(0.0, 3, spec) == 0

    def test_negative_decides_one(self):
        spec = CodeSpec(4, 4, (), ())
        assert decide(-0.3, 1, spec) == 1

    def test_index_range_checked(self):
        spec = CodeSpec(4, 4, (), ())
        with pytest.raises(InvalidParameterError):
            decide(1.0, 0, spec)
        with pytest.raises(InvalidParameterError):
            decide(1.0, 5, spec)

    @pytest.mark.parametrize("index", [3.0, True, "3"])
    def test_index_must_be_an_integer(self, index):
        with pytest.raises(InvalidParameterError):
            decide(1.0, index, CodeSpec(4, 4, (), ()))


def documented_quantize(x, q, scale=1.0):
    """quantize's documented rule one value at a time: scale (a float
    product, so an overflow is +/-inf), round half away from zero in exact
    arithmetic, saturate at +/-qmax(q)."""
    m = qmax(q)

    def one(v):
        y = float(v) * scale
        mag = m if abs(y) >= m else math.floor(Fraction(abs(y)) + Fraction(1, 2))
        return -mag if y < 0 else mag

    return np.array([one(v) for v in np.ravel(x)], dtype=np.int64).reshape(np.shape(x))


# exact halves either side of an even and an odd integer, the largest double
# below 0.5, infinities, a negative zero, odd integers above 2^52 (exact at
# q = 54) and a value whose product with a large scale overflows
QUANTIZE_EDGES = [2.5, -2.5, 1.5, -0.5, 30.5, -31.5, 0.49999999999999994,
                  -0.49999999999999994, np.inf, -np.inf, -0.0, 2.0**52 + 1, -(2.0**52 + 1), 1e300]
QUANTIZE_SETTINGS = pytest.mark.parametrize(
    "q, scale", [(6, 1.0), (54, 1.0), (6, 0.75), (54, 1e10)],
    ids=["q6", "q54", "q6-scaled", "q54-overflowing-scale"])


def quantize_input(size):
    """``size`` values, half of them exact halves, with the edge values
    around every block boundary of quantize and at both ends."""
    block = llr._QUANTIZE_BLOCK
    rng = np.random.default_rng(size)
    x = rng.normal(0.0, 20.0, size)
    x[::2] = np.round(x[::2] * 2) / 2
    spots = sorted({i for edge in [*range(0, size, block), size]
                    for i in range(edge - 3, edge + 3) if 0 <= i < size})
    for j, i in enumerate(spots):
        x[i] = QUANTIZE_EDGES[j % len(QUANTIZE_EDGES)]
    return x


class TestQuantize:
    @pytest.mark.parametrize("x,q,want", [
        (0.4, 4, 0), (7.9, 4, 7), (-2.5, 4, -3), (2.5, 6, 3), (-2.5, 6, -3),
        # the largest double below 0.5, and odd integers above 2^52, round
        # wrongly once 0.5 is added in floating point
        (0.49999999999999994, 6, 0), (2**52 + 1, 54, 2**52 + 1),
        (-(2**52 + 1), 54, -(2**52 + 1)),
    ])
    def test_rounding_and_saturation(self, x, q, want):
        assert quantize(x, q) == want

    def test_symmetric_range(self):
        vals = quantize(np.linspace(-100, 100, 2001), 5)
        assert vals.min() == -15 and vals.max() == 15

    def test_scale_knob(self):
        assert quantize(1.2, 6, scale=4.0) == 5

    def test_nan_rejected(self):
        with pytest.raises(InvalidParameterError):
            quantize([1.0, np.nan], 6)
        with pytest.raises(InvalidParameterError):
            quantize(1.0, 6, scale=np.nan)

    @pytest.mark.parametrize("scale", [0.0, -2.0, -0.0, np.inf, -np.inf, True, "2", None,
                                       pytest.param(10**400, id="10**400")])
    def test_scale_must_be_finite_and_positive(self, scale):
        with pytest.raises(InvalidParameterError):
            quantize([1.0, -2.0], 6, scale=scale)

    def test_infinity_saturates(self):
        out = quantize([np.inf, -np.inf], 6)
        assert out.dtype == np.int64 and list(out) == [31, -31]

    def test_overflowing_product_saturates_without_a_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = quantize([1e300, -1e300, 2e-10], 6, scale=1e10)
        assert list(out) == [31, -31, 2]

    def test_saturate_keeps_dtype_and_clamps_infinity(self):
        ints = clamp(np.array([40, -40, 3], dtype=np.int64), qmax(6))
        assert ints.dtype == np.int64 and list(ints) == [31, -31, 3]
        # an unsigned q gives the same rail, not one whose negation wraps
        unsigned = clamp(np.array([40, -40, 3], dtype=np.int64), qmax(np.uint64(6)))
        assert unsigned.dtype == np.int64 and list(unsigned) == [31, -31, 3]
        floats = clamp(np.array([np.inf, -np.inf, 2.5]), qmax(6))
        assert floats.dtype == np.float64 and list(floats) == [31.0, -31.0, 2.5]
        rail = clamp(np.array([np.inf, -np.inf, -60.0, 7.5]), MAX_LLR)
        assert list(rail) == [MAX_LLR, -MAX_LLR, -MAX_LLR, 7.5]

    @pytest.mark.parametrize("dtype, m, want", [
        (np.int64, 31, np.int64), (np.int8, 31, np.int8),
        (np.int64, MAX_LLR, np.float64), (np.float64, 31, np.float64)])
    def test_clamp_result_has_the_promoted_dtype(self, dtype, m, want):
        # the dtype that x and the rail promote to: an int array at the float
        # MAX_LLR comes back float, as np.maximum/np.minimum gave it
        got = clamp(np.array([60, -60, 3, 0], dtype=dtype), m)
        assert got.dtype == want and got.tolist() == [m, -m, 3, 0]

    def test_clamp_takes_numpy_scalars(self):
        # g_update on 0-d arrays hands clamp a numpy scalar
        got = clamp(np.float64(72.0), MAX_LLR)
        assert isinstance(got, np.float64) and got == MAX_LLR
        got = clamp(np.int64(-40), qmax(6))
        assert isinstance(got, np.int64) and got == -31
        assert g_update(np.asarray(2.0), np.asarray(70.0), 0) == MAX_LLR
        assert g_update(np.asarray(20), np.asarray(-20), 1, q=6) == -31

    @pytest.mark.parametrize("x, m", [
        (np.array([100, -100, 5, 0], dtype=np.int8), 31),
        (np.array([np.inf, -np.inf, -0.0, 0.0, 7.5, -60.0]), MAX_LLR)])
    def test_clamp_in_place_saturates_and_keeps_signed_zeros(self, x, m):
        want = np.minimum(np.maximum(x, -m), m)
        got = clamp(x, m, out=x)
        assert got is x and x.tobytes() == want.tobytes()
        assert np.all(np.abs(x) <= m)
        if x.dtype.kind == "f":
            assert np.signbit(x).tolist() == [False, True, True, False, False, True]
            assert np.signbit(clamp(np.float64(-0.0), MAX_LLR))

    def test_q_upper_bound(self):
        # 54 is the widest q whose rail 2^53 - 1 float64 holds exactly
        m = qmax(54)
        assert m == 2**53 - 1
        assert list(quantize([1e30, -1e30], 54)) == [m, -m]
        with pytest.raises(InvalidParameterError):
            quantize(1e30, 55)
        for bad in (1, 6.0):
            with pytest.raises(InvalidParameterError):
                qmax(bad)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_input_is_never_written(self, dtype):
        # at scale 1.0 the rounding reads the caller's own array
        values = [np.inf, -np.inf, -0.0, 0.0, 0.5, -2.5, 1.5, 30.5, -7.25]
        want = [31, -31, 0, 0, 1, -3, 2, 31, -7]
        cases = [(np.array(values, dtype=dtype), want)]
        cases += [(np.array(v, dtype=dtype), w) for v, w in zip(values, want)]  # 0-d inputs
        for x, expect in cases:
            before = x.tobytes()
            got = [quantize(x, 6).tolist(), quantize(x, 6, 1.0).tolist()]
            assert x.tobytes() == before and got == [expect, expect]

    @QUANTIZE_SETTINGS
    @pytest.mark.parametrize("blocks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 5)],
                             ids=["0", "1", "B-1", "B", "B+1", "3B+5"])
    def test_blocks_follow_the_documented_rule(self, q, scale, blocks, extra):
        size = blocks * llr._QUANTIZE_BLOCK + extra
        self.check_against_the_rule(quantize_input(size), q, scale)

    @QUANTIZE_SETTINGS
    def test_0d_and_transposed_input_follow_the_documented_rule(self, q, scale):
        for v in QUANTIZE_EDGES:
            self.check_against_the_rule(np.array(v), q, scale)
        base = np.empty((5, llr._QUANTIZE_BLOCK + 1))  # its transpose strides across it
        base.T[...] = quantize_input(base.size).reshape(base.T.shape)
        assert not base.T.flags.c_contiguous
        self.check_against_the_rule(base.T, q, scale, owner=base)

    def test_integer_input_follows_the_documented_rule(self):
        self.check_against_the_rule(np.arange(-80, 81), 6, 0.5)

    @staticmethod
    def check_against_the_rule(x, q, scale, owner=None):
        owner = x if owner is None else owner
        before = owner.tobytes()
        got = quantize(x, q, scale)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert np.array_equal(got, documented_quantize(x, q, scale))
        assert owner.tobytes() == before

    def test_peak_is_the_result_and_two_blocks(self):
        # each block goes through two reused float buffers and is written
        # into the int64 result; 4 KiB covers the loop's views and the
        # ufuncs' own bookkeeping
        x = np.random.default_rng(6).normal(0.0, 8.0, size=(600, 64))
        quantize(x, 6)
        tracemalloc.start()
        try:
            out = quantize(x, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= out.nbytes + 2 * 8 * llr._QUANTIZE_BLOCK + 4096

    def test_peak_memory(self):
        # a loose bound at a larger shape: no input-sized temporary beyond
        # the int64 result
        x = np.random.default_rng(6).normal(0.0, 8.0, size=(4096, 64))
        tracemalloc.start()
        try:
            quantize(x, 6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * x.nbytes


class TestQuantizedInputCheck:
    def test_accepts_integers_in_range(self):
        out = as_quantized([3.0, -31, 0], 6)
        assert out.dtype == np.int64 and list(out) == [3, -31, 0]

    @pytest.mark.parametrize("bad", [
        [32, 0], [-32, 0], [1.5, 0], [np.nan, 0], [np.inf, 0],
        # the integer a NaN used to quantize to; np.abs overflows on it
        np.array([np.iinfo(np.int64).min, 0]),
        # not real numbers: once a ComplexWarning and a raw UFuncTypeError
        [1 - 3j, 0], ["3", "0"],
    ])
    def test_rejects(self, bad):
        with pytest.raises(InvalidParameterError):
            as_quantized(bad, 6)


class TestRaggedInput:
    # np.asarray raises a raw ValueError on a ragged list
    RAGGED = [[1.0, 2.0], [3.0]]

    @pytest.mark.parametrize("decode", [sc_decode_batch, ssc_decode_batch])
    @pytest.mark.parametrize("mode,q", [("exact", None), ("minsum", None), ("minsum_q", 6)])
    def test_decoders_reject(self, decode, mode, q):
        spec = make_code_spec(2, 1)
        with pytest.raises(InvalidParameterError, match="regular array"):
            decode(self.RAGGED, spec, mode, q=q)
        # a given q is checked in every mode, also where no quantizer runs
        for bad_q in ("x", 1, True):
            with pytest.raises(InvalidParameterError, match="q must"):
                decode([[1.0, 2.0]], spec, mode, q=bad_q)
            with pytest.raises(InvalidParameterError, match="q must"):
                sc_decode([1.0, 2.0], spec, mode, q=bad_q)

    def test_quantized_check_rejects(self):
        with pytest.raises(InvalidParameterError, match="regular array"):
            as_quantized(self.RAGGED, 6)

    def test_simulator_rejects(self):
        # a frame batch whose second frame is short
        config = SimConfig(spec=make_code_spec(4, 2), q=6, architecture="lookahead")
        with pytest.raises(InvalidParameterError, match="regular array"):
            archsim.run(config, [[[1, 2, 3, 4], [3]]])


def test_each_decode_checks_its_array_once(monkeypatch):
    # the decoders' one array check is _checked_input's: sc_decode hands its
    # vector on as a one-row batch, and minsum_q input goes to as_quantized
    spec = make_code_spec(8, 4)
    llrs = np.random.default_rng(8).normal(1.0, 2.0, size=(3, 8))
    inputs = {"exact": llrs, "minsum": llrs, "minsum_q": quantize(llrs, 6)}
    checks = []

    def counted(value, name):
        checks.append(name)
        return require_array(value, name)

    monkeypatch.setattr(llr, "require_array", counted)
    decoders = {
        "sc_decode": lambda x, *args, **kwargs: sc_decode(x[0], *args, **kwargs),
        "sc_decode_batch": sc_decode_batch,
        "ssc_decode_batch": ssc_decode_batch,
    }
    calls = {}
    for name, decode in decoders.items():
        for mode, x in inputs.items():
            checks.clear()
            decode(x, spec, mode, q=6 if mode == "minsum_q" else None)
            calls[name, mode] = len(checks)
    assert calls == {(name, mode): 1 for name in decoders for mode in inputs}


class TestMalformedInput:
    # every entry point that takes an array from the caller turns it into
    # one through code.require_array; each vector below is four ones (valid
    # bits, LLRs, quantized LLRs and likelihood ratios) but for one element
    BAD = {
        "ragged": [1, [1, 1], 1, 1],
        "string": ["1", "1", "1", "1"],  # numeric strings are not parsed either
        "complex": [1, 1j, 1, 1],
        "nan": [1.0, np.nan, 1.0, 1.0],
    }
    SPEC = make_code_spec(4, 4)
    ENTRY_POINTS = {
        "sc_decode": lambda v, spec: sc_decode(v, spec, "minsum"),
        "sc_decode_batch": lambda v, spec: sc_decode_batch([v], spec, "exact"),
        "ssc_decode_batch": lambda v, spec: ssc_decode_batch([v], spec, "minsum_q", q=6),
        "quantize": lambda v, spec: quantize(v, 6),
        "lr_recursion_prob": lr_recursion_prob,
        "polar_transform": lambda v, spec: polar_transform(v),
        "encode": encode,
        "push": lambda v, spec: [PartialSumState(4).push(bit, 1) for bit in v],  # one bit each
        "as_quantized": lambda v, spec: as_quantized(v, 6),
        "archsim.run": lambda v, spec: archsim.run(
            SimConfig(spec=spec, q=6, architecture="lookahead"), [v]),
    }

    @pytest.mark.parametrize("kind", BAD)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_rejected(self, entry, kind):
        with pytest.raises(InvalidParameterError):
            self.ENTRY_POINTS[entry](self.BAD[kind], self.SPEC)

    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_four_ones_accepted(self, entry):
        # the matrix rejects the bad element, not the vector around it
        self.ENTRY_POINTS[entry]([1, 1, 1, 1], self.SPEC)


class TestScDecode:
    def test_noiseless_all_zero(self):
        spec = make_code_spec(16, 8)
        llrs = np.full(16, MAX_LLR)
        for mode in ("exact", "minsum"):
            assert not sc_decode(llrs, spec, mode).u_hat.any()
        q_llrs = quantize(llrs, 6)
        assert not sc_decode(q_llrs, spec, "minsum_q", q=6).u_hat.any()

    def test_n2_hand_recursion(self):
        spec = CodeSpec(2, 1, (1,), (0,))
        trace = sc_decode(np.array([-1.0, 3.0]), spec, "minsum")
        assert list(trace.u_hat) == [0, 0]
        # u2 sees g(-1, 3, 0) = 2
        assert trace.decision_llrs[1] == pytest.approx(2.0)

    @pytest.mark.parametrize("n", [4, 8, 64, 256])
    @pytest.mark.parametrize("mode", ["exact", "minsum"])
    def test_noiseless_round_trip(self, n, mode):
        spec = make_code_spec(n, n // 2)
        rng = np.random.default_rng(n)
        msg = rng.integers(0, 2, size=spec.k_info)
        x = encode(msg, spec)
        llrs = (1 - 2 * x) * MAX_LLR
        trace = sc_decode(llrs, spec, mode)
        u = np.zeros(n, dtype=np.int64)
        u[~spec.frozen_mask] = msg
        assert np.array_equal(trace.u_hat, u)

    def test_batch_agrees_with_single(self):
        spec = make_code_spec(32, 16)
        rng = np.random.default_rng(77)
        llrs = rng.normal(scale=3, size=(8, 32))
        batch_u, batch_l = sc_decode_batch(llrs, spec, "minsum")
        for i in range(8):
            trace = sc_decode(llrs[i], spec, "minsum")
            assert np.array_equal(trace.u_hat, batch_u[i])
            assert np.allclose(trace.decision_llrs, batch_l[i])

    def test_rejects_wrong_length(self):
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError):
            sc_decode(np.zeros(7), spec, "minsum")
        # the message names the shape the caller passed
        spec64 = make_code_spec(64, 32)
        for shape in ((3,), (2, 64)):
            for mode, q in (("minsum", None), ("minsum_q", 6)):
                with pytest.raises(InvalidParameterError,
                                   match=re.escape(f"expected shape (64,), got {shape}")):
                    sc_decode(np.zeros(shape), spec64, mode, q=q)

    @pytest.mark.parametrize("mode,q", [("exact", None), ("minsum", None), ("minsum_q", 6)])
    def test_rejects_nan(self, mode, q):
        spec = make_code_spec(4, 2)
        with pytest.raises(InvalidParameterError):
            sc_decode_batch(np.array([[np.nan, 1.0, 2.0, 3.0]]), spec, mode, q=q)

    def test_quantized_nan_cannot_sneak_through(self):
        # quantize(nan) used to return INT64_MIN, which passed the q-range check
        spec = make_code_spec(4, 2)
        llrs = np.array([[np.iinfo(np.int64).min, 1, 2, 3]])
        with pytest.raises(InvalidParameterError):
            sc_decode_batch(llrs, spec, "minsum_q", q=6)

    def test_quantized_tracks_float_minsum_at_high_snr(self):
        # q = 12 at scale 1.0 keeps nearly every noisy frame identical to
        # the float min-sum decisions (sanity check at N = 64)
        spec = make_code_spec(64, 32)
        rng = np.random.default_rng(2024)
        trials, agree = 200, 0
        for _ in range(trials):
            msg = rng.integers(0, 2, size=32)
            x = encode(msg, spec)
            y = (1 - 2 * x) + rng.normal(0, 0.3, size=64)
            llrs = np.clip(2 * y / 0.09, -MAX_LLR, MAX_LLR)
            float_dec = sc_decode(llrs, spec, "minsum").u_hat
            q_dec = sc_decode(quantize(llrs, 12), spec, "minsum_q", q=12).u_hat
            agree += int(np.array_equal(float_dec, q_dec))
        assert agree >= 0.99 * trials


SC_KERNELS = {"f_exact": "f", "f_minsum": "f", "g_update": "g"}
# the fast path runs its own arithmetic, not the oracle's public rules
SSC_KERNELS = {"_ssc_f_exact": "f", "_ssc_f_minsum": "f", "_ssc_f_minsum_q": "f", "_ssc_g": "g"}


def _f_and_g_calls(monkeypatch, decode, kernels):
    """Run ``decode()`` and count the calls of the f and g ``kernels`` (llr
    name -> "f" or "g") it makes."""
    calls = Counter()
    for name, key in kernels.items():
        def counted(*args, _fn=getattr(llr, name), _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(llr, name, counted)
    out = decode()
    monkeypatch.undo()
    return out, calls


class TestSscDecode:
    """The simplified-SC fast path: u_hat bit-identical to sc_decode_batch."""

    @pytest.mark.parametrize("mode,q", [("exact", None), ("minsum", None), ("minsum_q", 6)])
    def test_fewer_f_and_g_calls_at_n1024(self, monkeypatch, mode, q):
        spec = make_code_spec(1024, 512)
        llrs = np.random.default_rng(1024).normal(2.0, 2.0, size=(8, 1024))
        if q is not None:
            llrs = quantize(llrs, q)
        (want, _), full = _f_and_g_calls(
            monkeypatch, lambda: sc_decode_batch(llrs, spec, mode, q=q), SC_KERNELS)
        got, fast = _f_and_g_calls(
            monkeypatch, lambda: ssc_decode_batch(llrs, spec, mode, q=q), SSC_KERNELS)
        assert full == {"f": 1023, "g": 1023}
        assert fast["f"] < 1023 and fast["g"] < 1023
        # a Rate-1 node settles its zero inputs on bits, so the quantized
        # inputs' zeros add no call, and exact mode makes the f calls of
        # min-sum (167 with a ln 2 margin)
        assert fast["f"] == 95
        assert np.array_equal(got, want)

    def test_no_f_into_a_rate0_left_child(self, monkeypatch):
        # SSC splits only the nodes that are neither Rate-0 nor Rate-1, and
        # each split makes one f call exactly when its left child is not Rate-0
        spec = make_code_spec(1024, 512)
        frozen = np.asarray(spec.frozen_mask)

        def f_calls(start, n):
            count = frozen[start:start + n].sum()
            if count in (0, n):
                return 0
            half = n // 2
            left_rate0 = bool(frozen[start:start + half].all())
            return (not left_rate0) + f_calls(start, half) + f_calls(start + half, half)

        llrs = np.random.default_rng(5).normal(1.0, 1.0, size=(128, 1024))
        got, calls = _f_and_g_calls(
            monkeypatch, lambda: ssc_decode_batch(llrs, spec, "minsum"), SSC_KERNELS)
        assert calls["f"] == f_calls(0, 1024) == 95
        assert np.array_equal(got, sc_decode_batch(llrs, spec, "minsum")[0])

    # Rate-1 rows where the hard decisions transformed back are not SC's
    # decisions: sgn(0) = +1, so an input of exactly 0 breaks the shortcut
    # in every mode.
    SHORTCUT_WRONG = [
        pytest.param([0.0, -1.0], "minsum", None, id="minsum-zero"),
        pytest.param([0, -1], "minsum_q", 6, id="minsum_q-zero"),
        pytest.param([0.0, -1.0], "exact", None, id="exact-zero"),
    ]

    @pytest.mark.parametrize("row,mode,q", SHORTCUT_WRONG)
    def test_hard_decisions_alone_differ_from_sc(self, row, mode, q):
        spec = CodeSpec(len(row), len(row), (), ())
        llrs = np.array([row])
        sc = sc_decode_batch(llrs, spec, mode, q=q)[0]
        assert not np.array_equal(polar_transform(llrs < 0), sc)

    # tiny exact inputs, once rounded by f to 0 or to the wrong sign; f now
    # keeps every sign, so the shortcut holds on them
    @pytest.mark.parametrize("row,mode,q", SHORTCUT_WRONG + [
        pytest.param([1e-9, -1e-9], "exact", None, id="exact-underflow"),
        pytest.param([6.37066826e-09, 6.10371446e-10], "exact", None, id="exact-sign-flip"),
        pytest.param([2e-5, 1e-5, 1e-5, -1e-5], "exact", None, id="exact-deep-underflow"),
        pytest.param([4.07e-7, -3.0e-10], "exact", None, id="exact-tiny"),
    ])
    def test_guarded_rows_fall_back_to_sc(self, row, mode, q):
        spec = CodeSpec(len(row), len(row), (), ())
        # the second row takes the shortcut, so the batch is split per row
        llrs = np.array([row, np.resize([3, -2], len(row))])
        want = sc_decode_batch(llrs, spec, mode, q=q)[0]
        assert np.array_equal(ssc_decode_batch(llrs, spec, mode, q=q), want)

    @pytest.mark.parametrize("q", [2, 7, 8, 15, 16, 31, 32, 54])
    def test_every_integer_width_equals_sc(self, q):
        # minsum_q runs in int8 up to q = 7, int16 up to 15, int32 up to 31
        # and int64 above; inputs at the rails drive b + a to +/-2*qmax(q)
        m = qmax(q)
        rng = np.random.default_rng(q)
        rails = np.array([[m] * 4, [-m] * 4, [m, -m] * 2, [m - 1, 1 - m] * 2, [0, m] * 2])
        rate0_left_with_sums = 0
        for _ in range(40):
            n = 1 << int(rng.integers(1, 7))
            frozen = tuple(int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.5))
            values = tuple(int(v) for v in rng.integers(0, 2, len(frozen)))
            spec = CodeSpec(n, n - len(frozen), frozen, values)
            rate0_left_with_sums += _has_rate0_left_with_sums(spec)
            llrs = np.vstack([np.tile(rails, n)[:, :n],
                              rng.choice([m, -m, m - 1, 1 - m, 0, 1, -1], size=(8, n))])
            want = sc_decode_batch(llrs, spec, "minsum_q", q=q)[0]
            assert np.array_equal(ssc_decode_batch(llrs, spec, "minsum_q", q=q), want)
        assert rate0_left_with_sums

    @pytest.mark.parametrize("mode,q", [("exact", None), ("minsum", None),
                                        ("minsum_q", 2), ("minsum_q", 6)])
    def test_rate1_every_sign_and_zero_pattern(self, mode, q):
        # every row of {-1, 0, +1}^m, scaled by random magnitudes, into a
        # Rate-1 code: the zeros are settled on bits, with no SC step
        rng = np.random.default_rng(2011)
        for m in (2, 4, 8):
            spec = CodeSpec(m, m, (), ())
            signs = np.array(list(itertools.product((-1, 0, 1), repeat=m)))
            if q is None:
                llrs = signs * rng.uniform(1e-3, MAX_LLR, signs.shape)
            else:
                llrs = signs * rng.integers(1, qmax(q) + 1, signs.shape)
            want = sc_decode_batch(llrs, spec, mode, q=q)[0]
            assert np.array_equal(ssc_decode_batch(llrs, spec, mode, q=q), want), m
            # the lemma, on the oracle: a nonzero input keeps its hard decision
            sums, nonzero = polar_transform(want), llrs != 0
            assert np.array_equal(sums[nonzero], (llrs < 0)[nonzero])
            # and the zeros matter: hard decisions alone miss some rows
            assert not np.array_equal(polar_transform(llrs < 0), want)

    def test_plan_is_not_part_of_the_spec_value(self):
        spec, twin = make_code_spec(16, 8), make_code_spec(16, 8)
        ssc_decode_batch(np.ones((1, 16)), spec, "minsum")  # plans spec, not twin
        assert (spec, hash(spec), repr(spec)) == (twin, hash(twin), repr(twin))

    def test_buffers_released_at_return(self):
        # ber_sweep's call shape at N = 1024; with the cyclic collector off,
        # buffers held by a reference cycle would outlive the call. A float64
        # input (1 MiB) is bound for its walk alone, and its buffers share one
        # lifetime, so a leak keeps at least the 128 KiB of partial sums. The
        # int8 binding is kept on the spec, and the second walk reuses it.
        # Numpy and the interpreter keep the odd 100 B.
        spec = make_code_spec(1024, 512)
        llrs = np.random.default_rng(11).normal(1.0, 2.0, size=(128, 1024))
        calls = [(llrs, "exact", None), (llrs, "minsum", None), (quantize(llrs, 6), "minsum_q", 6)]
        gc.disable()
        tracemalloc.start()
        try:
            for x, mode, q in calls:
                # the first call builds the spec's plan and fills the
                # interpreter's caches; every later call returns to its start
                ssc_decode_batch(x, spec, mode, q=q)
                before = tracemalloc.get_traced_memory()[0]
                ssc_decode_batch(x, spec, mode, q=q)
                assert tracemalloc.get_traced_memory()[0] - before < 4096
        finally:
            tracemalloc.stop()
            gc.enable()


def _walk(x, spec, mode, q):
    """``llr._ssc_wires`` on the (frames, N) ``x``, as ``ssc_decode_batch``
    calls it: returns the walk's input and its (N, frames) u_hat."""
    wires = np.ascontiguousarray(np.asarray(x).T, dtype=llr._wire_dtype(mode, q))
    return wires, llr._ssc_wires(wires, spec, mode, q)


class TestSscBindings:
    """The walk runs on buffers bound once per spec and (frames, dtype) and
    kept on the spec; no call may see what an earlier call left in them."""

    @staticmethod
    def inputs(spec, frames, mode, q, seed):
        llrs = np.random.default_rng(seed).normal(1.0, 2.5, size=(frames, spec.n_bits))
        return llrs if q is None else quantize(llrs, q)

    def test_interleaved_calls_equal_sc(self):
        # two codes, four batch sizes and three wire dtypes (int8 for q = 3
        # and 6, int16 for 12, float64) in a shuffled order, twice over, so
        # bindings are built, reused and dropped between calls
        specs = [make_code_spec(64, 32), frozen_ones_spec(64, seed=4)]
        modes = [("exact", None), ("minsum", None), ("minsum_q", 3), ("minsum_q", 6),
                 ("minsum_q", 12)]
        cases = [(s, frames, mode, q) for s in range(2) for frames in (1, 4, 8, 600)
                 for mode, q in modes]
        rng = np.random.default_rng(33)
        want, seen = {}, []
        for case in cases:
            s, frames, mode, q = case
            x = self.inputs(specs[s], frames, mode, q, seed=len(want))
            want[case] = x, sc_decode_batch(x, specs[s], mode, q=q)[0].T
        for _ in range(2):
            for i in rng.permutation(len(cases)):
                s, frames, mode, q = cases[i]
                x, u_want = want[cases[i]]
                wires, u = _walk(x, specs[s], mode, q)
                assert u.dtype == np.int8 and np.array_equal(u, u_want), cases[i]
                seen.append((wires, wires.copy(), u, u.copy()))
            assert all(len(spec._ssc_bindings) <= llr._SSC_BINDINGS for spec in specs)
        # no later call wrote an array returned earlier, or any input
        for wires, wires_was, u, u_was in seen:
            assert np.array_equal(wires, wires_was) and np.array_equal(u, u_was)

    @pytest.mark.parametrize("mode,q", [("exact", None), ("minsum", None), ("minsum_q", 6)])
    def test_a_walk_cut_short_leaves_nothing_behind(self, monkeypatch, mode, q):
        # a kernel raising at the walk's last g leaves its partial sums
        # written; the next walk zeroes them on entry
        spec = frozen_ones_spec(128, seed=8)
        x = self.inputs(spec, 8, mode, q, seed=5)
        want = sc_decode_batch(x, spec, mode, q=q)[0].T
        _, calls = _f_and_g_calls(monkeypatch, lambda: _walk(x, spec, mode, q), SSC_KERNELS)
        g, seen = llr._ssc_g, []

        def raising(*args, **kwargs):
            seen.append(1)
            if len(seen) == calls["g"]:
                raise FloatingPointError("injected")
            return g(*args, **kwargs)

        monkeypatch.setattr(llr, "_ssc_g", raising)
        with pytest.raises(FloatingPointError, match="injected"):
            _walk(x, spec, mode, q)
        monkeypatch.undo()
        assert np.array_equal(_walk(x, spec, mode, q)[1], want)

    def test_bindings_per_spec_are_bounded(self):
        # exact and minsum share one float64 binding per batch size; past the
        # bound, the least recently used binding goes
        spec = make_code_spec(32, 16)
        for mode in ("exact", "minsum"):
            _walk(self.inputs(spec, 3, mode, None, seed=1), spec, mode, None)
        assert list(spec._ssc_bindings) == [(3, np.dtype(float))]
        for frames in range(1, llr._SSC_BINDINGS + 4):
            x = self.inputs(spec, frames, "minsum_q", 6, seed=frames)
            u = _walk(x, spec, "minsum_q", 6)[1]
            assert np.array_equal(u, sc_decode_batch(x, spec, "minsum_q", q=6)[0].T)
            assert len(spec._ssc_bindings) <= llr._SSC_BINDINGS
        _walk(x, spec, "minsum_q", 6)  # the most recent stays, at the end
        assert len(spec._ssc_bindings) == llr._SSC_BINDINGS
        assert list(spec._ssc_bindings)[-1] == (frames, np.dtype(np.int8))
        assert (3, np.dtype(float)) not in spec._ssc_bindings

    def test_large_inputs_bind_per_walk(self):
        # a binding is kept only for an input of at most _SSC_KEPT_BYTES: a
        # (1024, 128) float64 input is 1 MiB, its int8 form 128 KiB
        spec = make_code_spec(1024, 512)
        x = self.inputs(spec, 128, None, None, seed=3)
        for mode, q in (("minsum", None), ("minsum_q", 6)):
            y = x if q is None else quantize(x, q)
            u = _walk(y, spec, mode, q)[1]
            assert np.array_equal(u, sc_decode_batch(y, spec, mode, q=q)[0].T)
        assert list(spec._ssc_bindings) == [(128, np.dtype(np.int8))]

    def test_kept_bindings_own_their_arrays(self):
        # a kept binding copies its input into a root of its own: none of its
        # arrays shares memory with an input it walked or a u_hat it returned.
        # A (64, 600) float64 input is 300 KiB, above _SSC_KEPT_BYTES: its
        # walk reads it in place and leaves the spec's store as it was
        spec = frozen_ones_spec(64, seed=6)
        seen = []
        for seed, (frames, mode, q) in enumerate([(4, "minsum_q", 6), (8, "exact", None),
                                                  (600, "minsum_q", 3)] * 2):
            x = self.inputs(spec, frames, mode, q, seed=seed)
            wires, u = _walk(x, spec, mode, q)
            assert np.array_equal(u, sc_decode_batch(x, spec, mode, q=q)[0].T)
            seen += [wires, u]
        store = dict(spec._ssc_bindings)
        assert len(store) == 3
        for steps, root, psums in store.values():
            arrays = [root, psums] + [a for _, args in steps for arg in args
                                      for a in (arg if isinstance(arg, tuple) else (arg,))
                                      if isinstance(a, np.ndarray)]
            assert not any(np.shares_memory(a, b) for a in arrays for b in seen)
        x = self.inputs(spec, 600, "minsum", None, seed=9)
        wires, u = _walk(x, spec, "minsum", None)
        assert wires.nbytes > llr._SSC_KEPT_BYTES
        assert np.array_equal(u, sc_decode_batch(x, spec, "minsum", q=None)[0].T)
        assert list(spec._ssc_bindings) == list(store)
        assert all(spec._ssc_bindings[key] is store[key] for key in store)


def frozen_ones_spec(n, seed):
    """An (n, n/2) code whose frozen positions hold random values, so some
    Rate-0 nodes have partial sums that are not all zero."""
    spec = make_code_spec(n, n // 2)
    values = np.random.default_rng(seed).integers(0, 2, n - n // 2)
    return CodeSpec(n, n // 2, spec.frozen_set, tuple(int(v) for v in values))


class TestGeniePass:
    """The equivalence campaign's screen: the genie pass ``_genie_llrs``,
    given sc_decode_batch's decisions, records its decision LLRs."""

    @pytest.mark.parametrize("q", [2, 7, 8, 15, 16, 31, 32, 54])
    def test_equals_sc_decode_batch(self, q):
        # every integer width, inputs at the rails and a third of them zero,
        # random codes with random frozen values
        m = qmax(q)
        rng = np.random.default_rng(1000 + q)
        rails = np.array([[m] * 4, [-m] * 4, [m, -m] * 2, [m - 1, 1 - m] * 2, [0, m] * 2])
        ties = frozen_ones = 0
        for _ in range(40):
            n = 1 << int(rng.integers(1, 8))
            frozen = tuple(int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.5))
            values = tuple(int(v) for v in rng.integers(0, 2, len(frozen)))
            spec = CodeSpec(n, n - len(frozen), frozen, values)
            llrs = np.vstack([np.tile(rails, n)[:, :n],
                              rng.choice([m, -m, m - 1, 1 - m, 0, 0, 0, 1, -1], size=(8, n))])
            want_u, want_llrs = sc_decode_batch(llrs, spec, "minsum_q", q=q)
            wire_major = np.ascontiguousarray(want_u.T)  # the simulator's layout
            got_llrs = llr._genie_llrs(llrs, wire_major.T, q)
            assert got_llrs.dtype == np.int64 and np.array_equal(got_llrs, want_llrs), n
            assert np.array_equal(wire_major.T, want_u)  # the decisions are read, not written
            ties += int((want_llrs == 0).sum())
            frozen_ones += sum(values)
        assert ties and frozen_ones


class TestGenieOnTheSentBits:
    """The genie pass on the bits a sweep sent, its messages scattered among
    the frozen values. SC decides as the genie does until its first wrong
    decision, and there it sees the genie's LLR; a frozen bit is set, not
    decided. So a frame is in error exactly when the genie's decision
    differs from u at some information bit."""

    @pytest.mark.parametrize("frozen", ["zero", "random"])
    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_frame_errors_are_the_genie_errors(self, n, frozen):
        spec = make_code_spec(n, n // 2) if frozen == "zero" else frozen_ones_spec(n, seed=n)
        points, trials, seed, q = [0.5, 1.5, 2.5], 64, 11, 6
        results = ber_sweep(spec, ["minsum_q"], [], points, trials, seed, q=q)
        info = ~spec.frozen_mask
        counts = []
        for point, result in zip(points, results):
            cfg = ChannelConfig(kind=BPSK_AWGN, ebn0_db=point, master_seed=seed)
            msgs, llrs = draw_trials(spec, cfg, trials)
            q_llrs = quantize(llrs, q)
            u = np.tile(spec.frozen_value_array, (trials, 1))
            u[:, info] = msgs
            genie = llr._genie_llrs(q_llrs, u, q) < 0
            wrong = (genie != u)[:, info].any(axis=1)
            decoded = ssc_decode_batch(q_llrs, spec, "minsum_q", q=q)
            assert np.array_equal(wrong, (decoded != u)[:, info].any(axis=1)), point
            assert int(wrong.sum()) == result.frame_errors, point
            counts.append(result.frame_errors)
        assert 0 < sum(counts) < trials * len(points)  # frames of both kinds


def _has_rate0_left_with_sums(spec):
    """Whether SSC splits a node of ``spec`` whose left child is all frozen
    with partial sums not all zero."""
    frozen, values = spec.frozen_mask, spec.frozen_value_array

    def walk(start, n):
        if frozen[start:start + n].all() or not frozen[start:start + n].any():
            return False
        half = n // 2
        if frozen[start:start + half].all() and polar_transform(values[start:start + half]).any():
            return True
        return walk(start, half) or walk(start + half, half)

    return walk(0, spec.n_bits)


class TestLrRecursionProb:
    def test_all_ties_decide_zero(self):
        spec = CodeSpec(8, 8, construct_frozen_set(8, 8), ())
        trace = lr_recursion_prob(np.ones(8), spec)
        assert not trace.u_hat.any()

    def test_n2_matches_f_exact(self):
        spec = CodeSpec(2, 2, (), ())
        lrs = np.exp(np.array([-1.0, 3.0]))
        trace = lr_recursion_prob(lrs, spec)
        assert trace.decision_llrs[0] == pytest.approx(float(f_exact(-1.0, 3.0)), abs=1e-9)

    @pytest.mark.parametrize("n", [8, 16])
    def test_cross_domain_agreement(self, n):
        spec = make_code_spec(n, n // 2)
        rng = np.random.default_rng(n + 100)
        for _ in range(30):
            lnlr = rng.uniform(-5, 5, size=n)
            prob = lr_recursion_prob(np.exp(lnlr), spec)
            log = sc_decode(lnlr, spec, "exact")
            assert np.array_equal(prob.u_hat, log.u_hat)
            assert np.max(np.abs(prob.decision_llrs - log.decision_llrs)) < 1e-9

    def test_rejects_nonpositive(self):
        spec = make_code_spec(8, 4)
        with pytest.raises(InvalidParameterError):
            lr_recursion_prob(np.array([1.0, -0.5, 1, 1, 1, 1, 1, 1]), spec)
        with pytest.raises(InvalidParameterError):
            lr_recursion_prob(np.ones(4), spec)  # wrong length

    def test_rejects_large_n(self):
        spec = make_code_spec(128, 64)
        with pytest.raises(InvalidParameterError):
            lr_recursion_prob(np.ones(128), spec)


class TestTraceSerialization:
    def test_json_keys(self):
        spec = make_code_spec(8, 4)
        trace = sc_decode(np.full(8, MAX_LLR), spec, "minsum")
        d = trace.to_json_dict()
        assert set(d) == {"u_hat", "decision_llrs", "mode", "q"}
        assert d["q"] is None
        assert d["mode"] == "minsum"
