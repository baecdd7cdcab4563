"""Property tests: invariants of the transform, the decoders, the partial-sum
network, the quantizer and the f/g update rules, over generated inputs."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from polarsc import (
    MAX_LLR,
    CodeSpec,
    InvalidParameterError,
    PartialSumState,
    WordQ,
    addsub_q,
    encode,
    f_exact,
    f_minsum,
    g_update,
    make_code_spec,
    merged_pe,
    polar_transform,
    quantize,
    sc_decode,
    sc_decode_batch,
    ssc_decode_batch,
)
from polarsc.llr import qmax


def bit_lists(n):
    return st.lists(st.integers(0, 1), min_size=n, max_size=n)


def sgn(x):
    return np.where(np.asarray(x) < 0, -1, 1)


llr_floats = st.floats(-MAX_LLR, MAX_LLR)

# Inputs where the simplified decoder's Rate-1 shortcut is most at risk:
# integers dense in zeros (sgn(0) = +1), values at and past the rail, and
# magnitudes small enough that f_exact, at once or a few levels down, rounds
# to zero or to the wrong sign.
ssc_inputs = st.one_of(
    st.integers(-2, 2).map(float),
    st.sampled_from([0.0, 1.0, -1.0, MAX_LLR, -MAX_LLR, np.inf, -np.inf]),
    st.sampled_from([0.0, 1e-9, -1e-9, 1e-300, -1e-300, 4.07e-7, -3.0e-10,
                     1e-5, -2e-5, 1e-3, -3e-3]),
)


@given(st.integers(0, 8).flatmap(lambda m: bit_lists(1 << m)))
def test_transform_is_its_own_inverse(bits):
    assert np.array_equal(polar_transform(polar_transform(bits)), bits)


@given(st.data())
def test_noiseless_round_trip_decodes_without_errors(data):
    n = 1 << data.draw(st.integers(1, 7))
    k = data.draw(st.integers(1, n))
    spec = make_code_spec(n, k, frozen_values=data.draw(bit_lists(n - k)))
    msg = data.draw(bit_lists(k))
    q = data.draw(st.integers(2, 54))
    u = np.zeros(n, dtype=np.int64)
    u[spec.frozen_mask] = spec.frozen_value_array[spec.frozen_mask]
    u[~spec.frozen_mask] = msg
    llrs = (1 - 2 * encode(msg, spec)) * MAX_LLR
    assert np.array_equal(sc_decode(llrs, spec, "exact").u_hat, u)
    assert np.array_equal(sc_decode(llrs, spec, "minsum").u_hat, u)
    assert np.array_equal(sc_decode(quantize(llrs, q), spec, "minsum_q", q=q).u_hat, u)


@given(st.integers(2, 7).flatmap(lambda m: bit_lists(1 << m)))
def test_partial_sums_match_reencode_oracle(bits):
    n = len(bits)
    m = n.bit_length() - 1
    state = PartialSumState(n)
    for k in range(1, n + 1):
        state.push(bits[k - 1], k)
        for stage in range(1, m + 1):
            half = n >> stage
            start = k - k % (2 * half)
            if k - start < half:
                assert not state.stage_ready(stage)
            else:
                want = polar_transform(bits[start:start + half])
                assert np.array_equal(state.selection_bits(stage), want)


@given(st.floats(allow_nan=False), st.integers(2, 54))
def test_quantize_is_odd_saturating_and_bounded(x, q):
    m = qmax(q)
    v = int(quantize(x, q))
    assert -m <= v <= m
    assert int(quantize(-x, q)) == -v
    if abs(x) >= m:
        assert v == (m if x > 0 else -m)


@given(llr_floats, llr_floats)
def test_f_sign_laws(a, b):
    for f in (f_minsum, f_exact):
        out = f(a, b)
        assert f(b, a) == out
        # the sign is the product of the input signs (0 for a zero input),
        # so the output is nonzero whenever both inputs are
        assert np.sign(out) == np.sign(a) * np.sign(b)
        assert abs(out) <= min(abs(a), abs(b))
    assert abs(f_minsum(a, b)) == min(abs(a), abs(b))
    assert f_minsum(-a, b) == -f_minsum(a, b)


def _f_exact_longdouble(a, b):
    """|f_exact(a, b)| in np.longdouble, by the same expression."""
    big, small = (np.minimum(np.abs(np.longdouble(x)), MAX_LLR) for x in (a, b))
    ea, eb = np.expm1(big), np.expm1(small)
    return np.log1p(ea * eb / (ea + eb + 2))


# magnitudes from far below the smallest normal float up to past the rail
tiny_to_rail = st.builds(lambda e, s: s * 10.0 ** e, st.floats(-320, 1.8),
                         st.sampled_from([1.0, -1.0]))


@given(st.one_of(tiny_to_rail, llr_floats), st.one_of(tiny_to_rail, llr_floats))
def test_f_exact_matches_longdouble(a, b):
    out = f_exact(a, b)
    assert np.sign(out) == np.sign(a) * np.sign(b)
    want = _f_exact_longdouble(a, b)
    if min(abs(a), abs(b)) >= MAX_LLR:
        assert abs(out) == MAX_LLR  # certainties stay certain
    elif want >= np.finfo(float).smallest_normal:
        assert abs(np.longdouble(abs(out)) - want) <= 1e-15 * want
    for x, y in ((50.0, 50.0), (-50.0, 50.0), (50.0, -50.0), (-50.0, -50.0)):
        assert f_exact(x, y) == x * y / 50.0


@given(st.integers(2, 12).flatmap(
    lambda q: st.tuples(st.just(q), *[st.integers(-qmax(q), qmax(q))] * 2)))
def test_quantized_f_sign_laws(args):
    q, a, b = args
    out = f_minsum(np.int64(a), np.int64(b))
    assert out == sgn(a) * sgn(b) * min(abs(a), abs(b))
    assert f_minsum(-a, b) == -out


@given(st.integers(2, 12).flatmap(
    lambda q: st.tuples(st.just(q), *[st.integers(-qmax(q), qmax(q))] * 2)),
    st.integers(0, 1))
def test_g_sign_laws(args, u):
    q, a, b = args
    out = g_update(a, b, u, q=q)
    assert abs(out) <= qmax(q)
    # negating both inputs negates g; u = 1 is u = 0 with a negated
    assert g_update(-a, -b, u, q=q) == -out
    assert g_update(a, b, 1, q=q) == g_update(-a, b, 0, q=q)
    assert g_update(a, b, 0, q=q) == min(max(a + b, -qmax(q)), qmax(q))


def _select_bits(data, rows, width):
    """Select bits shaped (rows, width): drawn per element, or one row
    broadcast over all rows, as the SSC path passes a Rate-0 child's sums."""
    if data.draw(st.booleans()):
        return np.array(data.draw(bit_lists(rows * width)), dtype=np.int64).reshape(rows, width)
    row = np.array(data.draw(bit_lists(width)), dtype=np.int64)[None, :]
    return np.broadcast_to(row, (rows, width))


@given(st.data())
def test_g_update_is_the_signed_sum(data):
    # g is b + (1 - 2u) a, then saturation or clipping, bit for bit
    rows, width = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 8))
    u = _select_bits(data, rows, width)
    if data.draw(st.booleans()):
        q = None
        elements = st.one_of(st.sampled_from([0.0, -0.0]),
                             st.sampled_from([1.5, -1.5, MAX_LLR, -MAX_LLR]),
                             st.floats(-2 * MAX_LLR, 2 * MAX_LLR))
        dtype, rail = np.float64, MAX_LLR
    else:
        q = data.draw(st.integers(2, 54))
        m = qmax(q)
        elements = st.one_of(st.sampled_from([0, m, -m, m - 1, 1 - m]), st.integers(-m, m))
        dtype, rail = np.int64, m
    a, b = (data.draw(hnp.arrays(dtype, (rows, width), elements=elements)) for _ in range(2))
    got = g_update(a, b, u, q=q)
    want = np.clip(b + (1 - 2 * u) * a, -rail, rail)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_g_update_keeps_signed_zeros():
    # every sign of a zero a and b, under both select values
    zeros = [0.0, -0.0]
    a, b, u = (x.ravel() for x in np.meshgrid(zeros, zeros, [0, 1], indexing="ij"))
    assert np.array_equal(np.signbit(g_update(a, b, u)), np.signbit(b + (1 - 2 * u) * a))


@given(st.data())
def test_ssc_decode_equals_sc_decode(data):
    n = 1 << data.draw(st.integers(1, 8))
    frozen_mask = data.draw(bit_lists(n))  # all frozen (K = 0) to none (K = N)
    frozen = tuple(i + 1 for i, f in enumerate(frozen_mask) if f)
    spec = CodeSpec(n, n - len(frozen), frozen, tuple(data.draw(bit_lists(len(frozen)))))
    rows = data.draw(st.integers(1, 3))
    llrs = np.array(data.draw(st.lists(ssc_inputs, min_size=rows * n, max_size=rows * n)))
    llrs = llrs.reshape(rows, n)
    for mode, q, x in (("exact", None, llrs), ("minsum", None, llrs),
                       ("minsum_q", 6, quantize(llrs, 6))):
        want = sc_decode_batch(x, spec, mode, q=q)[0]
        assert np.array_equal(ssc_decode_batch(x, spec, mode, q=q), want)


@pytest.mark.parametrize("llrs,mode,q", [
    pytest.param([[np.nan, 1.0, 2.0, 3.0]], "exact", None, id="nan-exact"),
    pytest.param([[np.nan, 1.0, 2.0, 3.0]], "minsum", None, id="nan-minsum"),
    pytest.param([[np.nan, 1.0, 2.0, 3.0]], "minsum_q", 6, id="nan-minsum_q"),
    pytest.param([1.0, 2.0, 3.0, 4.0], "minsum", None, id="one-dimensional"),
    pytest.param([[1.0, 2.0, 3.0]], "minsum", None, id="wrong-length"),
    pytest.param([[1.0, 2.0, 3.0, 4.0]], "sum-product", None, id="unknown-mode"),
    pytest.param([[1, 2, 3, 4]], "minsum_q", None, id="minsum_q-without-q"),
    pytest.param([[1.5, 2, 3, 4]], "minsum_q", 6, id="minsum_q-non-integer"),
    # not real numbers: complex once decoded with a ComplexWarning, strings
    # once raised a raw ValueError or UFuncTypeError
    pytest.param([[1 - 3j, 2, 3, 4]], "exact", None, id="complex-exact"),
    pytest.param([[1 - 3j, 2, 3, 4]], "minsum_q", 6, id="complex-minsum_q"),
    pytest.param([["1", "2", "3", "4"]], "exact", None, id="string-exact"),
    pytest.param([["1", "2", "3", "4"]], "minsum", None, id="string-minsum"),
    pytest.param([["1", "2", "3", "4"]], "minsum_q", 6, id="string-minsum_q"),
])
def test_ssc_decode_rejects_what_sc_decode_rejects(llrs, mode, q):
    spec = make_code_spec(4, 2)
    for decode in (sc_decode_batch, ssc_decode_batch):
        with pytest.raises(InvalidParameterError):
            decode(np.array(llrs), spec, mode, q=q)


@given(st.data())
def test_gate_models_on_arrays_equal_elementwise_calls(data):
    # one call on int64 arrays (bit-planes of any width, empty included)
    # gives each element what a call on that element alone gives
    q = data.draw(st.integers(2, 54))
    lo, hi = -(1 << (q - 1)), (1 << (q - 1)) - 1
    words = st.one_of(st.integers(lo, hi), st.sampled_from([lo, -hi, -1, 0, 1, hi]))
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5))
    a, b = (data.draw(hnp.arrays(np.int64, shape, elements=words)) for _ in range(2))
    outs = (*merged_pe(WordQ(a, q), WordQ(b, q)), *addsub_q(WordQ(a, q), WordQ(b, q)))
    assert all(w.value.shape == shape and w.value.dtype == np.int64 for w in outs)
    for i in np.ndindex(shape):
        x, y = WordQ(int(a[i]), q), WordQ(int(b[i]), q)
        want = (*merged_pe(x, y), *addsub_q(x, y))
        assert [w.value[i] for w in outs] == [w.value for w in want]
