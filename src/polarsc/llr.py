"""Functional SC decoding in exact, min-sum, and quantized min-sum arithmetic.

Conventions used throughout:

* LLR = ln[P(y|0) / P(y|1)], so a non-negative LLR decides bit 0.
* sgn(0) = +1, hence ties decide 0.
* Real-valued LLRs saturate at +/- MAX_LLR = 50.0; values at the rail are
  treated as exact (certainties stay certain through the combine).
* q-bit integers saturate to the symmetric range [-(2^(q-1)-1), 2^(q-1)-1],
  for q in 2..MAX_Q.
* NaN is rejected; +/-inf saturates like any other out-of-range value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .code import require_array, require_count, require_real, transform_rows
from .errors import InvalidParameterError

MAX_LLR = 50.0
MAX_Q = 54  # the widest q whose rail 2^(q-1) - 1 float64 still holds exactly
_TINY = np.finfo(float).smallest_normal
# elements per quantize step: its two float buffers stay in cache, and at
# 64 KiB each come off the heap rather than from a fresh mapping
_QUANTIZE_BLOCK = 1 << 13

MODE_EXACT = "exact"
MODE_MINSUM = "minsum"
MODE_MINSUM_Q = "minsum_q"
MODES = (MODE_EXACT, MODE_MINSUM, MODE_MINSUM_Q)


def qmax(q):
    """Largest magnitude representable by a symmetric q-bit quantizer.

    This is the toolkit's one check of q: an integer in 2..MAX_Q.
    """
    return (1 << (require_count(q, 2, "q", MAX_Q) - 1)) - 1


def require_scale(scale):
    """The toolkit's one check of a quantizer scale: a finite real > 0."""
    if require_real(scale, "scale") <= 0:
        raise InvalidParameterError(f"scale must be finite and > 0, got {scale!r}")


def clamp(x, m, out=None):
    """Clip ``x`` to [-m, m] (into ``out`` if given): the toolkit's one
    saturation helper, for real LLRs at m = MAX_LLR and q-bit integers at
    m = qmax(q). The result has the dtype that ``x`` and ``m`` promote to."""
    # the clip ufunc with 0-d bounds is vectorized on integers, where
    # np.minimum/np.maximum against a scalar are not: 3.3-5.5 against 65-125 us
    # on (512, 128) int8, 1.2 against 2.0 us on (128, 4) int64, 26 against
    # 43-59 us on (512, 128) floats (numpy 2.4.6, timeit, best of 7, 2 vCPUs);
    # called as the ufunc, not ndarray.clip, it skips numpy's Python wrapper,
    # ~0.44 against ~0.88 us on (64, 4) int8
    return np._core.umath.clip(x, *_rails(m, x.dtype), out=out)


@lru_cache(maxsize=256, typed=True)
def _rails(m, dtype):
    """-m and m as 0-d arrays of the dtype that ``dtype`` and ``m`` promote to."""
    return tuple(np.array(v, np.result_type(dtype, m)) for v in (-m, m))


def as_quantized(llrs, q):
    """Return ``llrs`` as int64 after checking that every value is an integer
    within +/-qmax(q)."""
    m = qmax(q)
    raw = require_array(llrs, "LLRs")
    if not np.all((raw >= -m) & (raw <= m) & (raw == np.round(raw))):
        raise InvalidParameterError(
            f"quantized LLRs must be integers within +/-{m} for q={q} (quantize first)"
        )
    return raw.astype(np.int64)


def f_minsum(a, b):
    """Min-sum combine: sgn(a) * sgn(b) * min(|a|, |b|).

    Works elementwise on arrays and preserves integer dtypes, so the same
    function serves the float and the quantized decoders. Its inputs are
    unchecked: the oracle calls it on every node, on arrays already checked.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    m = np.minimum(np.abs(a), np.abs(b))
    return np.where((a < 0) ^ (b < 0), -m, m)


def f_exact(a, b):
    """Exact combine ln[(e^(a+b) + 1) / (e^a + e^b)] = 2*artanh(tanh(a/2) * tanh(b/2)).

    Evaluated as sgn(a)*sgn(b)*log1p(ea*eb / (ea + eb + 2)), ea = expm1(|a|),
    eb = expm1(|b|), on inputs clipped to the rail: no term cancels, so the
    sign is exact and the relative error a few ulps at every magnitude. The
    magnitude is at most min(|a|, |b|), at least the smallest normal float
    when both inputs are nonzero, and MAX_LLR when both sit at the rail
    (certainties stay certain). A zero input gives +0.0. Unchecked, as in
    ``f_minsum``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    abs_a, abs_b = np.minimum(np.abs(a), MAX_LLR), np.minimum(np.abs(b), MAX_LLR)
    ea, eb = np.expm1(abs_a), np.expm1(abs_b)
    lo = np.minimum(abs_a, abs_b)
    mag = np.minimum(np.log1p(ea * eb / (ea + eb + 2.0)), lo)
    mag = np.where(lo >= MAX_LLR, MAX_LLR, np.maximum(mag, np.minimum(lo, _TINY)))
    return np.where((a < 0) ^ (b < 0), 0.0 - mag, mag)  # 0.0 - 0.0 is +0.0


def g_update(a, b, u_sel, q=None):
    """Partial-sum combine: a + b when u_sel = 0, b - a when u_sel = 1.

    With ``q`` given the result saturates to the symmetric q-bit range;
    otherwise it clips at +/- MAX_LLR. Unchecked, as in ``f_minsum``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    u = np.asarray(u_sel)
    return clamp(b + (1 - 2 * u) * a, MAX_LLR if q is None else qmax(q))


def quantize(x, q, scale=1.0):
    """Quantize real LLRs: scale, round half away from zero, saturate.

    The scale factor is a free knob (default 1.0, any finite value > 0);
    fixed-point behaviour elsewhere in the toolkit does not depend on a
    particular choice. NaN raises InvalidParameterError; +/-inf saturates.
    Returns int64 values in the input's shape.
    """
    require_scale(scale)
    x = require_array(x, "LLRs")
    m = qmax(q)
    out = np.empty(x.shape, np.int64)
    flat, dest = x.reshape(-1), out.reshape(-1)  # read only: flat may be the caller's array
    # each block goes through the same two float buffers, so the only
    # input-sized array made is the result (and reshape's copy of a strided input)
    size = min(flat.size, _QUANTIZE_BLOCK)
    a, mag = np.empty(size), np.empty(size)
    for start in range(0, flat.size, _QUANTIZE_BLOCK):
        y = flat[start:start + _QUANTIZE_BLOCK]
        a_y, mag_y = a[:y.size], mag[:y.size]
        np.abs(y, out=a_y, dtype=float)
        if scale != 1.0:  # y * 1.0 is y bit for bit, NaN aside, and NaN is refused
            with np.errstate(over="ignore"):  # an overflowing product is +/-inf, which saturates
                a_y *= scale  # |y| * scale is |y * scale|: rounding is symmetric in sign
        np.minimum(a_y, m, out=a_y)  # saturating first keeps +/-inf out of the rounding
        np.rint(a_y, out=mag_y)  # ties to even; a - mag is exact, so exact halves move up
        a_y -= mag_y
        out_y = dest[start:start + y.size]
        halves = out_y.view(np.bool_)[:y.size]  # the block's result bytes, free until the copy
        np.add(mag_y, 1.0, out=mag_y, where=np.equal(a_y, 0.5, out=halves))
        # y * scale has y's sign, -0.0 and +/-inf included, as scale > 0;
        # the magnitudes are integers below 2^53, so the cast is exact
        np.copysign(mag_y, y, out=mag_y)
        np.copyto(out_y, mag_y, casting="unsafe")
    return out


def decide(llr, index, spec):
    """Leaf decision rule for the 1-based ``index``, elementwise over ``llr``:
    a frozen position gives its frozen value, otherwise LLR >= 0 decides 0
    and LLR < 0 decides 1. Returns int64 values; at a frozen position a
    single value, which broadcasts against ``llr``. ``llr`` is unchecked, as
    in ``f_minsum``."""
    index = require_count(index, 1, "index", spec.n_bits)
    if spec.frozen_mask[index - 1]:
        return spec.frozen_value_array[index - 1]
    return np.int64(llr < 0)


@dataclass
class DecodeTrace:
    """Decisions plus the LLR seen at each decision instant."""

    u_hat: np.ndarray
    decision_llrs: np.ndarray
    mode: str
    q: int | None = None

    def to_json_dict(self):
        return {
            "u_hat": [int(b) for b in self.u_hat],
            "decision_llrs": [float(v) for v in self.decision_llrs],
            "mode": self.mode,
            "q": self.q,
        }


def _sc_block(llrs, index0, spec, f_fun, g_fun, u_out, llr_out):
    """Depth-first SC over one block, deciding into ``u_out``; returns the
    block's re-encoded codeword bits (the partial sums for the parent's g)."""
    n = llrs.shape[1]
    if n == 1:
        pos = index0 - 1
        u_out[:, pos] = decide(llrs[:, 0], index0, spec)
        llr_out[:, pos] = llrs[:, 0]
        return u_out[:, pos:pos + 1]
    half = n // 2
    a, b = llrs[:, :half], llrs[:, half:]
    x_left = _sc_block(f_fun(a, b), index0, spec, f_fun, g_fun, u_out, llr_out)
    x_right = _sc_block(g_fun(a, b, x_left), index0 + half, spec, f_fun, g_fun,
                        u_out, llr_out)
    return np.concatenate([x_left ^ x_right, x_right], axis=1)


def _checked_input(channel_llrs, spec, mode, q, ndim=2):
    """Check a decoder's mode, q and input, a (batch, N) array or, for
    ``ndim`` 1, one length-N vector; return it as (batch, N) in the mode's
    arithmetic: int64 for minsum_q, floats clipped to the rail otherwise.
    The array passes one ``require_array``."""
    if mode not in MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    if mode == MODE_MINSUM_Q:
        if q is None:
            raise InvalidParameterError("minsum_q mode requires q")
        llrs = as_quantized(channel_llrs, q)
    else:
        if q is not None:
            qmax(q)
        llrs = clamp(require_array(channel_llrs, "LLRs").astype(float, copy=False), MAX_LLR)
    if llrs.ndim != ndim or llrs.shape[-1] != spec.n_bits:
        want = f"(batch, {spec.n_bits})" if ndim == 2 else f"({spec.n_bits},)"
        raise InvalidParameterError(f"expected shape {want}, got {llrs.shape}")
    return llrs.reshape(-1, spec.n_bits)


def sc_decode_batch(channel_llrs, spec, mode, q=None):
    """Decode a (batch, N) array of channel LLRs; returns (u_hat, decision_llrs).

    ``mode`` is one of "exact", "minsum", "minsum_q". In minsum_q mode the
    inputs must already be integers in the symmetric q-bit range; NaN is
    rejected in every mode, and a given q is checked in every mode. This
    full recursion is the reference decoder.
    """
    return _sc_decode(_checked_input(channel_llrs, spec, mode, q), spec, mode, q)


def _sc_decode(llrs, spec, mode, q):
    """The recursion of ``sc_decode_batch`` on its checked (batch, N) input."""
    f_fun = f_exact if mode == MODE_EXACT else f_minsum
    g_fun = (lambda a, b, u: g_update(a, b, u, q=q)) if mode == MODE_MINSUM_Q else g_update
    batch = llrs.shape[0]
    u_out = np.zeros((batch, spec.n_bits), dtype=np.int64)
    llr_out = np.zeros((batch, spec.n_bits), dtype=float)
    _sc_block(llrs, 1, spec, f_fun, g_fun, u_out, llr_out)
    return u_out, llr_out


def ssc_decode_batch(channel_llrs, spec, mode, q=None):
    """Decisions of ``sc_decode_batch`` (bit for bit), by simplified SC.

    Same arguments and input checks as ``sc_decode_batch``; returns the
    (batch, N) int64 u_hat only. The SC tree is walked with two shortcuts
    (Alamdar-Yazdi and Kschischang, IEEE Comm. Lett. 2011):

    * a Rate-0 node (every position frozen) takes its frozen values, and
      its partial sums are their transform; no f or g computes its input;
    * a Rate-1 node (no position frozen) takes the hard decisions
      x = (v < 0) of its input v as partial sums, wherever v != 0.

    The Rate-1 shortcut rests on a lemma: in SC over a Rate-1 node, every
    nonzero input keeps its hard decision. An f output is zero exactly when
    one of its inputs is (every f keeps sgn(a)*sgn(b) and a nonzero
    magnitude for nonzero inputs). Where both inputs are nonzero, the left
    child's partial sum is x_L = (a < 0) ^ (b < 0), so g = b + (1 - 2x_L)a
    adds two terms of the sign of b, and is nonzero with that sign. Where
    exactly one input is zero, g passes the other through: b, or
    (1 - 2x_L)a, whose sign is (a < 0) ^ x_L. A zero input acts as an
    erasure, as on a binary erasure channel (Arikan, IEEE Trans. IT 2009),
    and sgn(0) = +1 makes SC decide 0 on it, so SC decides [0, 1] on
    [0, -1] where the transform of the hard decisions gives [1, 1]. The
    columns of a Rate-1 node whose input holds a zero are therefore settled
    on bits alone, by the recursion on h = (v < 0) and z = (v == 0) (see
    ``_rate1_bits``); no f or g runs below a Rate-1 node.

    The walk is planned once per code as a flat list of steps and kept
    on the spec (see ``_ssc_plan``); a leaf is a Rate-0 or Rate-1 node of
    size one, so no leaf calls ``decide``. The steps are bound to their
    buffers once per batch shape, the root's input among them, and the spec
    keeps its ``_SSC_BINDINGS`` most recently used bindings of inputs up to
    ``_SSC_KEPT_BYTES`` (see ``_ssc_binding``). No node writes u: SC's
    partial sums are the transform of its decisions, so u_hat is the
    transform of the root's. The walk itself is ``_ssc_wires``, which
    ``ber_sweep`` calls directly.
    """
    llrs = _checked_input(channel_llrs, spec, mode, q)
    wires = np.ascontiguousarray(llrs.T, dtype=_wire_dtype(mode, q))
    return np.ascontiguousarray(_ssc_wires(wires, spec, mode, q).T, dtype=np.int64)


def _wire_dtype(mode, q):
    """The arithmetic of ``_ssc_wires`` in ``mode``: float64, or for minsum_q
    the narrowest integer that holds b + a at the rails, 2*qmax(q): int8 for
    q <= 7, int16 to 15, int32 to 31, int64 above."""
    return np.min_scalar_type(-2 * qmax(q)) if mode == MODE_MINSUM_Q else np.dtype(float)


def _ssc_wires(wires, spec, mode, q):
    """The simplified-SC walk of ``ssc_decode_batch`` on wire-major input.

    ``wires`` is an (N, frames) array of ``_wire_dtype(mode, q)`` within the
    mode's rail, one row per wire and one column per frame; it is read, not
    written. Returns u_hat as a fresh (N, frames) int8 array.

    The walk runs the spec's steps (``_ssc_plan``) in one loop, on buffers
    bound to them once per (frames, dtype) and, for a small input, kept on
    the spec (see ``_ssc_binding``). A kept binding owns the root's input,
    and ``wires`` is copied into it; a larger input is read in place. The
    inputs of the children of a size-2h node live in the (h, frames) buffer
    of their level, and f and g write there in place through temporaries of
    their level. Partial sums are int8, one (N, frames) array zeroed on
    entry and written in place; a copy of it is transformed into u_hat at
    the end, so nothing returned aliases a buffer. f takes its sign from
    copysign(m, a*b) on floats and as (m ^ s) - s on integers, s the sign
    mask of a ^ b; g is b + (1 - 2x)*a, or b + a under a Rate-0 left child
    whose partial sums are all zero. A float f may give -0.0 where
    ``f_minsum`` or ``f_exact`` gives +0.0. That is invisible: the sign of
    a zero reaches only f outputs that are zeros themselves, b +/- 0 is
    exact, and the tests x < 0 and x == 0 treat both zeros alike.
    """
    steps, root, psums = _ssc_binding(spec, wires)
    if root is not wires:  # a kept binding's own root, so it keeps no view of the caller's
        np.copyto(root, wires)
    # looked up on every walk, not bound, so a kernel patched by name is the one run
    f = {MODE_EXACT: _ssc_f_exact, MODE_MINSUM: _ssc_f_minsum, MODE_MINSUM_Q: _ssc_f_minsum_q}[mode]
    rail = wires.dtype.type(qmax(q) if mode == MODE_MINSUM_Q else MAX_LLR)
    kernels = {"f": f, "g": partial(_ssc_g, rail=rail), "hard": _ssc_rate1,
               "sums": np.copyto, "xor": np.bitwise_xor}
    psums.fill(0)  # a zero-sum Rate-0 node writes nothing, and a walk cut short leaves sums
    for op, args in steps:
        kernels[op](*args)
    return transform_rows(psums[None].copy())[0]  # wire-major, so each butterfly is contiguous


_RATE0, _RATE1, _SPLIT = range(3)
# bindings kept per spec: enough for a sweep's full and last chunk, each in
# float64 and in an integer dtype, or for the equivalence campaign's batches
_SSC_BINDINGS = 4
# the largest (N, frames) input, in bytes, whose binding is kept. A larger one's
# buffers (~2.6x the input in float64) are built for their walk and freed at
# return: kept, they would add to the peak memory of every later step of the
# process, and at that size the arithmetic outweighs building the views
_SSC_KEPT_BYTES = 1 << 18


def _ssc_plan(spec):
    """The SSC walk of ``spec`` as a flat list of steps in execution order,
    built on first use and kept on the spec as the non-field attribute
    ``_ssc_plan``, so ==, hash and repr ignore it.

    A step is (op, size, start, extra) on the node of ``size`` wires whose
    partial sums are rows start.. of the walk's: "f" into its left child,
    "g" into its right (extra True when the left child's sums are all zero),
    "xor" of its children's sums, "hard" decisions of a Rate-1 node, and
    "sums" of a Rate-0 node (extra the (size, 1) int8 column). A Rate-0
    node whose sums are all zero makes no step."""
    plan = vars(spec).get("_ssc_plan")
    if plan is None:
        plan = []
        _ssc_node(spec, 0, spec.n_bits, plan)
        vars(spec)["_ssc_plan"] = plan
    return plan


def _ssc_node(spec, start, n, steps):
    """Append the steps of the node on wires start..start+n-1 to ``steps``
    and return its kind: Rate-0, Rate-1 or a split, never a single-bit
    leaf. A split's steps are f into its left child, the left child's, g
    into its right child, the right child's and the xor; a Rate-0 child
    reads no input, so no f or g computes one for it."""
    frozen = spec.frozen_mask[start:start + n]
    if frozen.all():
        sums = transform_rows(spec.frozen_value_array[None, start:start + n].copy())
        if sums.any():
            steps.append(("sums", n, start, sums.T.astype(np.int8)))
        return _RATE0
    if not frozen.any():
        steps.append(("hard", n, start, None))
        return _RATE1
    h, left = n // 2, len(steps)
    if _ssc_node(spec, start, h, steps) != _RATE0:
        steps.insert(left, ("f", n, start, None))
    right = len(steps)  # == left: a Rate-0 left child whose sums are all zero
    if _ssc_node(spec, start + h, h, steps) != _RATE0:
        steps.insert(right, ("g", n, start, right == left))
    steps.append(("xor", n, start, None))
    return _SPLIT


def _ssc_binding(spec, wires):
    """``spec``'s steps bound to buffers for the (N, frames) input ``wires``:
    (steps, root, psums) from ``_ssc_bind``. For an input of at most
    ``_SSC_KEPT_BYTES``, the binding of its (frames, dtype) is built on its
    first walk, owns the root that it reads and is kept on the spec as the
    non-field attribute ``_ssc_bindings``, the ``_SSC_BINDINGS`` most
    recently used ones; walks that share a spec share its buffers, so they
    must not run at the same time. A larger input's binding reads ``wires``
    itself and is not kept."""
    if wires.nbytes > _SSC_KEPT_BYTES:
        return _ssc_bind(_ssc_plan(spec), wires, kept=False)
    store = vars(spec).setdefault("_ssc_bindings", {})
    key = (wires.shape[1], wires.dtype)
    binding = store.pop(key, None)  # re-inserted last, as the most recently used
    if binding is None:
        binding = _ssc_bind(_ssc_plan(spec), wires, kept=True)
        if len(store) >= _SSC_BINDINGS:
            del store[next(iter(store))]
    store[key] = binding
    return binding


def _ssc_bind(plan, wires, kept):
    """Allocate the walk's buffers for input shaped like ``wires`` and bind
    ``plan`` to them: returns (steps, root, psums), steps one (op, args) per
    plan step, args its kernel's arguments, and root the (n, frames) input
    of the root node: a buffer of its own if ``kept``, else ``wires``.

    The buffers are the (n, frames) int8 partial sums, one (h, frames)
    level buffer per h = n/2, ..., 1, and per level its temporaries: three
    for floats, which exact's f needs (minsum's kernels use the first),
    one for integers. So exact and minsum share one float64 binding."""
    (n, frames), dtype = wires.shape, wires.dtype
    k = 3 if dtype.kind == "f" else 1
    psums = np.empty((n, frames), np.int8)
    levels = {n >> d: np.empty((n >> d, frames), dtype) for d in range(1, n.bit_length())}
    scratch = np.empty(k * (n // 2) * frames, dtype)
    temps = {h: tuple(scratch[:k * h * frames].reshape(k, h, frames)) for h in levels}
    levels[n] = np.empty((n, frames), dtype) if kept else wires
    steps = []
    for op, size, start, extra in plan:
        h, v, x = size // 2, levels[size], psums[start:start + size]  # the node's input and sums
        if op == "sums":
            args = x, extra
        elif op == "xor":
            left = x[:h]
            args = left, x[h:], left  # one view as input and out: faster than two equal views
        elif op == "hard":
            args = v, x, x.view(bool)
        elif op == "f":
            args = v[:h], v[h:], levels[h], temps[h]
        else:
            args = v[:h], v[h:], None if extra else x[:h], levels[h], temps[h]
        steps.append((op, args))
    return steps, levels[n], psums


def _ssc_rate1(v, x, signs):
    """A Rate-1 node's partial sums into ``x`` (``signs`` is x as bool): the
    hard decisions of its input ``v``, the columns with a zero input
    settled on bits by ``_rate1_bits``."""
    np.less(v, _ZERO[v.dtype], out=signs)
    # count_nonzero is ~3x faster than all() on small arrays; a zero decides 0
    # at size one, as v < 0 does
    if len(v) > 1 and np.count_nonzero(v) < v.size:
        cols = np.flatnonzero(~v.all(axis=0))  # the columns with a zero input
        x[:, cols] = _rate1_bits(signs[:, cols], v[:, cols] == 0)


def _rate1_bits(h, z):
    """SC's partial sums over a Rate-1 node, from the signs h = (v < 0) and
    the zeros z = (v == 0) of its input v (bool arrays, one row per wire).

    By the lemma of ``ssc_decode_batch``, the left child sees signs
    h_A ^ h_B and zeros z_A | z_B; the right child sees the sign of b, or
    h_A ^ x_L where only b is zero, and zeros z_A & z_B. A block without a
    zero keeps h; a zero at size one decides 0.
    """
    if not z.any():
        return h
    if len(h) == 1:
        return h & ~z
    half = len(h) // 2
    h_a, h_b, z_a, z_b = h[:half], h[half:], z[:half], z[half:]
    x_left = _rate1_bits(h_a ^ h_b, z_a | z_b)
    x_right = _rate1_bits(np.where(z_b, h_a ^ x_left, h_b), z_a & z_b)
    return np.concatenate([x_left ^ x_right, x_right])


# 0-d operands of the SSC kernels, 0.3-0.6 us a ufunc call faster than scalars: -2
# for the int8 partial sums, and per wire dtype a 0, a 1 and the sign bit's shift
_MINUS_TWO = np.array(-2, np.int8)
_ONE = {np.dtype(t): np.array(1, t) for t in (np.int8, np.int16, np.int32, np.int64, float)}
_ZERO = {d: np.array(0, d) for d in _ONE}
_SIGN_SHIFT = {d: np.array(8 * d.itemsize - 1, d) for d in _ONE if d.kind == "i"}


def _ssc_f_minsum(a, b, out, temps):
    """``f_minsum(a, b)`` of floats into ``out``, through the first of ``temps``."""
    t = temps[0]
    np.abs(a, out=out)
    np.abs(b, out=t)
    np.minimum(out, t, out=out)
    np.multiply(a, b, out=t)
    np.copysign(out, t, out=out)


def _ssc_f_minsum_q(a, b, out, temps):
    """``f_minsum(a, b)`` of integers into ``out``, through the first of ``temps``."""
    s = temps[0]
    np.abs(a, out=out)
    np.abs(b, out=s)
    np.minimum(out, s, out=out)
    np.bitwise_xor(a, b, out=s)
    s >>= _SIGN_SHIFT[s.dtype]  # the sign mask: -1 where sgn(a) != sgn(b), else 0
    out ^= s
    out -= s


def _ssc_f_exact(a, b, out, temps):
    """``f_exact(a, b)`` into ``out``, for inputs within the rail, through
    three ``temps``."""
    ea, eb, t = temps
    np.abs(a, out=ea)
    np.abs(b, out=eb)
    np.minimum(ea, eb, out=out)  # lo
    np.expm1(ea, out=ea)
    np.expm1(eb, out=eb)
    np.multiply(ea, eb, out=t)
    ea += eb
    ea += 2.0
    t /= ea
    np.log1p(t, out=t)
    np.minimum(t, out, out=t)
    np.minimum(out, _TINY, out=ea)
    np.maximum(t, ea, out=t)
    np.greater_equal(out, MAX_LLR, out=ea)
    ea *= MAX_LLR  # MAX_LLR where lo sits at the rail, else 0
    np.maximum(t, ea, out=t)
    np.multiply(a, b, out=ea)
    np.copysign(t, ea, out=out)


def _ssc_g(a, b, x, out, temps, rail):
    """``g_update(a, b, x)`` into ``out``, clipped to +/-``rail`` in place,
    through the first of ``temps``; ``x`` None stands for all-zero partial
    sums."""
    if x is None:
        np.add(b, a, out=out)
    else:
        t = temps[0]
        np.multiply(x, _MINUS_TWO, out=t)
        t += _ONE[t.dtype]
        t *= a
        np.add(b, t, out=out)
    clamp(out, rail, out=out)


def _genie_llrs(llrs, u, q):
    """SC's quantized min-sum decision LLRs of the (frames, N) int64 ``llrs``
    when its decisions are ``u`` (frames, N, read only): bit i's LLR after
    decisions 1..i-1 (genie-aided SC; Arikan, IEEE Trans. IT 2009). With u
    known, so is every partial sum: those of the aligned blocks of size h are
    u after butterfly stages 2..h of its transform. So one ``f_minsum`` and
    one ``g_update``, the oracle's kernels, cover each tree level from the root."""
    frames, n = llrs.shape
    sums = [u]
    for k in range(n.bit_length() - 2):
        v = sums[-1].reshape(frames, -1, 2, 1 << k).copy()  # u stays unwritten
        v[:, :, 0] ^= v[:, :, 1]
        sums.append(v.reshape(frames, n))
    v = llrs
    for k in reversed(range(n.bit_length() - 1)):
        v, h = v.reshape(frames, -1, 2 << k), 1 << k
        a, b, x = v[:, :, :h], v[:, :, h:], sums[k].reshape(v.shape)[:, :, :h]
        v = np.concatenate([f_minsum(a, b), g_update(a, b, x, q)], axis=2)
    return v.reshape(frames, n)


def sc_decode(channel_llrs, spec, mode, q=None):
    """Decode one length-N LLR vector, as a one-row ``sc_decode_batch``;
    returns a DecodeTrace."""
    u, d = _sc_decode(_checked_input(channel_llrs, spec, mode, q, ndim=1), spec, mode, q)
    return DecodeTrace(u_hat=u[0], decision_llrs=d[0], mode=mode, q=q)


def _lr_f(la, lb):
    return (la * lb + 1.0) / (la + lb)


def _lr_g(la, lb, u):
    return np.where(u == 1, lb / la, la * lb)


def _lr_block(lrs, index0, spec, u_out, lnlr_out):
    n = lrs.shape[0]
    if n == 1:
        pos = index0 - 1
        if spec.frozen_mask[pos]:
            bit = int(spec.frozen_value_array[pos])
        else:
            bit = 0 if lrs[0] >= 1.0 else 1
        u_out[pos] = bit
        lnlr_out[pos] = np.log(lrs[0])
        return np.array([bit])
    half = n // 2
    a, b = lrs[:half], lrs[half:]
    x_left = _lr_block(_lr_f(a, b), index0, spec, u_out, lnlr_out)
    x_right = _lr_block(_lr_g(a, b, x_left), index0 + half, spec, u_out, lnlr_out)
    return np.concatenate([x_left ^ x_right, x_right])


def lr_recursion_prob(channel_lrs, spec):
    """Probability-domain SC oracle (likelihood ratios, N <= 64).

    Runs the same recursion directly on LRs, deciding with the LR >= 1 rule,
    and records ln(LR) at each decision so results can be cross-checked
    against the log-domain decoder. Returns a DecodeTrace whose
    ``decision_llrs`` hold the decision-time ln(LR) values.
    """
    lrs = require_array(channel_lrs, "likelihood ratios").astype(float, copy=False)
    if lrs.ndim != 1 or lrs.shape[0] != spec.n_bits:
        raise InvalidParameterError(
            f"channel_lrs must have length {spec.n_bits}, got shape {lrs.shape}"
        )
    if spec.n_bits > 64:
        raise InvalidParameterError("probability-domain oracle is limited to N <= 64")
    if np.any(lrs <= 0.0) or not np.all(np.isfinite(lrs)):
        raise InvalidParameterError("likelihood ratios must be positive and finite")
    u_out = np.zeros(spec.n_bits, dtype=np.int64)
    lnlr_out = np.zeros(spec.n_bits, dtype=float)
    _lr_block(lrs, 1, spec, u_out, lnlr_out)
    return DecodeTrace(u_hat=u_out, decision_llrs=lnlr_out, mode="lr_prob", q=None)
