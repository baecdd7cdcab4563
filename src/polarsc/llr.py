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

import numpy as np

from .code import require_array, require_count, require_real, transform_rows
from .errors import InvalidParameterError

MAX_LLR = 50.0
MAX_Q = 54  # the widest q whose rail 2^(q-1) - 1 float64 still holds exactly
_TINY = np.finfo(float).smallest_normal

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
    m = qmax(q)."""
    # np.minimum/np.maximum keep np.clip's dtype and +/-inf handling. They
    # cost ~2.5-3.5 us less per call on arrays up to 8 x 128, but np.clip wins
    # on large ones: 12 against 128 us on a (512, 128) int8 array (numpy
    # 2.4.6, timeit, best of 5 on a 2-vCPU machine). The simulator clamps
    # small int64 arrays, so np.clip would cost it time; the choice waits for
    # a measured change.
    return np.minimum(np.maximum(x, -m, out=out), m, out=out)


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
    """
    require_scale(scale)
    x = require_array(x, "LLRs")
    with np.errstate(over="ignore"):  # an overflowing product is +/-inf, which saturates
        y = x.astype(float, copy=False) * scale
    a = np.asarray(np.abs(y))  # an array even for one value, for the in-place steps
    np.minimum(a, qmax(q), out=a)  # saturating first keeps +/-inf out of the rounding
    mag = np.rint(a)  # ties to even; a - mag is exact, so exact halves move up
    a -= mag
    mag += a == 0.5
    return np.copysign(mag, y, out=a).astype(np.int64)


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

    The node tree is planned once per code and kept on the spec (see
    ``_ssc_plan``); a leaf is a Rate-0 or Rate-1 node of size one, so no
    leaf calls ``decide``. No node writes u: SC's partial sums are the
    transform of its decisions, so u_hat is the transform of the root's.
    The walk itself is ``_ssc_wires``, which ``ber_sweep`` calls directly.
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
    written. Returns u_hat as an (N, frames) int8 array.

    The buffers are allocated once per call and freed at return: the
    inputs of the children of a size-2h node live in the (h, frames) buffer
    of their level, and f and g write there in place through one flat
    scratch array shared by all levels. Partial sums are int8, one
    (N, frames) array written in place, and transformed in place into
    u_hat at the end. f takes its sign from copysign(m, a*b) on floats and
    as (m ^ s) - s on integers, s the sign mask of a ^ b; g is
    b + (1 - 2x)*a, or b + a under a Rate-0 left child whose partial sums
    are all zero. A float f may give -0.0 where ``f_minsum`` or ``f_exact``
    gives +0.0. That is invisible: the sign of a zero reaches only f
    outputs that are zeros themselves, b +/- 0 is exact, and the tests
    x < 0 and x == 0 treat both zeros alike.
    """
    dtype = wires.dtype
    rail = dtype.type(qmax(q) if mode == MODE_MINSUM_Q else MAX_LLR)
    f = {MODE_EXACT: _ssc_f_exact, MODE_MINSUM: _ssc_f_minsum, MODE_MINSUM_Q: _ssc_f_minsum_q}[mode]
    temps = 3 if mode == MODE_EXACT else 1  # scratch arrays the largest f or g needs
    n, frames = wires.shape
    psums = np.zeros((n, frames), dtype=np.int8)  # a zero-sum Rate-0 node writes nothing
    levels = {n >> d: np.empty((n >> d, frames), dtype) for d in range(1, n.bit_length())}
    scratch = np.empty(temps * (n // 2) * frames, dtype)
    _ssc_node(_ssc_plan(spec), wires, psums, (levels, scratch, f, rail))
    return transform_rows(psums[None])[0]  # wire-major, so each butterfly is contiguous


_RATE0, _RATE1, _SPLIT = range(3)


def _ssc_plan(spec):
    """The SSC node tree of ``spec``, built on first use and kept on the
    spec as a non-field attribute, so ==, hash and repr ignore it.

    A node is (kind, left, right, sums). A Rate-0 node keeps its partial
    sums as an (n, 1) int8 column, or None when they are all zero; a split
    keeps its two children."""
    plan = getattr(spec, "_ssc_plan", None)
    if plan is None:
        plan = _ssc_plan_node(spec, 0, spec.n_bits)
        object.__setattr__(spec, "_ssc_plan", plan)
    return plan


def _ssc_plan_node(spec, start, n):
    frozen = spec.frozen_mask[start:start + n]
    if frozen.all():
        sums = transform_rows(spec.frozen_value_array[None, start:start + n].copy())
        return (_RATE0, None, None, sums.T.astype(np.int8) if sums.any() else None)
    if not frozen.any():
        return (_RATE1, None, None, None)
    half = n // 2
    return (_SPLIT, _ssc_plan_node(spec, start, half),
            _ssc_plan_node(spec, start + half, half), None)


def _ssc_node(node, v, x, ctx):
    """Run plan ``node`` on its input ``v`` (n wires x k frames) and leave
    its partial sums in ``x`` (n x k int8, zero on entry)."""
    kind, sums = node[0], node[3]
    if kind == _RATE0:
        if sums is not None:
            np.copyto(x, sums)
    elif kind == _SPLIT:
        _ssc_split(node, v, x, ctx)
    else:
        np.less(v, 0, out=x.view(bool))
        if len(v) > 1 and not v.all():  # a zero decides 0 at size one, as v < 0 does
            cols = np.flatnonzero(~v.all(axis=0))  # the columns with a zero input
            x[:, cols] = _rate1_bits(x[:, cols].view(bool), v[:, cols] == 0)


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


def _ssc_split(node, v, x, ctx):
    """One SC step at ``node``: f into the left child, g into the right;
    a Rate-0 child reads no input, so none is computed for it."""
    levels, scratch, f, rail = ctx
    _, left, right, _ = node
    h = len(v) // 2
    a, b = v[:h], v[h:]
    child = levels[h]
    if left[0] != _RATE0:
        f(a, b, child, scratch)
    _ssc_node(left, child, x[:h], ctx)
    if right[0] != _RATE0:
        zero = left[0] == _RATE0 and left[3] is None
        _ssc_g(a, b, None if zero else x[:h], child, scratch, rail)
    _ssc_node(right, child, x[h:], ctx)
    x[:h] ^= x[h:]


def _ssc_f_minsum(a, b, out, scratch):
    """``f_minsum(a, b)`` of floats into ``out``."""
    t = scratch[:out.size].reshape(out.shape)
    np.abs(a, out=out)
    np.abs(b, out=t)
    np.minimum(out, t, out=out)
    np.multiply(a, b, out=t)
    np.copysign(out, t, out=out)


def _ssc_f_minsum_q(a, b, out, scratch):
    """``f_minsum(a, b)`` of integers into ``out``."""
    s = scratch[:out.size].reshape(out.shape)
    np.abs(a, out=out)
    np.abs(b, out=s)
    np.minimum(out, s, out=out)
    np.bitwise_xor(a, b, out=s)
    s >>= 8 * s.itemsize - 1  # the sign mask: -1 where sgn(a) != sgn(b), else 0
    out ^= s
    out -= s


def _ssc_f_exact(a, b, out, scratch):
    """``f_exact(a, b)`` into ``out``, for inputs within the rail."""
    ea, eb, t = scratch[:3 * out.size].reshape((3,) + out.shape)
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


def _ssc_g(a, b, x, out, scratch, rail):
    """``g_update(a, b, x)`` into ``out``, clipped to +/-``rail`` in place;
    ``x`` None stands for all-zero partial sums."""
    if x is None:
        np.add(b, a, out=out)
    else:
        t = scratch[:out.size].reshape(out.shape)
        np.multiply(x, -2, out=t)
        t += 1
        t *= a
        np.add(b, t, out=out)
    clamp(out, rail, out=out)


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
