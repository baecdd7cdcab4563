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

from .code import polar_transform, require_count, require_real
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
    q = require_count(q, 2, "q")
    if q > MAX_Q:
        raise InvalidParameterError(f"q must lie in 2..{MAX_Q}, got {q}")
    return (1 << (q - 1)) - 1


def require_scale(scale):
    """The toolkit's one check of a quantizer scale: a finite real > 0."""
    if require_real(scale, "scale") <= 0:
        raise InvalidParameterError(f"scale must be finite and > 0, got {scale!r}")


def clamp(x, m):
    """Clip ``x`` to [-m, m]: the toolkit's one saturation formula."""
    # np.minimum/np.maximum keep the dtype and +/-inf handling of np.clip at a
    # fraction of its call overhead on small arrays
    return np.minimum(np.maximum(x, -m), m)


def saturate(x, q):
    """Clip values to the symmetric q-bit range [-qmax(q), qmax(q)]."""
    return clamp(x, qmax(q))


def clip_llr(x):
    """Clip real LLRs to the rail [-MAX_LLR, MAX_LLR]."""
    return clamp(x, MAX_LLR)


def as_quantized(llrs, q):
    """Return ``llrs`` as int64 after checking that every value is an integer
    within +/-qmax(q); NaN fails the check."""
    m = qmax(q)
    raw = np.asarray(llrs)
    if not np.all((raw >= -m) & (raw <= m) & (raw == np.round(raw))):
        raise InvalidParameterError(
            f"quantized LLRs must be integers within +/-{m} for q={q} (quantize first)"
        )
    return raw.astype(np.int64)


def f_minsum(a, b):
    """Min-sum combine: sgn(a) * sgn(b) * min(|a|, |b|).

    Works elementwise on arrays and preserves integer dtypes, so the same
    function serves the float and the quantized decoders.
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
    (certainties stay certain). A zero input gives +0.0.
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
    otherwise it clips at +/- MAX_LLR.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    u = np.asarray(u_sel)
    out = b + (1 - 2 * u) * a
    if q is None:
        return clip_llr(out)
    return saturate(out, q)


def quantize(x, q, scale=1.0):
    """Quantize real LLRs: scale, round half away from zero, saturate.

    The scale factor is a free knob (default 1.0, any finite value > 0);
    fixed-point behaviour elsewhere in the toolkit does not depend on a
    particular choice. NaN raises InvalidParameterError; +/-inf saturates.
    """
    require_scale(scale)
    with np.errstate(over="ignore"):  # an overflowing product is +/-inf, which saturates
        y = np.asarray(x, dtype=float) * scale
    if np.isnan(y).any():
        raise InvalidParameterError("cannot quantize NaN")
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
    single value, which broadcasts against ``llr``."""
    index = require_count(index, 1, "index")
    if index > spec.n_bits:
        raise InvalidParameterError(f"index must lie in 1..{spec.n_bits}, got {index}")
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


def _checked_input(channel_llrs, spec, mode, q):
    """Validate a decoder's (batch, N) input; return it in the mode's
    arithmetic with the mode's f and g."""
    if mode not in MODES:
        raise InvalidParameterError(f"unknown mode {mode!r}")
    llrs = np.asarray(channel_llrs)
    if llrs.ndim != 2 or llrs.shape[1] != spec.n_bits:
        raise InvalidParameterError(
            f"expected shape (batch, {spec.n_bits}), got {llrs.shape}"
        )
    if mode == MODE_MINSUM_Q:
        if q is None:
            raise InvalidParameterError("minsum_q mode requires q")
        return as_quantized(llrs, q), f_minsum, lambda a, b, u: g_update(a, b, u, q=q)
    llrs = llrs.astype(float)
    if np.isnan(llrs).any():
        raise InvalidParameterError("channel LLRs must not be NaN")
    return clip_llr(llrs), (f_exact if mode == MODE_EXACT else f_minsum), g_update


def sc_decode_batch(channel_llrs, spec, mode, q=None):
    """Decode a (batch, N) array of channel LLRs; returns (u_hat, decision_llrs).

    ``mode`` is one of "exact", "minsum", "minsum_q". In minsum_q mode the
    inputs must already be integers in the symmetric q-bit range; NaN is
    rejected in every mode. This full recursion is the reference decoder.
    """
    llrs, f_fun, g_fun = _checked_input(channel_llrs, spec, mode, q)
    batch = llrs.shape[0]
    u_out = np.zeros((batch, spec.n_bits), dtype=np.int64)
    llr_out = np.zeros((batch, spec.n_bits), dtype=float)
    _sc_block(llrs, 1, spec, f_fun, g_fun, u_out, llr_out)
    return u_out, llr_out


def ssc_decode_batch(channel_llrs, spec, mode, q=None):
    """Decisions of ``sc_decode_batch`` (bit for bit), by simplified SC.

    Same arguments and input checks as ``sc_decode_batch``; returns the
    (batch, N) u_hat only. The SC tree is walked with two shortcuts
    (Alamdar-Yazdi and Kschischang, IEEE Comm. Lett. 2011):

    * a Rate-0 node (every position frozen) takes its frozen values, and
      its partial sums are their transform; no f or g is computed;
    * a Rate-1 node (no position frozen) takes the hard decisions
      x = (llr < 0) of its inputs as partial sums, and u = transform(x).

    The Rate-1 shortcut equals SC only when no f output below the node
    loses its sign. Every f keeps sgn(a)*sgn(b) and a nonzero magnitude for
    nonzero inputs, so only an input of exactly 0 breaks it (sgn(0) = +1,
    so SC decides [0, 1] on [0, -1] where transform(x) gives [1, 1]). Rows
    with a zero input take the SC step at that node instead, and the
    shortcuts apply again below it.
    """
    llrs, f_fun, g_fun = _checked_input(channel_llrs, spec, mode, q)
    frozen_values = spec.frozen_value_array
    # frozen_before[i]: frozen positions among 0..i-1
    frozen_before = [0] + np.cumsum(spec.frozen_mask).tolist()

    def block(llrs, start, u):
        """Decide positions start..start+n-1 into ``u`` (batch, n); return
        the block's partial sums."""
        n = llrs.shape[1]
        frozen = frozen_before[start + n] - frozen_before[start]
        if frozen == n:
            u[:] = frozen_values[start:start + n]
            return np.broadcast_to(polar_transform(u[:1]), u.shape)
        if n == 1:
            u[:, 0] = llrs[:, 0] < 0
            return u
        if frozen == 0:
            x = (llrs < 0).astype(np.int64)
            unsafe = (llrs == 0).any(axis=1)
            if unsafe.any():
                # SC's partial sums are the transform of its decisions, so
                # only they are kept and u comes from x for every row
                scratch = np.empty((int(unsafe.sum()), n), dtype=np.int64)
                x[unsafe] = split(llrs[unsafe], start, scratch)
            u[:] = polar_transform(x)
            return x
        return split(llrs, start, u)

    def split(llrs, start, u):
        """One SC step: f into the left half, g into the right half."""
        half = llrs.shape[1] // 2
        a, b = llrs[:, :half], llrs[:, half:]
        # a Rate-0 left child reads only the width of its input, so skip its f
        rate0 = frozen_before[start + half] - frozen_before[start] == half
        x_left = block(a if rate0 else f_fun(a, b), start, u[:, :half])
        x_right = block(g_fun(a, b, x_left), start + half, u[:, half:])
        return np.concatenate([x_left ^ x_right, x_right], axis=1)

    u_hat = np.empty(llrs.shape, dtype=np.int64)
    block(llrs, 0, u_hat)
    return u_hat


def sc_decode(channel_llrs, spec, mode, q=None):
    """Decode one length-N LLR vector; returns a DecodeTrace."""
    llrs = np.asarray(channel_llrs)
    if llrs.ndim != 1 or llrs.shape[0] != spec.n_bits:
        raise InvalidParameterError(
            f"channel_llrs must have length {spec.n_bits}, got shape {llrs.shape}"
        )
    u, d = sc_decode_batch(llrs[None, :], spec, mode, q=q)
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
    lrs = np.asarray(channel_lrs, dtype=float)
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
