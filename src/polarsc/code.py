"""Code parameters, frozen-set construction, and the polar encoding transform.

Bit indices are 1-based in every public interface (CodeSpec, JSON output);
numpy arrays used internally are 0-based as usual. The transform is kept in
natural bit order throughout the toolkit: no bit-reversal permutation is
applied anywhere, so the encoder doubles as the re-encode oracle for the
partial-sum network.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError


def require_count(value, minimum=0, name="trials", maximum=None):
    """``value`` as an int; InvalidParameterError unless an integer (what
    ``operator.index`` takes, bools aside) >= ``minimum`` and, unless
    ``maximum`` is None, <= ``maximum``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if (count is None or isinstance(value, bool) or count < minimum
            or maximum is not None and count > maximum):
        bound = f">= {minimum}" if maximum is None else f"in {minimum}..{maximum}"
        raise InvalidParameterError(f"{name} must be an integer {bound}, got {value!r}")
    return count


def require_real(value, name):
    """``value`` as a float; InvalidParameterError unless a finite real number
    (not a bool or a string, and not an int beyond the float range)."""
    try:
        real = (isinstance(value, (int, float, np.integer, np.floating))
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:  # an int beyond the float range
        real = False
    if not real:
        raise InvalidParameterError(f"{name} must be a finite real number, got {value!r}")
    return float(value)


def require_array(value, name):
    """``value`` as an array, the toolkit's one check of an array argument:
    InvalidParameterError unless a regular (not ragged) array of bools,
    integers or floats (not complex, strings or objects), none of them NaN."""
    try:
        arr = np.asarray(value)
    except ValueError as exc:  # a ragged list, or an element numpy cannot take
        raise InvalidParameterError(f"{name} must form a regular array: {exc}") from None
    if arr.dtype.kind not in "biuf":
        raise InvalidParameterError(f"{name} must be real numbers, got dtype {arr.dtype}")
    if arr.dtype.kind == "f" and np.isnan(arr).any():
        raise InvalidParameterError(f"{name} must not be NaN")
    return arr


def require_power_of_two(n, what="length", minimum=2):
    """``n`` as an int; InvalidParameterError unless a power of two >= ``minimum``."""
    count = require_count(n, name=what)
    if count < minimum or count & (count - 1):
        raise InvalidParameterError(
            f"{what} must be a power of two >= {minimum}, got {n}"
        )
    return count


@dataclass(frozen=True)
class CodeSpec:
    """Block-code parameters (N, K) plus the frozen positions and their values.

    Parameters
    ----------
    n_bits : int
        Code length N, a power of two >= 2.
    k_info : int
        Number of information bits K.
    frozen_set : tuple of int
        Sorted 1-based indices of the N - K frozen positions.
    frozen_values : tuple of int
        Bit value per frozen index, aligned with ``frozen_set``.

    Derived 0-based lookup arrays, used on the decoding hot path:
    ``frozen_mask`` is True where a position is frozen, and
    ``frozen_value_array`` holds the frozen bit values (0 at information
    positions).
    """

    n_bits: int
    k_info: int
    frozen_set: tuple
    frozen_values: tuple

    def __post_init__(self):
        n = require_power_of_two(self.n_bits, "n_bits")
        k = require_count(self.k_info, 0, "k_info", n)
        frozen = tuple(require_count(i, 1, "frozen index", n) for i in self.frozen_set)
        values = tuple(require_count(v, 0, "frozen value", 1) for v in self.frozen_values)
        if len(frozen) != n - k:
            raise InvalidParameterError(f"expected {n - k} frozen indices, got {len(frozen)}")
        if list(frozen) != sorted(set(frozen)):
            raise InvalidParameterError("frozen_set must be sorted and duplicate-free")
        if len(values) != len(frozen):
            raise InvalidParameterError("frozen_values must align with frozen_set")
        for name, value in zip(("n_bits", "k_info", "frozen_set", "frozen_values"),
                               (n, k, frozen, values)):
            object.__setattr__(self, name, value)  # plain Python ints throughout
        mask = np.zeros(n, dtype=bool)
        vals = np.zeros(n, dtype=np.int64)
        for idx, val in zip(frozen, values):
            mask[idx - 1] = True
            vals[idx - 1] = val
        object.__setattr__(self, "frozen_mask", mask)
        object.__setattr__(self, "frozen_value_array", vals)

    def to_json_dict(self):
        return {
            "n": self.n_bits,
            "k": self.k_info,
            "frozen": list(self.frozen_set),
            "frozen_values": list(self.frozen_values),
        }


def polar_transform(u):
    """Apply the kernel-power transform over GF(2) in natural bit order.

    The transform is its own inverse. Accepts a 1-D bit vector or a batch
    with one vector per row (bools count as bits); the last axis must be a
    power of two. Returns a new int64 array.
    """
    bits = require_array(u, "u")
    if bits.ndim == 0 or not ((bits == 0) | (bits == 1)).all():
        raise InvalidParameterError("u must be a vector or a batch of bits (0 or 1)")
    n = require_power_of_two(bits.shape[-1], minimum=1)  # the length-1 transform is the identity
    x = np.array(bits, dtype=np.int64, order="C")
    transform_rows(x.reshape(math.prod(x.shape[:-1]), n))
    return x


def transform_rows(x):
    """``polar_transform`` along axis 1 of ``x``, in place and unchecked:
    ``x`` is a C-contiguous (rows, n) or (rows, n, cols) integer array of
    bits, n a power of two. The butterflies run fastest with many columns."""
    rows, n, *cols = x.shape
    size = 2
    while size <= n:
        v = x.reshape(rows, n // size, size, *cols)
        v[:, :, : size // 2] ^= v[:, :, size // 2 :]
        size *= 2
    return x


def _bec_bhattacharyya(n, erasure):
    """Per-channel erasure parameters under the splitting z -> {2z - z^2, z^2}."""
    if n == 1:
        return [erasure]
    worse = _bec_bhattacharyya(n // 2, 2.0 * erasure - erasure * erasure)
    better = _bec_bhattacharyya(n // 2, erasure * erasure)
    return worse + better


def construct_frozen_set(n_bits, k_info, design_erasure=0.5):
    """Pick the N - K least reliable positions under the BEC recursion.

    Reliability ties break deterministically: the smaller index freezes
    first. Returns a sorted tuple of 1-based indices.
    """
    require_count(k_info, 1, "k_info", require_power_of_two(n_bits, "n_bits"))
    if not 0.0 < require_real(design_erasure, "design_erasure") < 1.0:
        raise InvalidParameterError("design_erasure must lie in (0, 1)")
    z = _bec_bhattacharyya(n_bits, design_erasure)
    order = sorted(range(n_bits), key=lambda i: (-z[i], i))
    return tuple(sorted(i + 1 for i in order[: n_bits - k_info]))


def make_code_spec(n_bits, k_info, design_erasure=0.5):
    """Convenience constructor: frozen set from the BEC recursion, frozen to 0."""
    frozen = construct_frozen_set(n_bits, k_info, design_erasure)
    return CodeSpec(n_bits, k_info, frozen, (0,) * len(frozen))


def encode(message, spec):
    """Scatter a K-bit message into the information positions and transform.

    Accepts a single message or a 2-D batch (one message per row) of bits.
    """
    msg = require_array(message, "message")
    if not ((msg == 0) | (msg == 1)).all():
        raise InvalidParameterError("message entries must be 0 or 1")
    msg = msg.astype(np.int8)
    if msg.ndim == 0 or msg.shape[-1] != spec.k_info:
        raise InvalidParameterError(
            f"message length must be {spec.k_info}, got shape {msg.shape}"
        )
    batch_shape = msg.shape[:-1]
    msg = msg.reshape(math.prod(batch_shape), spec.k_info)
    u = np.zeros((spec.n_bits, msg.shape[0]), dtype=np.int8)  # wire-major, see transform_rows
    u[~spec.frozen_mask] = msg.T
    u[spec.frozen_value_array == 1] = 1  # the frozen ones; information rows read 0 there
    transform_rows(u[None])
    return np.ascontiguousarray(u.T, dtype=np.int64).reshape(batch_shape + (spec.n_bits,))
