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


def require_count(value, minimum=0, name="trials"):
    """``value`` as an int; InvalidParameterError unless an integer (what
    ``operator.index`` takes, bools aside) >= ``minimum``."""
    try:
        count = operator.index(value)
    except TypeError:
        count = None
    if count is None or isinstance(value, bool) or count < minimum:
        raise InvalidParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")
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
        k = require_count(self.k_info, name="k_info")
        frozen = tuple(require_count(i, 1, "frozen index") for i in self.frozen_set)
        values = tuple(require_count(v, name="frozen value") for v in self.frozen_values)
        if k > n:
            raise InvalidParameterError(f"k_info out of range: {k}")
        if len(frozen) != n - k:
            raise InvalidParameterError(f"expected {n - k} frozen indices, got {len(frozen)}")
        if list(frozen) != sorted(set(frozen)):
            raise InvalidParameterError("frozen_set must be sorted and duplicate-free")
        if frozen and frozen[-1] > n:
            raise InvalidParameterError("frozen indices must lie in 1..N")
        if len(values) != len(frozen):
            raise InvalidParameterError("frozen_values must align with frozen_set")
        if any(v not in (0, 1) for v in values):
            raise InvalidParameterError("frozen_values must be bits")
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

    @classmethod
    def from_json_dict(cls, d):
        return cls(
            n_bits=d["n"],
            k_info=d["k"],
            frozen_set=tuple(d["frozen"]),
            frozen_values=tuple(d["frozen_values"]),
        )


def polar_transform(u):
    """Apply the kernel-power transform over GF(2) in natural bit order.

    The transform is its own inverse. Accepts a 1-D bit vector or a batch
    with one vector per row (bools count as bits); the last axis must be a
    power of two. Returns a new int64 array.
    """
    bits = np.asarray(u)
    if bits.ndim == 0 or not ((bits == 0) | (bits == 1)).all():
        raise InvalidParameterError("u must be a vector or a batch of bits (0 or 1)")
    n = require_power_of_two(bits.shape[-1], minimum=1)  # the length-1 transform is the identity
    x = np.array(bits, dtype=np.int64, order="C")
    transform_rows(x.reshape(math.prod(x.shape[:-1]), n))
    return x


def transform_rows(x):
    """``polar_transform`` of each row of ``x``, in place and unchecked:
    ``x`` is a C-contiguous (rows, n) int64 array of bits, n a power of two."""
    rows, n = x.shape
    size = 2
    while size <= n:
        v = x.reshape(rows, n // size, size)
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
    require_power_of_two(n_bits, "n_bits")
    if not 1 <= require_count(k_info, name="k_info") <= n_bits:
        raise InvalidParameterError(f"k_info must lie in 1..{n_bits}, got {k_info}")
    if not (0.0 < design_erasure < 1.0):
        raise InvalidParameterError("design_erasure must lie in (0, 1)")
    z = _bec_bhattacharyya(n_bits, design_erasure)
    order = sorted(range(n_bits), key=lambda i: (-z[i], i))
    return tuple(sorted(i + 1 for i in order[: n_bits - k_info]))


def make_code_spec(n_bits, k_info, design_erasure=0.5, frozen_values=None):
    """Convenience constructor: frozen set from the BEC recursion, zeros by default."""
    frozen = construct_frozen_set(n_bits, k_info, design_erasure)
    if frozen_values is None:
        frozen_values = (0,) * len(frozen)
    return CodeSpec(n_bits, k_info, frozen, tuple(frozen_values))


def encode(message, spec):
    """Scatter a K-bit message into the information positions and transform.

    Accepts a single message or a 2-D batch (one message per row) of bits.
    """
    msg = np.asarray(message)
    if not ((msg == 0) | (msg == 1)).all():
        raise InvalidParameterError("message entries must be 0 or 1")
    msg = msg.astype(np.int64)
    if msg.ndim == 0 or msg.shape[-1] != spec.k_info:
        raise InvalidParameterError(
            f"message length must be {spec.k_info}, got shape {msg.shape}"
        )
    batch_shape = msg.shape[:-1]
    msg = msg.reshape(math.prod(batch_shape), spec.k_info)
    u = np.zeros((msg.shape[0], spec.n_bits), dtype=np.int64)
    u[:, ~spec.frozen_mask] = msg
    u[:, spec.frozen_mask] = spec.frozen_value_array[spec.frozen_mask]
    return transform_rows(u).reshape(batch_shape + (spec.n_bits,))
