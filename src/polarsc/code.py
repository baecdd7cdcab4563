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


def require_power_of_two(n, what="length", minimum=2):
    """Raise InvalidParameterError unless ``n`` is a power of two >= ``minimum``."""
    if require_count(n, name=what) < minimum or n & (n - 1):
        raise InvalidParameterError(
            f"{what} must be a power of two >= {minimum}, got {n}"
        )


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
        require_power_of_two(self.n_bits, "n_bits")
        frozen = tuple(require_count(i, 1, "frozen index") for i in self.frozen_set)
        values = tuple(require_count(v, name="frozen value") for v in self.frozen_values)
        if require_count(self.k_info, name="k_info") > self.n_bits:
            raise InvalidParameterError(f"k_info out of range: {self.k_info}")
        if len(frozen) != self.n_bits - self.k_info:
            raise InvalidParameterError(
                f"expected {self.n_bits - self.k_info} frozen indices, got {len(frozen)}"
            )
        if list(frozen) != sorted(set(frozen)):
            raise InvalidParameterError("frozen_set must be sorted and duplicate-free")
        if frozen and frozen[-1] > self.n_bits:
            raise InvalidParameterError("frozen indices must lie in 1..N")
        if len(values) != len(frozen):
            raise InvalidParameterError("frozen_values must align with frozen_set")
        if any(v not in (0, 1) for v in values):
            raise InvalidParameterError("frozen_values must be bits")
        object.__setattr__(self, "frozen_set", frozen)
        object.__setattr__(self, "frozen_values", values)
        mask = np.zeros(self.n_bits, dtype=bool)
        vals = np.zeros(self.n_bits, dtype=np.int64)
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

    The transform is its own inverse. Accepts a 1-D bit vector or a 2-D
    batch with one vector per row; the last axis must be a power of two.
    """
    x = np.array(u, dtype=np.int64) % 2
    n = x.shape[-1]
    require_power_of_two(n, minimum=1)  # the length-1 transform is the identity
    batch_shape = x.shape[:-1]
    x = x.reshape(-1, n)
    size = 2
    while size <= n:
        v = x.reshape(x.shape[0], n // size, size)
        v[:, :, : size // 2] ^= v[:, :, size // 2 :]
        size *= 2
    return x.reshape(batch_shape + (n,))


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
    if msg.shape[-1] != spec.k_info:
        raise InvalidParameterError(
            f"message length must be {spec.k_info}, got {msg.shape[-1]}"
        )
    batch_shape = msg.shape[:-1]
    msg = msg.reshape(math.prod(batch_shape), spec.k_info)
    u = np.zeros((msg.shape[0], spec.n_bits), dtype=np.int64)
    u[:, ~spec.frozen_mask] = msg
    u[:, spec.frozen_mask] = spec.frozen_value_array[spec.frozen_mask]
    x = polar_transform(u)
    return x.reshape(batch_shape + (spec.n_bits,))
