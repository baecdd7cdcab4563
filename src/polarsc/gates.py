"""Bit-true gate-level processing elements and unit-gate cost accounting.

The datapath is two's complement; the sign/magnitude view needed by the
min-sum PE is derived explicitly. Saturation is a post-stage clamp to the
symmetric q-bit range, so the 1-bit cells stay pure combinational logic.

The models run on q bit-planes, LSB first (bitslicing; Biham, FSE 1997).
For a ``WordQ`` holding an int (one PE) a plane is one bit; for one holding
an int64 array (one PE per element) plane i is a Python int whose bit j is
bit i of element j, in row-major order. The cells use only AND, OR and XOR,
with each NOT ANDed with a non-negative operand (``~x & y``), so no width
mask is needed and the same logic evaluates one PE or a whole array.

Array words pack in one numpy pass: ``np.packbits`` writes each plane as a
row of ceil(k/8) little-endian bytes for k elements, zero past the last,
and each row is read with one ``int.from_bytes``; unpacking reverses this.

``gate_count`` knows four cells, under two accounting schemes:

* ``merged_pe`` / ``reference_pe`` return the published per-PE rows of the
  hardware comparison table (XOR-class units, MUX bits, register bits).
* ``full_addsub`` / ``separate_add_plus_sub`` count two-input AND/OR
  network gates with inverters free and each XOR expanded into its
  three-gate network; this is the model under which the fused cell's
  sharing ratio is evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .code import require_count
from .errors import InvalidParameterError
from .llr import MAX_Q, qmax


@dataclass(frozen=True)
class WordQ:
    """q-bit two's-complement word: an int, or an int64 array of words."""

    value: int | np.ndarray
    q: int

    def __post_init__(self):
        hi, v = qmax(self.q), self.value
        if isinstance(v, np.ndarray):
            if v.dtype.type is not np.int64:
                raise InvalidParameterError(f"array words must be int64, got {v.dtype}")
            # in range iff v + 2^(q-1) lies in [0, 2^q); a wrapped sum is negative.
            # The first word out of range is checked as an int, so the message prints it as one.
            v = int(v[(v < -hi - 1) | (v > hi)][0]) if np.count_nonzero((v + (hi + 1)) >> self.q) else 0
        require_count(v, -hi - 1, "value", hi)

    def __eq__(self, other):
        # array words compare by shape and elements; like ndarray they stay unhashable
        return (isinstance(other, WordQ) and self.q == other.q
                and np.array_equal(self.value, other.value))

    def bits(self):
        """LSB-first list of the q bit-planes of the two's-complement pattern."""
        return _planes(self)[0][0]


# Bit i of a word weighs 2^i, except the sign bit, which weighs -2^(q-1).
_BIT = 1 << np.arange(MAX_Q, dtype=np.int64)
_WEIGHTS = {q: np.append(_BIT[:q - 1], -_BIT[q - 1]) for q in range(2, MAX_Q + 1)}


def _planes(*words):
    """LSB-first bit-planes of each of some words of one width and shape,
    and that shape (None for int words). The n arrays of k elements pack in
    one ``np.packbits`` pass into n*q rows of ceil(k/8) bytes, row r holding
    plane r % q of word r // q, and each row is read with its own
    ``int.from_bytes`` (cutting one int over all rows walks all of it per
    plane: ~13x slower at q=54 on 2^17 elements)."""
    kinds = {(w.q, w.value.shape if isinstance(w.value, np.ndarray) else None) for w in words}
    if len(kinds) > 1:
        raise InvalidParameterError("operands must share the same width and shape")
    ((q, shape),) = kinds
    if shape is None:
        return [[(w.value >> i) & 1 for i in range(q)] for w in words], shape
    n, k = len(words), math.prod(shape)
    v = np.concatenate([w.value for w in words], axis=None).reshape(n, 1, k)
    raw = np.packbits(v & _BIT[:q, None], axis=2, bitorder="little").tobytes()
    nb = (k + 7) // 8
    rows = [int.from_bytes(raw[i * nb:(i + 1) * nb], "little") for i in range(n * q)]
    return [rows[j * q:(j + 1) * q] for j in range(n)], shape


def _words(plane_lists, shape):
    """Inverse of ``_planes``: each plane goes back to its row with one
    ``to_bytes``, and one ``np.unpackbits`` and one product with the bit
    weights read all words. Values read from q planes are in range, so the
    words skip ``WordQ``'s check."""
    q = len(plane_lists[0])
    if shape is None:
        values = [sum(b << i for i, b in enumerate(p)) - (p[-1] << q) for p in plane_lists]
    else:
        k = math.prod(shape)
        nb = (k + 7) // 8
        raw = b"".join([p.to_bytes(nb, "little") for planes in plane_lists for p in planes])
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(len(plane_lists), q, nb)
        bits = np.unpackbits(rows, axis=2, count=k, bitorder="little")
        values = [v.reshape(shape) for v in np.dot(_WEIGHTS[q], bits)]
    return [_unchecked_word(value, q) for value in values]


def _unchecked_word(value, q):
    """A ``WordQ`` built without the range check, for a value in range by
    construction: read off q planes, or made by the simulator from checked
    input (``archsim._level_pass``)."""
    word = object.__new__(WordQ)
    word.__dict__.update(value=value, q=q)
    return word


def full_addsub_1bit(x, y, z_in):
    """Fused 1-bit adder-subtractor cell, on bits or on bit-planes.

    Returns (sd, c_out, b_out): the shared sum/difference bit
    x XOR y XOR z_in, the carry-out of x + y + z_in, and the borrow-out of
    x - y - z_in (second term of the borrow read as NOT(x XOR y) AND z_in,
    the unique form that makes the cell a correct full subtractor).
    """
    p = x ^ y
    sd = p ^ z_in
    c_out = (x & y) | (p & z_in)
    b_out = (~x & y) | (~p & z_in)
    return sd, c_out, b_out


def _negate_where(bits, neg):
    """Two's-complement negate where ``neg`` is set: (x XOR neg) + neg."""
    out, carry = [], neg
    for b in bits:
        x = b ^ neg
        out.append(x ^ carry)
        carry &= x
    return out


def _saturate(bits, overflow, negative):
    """The two saturation clamps: where ``overflow`` is set the word becomes
    -qmax if ``negative`` else qmax; the pattern -2^(q-1) becomes -qmax."""
    msb = (overflow & negative) | (bits[-1] & ~overflow)
    mid = [(overflow & ~negative) | (b & ~overflow) for b in bits[1:-1]]
    low = 0
    for b in mid:
        low |= b
    return [overflow | bits[0] | (msb & ~low)] + mid + [msb]


def _addsub(xb, yb):
    """Planes of x + y and y - x, both saturated, from one ripple pass."""
    sums, diffs, carry, borrow = [], [], 0, 0
    for x, y in zip(xb, yb):
        carry_into_msb, borrow_into_msb = carry, borrow
        s, carry, _ = full_addsub_1bit(x, y, carry)
        d, _, borrow = full_addsub_1bit(y, x, borrow)
        sums.append(s)
        diffs.append(d)
    # a sum overflows toward the operands' shared sign, a difference toward y's
    return (_saturate(sums, carry_into_msb ^ carry, xb[-1]),
            _saturate(diffs, borrow_into_msb ^ borrow, yb[-1]))


def _minsum(ab, bb):
    """Planes of sign(a) XOR sign(b) on min(|a|, |b|), saturated."""
    # unsigned q-bit magnitudes: |-2^(q-1)| does not fit q-1 bits
    mag_a, mag_b = _negate_where(ab, ab[-1]), _negate_where(bb, bb[-1])
    borrow = 0
    for x, y in zip(mag_a, mag_b):
        borrow = full_addsub_1bit(x, y, borrow)[2]  # finally set iff |a| < |b|
    mag = [(borrow & x) | (y & ~borrow) for x, y in zip(mag_a, mag_b)]
    sign = ab[-1] ^ bb[-1]
    # a magnitude of 2^(q-1) overflows the signed range
    return _saturate(_negate_where(mag, sign), mag[-1], sign)


def addsub_q(x, y):
    """Dual-output q-bit adder-subtractor: (x + y, y - x), both saturated.

    The two g candidates of the look-ahead transform come out of one ripple
    pass; two's-complement wrap-around is detected from the carry/borrow
    into and out of the sign position and clamped afterwards.
    """
    (xb, yb), shape = _planes(x, y)
    return tuple(_words(_addsub(xb, yb), shape))


def merged_pe(a, b):
    """Merged PE: one evaluation yields (f, g0, g1).

    f is the min-sum combine; g0 = a + b and g1 = b - a are the two
    precomputed g candidates, saturated. In hardware the min-sum magnitude
    comparator and the difference path share one subtractor; here the same
    fused cells serve both outputs.
    """
    (ab, bb), shape = _planes(a, b)
    return tuple(_words([_minsum(ab, bb), *_addsub(ab, bb)], shape))


@dataclass(frozen=True)
class GateCount:
    """Unit-gate tally: XOR-class units, AND/OR network gates, MUX and
    register bits. All units cost 1."""

    cell: str
    q: int
    xor: int
    and_or: int
    mux_bits: int
    reg_bits: int

    @property
    def unit_total(self):
        return self.xor + self.and_or + self.mux_bits + self.reg_bits


# AND/OR-network sizes for the sharing-ratio comparison. The fused cell
# builds each XOR as (a OR b) AND NOT(a AND b), which exposes x*y and
# (x XOR y)*z_in as byproducts, and reuses NOT-x*y from the parity network:
#   parity p            3 gates (byproduct: x*y)
#   shared sd           3 gates (byproduct: p*z_in)
#   carry-out           1 gate  (OR of two byproducts)
#   borrow-out          3 gates (NOT-x*y, NOT-p*z_in, OR)
_FUSED_CELL_GATES = 10
# Discrete baseline: full adder and full subtractor, each 2 XOR (3 gates
# apiece when expanded) + 2 AND + 1 OR, with no cross-sharing.
_DISCRETE_FA_FS_GATES = 18


def gate_count(cell, q=2):
    """Unit-gate tally for one of four cells.

    ``merged_pe`` and ``reference_pe`` reproduce the published per-PE rows
    (the reference row is the line-decoder baseline PE). ``full_addsub``
    and ``separate_add_plus_sub`` are the per-bit AND/OR network counts of
    the sharing-ratio check.
    """
    qmax(q)  # validates q
    if cell == "full_addsub":
        return GateCount(cell, q, xor=0, and_or=_FUSED_CELL_GATES, mux_bits=0, reg_bits=0)
    if cell == "separate_add_plus_sub":
        return GateCount(
            cell, q, xor=0, and_or=_DISCRETE_FA_FS_GATES, mux_bits=0, reg_bits=0
        )
    if cell == "merged_pe":
        return GateCount(cell, q, xor=9 * q, and_or=0, mux_bits=6 * q, reg_bits=0)
    if cell == "reference_pe":
        return GateCount(cell, q, xor=11 * q - 3, and_or=0, mux_bits=5 * q, reg_bits=1)
    raise InvalidParameterError(f"unknown cell {cell!r}")


def sharing_ratio():
    """Fused adder-subtractor cell cost over the discrete FA + FS cost."""
    fused = gate_count("full_addsub").unit_total
    separate = gate_count("separate_add_plus_sub").unit_total
    return fused / separate
