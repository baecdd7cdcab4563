"""Bit-true gate-level processing elements and unit-gate cost accounting.

The datapath is two's complement; the sign/magnitude view needed by the
min-sum PE is derived explicitly. Saturation is a post-stage clamp to the
symmetric q-bit range, so the 1-bit cells stay pure combinational logic.

Two accounting schemes coexist in ``gate_count``:

* ``merged_pe`` / ``reference_pe`` return the published per-PE rows of the
  hardware comparison table (XOR-class units, MUX bits, register bits).
* ``full_addsub`` / ``separate_add_plus_sub`` count two-input AND/OR
  network gates with inverters free and each XOR expanded into its
  three-gate network; this is the model under which the fused cell's
  sharing ratio is evaluated.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import InvalidParameterError
from .llr import qmax


@dataclass(frozen=True)
class WordQ:
    """q-bit two's-complement word."""

    value: int
    q: int

    def __post_init__(self):
        hi = qmax(self.q)
        lo = -hi - 1
        if not (lo <= self.value <= hi):
            raise InvalidParameterError(
                f"value {self.value} outside q={self.q} range [{lo}, {hi}]"
            )

    def bits(self):
        """LSB-first bit list of the two's-complement pattern."""
        pattern = self.value & ((1 << self.q) - 1)
        return [(pattern >> i) & 1 for i in range(self.q)]

    @classmethod
    def from_bits(cls, bits):
        q = len(bits)
        pattern = sum(b << i for i, b in enumerate(bits))
        if pattern >= (1 << (q - 1)):
            pattern -= 1 << q
        return cls(pattern, q)

    def to_llrq(self):
        """Clamp the one non-symmetric pattern -2^(q-1) to -(2^(q-1)-1)."""
        return WordQ(max(self.value, -qmax(self.q)), self.q)


def full_addsub_1bit(x, y, z_in):
    """Fused 1-bit adder-subtractor cell.

    Returns (sd, c_out, b_out): the shared sum/difference bit
    x XOR y XOR z_in, the carry-out of x + y + z_in, and the borrow-out of
    x - y - z_in (second term of the borrow read as NOT(x XOR y) AND z_in,
    the unique form that makes the cell a correct full subtractor).
    """
    p = x ^ y
    sd = p ^ z_in
    c_out = (x & y) | (p & z_in)
    b_out = ((1 - x) & y) | ((1 - p) & z_in)
    return sd, c_out, b_out


def _ripple_add(xb, yb):
    """q-bit ripple add; returns (bits, carry_into_msb, carry_out)."""
    bits = []
    carry = 0
    carry_into_msb = 0
    for i in range(len(xb)):
        carry_into_msb = carry
        s, carry, _ = full_addsub_1bit(xb[i], yb[i], carry)
        bits.append(s)
    return bits, carry_into_msb, carry


def _ripple_sub(xb, yb):
    """q-bit ripple subtract x - y; returns (bits, borrow_into_msb, borrow_out)."""
    bits = []
    borrow = 0
    borrow_into_msb = 0
    for i in range(len(xb)):
        borrow_into_msb = borrow
        d, _, borrow = full_addsub_1bit(xb[i], yb[i], borrow)
        bits.append(d)
    return bits, borrow_into_msb, borrow


def addsub_q(x, y):
    """Dual-output q-bit adder-subtractor: (x + y, y - x), both saturated.

    The two g candidates of the look-ahead transform come out of one ripple
    pass; two's-complement wrap-around is detected from the carry/borrow
    into and out of the sign position and clamped afterwards.
    """
    if x.q != y.q:
        raise InvalidParameterError("operands must share the same width")
    q = x.q
    m = qmax(q)
    xb, yb = x.bits(), y.bits()

    sum_bits, c_in_msb, c_out = _ripple_add(xb, yb)
    if c_in_msb ^ c_out:  # signed overflow: operands share a sign
        sum_val = m if xb[-1] == 0 else -m
    else:
        sum_val = WordQ.from_bits(sum_bits).value
        sum_val = max(sum_val, -m)

    diff_bits, b_in_msb, b_out = _ripple_sub(yb, xb)
    if b_in_msb ^ b_out:  # signed overflow: operands have opposite signs
        diff_val = m if yb[-1] == 0 else -m
    else:
        diff_val = WordQ.from_bits(diff_bits).value
        diff_val = max(diff_val, -m)

    return WordQ(sum_val, q), WordQ(diff_val, q)


def _magnitude_bits(w):
    """Unsigned magnitude of a two's-complement word, in q bits.

    |-2^(q-1)| does not fit q-1 bits but does fit q unsigned bits.
    """
    if w.value >= 0:
        return [(w.value >> i) & 1 for i in range(w.q)]
    mag = -w.value
    return [(mag >> i) & 1 for i in range(w.q)]


def minsum_pe(a, b):
    """Type II PE: sign(a) XOR sign(b) on min(|a|, |b|), bit-true.

    The magnitude comparison is the borrow-out of the shared subtractor
    running |a| - |b|: borrow set means |a| < |b|.
    """
    if a.q != b.q:
        raise InvalidParameterError("operands must share the same width")
    q = a.q
    mag_a = _magnitude_bits(a)
    mag_b = _magnitude_bits(b)
    _, _, borrow = _ripple_sub(mag_a, mag_b)
    min_bits = mag_a if borrow else mag_b
    mag = sum(bit << i for i, bit in enumerate(min_bits))
    sign = (a.bits()[-1]) ^ (b.bits()[-1])
    val = -mag if (sign and mag != 0) else mag
    val = max(min(val, qmax(q)), -qmax(q))
    return WordQ(val, q)


def merged_pe(a, b):
    """Merged PE: one evaluation yields (f, g0, g1).

    f is the min-sum combine; g0 = a + b and g1 = b - a are the two
    precomputed g candidates, saturated. In hardware the min-sum magnitude
    comparator and the difference path share one subtractor; here the same
    ripple primitives serve both outputs.
    """
    f_out = minsum_pe(a, b)
    g0, g1 = addsub_q(a, b)
    return f_out, g0, g1


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

    def to_json_dict(self):
        return {
            "cell": self.cell,
            "q": self.q,
            "xor": self.xor,
            "and_or": self.and_or,
            "mux_bits": self.mux_bits,
            "reg_bits": self.reg_bits,
            "unit_total": self.unit_total,
        }

    def to_json(self):
        return json.dumps(self.to_json_dict(), indent=2)


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
    """Unit-gate tally for one cell type.

    ``merged_pe`` and ``reference_pe`` reproduce the published per-PE rows
    (the reference row is the line-decoder baseline PE). ``full_addsub``
    and ``separate_add_plus_sub`` are per-bit AND/OR network counts used by
    the sharing-ratio check; ``addsub_q`` and ``minsum_pe`` are the
    corresponding model-derived q-bit tallies.
    """
    qmax(q)  # validates q
    if cell == "full_addsub":
        return GateCount(cell, q, xor=0, and_or=_FUSED_CELL_GATES, mux_bits=0, reg_bits=0)
    if cell == "separate_add_plus_sub":
        return GateCount(
            cell, q, xor=0, and_or=_DISCRETE_FA_FS_GATES, mux_bits=0, reg_bits=0
        )
    if cell == "addsub_q":
        # q fused cells with both chains sharing one parity network per bit,
        # plus the two q-bit saturation clamps.
        return GateCount(cell, q, xor=0, and_or=13 * q, mux_bits=2 * q, reg_bits=0)
    if cell == "minsum_pe":
        # magnitude-compare subtract chain, sign combine, min-select mux
        return GateCount(cell, q, xor=1, and_or=9 * q, mux_bits=q, reg_bits=0)
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
