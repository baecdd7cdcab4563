"""On-the-fly partial-sum generation for the g-candidate selection.

Decided bits stream in one at a time. Decision i completes right halves of
sizes 1, 2, .., 2^(t-1), t = trailing_zeros(i) = log2(N) - refreshed_stage(i),
and each is combined with the stored transform of its left sibling (XOR on
the upper wires, pass on the lower), exactly like a streaming real-valued
FFT datapath. The transform of the left half of a stage-s block is
precisely the MUX select vector for that stage's precomputed g candidates.

Storage is one slot array per combining level, reused block after block.
Levels 1..log2(N)-2 account for the N/2 - 2 memory slots of the network;
the level-0 bit and the topmost N/2-wide output live on wires within a
decision cycle. Given all decisions of a batch of codewords at once,
``select_levels`` gives the simulator every select.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import require_array, require_count, require_power_of_two
from .errors import InvalidParameterError, NotReadyError, SequencingError


class PartialSumState:
    """In-place accumulator of decided-bit partial sums for one codeword.

    Decisions must be pushed in index order 1..N by a single owner; the
    per-stage selection bits may be read between pushes.
    """

    def __init__(self, n_bits):
        n_bits = require_power_of_two(n_bits, "N", 4)
        self.n_bits = n_bits
        self.m = n_bits.bit_length() - 1
        # _acc[j] holds the transform of the most recent completed size-2^j
        # sub-block that is the left half of its parent.
        self._acc = [np.zeros(1 << j, dtype=np.int64) for j in range(self.m)]
        self._count = 0

    @property
    def decided(self):
        """Number of decisions pushed so far."""
        return self._count

    @property
    def storage_slots(self):
        """Persistent memory bits held between decision pairs: the widths of
        the slot arrays at levels 1..log2(N)-2."""
        return sum(len(acc) for acc in self._acc[1:self.m - 1])

    def push(self, u_hat, index):
        """Fold decision ``u_hat``, one bit 0 or 1, with 1-based ``index``
        into the sums. The fold is closed-form: m - ``refreshed_stage``
        butterflies with the stored siblings."""
        bit = require_array(u_hat, "u_hat")
        if bit.ndim or bit.item() not in (0, 1):
            raise InvalidParameterError(f"u_hat must be one bit, 0 or 1: {u_hat}")
        if require_count(index, name="index") != self._count + 1:
            raise SequencingError(
                f"expected decision index {self._count + 1}, got {index}"
            )
        if index > self.n_bits:
            raise SequencingError("all decisions already pushed")
        self._count += 1
        cur = bit.astype(np.int64)[None]
        level = self.m - refreshed_stage(self._count, self.n_bits)
        for j in range(level):
            cur = np.concatenate([self._acc[j] ^ cur, cur])
        if level < self.m:  # a completed codeword feeds nothing above it
            self._acc[level] = cur  # a completed left half is stage m - level's selection vector
        return self

    def stage_ready(self, stage):
        """``select_ready`` after the decisions pushed so far."""
        return select_ready(self._count, require_count(stage, 1, "stage", self.m), self.n_bits)

    def selection_bits(self, stage):
        """MUX select lines for ``stage``: transform of the decided left
        half of the current stage-``stage`` block, of length N / 2^stage."""
        if not self.stage_ready(stage):
            raise NotReadyError(
                f"stage {stage} feed incomplete after {self._count} decisions"
            )
        return self._acc[self.m - stage].copy()


def select_levels(u):
    """Every stage's select bits for a (frames, N) array ``u`` of all
    decisions: entry s - 1 is a bool (2^(s-1), N/2^s, frames) array whose
    block j is the transform of the left half of stage-s block j, which
    ``selection_bits(s)`` gives while the right half is decided. Unchecked."""
    frames, n = u.shape
    x = np.array(u.T, dtype=bool, order="C")  # one row per decision
    levels = []
    for h in (1 << k for k in range(n.bit_length() - 1)):  # from the decision side
        pairs = x.reshape(n // (2 * h), 2, h, frames)
        levels.insert(0, pairs[:, 0])
        x = x.copy()  # the views taken so far keep their stage's sums
        x.reshape(pairs.shape)[:, 0] ^= pairs[:, 1]  # the transforms of size 2h
    return levels


def select_ready(decided, stage, n_bits):
    """True when ``stage``'s select bits are current after ``decided`` decisions:
    the next undecided index lies in the right half of its stage block."""
    half = n_bits >> stage
    return decided % (2 * half) >= half


def refreshed_stage(index, n_bits):
    """Stage whose select bits the push of decision ``index`` completes:
    log2(N) - trailing_zeros(index); 0 for the push that ends the codeword."""
    return n_bits.bit_length() - (index & -index).bit_length()


@dataclass(frozen=True)
class ControlSignal:
    """Commutator control for one combining level: ``period`` decision
    pairs elapse between phase toggles; level s has period 2^(s-1)."""

    stage: int
    period: int


@dataclass(frozen=True)
class IgcNetwork:
    """Structural description of the partial-sum network for one decoder.

    ``n`` counts combining levels (log2(N) - 1). Level 1 is a single
    XOR-pass element and each further level j adds 2^(j-1) elements and
    as many storage slots, so the top level contributes N/4 and the network
    has 2^n - 1 = N/2 - 1 elements and 2^n - 2 = N/2 - 2 slots.
    """

    n: int

    def __post_init__(self):
        require_count(self.n, 1, "n")

    @property
    def control(self):
        """One ControlSignal per level 1..n, periods doubling from 1."""
        return tuple(ControlSignal(stage=s, period=1 << (s - 1)) for s in range(1, self.n + 1))

    @property
    def xor_elements(self):
        return (1 << self.n) - 1

    @property
    def storage_slots(self):
        return (1 << self.n) - 2

    def to_json_dict(self):
        return {
            "n": self.n,
            "xor_elements": self.xor_elements,
            "storage_slots": self.storage_slots,
            "control": [{"stage": c.stage, "period": c.period} for c in self.control],
        }


def control_schedule(n_bits):
    """Toggle periods for all combining levels of an N-bit decoder."""
    return build_network(n_bits).control


def build_network(n_bits):
    """The network of an N-bit decoder: log2(N) - 1 combining levels, N/4
    XOR-pass elements at the top."""
    n_bits = require_power_of_two(n_bits, "N", 4)
    return IgcNetwork(n_bits.bit_length() - 2)
