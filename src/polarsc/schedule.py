"""Decoding time charts: sequential and look-ahead constructions.

A time chart maps clock cycles to processing-element activations. Stage 1
is the channel side (N/2 PEs), stage log2(N) the decision side (1 PE).
Both charts come out of the same recursive construction: walking the stage
index from the decision side down to the channel side, left-insert one
cycle for the current stage, then duplicate the chart built so far. The
sequential variant inserts a g cycle and retypes the leftmost copy to f
(2(N-1) cycles total); the look-ahead variant inserts a merged f-and-g
cycle and stops the duplication at stage 1 (N-1 cycles total).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .code import require_count, require_power_of_two

PE_F = "TypeII_f"
PE_G = "TypeI_g"
PE_MERGED = "Merged_fg"

CONVENTIONAL = "conventional"
LOOKAHEAD = "lookahead"
PARALLEL2 = "parallel2"
ARCHITECTURES = (CONVENTIONAL, LOOKAHEAD, PARALLEL2)
STREAM_LABELS = ("C1", "C2")  # the 2-parallel streams; single-stream runs use C1


@dataclass(frozen=True)
class ChartEntry:
    """One PE-group activation: stage, PE type, and active-PE count."""

    stage: int
    pe_type: str
    active_pes: int


@dataclass(frozen=True)
class TimeChart:
    """Ordered clock cycles, each the one ChartEntry active in it."""

    n_bits: int
    kind: str
    cycles: tuple  # one ChartEntry per cycle

    def stage_sequence(self):
        """Stage index of each cycle's entry."""
        return [e.stage for e in self.cycles]

    def type_sequence(self):
        """PE type of each cycle's entry."""
        return [e.pe_type for e in self.cycles]

    def active_sequence(self):
        """Active-PE count of each cycle's entry."""
        return [e.active_pes for e in self.cycles]

    def to_rows(self):
        """CSV rows: (cycle, stage, pe_type, active_pes), cycle 1-based."""
        return [(t, e.stage, e.pe_type, e.active_pes) for t, e in enumerate(self.cycles, start=1)]

    def to_json_dict(self):
        """Each cycle is written as the list of its entries, here always one."""
        return {
            "n": self.n_bits,
            "kind": self.kind,
            "cycles": [
                [{"stage": e.stage, "pe_type": e.pe_type, "active_pes": e.active_pes}]
                for e in self.cycles
            ],
        }


def build_conventional(n_bits):
    """Sequential SC time chart: 2(N-1) cycles, one PE type per cycle.

    Stage i fires 2^i times (alternating f and g per block) with N/2^i
    active PEs per firing.
    """
    n_bits = require_power_of_two(n_bits, "N", 4)
    m = n_bits.bit_length() - 1
    cycles = []
    for stage in range(m, 0, -1):
        count = n_bits >> stage
        cycles = [ChartEntry(stage, PE_G, count)] + cycles
        cycles = cycles + list(cycles)
        cycles[0] = ChartEntry(stage, PE_F, count)
    return TimeChart(n_bits, CONVENTIONAL, tuple(cycles))


def build_lookahead(n_bits):
    """Look-ahead time chart: N-1 cycles of merged f-and-dual-g PEs.

    Each merged activation computes the f output and both g candidates at
    once, so stage i fires only 2^(i-1) times; the channel stage appears
    exactly once.
    """
    n_bits = require_power_of_two(n_bits, "N", 4)
    m = n_bits.bit_length() - 1
    cycles = []
    for stage in range(m, 0, -1):
        cycles = [ChartEntry(stage, PE_MERGED, n_bits >> stage)] + cycles
        if stage == 1:
            break
        cycles = cycles + list(cycles)
    return TimeChart(n_bits, LOOKAHEAD, tuple(cycles))


def latency(chart):
    """Cycle count of a chart: 2(N-1) sequential, N-1 look-ahead."""
    return len(chart.cycles)


def utilization(chart, pe_budget=None):
    """Per-cycle fraction of the PE budget that is active, plus the maximum.

    The budget defaults to the PE pool the chart is normally folded onto:
    N/2 merged PEs for the look-ahead decoder, the full N-1 tree for the
    sequential one.

    Returns
    -------
    fractions : ndarray
        One fraction per cycle.
    peak : float
        max(fractions).
    """
    if pe_budget is None:
        pe_budget = chart.n_bits // 2 if chart.kind == LOOKAHEAD else chart.n_bits - 1
    pe_budget = require_count(pe_budget, 1, "pe_budget")
    fractions = np.array(chart.active_sequence()) / pe_budget
    return fractions, float(fractions.max())


@dataclass(frozen=True)
class ActivityTable:
    """Active merged-PE counts per stream and clock cycle (0 = idle)."""

    n_bits: int
    streams: tuple  # stream labels
    counts: tuple  # per stream, tuple of per-cycle counts

    @property
    def span(self):
        return len(self.counts[0])

    def column_sums(self):
        return [sum(row[t] for row in self.counts) for t in range(self.span)]

    def to_rows(self):
        """CSV rows: (stream, cycle, active_pes), cycle 1-based."""
        rows = []
        for label, row in zip(self.streams, self.counts):
            for t, c in enumerate(row, start=1):
                rows.append((label, t, c))
        return rows

    def to_json_dict(self):
        return {
            "n": self.n_bits,
            "streams": list(self.streams),
            "counts": [list(row) for row in self.counts],
        }
