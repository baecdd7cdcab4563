"""Hardware consumption and schedule comparison for the two decoder designs.

``proposed`` is the two-stream look-ahead decoder (``parallel2``) with merged
PEs and a partial-sum network per stream; ``line_reference`` is the line
decoder of Leroux et al. (ICASSP 2011; ``conventional``) it is compared against.
The PE pool, IGC count and latency are read off the checked schedule; the other
rows are exact in (N, q), and the headline totals drop lower-order terms.

MUX bits convert to XOR-class units with factor 1 per bit. That factor is
derived, not assumed: it is the unique integer under which the component
sums reproduce the headline totals ~17qN/2 and ~(19q-3)N/2. It is recorded
in the report metadata.
"""

from __future__ import annotations

from dataclasses import dataclass

from .archsim import check_schedule
from .code import require_power_of_two
from .errors import InvalidParameterError
from .gates import gate_count
from .igc import build_network
from .llr import qmax
from .schedule import CONVENTIONAL, PARALLEL2

PROPOSED = "proposed"
LINE_REFERENCE = "line_reference"
_DESIGNS = {PROPOSED: (PARALLEL2, 2.0), LINE_REFERENCE: (CONVENTIONAL, 1.0)}


@dataclass(frozen=True)
class CostReport:
    """Per-component gate/register/mux counts plus derived totals."""

    design: str
    n: int
    q: int
    n_pes: int
    pe_xor: int
    pe_reg: int
    pe_mux: int
    n_igcs: int
    igc_xor: int
    igc_ram: int
    igc_mux: int
    other_regs: int
    other_muxes: int
    latency: int
    normalized_throughput: float

    mux_to_xor_factor = 1  # derived, not an option: see the module docstring

    @property
    def xor_equivalent_total(self):
        """XOR-class units of the q-bit datapath (PEs plus other MUX bits,
        converted at the derived factor). The partial-sum network rows
        carry no q factor and stay on their own table lines, mirroring the
        headline total, which is a pure (q, N) expression."""
        total = self.n_pes * (self.pe_xor + self.mux_to_xor_factor * self.pe_mux)
        total += self.mux_to_xor_factor * self.other_muxes
        return total

    @property
    def reg_total(self):
        """Register bits; RAM slots are reported on their own row."""
        return self.n_pes * self.pe_reg + self.other_regs

    def to_json_dict(self):
        return {
            "design": self.design,
            "n": self.n,
            "q": self.q,
            "pe": {"count": self.n_pes, "xor": self.pe_xor, "reg": self.pe_reg,
                   "mux": self.pe_mux},
            "igc": {"count": self.n_igcs, "xor": self.igc_xor, "ram": self.igc_ram,
                    "mux": self.igc_mux},
            "other_regs": self.other_regs,
            "other_muxes": self.other_muxes,
            "xor_equivalent_total": self.xor_equivalent_total,
            "reg_total": self.reg_total,
            "latency": self.latency,
            "normalized_throughput": self.normalized_throughput,
            "mux_to_xor_factor": self.mux_to_xor_factor,
        }

    def to_rows(self):
        """CSV rows (line, value), one per comparison-table line."""
        return [
            ("merged_pes", self.n_pes),
            ("pe_xor", self.pe_xor),
            ("pe_reg", self.pe_reg),
            ("pe_mux", self.pe_mux),
            ("igcs", self.n_igcs),
            ("igc_xor", self.igc_xor),
            ("igc_ram", self.igc_ram),
            ("igc_mux", self.igc_mux),
            ("other_regs", self.other_regs),
            ("other_muxes", self.other_muxes),
            ("total_xor_equivalent", self.xor_equivalent_total),
            ("total_reg", self.reg_total),
            ("latency", self.latency),
            ("normalized_throughput", self.normalized_throughput),
        ]


def component_counts(design, n, q):
    """Exact per-component counts for one design at (N, q); the PE pool, IGC
    count and latency are the checked schedule's peak column sum, stream count
    and span, and the per-PE rows are the gate models' (``gates.gate_count``).
    The normalized throughput is one look-ahead stream's frame rate against the
    conventional decoder's, 2(N-1)/(N-1) = 2 for the proposed design (the
    two-stream pair's frame rate against it is 4(N-1)/N)."""
    if not isinstance(design, str) or design not in _DESIGNS:
        raise InvalidParameterError(f"unknown design {design!r}")
    architecture, throughput = _DESIGNS[design]
    proposed = design == PROPOSED
    pe = gate_count("merged_pe" if proposed else "reference_pe", q)  # before the O(N) walk
    streams, activity, _ = check_schedule(architecture, n)
    common = dict(design=design, n=n, q=q, n_pes=max(activity.column_sums()), pe_xor=pe.xor,
                  pe_reg=pe.reg_bits, pe_mux=pe.mux_bits, latency=activity.span,
                  normalized_throughput=throughput)
    if proposed:
        net = build_network(n)
        return CostReport(
            **common, n_igcs=len(streams), igc_xor=net.xor_elements,
            igc_ram=net.storage_slots, igc_mux=n // 2 - 2,
            other_regs=q * (9 * n // 2 + 4), other_muxes=q * (n + 2),
        )
    return CostReport(
        **common, n_igcs=0, igc_xor=0, igc_ram=0, igc_mux=0,
        other_regs=q * (n - 1), other_muxes=3 * q * (n // 2 - 1),
    )


def asymptotic_totals(design, n, q):
    """Headline (lower-order-terms-dropped) totals: (xor_equivalent, reg)."""
    require_power_of_two(n, "N", 4)
    qmax(q)  # validates q
    if design == PROPOSED:
        return 17 * q * n / 2, 9 * q * n / 2
    if design == LINE_REFERENCE:
        return (19 * q - 3) * n / 2, (q + 0.5) * n
    raise InvalidParameterError(f"unknown design {design!r}")
