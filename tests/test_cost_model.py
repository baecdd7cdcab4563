"""Cost-model rows, derived totals, and schedule figures."""

import pytest

from polarsc import InvalidParameterError, component_counts, cost
from polarsc.archsim import check_schedule
from polarsc.cost import LINE_REFERENCE, PROPOSED, asymptotic_totals


class TestComponentCounts:
    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("q", [4, 5, 6, 8])
    def test_proposed_cells_exact(self, n, q):
        r = component_counts(PROPOSED, n, q)
        assert r.n_pes == n // 2
        assert (r.pe_xor, r.pe_reg, r.pe_mux) == (9 * q, 0, 6 * q)
        assert r.n_igcs == 2
        assert (r.igc_xor, r.igc_ram, r.igc_mux) == (n // 2 - 1, n // 2 - 2, n // 2 - 2)
        assert r.other_regs == q * (9 * n // 2 + 4)
        assert r.other_muxes == q * (n + 2)

    @pytest.mark.parametrize("n", [8, 64, 1024])
    @pytest.mark.parametrize("q", [4, 5, 6, 8])
    def test_reference_cells_exact(self, n, q):
        r = component_counts(LINE_REFERENCE, n, q)
        assert r.n_pes == n // 2
        assert (r.pe_xor, r.pe_reg, r.pe_mux) == (11 * q - 3, 1, 5 * q)
        assert r.n_igcs == 0
        assert r.other_regs == q * (n - 1)
        assert r.other_muxes == 3 * q * (n // 2 - 1)

    def test_proposed_igc_rows_at_n1024(self):
        r = component_counts(PROPOSED, 1024, 6)
        assert r.igc_xor == 511
        assert r.igc_ram == 510

    def test_reference_other_regs_at_n1024(self):
        assert component_counts(LINE_REFERENCE, 1024, 6).other_regs == 6 * 1023

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameterError):
            component_counts(PROPOSED, 12, 6)
        with pytest.raises(InvalidParameterError):
            component_counts(PROPOSED, 8, 1)
        with pytest.raises(InvalidParameterError):
            component_counts("imaginary", 8, 6)
        with pytest.raises(InvalidParameterError):
            asymptotic_totals("imaginary", 8, 6)
        for design in ([PROPOSED], None):  # looked up by value, never hashed
            with pytest.raises(InvalidParameterError, match="unknown design"):
                component_counts(design, 8, 6)

    def test_q_bounds(self):
        assert component_counts(PROPOSED, 8, 54).pe_xor == 9 * 54
        with pytest.raises(InvalidParameterError):
            component_counts(PROPOSED, 8, 55)
        with pytest.raises(InvalidParameterError):
            asymptotic_totals(PROPOSED, 8, 55)

    def test_q_checked_before_the_schedule_walk(self, monkeypatch):
        # the walk is O(N), so a bad q must fail before it at large N
        walks = []
        monkeypatch.setattr(cost, "check_schedule", lambda *args: walks.append(args))
        with pytest.raises(InvalidParameterError):
            component_counts(PROPOSED, 2**20, 55)
        assert walks == []


class TestTotals:
    def test_headline_values_at_n1024_q6(self):
        prop = component_counts(PROPOSED, 1024, 6)
        ref = component_counts(LINE_REFERENCE, 1024, 6)
        assert abs(prop.xor_equivalent_total - 52224) / 52224 <= 0.05
        assert abs(ref.xor_equivalent_total - 56832) / 56832 <= 0.05
        assert abs(prop.reg_total - 9 * 6 * 1024 / 2) / (9 * 6 * 1024 / 2) <= 0.05
        assert abs(ref.reg_total - 6.5 * 1024) / (6.5 * 1024) <= 0.05

    @pytest.mark.parametrize("n", [64, 128, 256, 512, 1024, 2048, 4096])
    @pytest.mark.parametrize("q", [4, 5, 6, 8])
    def test_asymptotic_forms_within_tolerance(self, n, q):
        for design in (PROPOSED, LINE_REFERENCE):
            r = component_counts(design, n, q)
            want_xor, want_reg = asymptotic_totals(design, n, q)
            assert abs(r.xor_equivalent_total - want_xor) / want_xor <= 0.05
            assert abs(r.reg_total - want_reg) / want_reg <= 0.05

    def test_mux_factor_recorded(self):
        assert component_counts(PROPOSED, 64, 6).mux_to_xor_factor == 1


def figures(design, n):
    """(latency in cycles, normalized throughput) of one design's cost report."""
    r = component_counts(design, n, 6)
    return r.latency, r.normalized_throughput


class TestScheduleFigures:
    """Latency and normalized throughput, as the cost report gives them."""

    def test_proposed(self):
        assert figures(PROPOSED, 1024) == (1024, 2.0)

    def test_reference(self):
        assert figures(LINE_REFERENCE, 8) == (14, 1.0)

    @pytest.mark.parametrize("n", [64, 1024, 4096])
    def test_latency_ratio_approaches_half(self, n):
        lat_p, _ = figures(PROPOSED, n)
        lat_r, _ = figures(LINE_REFERENCE, n)
        assert lat_p / lat_r == pytest.approx(n / (2 * n - 2))
        assert abs(lat_p / lat_r - 0.5) < 1.0 / n

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096])
    def test_throughput_is_one_lookahead_stream_against_conventional(self, n):
        spans = {arch: check_schedule(arch, n)[1].span for arch in ("conventional", "lookahead")}
        assert figures(PROPOSED, n)[1] == 2.0 == spans["conventional"] / spans["lookahead"]


class TestSerialization:
    def test_json_keys(self):
        d = component_counts(PROPOSED, 64, 6).to_json_dict()
        assert set(d) == {
            "design", "n", "q", "pe", "igc", "other_regs", "other_muxes",
            "xor_equivalent_total", "reg_total", "latency",
            "normalized_throughput", "mux_to_xor_factor",
        }

    def test_csv_rows_cover_every_line(self):
        rows = dict(component_counts(LINE_REFERENCE, 64, 6).to_rows())
        assert rows["latency"] == 126
        assert rows["normalized_throughput"] == 1.0
        assert rows["igcs"] == 0
