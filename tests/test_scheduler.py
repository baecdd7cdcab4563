"""Time-chart construction, latency closed forms, and the 2-stream table."""

import pytest

from polarsc import (
    InvalidParameterError,
    build_conventional,
    build_lookahead,
    latency,
    parallel_activity_table,
    utilization,
)
from polarsc.schedule import PE_F, PE_G, PE_MERGED

POWERS = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]

# the 14-cycle N=8 sequential schedule
N8_CONV_STAGES = [1, 2, 3, 3, 2, 3, 3, 1, 2, 3, 3, 2, 3, 3]
N8_CONV_TYPES = [
    PE_F, PE_F, PE_F, PE_G, PE_G, PE_F, PE_G,
    PE_G, PE_F, PE_F, PE_G, PE_G, PE_F, PE_G,
]


class TestConventional:
    def test_n8_reference_sequence(self):
        chart = build_conventional(8)
        assert [e.stage for e in chart.cycles] == N8_CONV_STAGES
        assert [e.pe_type for e in chart.cycles] == N8_CONV_TYPES

    def test_n4_hand_execution(self):
        chart = build_conventional(4)
        want = [
            (1, PE_F, 2), (2, PE_F, 1), (2, PE_G, 1),
            (1, PE_G, 2), (2, PE_F, 1), (2, PE_G, 1),
        ]
        got = [(e.stage, e.pe_type, e.active_pes) for e in chart.cycles]
        assert got == want

    @pytest.mark.parametrize("n", POWERS)
    def test_closed_form_latency(self, n):
        assert latency(build_conventional(n)) == 2 * (n - 1)

    @pytest.mark.parametrize("n", [4, 8, 16, 64, 256])
    def test_stage_appearance_counts(self, n):
        chart = build_conventional(n)
        m = n.bit_length() - 1
        stages = [e.stage for e in chart.cycles]
        for s in range(1, m + 1):
            assert stages.count(s) == 2**s

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_total_pe_activations_cover_graph(self, n):
        # every node of the decoding graph is computed exactly once
        chart = build_conventional(n)
        total = sum(e.active_pes for e in chart.cycles)
        assert total == n * (n.bit_length() - 1)

    def test_pe_counts_per_stage(self):
        chart = build_conventional(16)
        for e in chart.cycles:
            assert e.active_pes == 16 >> e.stage

    def test_rejects_bad_n(self):
        for bad in (2, 3, 12, 8.0):
            with pytest.raises(InvalidParameterError):
                build_conventional(bad)
            with pytest.raises(InvalidParameterError):
                build_lookahead(bad)


class TestLookahead:
    def test_n8_reference_sequence(self):
        chart = build_lookahead(8)
        assert [e.stage for e in chart.cycles] == [1, 2, 3, 3, 2, 3, 3]
        assert [e.active_pes for e in chart.cycles] == [4, 2, 1, 1, 2, 1, 1]
        assert all(e.pe_type == PE_MERGED for e in chart.cycles)

    def test_n4_hand_execution(self):
        chart = build_lookahead(4)
        assert [e.stage for e in chart.cycles] == [1, 2, 2]
        assert [e.active_pes for e in chart.cycles] == [2, 1, 1]

    @pytest.mark.parametrize("n", POWERS)
    def test_closed_form_latency(self, n):
        assert latency(build_lookahead(n)) == n - 1

    @pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 1024])
    def test_stage_appearance_counts(self, n):
        chart = build_lookahead(n)
        stages = [e.stage for e in chart.cycles]
        for s in range(1, n.bit_length()):
            assert stages.count(s) == 2 ** (s - 1)

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_merged_activations_halve(self, n):
        chart = build_lookahead(n)
        total = sum(e.active_pes for e in chart.cycles)
        assert total == (n // 2) * (n.bit_length() - 1)

    def test_channel_stage_appears_once(self):
        for n in (4, 16, 256):
            assert [e.stage for e in build_lookahead(n).cycles].count(1) == 1


class TestUtilization:
    def test_conventional_n8_against_full_tree(self):
        fractions, peak = utilization(build_conventional(8))
        assert peak == pytest.approx(4 / 7)
        assert fractions[0] == pytest.approx(4 / 7)
        assert fractions.min() == pytest.approx(1 / 7)

    def test_lookahead_first_cycle_full(self):
        fractions, peak = utilization(build_lookahead(8))
        assert fractions[0] == pytest.approx(1.0)
        assert peak == pytest.approx(1.0)

    def test_default_budgets(self):
        _, peak_conv = utilization(build_conventional(8))
        assert peak_conv == pytest.approx(4 / 7)
        _, peak_la = utilization(build_lookahead(8))
        assert peak_la == pytest.approx(1.0)


class TestParallelActivity:
    def test_n8_reference_table(self):
        table = parallel_activity_table(8)
        assert table.counts[0] == (4, 0, 2, 1, 1, 2, 1, 1)
        assert table.counts[1] == (0, 4, 2, 1, 1, 2, 1, 1)

    @pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 1024])
    def test_span_and_pool_bound(self, n):
        table = parallel_activity_table(n)
        assert table.span == n
        assert max(table.column_sums()) <= n // 2

    @pytest.mark.parametrize("n", [4, 8, 64])
    def test_each_stream_runs_whole_chart(self, n):
        table = parallel_activity_table(n)
        chart_work = sum(e.active_pes for e in build_lookahead(n).cycles)
        for row in table.counts:
            assert sum(row) == chart_work


class TestSerialization:
    def test_chart_rows(self):
        chart = build_lookahead(4)
        assert chart.to_rows() == [
            (1, 1, PE_MERGED, 2), (2, 2, PE_MERGED, 1), (3, 2, PE_MERGED, 1),
        ]

    def test_chart_json(self):
        d = build_conventional(4).to_json_dict()
        assert d["n"] == 4 and d["kind"] == "conventional"
        assert len(d["cycles"]) == 6

    def test_activity_rows(self):
        table = parallel_activity_table(4)
        rows = table.to_rows()
        assert rows[0] == ("C1", 1, 2)
        assert len(rows) == 8
