"""Acceptance suite: one test per exit criterion, at stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion with its wall-clock time against the budget.
"""

import itertools
import time

import numpy as np

from polarsc import (
    MAX_LLR,
    PartialSumState,
    SimConfig,
    WordQ,
    addsub_q,
    build_conventional,
    build_lookahead,
    build_network,
    component_counts,
    encode,
    f_minsum,
    gate_count,
    latency,
    lr_recursion_prob,
    make_code_spec,
    merged_pe,
    parallel_activity_table,
    polar_transform,
    quantize,
    sc_decode,
    sc_decode_batch,
    verify_equivalence,
)
from polarsc.channel import ChannelConfig, draw_trials, ber_sweep
from polarsc.cost import LINE_REFERENCE, PROPOSED
from polarsc.llr import clamp, qmax
from polarsc.schedule import PE_F, PE_G

POWERS_TO_1024 = [4, 8, 16, 32, 64, 128, 256, 512, 1024]


def _report(name, t0, budget_s):
    elapsed = time.time() - t0
    print(f"PASS {name} ({elapsed:.2f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"{name} exceeded its {budget_s}s budget"


def test_c01_latency_closed_forms():
    t0 = time.time()
    for n in POWERS_TO_1024:
        assert latency(build_conventional(n)) == 2 * (n - 1)
        assert latency(build_lookahead(n)) == n - 1
    _report("criterion 1: latency closed forms 2(N-1) and N-1", t0, 1)


def test_c02_n8_chart_sequences():
    t0 = time.time()
    conv = build_conventional(8)
    assert [e.stage for e in conv.cycles] == [1, 2, 3, 3, 2, 3, 3, 1, 2, 3, 3, 2, 3, 3]
    assert [e.pe_type for e in conv.cycles] == [
        PE_F, PE_F, PE_F, PE_G, PE_G, PE_F, PE_G,
        PE_G, PE_F, PE_F, PE_G, PE_G, PE_F, PE_G,
    ]
    la = build_lookahead(8)
    assert [e.stage for e in la.cycles] == [1, 2, 3, 3, 2, 3, 3]
    assert [e.active_pes for e in la.cycles] == [4, 2, 1, 1, 2, 1, 1]
    _report("criterion 2: N=8 chart stage/type sequences", t0, 1)


def test_c03_two_stream_activity_table():
    t0 = time.time()
    table = parallel_activity_table(8)
    assert table.counts[0] == (4, 0, 2, 1, 1, 2, 1, 1)
    assert table.counts[1] == (0, 4, 2, 1, 1, 2, 1, 1)
    assert table.span == 8
    assert all(s <= 4 for s in table.column_sums())
    _report("criterion 3: two-stream activity table", t0, 1)


def test_c04_cost_table_cells_and_totals():
    t0 = time.time()
    for n, q in itertools.product([4, 8, 64, 1024, 4096], [2, 4, 5, 6, 8]):
        p = component_counts(PROPOSED, n, q)
        assert (p.n_pes, p.pe_xor, p.pe_reg, p.pe_mux) == (n // 2, 9 * q, 0, 6 * q)
        assert (p.n_igcs, p.igc_xor, p.igc_ram, p.igc_mux) == (
            2, n // 2 - 1, n // 2 - 2, n // 2 - 2,
        )
        assert p.other_regs == q * (9 * n // 2 + 4)
        assert p.other_muxes == q * (n + 2)
        r = component_counts(LINE_REFERENCE, n, q)
        assert (r.n_pes, r.pe_xor, r.pe_reg, r.pe_mux) == (
            n // 2, 11 * q - 3, 1, 5 * q,
        )
        assert r.other_regs == q * (n - 1)
        assert r.other_muxes == 3 * q * (n // 2 - 1)
    n, q = 1024, 6
    p = component_counts(PROPOSED, n, q)
    r = component_counts(LINE_REFERENCE, n, q)
    for total, headline in [
        (p.xor_equivalent_total, 17 * q * n / 2),
        (r.xor_equivalent_total, (19 * q - 3) * n / 2),
        (p.reg_total, 9 * q * n / 2),
        (r.reg_total, (q + 0.5) * n),
    ]:
        assert abs(total - headline) / headline <= 0.05
    _report("criterion 4: cost table cells exact, totals within 5%", t0, 1)


def test_c05_bit_true_gate_models():
    t0 = time.time()
    for q in range(2, 7):
        m = qmax(q)
        for x, y in itertools.product(range(-(1 << (q - 1)), 1 << (q - 1)), repeat=2):
            s, d = addsub_q(WordQ(x, q), WordQ(y, q))
            assert s.value == max(-m, min(m, x + y))
            assert d.value == max(-m, min(m, y - x))
        for a, b in itertools.product(range(-m, m + 1), repeat=2):
            f, g0, g1 = merged_pe(WordQ(a, q), WordQ(b, q))
            assert f.value == f_minsum(a, b)
            assert g0.value == max(-m, min(m, a + b))
            assert g1.value == max(-m, min(m, b - a))
    rng = np.random.default_rng(85)
    m8 = qmax(8)
    for _ in range(10_000):
        a = int(rng.integers(-m8, m8 + 1))
        b = int(rng.integers(-m8, m8 + 1))
        f, g0, g1 = merged_pe(WordQ(a, 8), WordQ(b, 8))
        assert f.value == f_minsum(a, b)
        assert g0.value == max(-m8, min(m8, a + b))
        assert g1.value == max(-m8, min(m8, b - a))
    # exhaustive for every q <= 8, one array call per model and q
    for q in range(2, 9):
        m = qmax(q)
        words = np.arange(-m - 1, m + 1)
        x, y = (v.ravel() for v in np.meshgrid(words, words, indexing="ij"))
        s, d = addsub_q(WordQ(x, q), WordQ(y, q))
        assert np.array_equal(s.value, clamp(x + y, qmax(q)))
        assert np.array_equal(d.value, clamp(y - x, qmax(q)))
        # the full two's-complement range, (-2^(q-1), -2^(q-1)) included
        f, g0, g1 = merged_pe(WordQ(x, q), WordQ(y, q))
        assert np.array_equal(f.value, clamp(f_minsum(x, y), qmax(q)))
        assert np.array_equal(g0.value, s.value) and np.array_equal(g1.value, d.value)
        # the symmetric range the datapath runs on: (2^q - 1)^2 pairs
        sym = (x >= -m) & (y >= -m)
        a, b = WordQ(x[sym], q), WordQ(y[sym], q)
        assert a.value.size == (2 * m + 1) ** 2
        f, g0, g1 = merged_pe(a, b)
        assert np.array_equal(f.value, f_minsum(a.value, b.value))
        assert np.array_equal(g0.value, clamp(a.value + b.value, qmax(q)))
        assert np.array_equal(g1.value, clamp(b.value - a.value, qmax(q)))
    _report("criterion 5: bit-true gate models vs integer oracles", t0, 30)


def test_c06_addsub_sharing_ratio():
    t0 = time.time()
    fused = gate_count("full_addsub").unit_total
    separate = gate_count("separate_add_plus_sub").unit_total
    assert fused / separate < 0.6
    _report(
        f"criterion 6: fused adder-subtractor ratio {fused}/{separate} < 0.6", t0, 1
    )


def _check_igc_vector(bits, n):
    """Push a full decision vector, checking each feed update against the
    re-encode oracle at the instant it refreshes."""
    m = n.bit_length() - 1
    state = PartialSumState(n)
    for k in range(1, n + 1):
        state.push(int(bits[k - 1]), k)
        level = (k & -k).bit_length() - 1
        stage = m - level
        if stage >= 1:
            half = n >> stage
            start = (k // (2 * half)) * 2 * half
            want = polar_transform(bits[start : start + half])
            assert np.array_equal(state.selection_bits(stage), want)


def test_c07_partial_sum_network_oracle_and_counts():
    t0 = time.time()
    for code in range(256):
        bits = np.array([(code >> i) & 1 for i in range(8)])
        _check_igc_vector(bits, 8)
    for n in (64, 256):
        rng = np.random.default_rng(n)
        for _ in range(1000):
            _check_igc_vector(rng.integers(0, 2, size=n), n)
        net = build_network(n)
        assert net.xor_elements == n // 2 - 1
        assert net.storage_slots == n // 2 - 2
    _report("criterion 7: partial sums vs re-encode oracle, resource counts", t0, 30)


def test_c08_architectural_exactness():
    t0 = time.time()
    for n in (8, 64, 256):
        spec = make_code_spec(n, n // 2)
        for arch in ("lookahead", "parallel2"):
            cfg = SimConfig(spec=spec, q=6, architecture=arch)
            report = verify_equivalence(cfg, trials=1000, seed=n)
            assert report.passed, report.first_divergence
            assert report.matches == 1000
    _report("criterion 8: 1000-trial bit-exactness, both architectures", t0, 120)


def test_c09_cross_domain_oracle():
    t0 = time.time()
    spec = make_code_spec(8, 4)
    rng = np.random.default_rng(9)
    for _ in range(100):
        lnlr = rng.uniform(-6, 6, size=8)
        prob = lr_recursion_prob(np.exp(lnlr), spec)
        log = sc_decode(lnlr, spec, "exact")
        assert np.array_equal(prob.u_hat, log.u_hat)
        assert np.max(np.abs(prob.decision_llrs - log.decision_llrs)) < 1e-9
    _report("criterion 9: probability/log-domain agreement < 1e-9", t0, 5)


def test_c10_end_to_end_coding_sanity():
    t0 = time.time()
    # noiseless: zero errors for every mode and architecture
    for n in POWERS_TO_1024[1:]:  # 8..1024
        spec = make_code_spec(n, n // 2)
        results = ber_sweep(
            spec,
            modes=["exact", "minsum", "minsum_q"],
            architectures=["conventional", "lookahead", "parallel2"],
            ebn0_points=[0.0],
            trials=3,
            seed=n,
            channel_kind="noiseless",
            q=6,
        )
        for r in results:
            assert r.ber == 0.0 and r.fer == 0.0, (n, r)
    # exact-mode BER is non-increasing over the sweep (one 2-sigma inversion allowed)
    spec = make_code_spec(128, 64)
    trials = 10_000
    bers = []
    for ebn0 in (0.0, 1.0, 2.0, 3.0):
        cfg = ChannelConfig(kind="bpsk_awgn", ebn0_db=ebn0, master_seed=101)
        msgs, llrs = draw_trials(spec, cfg, trials)
        u_hat, _ = sc_decode_batch(llrs, spec, "exact")
        errors = int(np.sum(u_hat[:, ~spec.frozen_mask] != msgs))
        bers.append(errors / (trials * spec.k_info))
    inversions = 0
    for lo, hi in zip(bers, bers[1:]):
        if hi > lo:
            inversions += 1
            sigma = np.sqrt(
                (lo * (1 - lo) + hi * (1 - hi)) / (trials * spec.k_info)
            )
            assert hi - lo <= 2 * sigma, bers
    assert inversions <= 1, bers
    assert bers[0] > 0.0  # the sweep actually exercises noisy decoding
    _report("criterion 10: noiseless zero-error, monotone exact-mode BER", t0, 300)
