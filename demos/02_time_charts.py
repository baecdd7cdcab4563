"""Decoding schedules: the sequential chart versus the look-ahead chart.

The sequential schedule activates one PE type per cycle and needs 2(N-1)
cycles. Precomputing both g candidates lets f and g work merge into single
cycles, halving latency to N-1 with full utilization of every active stage.
"""

from polarsc import build_conventional, build_lookahead, latency, utilization

N = 8


def render(chart):
    """One line per cycle: stage, type, and a bar of active PEs."""
    for t, entry in enumerate(chart.cycles, start=1):
        bar = "#" * entry.active_pes
        print(f"  cycle {t:2d}: stage {entry.stage}  {entry.pe_type:9s} {bar}")


conv = build_conventional(N)
print(f"sequential chart, N={N}: {latency(conv)} cycles")
render(conv)

la = build_lookahead(N)
print(f"\nlook-ahead chart, N={N}: {latency(la)} cycles")
render(la)

# Utilization against the natural PE pools: the full N-1 tree for the
# sequential decoder, N/2 merged PEs for the look-ahead one.
fr_conv, peak_conv = utilization(conv)
fr_la, peak_la = utilization(la)
print(f"\nsequential peak utilization: {peak_conv:.0%} "
      f"(min {fr_conv.min():.0%} at the decision-side cycles)")
print(f"look-ahead peak utilization: {peak_la:.0%} in the channel-stage cycle")

print("\nlatency scaling:")
for n in (64, 256, 1024):
    print(f"  N={n:5d}: sequential {latency(build_conventional(n)):5d}, "
          f"look-ahead {latency(build_lookahead(n)):5d}")
