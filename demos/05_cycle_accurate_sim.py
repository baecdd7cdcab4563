"""Cycle-accurate runs: one frame through all three architectures.

The look-ahead re-scheduling is exact, so the simulator's decisions are
bit-identical to the functional quantized decoder on every input; the
simulator enforces that every consumed value exists before it is used.
"""

import numpy as np

from polarsc import (
    ChannelConfig,
    SimConfig,
    draw_trials,
    make_code_spec,
    quantize,
    run,
    sc_decode,
    verify_equivalence,
)

N, q = 16, 6
spec = make_code_spec(N, N // 2)
cfg_ch = ChannelConfig(kind="bpsk_awgn", ebn0_db=2.0, master_seed=11)
_, llrs = draw_trials(spec, cfg_ch, 2)
frames = quantize(llrs, q)

reference = sc_decode(frames[0], spec, "minsum_q", q=q)
print("functional decisions:", reference.u_hat)

for arch in ("conventional", "lookahead"):
    result = run(SimConfig(spec=spec, q=q, architecture=arch), frames[0])
    same = np.array_equal(result.decisions[0], reference.u_hat)
    print(f"{arch:12s}: {result.cycles_elapsed:3d} cycles, "
          f"bit-identical={same}, candidate buffer peak {result.candidate_buffer_peak}")

# Two interleaved codewords share one pool of N/2 merged PEs. Stream C1
# stalls one cycle after its channel-stage cycle; the joint span is N.
result = run(SimConfig(spec=spec, q=q, architecture="parallel2"),
             [frames[0], frames[1]])
print(f"parallel2   : {result.cycles_elapsed:3d} cycles for two frames")
print("per-cycle active merged PEs:")
for label, row in zip(result.activity.streams, result.activity.counts):
    print(f"  {label}: {row}")
print("column sums never exceed N/2 =", N // 2, "->",
      max(result.activity.column_sums()))

# A randomized campaign across many noisy frames: 100% bit-exact.
report = verify_equivalence(
    SimConfig(spec=spec, q=q, architecture="lookahead"), trials=200, seed=5,
)
print(f"\nequivalence campaign: {report.matches}/{report.trials} frames "
      f"bit-identical (passed={report.passed})")
