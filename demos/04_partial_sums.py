"""On-the-fly partial sums: the select bits behind every g resolution.

Each stage's g candidates are resolved by XOR combinations of already
decided bits, equal to the encoding transform of the decided left half of
that stage's block. The network computes them in place, streaming decision
pairs through XOR-pass elements exactly like a real-input FFT pipeline.
"""

import numpy as np

from polarsc import (
    PartialSumState,
    build_network,
    control_schedule,
    polar_transform,
)

N = 8
bits = [1, 0, 1, 1, 0, 0, 1, 0]
m = N.bit_length() - 1

state = PartialSumState(N)
print(f"pushing decisions {bits} into the N={N} network:\n")
for k, b in enumerate(bits, start=1):
    state.push(b, k)
    ready = [s for s in range(1, m + 1) if state.stage_ready(s)]
    feeds = {s: "".join(map(str, state.selection_bits(s))) for s in ready}
    print(f"  after bit {k} ({b}): ready stages {feeds}")

# The stage-1 feed after N/2 decisions is the re-encoded left half-block.
print("\nre-encode check: transform of first 4 decisions =",
      "".join(map(str, polar_transform(bits[:4]))))

# Resources grow with the recursion: each doubling of N adds N/4 XOR-pass
# elements on a new level; storage stays one block per combining level.
print("\nnetwork resources:")
for n in (4, 8, 16, 64, 256):
    net = build_network(n)
    print(f"  N={n:4d}: {net.xor_elements:4d} XOR-pass elements, "
          f"{net.storage_slots:4d} storage slots (= N/2-1, N/2-2)")

# Commutator control: level s toggles between its store and combine phases
# every 2^(s-1) decision pairs.
print("\ncontrol periods for N=64:",
      [(c.stage, c.period) for c in control_schedule(64)])
