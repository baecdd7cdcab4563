"""Build a polar code, push a frame through a noisy channel, decode it.

Walks the functional decoding modes: exact LLR combining, the min-sum
approximation, and quantized min-sum with saturating q-bit integers.
"""

import numpy as np

from polarsc import (
    ChannelConfig,
    draw_trials,
    lr_recursion_prob,
    make_code_spec,
    quantize,
    sc_decode,
)
from polarsc.code import encode

# A rate-1/2 code of length 16. The frozen set comes from the erasure-channel
# reliability recursion; frozen bits default to zero.
spec = make_code_spec(16, 8)
print("code:", spec.to_json_dict())

# One frame over BPSK/AWGN at 3 dB. Trial 0's stream draws the 8 message
# bits, then the 16 noise samples; the noise variance follows from the code
# rate K/N. The LLR convention is ln[P(y|0)/P(y|1)], so positive values
# favour bit 0.
cfg = ChannelConfig(kind="bpsk_awgn", ebn0_db=3.0, master_seed=7)
msgs, frames = draw_trials(spec, cfg, 1)
message, llrs = msgs[0], frames[0]
print("message: ", message)
print("codeword:", encode(message, spec))
print("channel LLRs:", np.round(llrs, 2))

for mode in ("exact", "minsum"):
    trace = sc_decode(llrs, spec, mode)
    decoded = trace.u_hat[~spec.frozen_mask]
    print(f"{mode:7s} -> decoded message {decoded}, "
          f"errors {int(np.sum(decoded != message))}")

# Quantized min-sum: 6-bit saturating integers. The quantizer scale is a
# free knob; scale 1.0 keeps one integer step per unit of LLR.
q = 6
q_llrs = quantize(llrs, q)
trace = sc_decode(q_llrs, spec, "minsum_q", q=q)
decoded = trace.u_hat[~spec.frozen_mask]
print(f"minsum_q(q={q}) -> decoded message {decoded}, "
      f"errors {int(np.sum(decoded != message))}")

# The probability-domain oracle runs the same recursion on raw likelihood
# ratios; its decision-time ln(LR) values coincide with the exact decoder.
small = make_code_spec(8, 4)
lnlr = np.random.default_rng(1).uniform(-4, 4, size=8)
prob = lr_recursion_prob(np.exp(lnlr), small)
log = sc_decode(lnlr, small, "exact")
print("probability vs log domain, max |ln LR - LLR|:",
      float(np.max(np.abs(prob.decision_llrs - log.decision_llrs))))
