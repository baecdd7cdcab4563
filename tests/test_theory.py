"""Error rates and channel statistics checked against theory, not against
another decoder of this package.

Three exact facts from the polar-code literature:

* genie-aided SC on the binary erasure channel erases bit i with
  probability exactly Z_i, the construction's BEC recursion (Arikan, IEEE
  Trans. IT 2009), and never decides a known bit the wrong way;
* sign-corrected BPSK/AWGN LLRs are Gaussian with mean mu = 4(K/N) Eb/N0
  and variance 2 mu, the consistency condition (Richardson and Urbanke,
  *Modern Coding Theory*, 2008);
* at K = N, SC returns the transform of the hard decisions, so its frame
  error rate is 1 - (1 - Q(sqrt(2 Eb/N0)))^N.

The seeds and sizes were fixed before the first run; a miss is a finding,
not a reason to re-seed or to widen a bound.
"""

import math

import numpy as np
import pytest

from polarsc import CodeSpec, ChannelConfig, MAX_LLR, ber_sweep, encode, make_code_spec
from polarsc import polar_transform, sc_decode_batch
from polarsc.channel import BPSK_AWGN, draw_trials
from polarsc.code import _bec_bhattacharyya
from polarsc.llr import qmax

GENIE_SEED, GENIE_N, GENIE_ERASURE = 20090701, 16, 0.5
GENIE_WORDS, GENIE_FRAMES = 16, 256  # frames per message word
CHANNEL_SEED, CHANNEL_TRIALS = 2008, 2000
FER_SEED, FER_TRIALS = 1927, 20000
Z_BOUND = 4.5  # two-sided normal tail ~7e-6
WILSON_Z = 1.959964  # 95%


def _binomial_band(n, p, alpha):
    """The central 1 - alpha band [lo, hi] of Binomial(n, p), exactly: lo is
    the smallest count with P(X <= lo) > alpha/2, hi the largest with
    P(X >= hi) > alpha/2."""
    log_fact = np.cumsum([0.0] + [math.log(i) for i in range(1, n + 1)])
    k = np.arange(n + 1)
    pmf = np.exp(log_fact[n] - log_fact[k] - log_fact[n - k]
                 + k * math.log(p) + (n - k) * math.log1p(-p))
    lower, upper = np.cumsum(pmf), np.cumsum(pmf[::-1])[::-1]
    return int(np.argmax(lower > alpha / 2)), int(n - np.argmax(upper[::-1] > alpha / 2))


def _wilson(errors, trials, z=WILSON_Z):
    p = errors / trials
    centre = (p + z * z / (2 * trials)) / (1 + z * z / trials)
    half = z / (1 + z * z / trials) * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials ** 2))
    return centre - half, centre + half


@pytest.mark.parametrize("mode,q", [("exact", None), ("minsum", None),
                                    ("minsum_q", 2), ("minsum_q", 6)])
def test_genie_erasures_equal_the_bec_recursion(mode, q):
    # every position frozen to the frame's own u (K = 0) is the genie: SC
    # is handed each earlier bit. On erasure LLRs (+/-rail with the sign of
    # the code bit, 0 with probability eps) f and g act as the BEC does, so
    # bit i's decision LLR is 0 with probability Z_i and otherwise signed
    # as u_i
    n, eps = GENIE_N, GENIE_ERASURE
    rail = MAX_LLR if q is None else qmax(q)
    rng = np.random.default_rng(GENIE_SEED)
    zeros = np.zeros(n, dtype=np.int64)
    for _ in range(GENIE_WORDS):
        u = rng.integers(0, 2, n)
        spec = CodeSpec(n, 0, tuple(range(1, n + 1)), tuple(int(b) for b in u))
        signs = 1 - 2 * polar_transform(u)
        llrs = rail * signs * (rng.random((GENIE_FRAMES, n)) >= eps)
        u_hat, dec = sc_decode_batch(llrs, spec, mode, q=q)
        assert np.array_equal(u_hat, np.broadcast_to(u, u_hat.shape))
        known = dec != 0
        assert np.array_equal((dec < 0)[known], np.broadcast_to(u == 1, dec.shape)[known])
        zeros += (~known).sum(axis=0)
    frames = GENIE_WORDS * GENIE_FRAMES
    for i, z in enumerate(_bec_bhattacharyya(n, eps)):
        lo, hi = _binomial_band(frames, z, 1e-3 / n)
        assert lo <= zeros[i] <= hi, (i + 1, zeros[i], z * frames)


@pytest.mark.parametrize("n,k,ebn0", [(64, 32, 1.0), (64, 16, 3.0)])
def test_channel_llrs_meet_the_consistency_condition(n, k, ebn0):
    spec = make_code_spec(n, k)
    msgs, llrs = draw_trials(spec, ChannelConfig(BPSK_AWGN, ebn0, CHANNEL_SEED), CHANNEL_TRIALS)
    assert np.abs(llrs).max() < MAX_LLR  # nothing clipped, so the law is exact
    corrected = (llrs * (1 - 2 * encode(msgs, spec))).ravel()
    mu, size = 4 * (k / n) * 10 ** (ebn0 / 10), corrected.size
    mean_z = (corrected.mean() - mu) / math.sqrt(2 * mu / size)
    # a Gaussian sample variance has variance 2 sigma^4 / (size - 1)
    var_z = (corrected.var(ddof=1) - 2 * mu) / (2 * mu * math.sqrt(2 / (size - 1)))
    assert abs(mean_z) < Z_BOUND and abs(var_z) < Z_BOUND, (corrected.mean(), mu, var_z)


@pytest.mark.parametrize("n,ebn0", [(8, 4.0), (32, 6.0)])
def test_rate_one_fer_has_a_closed_form(n, ebn0):
    # every bit carries information, so a frame fails when any hard decision does
    bit_error = 0.5 * math.erfc(math.sqrt(2 * 10 ** (ebn0 / 10)) / math.sqrt(2))
    fer = 1 - (1 - bit_error) ** n
    spec = make_code_spec(n, n)
    for result in ber_sweep(spec, ["exact", "minsum"], [], [ebn0], FER_TRIALS, FER_SEED):
        lo, hi = _wilson(result.frame_errors, FER_TRIALS)
        assert lo <= fer <= hi, (result.mode, result.fer, fer)
