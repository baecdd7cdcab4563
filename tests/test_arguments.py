"""One table of the public integer arguments and their bounds.

Every integer argument passes ``code.require_count`` with its bounds, so a
float, a bool, a numeric string, None, a list or a value out of range raises
InvalidParameterError naming the argument: never a bare TypeError, and never
a value read as something else (``True`` as 1, a string as its characters).
The last three rows hold name arguments, which are looked up, not counted.
"""

import re

import numpy as np
import pytest

from polarsc import (
    CodeSpec,
    IgcNetwork,
    InvalidParameterError,
    PartialSumState,
    SimConfig,
    WordQ,
    ber_sweep,
    build_lookahead,
    component_counts,
    construct_frozen_set,
    decide,
    make_code_spec,
    quantize,
    trial_rng,
    verify_equivalence,
)
from polarsc.archsim import check_schedule
from polarsc.cost import PROPOSED
from polarsc.llr import MAX_Q

SPEC = make_code_spec(8, 4)


def _pushed(decisions):
    """An N=8 partial-sum state after ``decisions`` zero decisions."""
    state = PartialSumState(8)
    for index in range(1, decisions + 1):
        state.push(0, index)
    return state


# (row id, message pattern, call, legal extremes, below the minimum, above the maximum)
ROWS = [
    ("q-quantize", "^q must be", lambda v: quantize([1.0], v), (2, MAX_Q), 1, MAX_Q + 1),
    ("q-SimConfig", "^q must be", lambda v: SimConfig(SPEC, v, "lookahead"),
     (2, MAX_Q), 1, MAX_Q + 1),
    ("index-decide", "^index must be", lambda v: decide(0.5, v, SPEC), (1, 8), 0, 9),
    # after 5 of 8 decisions stages 1 and 3 are ready
    ("stage-stage_ready", "^stage must be", lambda v: _pushed(5).stage_ready(v), (1, 3), 0, 4),
    ("stage-selection_bits", "^stage must be", lambda v: _pushed(5).selection_bits(v),
     (1, 3), 0, 4),
    ("K-construct_frozen_set", "^k_info must be", lambda v: construct_frozen_set(8, v),
     (1, 8), 0, 9),
    ("K-CodeSpec", "^k_info must be", lambda v: CodeSpec(8, v, (), ()), (8,), -1, 9),
    ("frozen-index", "^frozen index must be", lambda v: CodeSpec(8, 7, (v,), (0,)),
     (1, 8), 0, 9),
    ("frozen-value", "^frozen value must be", lambda v: CodeSpec(8, 7, (1,), (v,)),
     (0, 1), -1, 2),
    ("WordQ-value", "^value must be", lambda v: WordQ(v, 4), (-8, 7), -9, 8),
    ("trials-ber_sweep", "^trials must be", lambda v: ber_sweep(SPEC, ["minsum"], [], [1.0], v, 0),
     (1,), 0, None),
    ("trials-verify_equivalence", "^trials must be",
     lambda v: verify_equivalence(SimConfig(SPEC, 6, "lookahead"), v, 0), (1,), 0, None),
    ("seed-trial_rng", "^seed must be", lambda v: trial_rng(v, 0), (0,), -1, None),
    ("trial-trial_rng", "^trial must be", lambda v: trial_rng(0, v), (0,), -1, None),
    ("N-build_lookahead", "^N must be an integer >= 4, got", build_lookahead, (4,), 2, None),
    ("N-PartialSumState", "^N must be an integer >= 4, got", PartialSumState, (4,), 2, None),
    ("N-check_schedule", "^N must be an integer >= 4, got",
     lambda v: check_schedule("lookahead", v), (4,), 2, None),
    ("n-IgcNetwork", "^n must be", IgcNetwork, (1,), 0, None),
    ("modes-ber_sweep", "^modes must be a list|^unknown mode",
     lambda v: ber_sweep(SPEC, v, [], [1.0], 1, 0), (["minsum"], ("minsum",)), None, None),
    ("architectures-ber_sweep", "^architectures must be a list|^unknown architecture",
     lambda v: ber_sweep(SPEC, [], v, [1.0], 1, 0), (["lookahead"],), None, None),
    ("design-component_counts", "^unknown design", lambda v: component_counts(v, 8, 6),
     (PROPOSED,), None, None),
]

BAD = [2.0, True, "2", None, [2]]


def _cases():
    for row_id, match, call, _, below, above in ROWS:
        extra = [v for v in (below, above) if v is not None]
        for value in BAD + extra:
            yield pytest.param(match, call, value, id=f"{row_id}-{value!r}")


@pytest.mark.parametrize("match, call, value", _cases())
def test_rejects(match, call, value):
    with pytest.raises(InvalidParameterError, match=match):
        call(value)


@pytest.mark.parametrize("call, legal", [pytest.param(row[2], row[3], id=row[0]) for row in ROWS])
def test_accepts_its_extremes(call, legal):
    for value in legal:
        call(value)


def test_wordq_array_names_its_first_word_out_of_range():
    # the word prints as an int, not as np.int64(40)
    with pytest.raises(InvalidParameterError, match=r"^value must be an integer in -8\.\.7, got 40$"):
        WordQ(np.array([0, 40, -9], dtype=np.int64), 4)
    assert WordQ(np.array([-8, 7], dtype=np.int64), 4).q == 4


@pytest.mark.parametrize("call", [
    build_lookahead, PartialSumState, lambda v: check_schedule("lookahead", v)])
def test_n_names_its_bound(call):
    # N's integer check carries N's own minimum, not require_count's default 0
    for value in (2.0, -4, 0, 2):
        with pytest.raises(InvalidParameterError,
                           match=rf"^N must be an integer >= 4, got {re.escape(repr(value))}$"):
            call(value)
    with pytest.raises(InvalidParameterError, match=r"^N must be a power of two >= 4, got 12$"):
        call(12)
