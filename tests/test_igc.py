"""Partial-sum network: re-encode oracle, resource counts, control."""

import numpy as np
import pytest

from polarsc import (
    CodeSpec,
    ControlSignal,
    IgcNetwork,
    InvalidParameterError,
    NotReadyError,
    PartialSumState,
    SequencingError,
    build_conventional,
    build_lookahead,
    build_network,
    control_schedule,
    polar_transform,
    sc_decode_batch,
)
from polarsc.archsim import check_schedule
from polarsc.cost import PROPOSED, component_counts
from polarsc.igc import refreshed_stage, select_levels


def oracle_selection(bits, k, stage, n):
    """Re-encode oracle: transform of the decided left half of the current
    stage block, or None when that feed is not ready after k decisions."""
    half = n >> stage
    if (k % (2 * half)) < half:
        return None
    start = (k // (2 * half)) * 2 * half
    return polar_transform(bits[start : start + half])


def check_vector_against_oracle(bits, n):
    m = n.bit_length() - 1
    state = PartialSumState(n)
    for k in range(1, n + 1):
        state.push(int(bits[k - 1]), k)
        for stage in range(1, m + 1):
            want = oracle_selection(bits, k, stage, n)
            if want is None:
                assert not state.stage_ready(stage)
                with pytest.raises(NotReadyError):
                    state.selection_bits(stage)
            else:
                assert np.array_equal(state.selection_bits(stage), want), (
                    bits, k, stage,
                )


class TestSelectionBits:
    def test_n4_single_butterfly(self):
        state = PartialSumState(4)
        state.push(1, 1).push(0, 2)
        assert list(state.selection_bits(1)) == [1, 0]

    def test_n8_reencode_after_four(self):
        state = PartialSumState(8)
        for k, b in enumerate((1, 0, 1, 1), start=1):
            state.push(b, k)
        assert list(state.selection_bits(1)) == [1, 1, 0, 1]

    def test_n8_decision_side_after_one(self):
        state = PartialSumState(8)
        state.push(1, 1)
        assert list(state.selection_bits(3)) == [1]

    def test_all_zero_prefix_gives_zero_feeds(self):
        n = 16
        state = PartialSumState(n)
        m = n.bit_length() - 1
        for k in range(1, n + 1):
            state.push(0, k)
            for stage in range(1, m + 1):
                if state.stage_ready(stage):
                    assert not state.selection_bits(stage).any()

    def test_exhaustive_n8(self):
        for code in range(256):
            bits = [(code >> i) & 1 for i in range(8)]
            check_vector_against_oracle(bits, 8)

    @pytest.mark.parametrize("n", [64, 256])
    def test_random_vectors(self, n):
        rng = np.random.default_rng(n)
        for _ in range(50):
            bits = rng.integers(0, 2, size=n)
            check_vector_against_oracle(bits, n)

    def test_push_out_of_order_rejected(self):
        state = PartialSumState(8)
        state.push(1, 1)
        with pytest.raises(SequencingError):
            state.push(0, 3)

    def test_push_past_end_rejected(self):
        state = PartialSumState(4)
        for k in range(1, 5):
            state.push(0, k)
        with pytest.raises(SequencingError):
            state.push(0, 5)

    @pytest.mark.parametrize("bad", [2, -1, 0.5, "1", None, [[0, 1]], [0, 2], [0, 1]])
    def test_push_rejects_non_bits(self, bad):
        with pytest.raises(InvalidParameterError):
            PartialSumState(8).push(bad, 1)

    @pytest.mark.parametrize("index", [1.0, True, "1"])
    def test_push_rejects_a_non_integer_index(self, index):
        with pytest.raises(InvalidParameterError):
            PartialSumState(8).push(0, index)

    def test_push_keeps_its_own_copy_of_the_bits(self):
        # a caller may push an element of its decision array; a state that
        # kept a view of it would change when the caller's array does
        state = PartialSumState(8)
        bits = np.array(1)
        for index, stage in ((1, 3), (2, 2)):  # an odd push, then an even one
            state.push(bits, index)
            before = state.selection_bits(stage)
            bits[...] = 1 - bits
            assert np.array_equal(state.selection_bits(stage), before)

    def test_refreshed_stage(self):
        # push k completes the select bits of stage log2(N) - trailing_zeros(k)
        assert [refreshed_stage(k, 8) for k in range(1, 9)] == [3, 2, 3, 1, 3, 2, 3, 0]
        state = PartialSumState(64)
        for k in range(1, 65):
            stage = refreshed_stage(k, 64)
            was_ready = stage >= 1 and state.stage_ready(stage)
            state.push(0, k)
            assert stage >= 1 or k == 64
            assert stage < 1 or (not was_ready and state.stage_ready(stage))

    def test_storage_footprint(self):
        for n in (4, 8, 64, 1024):
            assert PartialSumState(n).storage_slots == n // 2 - 2


class RowStates:
    """One PartialSumState per row of a (frames, N) decision array, pushed
    and read together: row r of a read is row r's selection bits."""

    def __init__(self, n, frames):
        self.states = [PartialSumState(n) for _ in range(frames)]

    @property
    def decided(self):
        return self.states[0].decided

    def push(self, bits, index):
        for state, bit in zip(self.states, bits):
            state.push(bit, index)

    def selection_bits(self, stage):
        return np.stack([state.selection_bits(stage) for state in self.states])


class TestSelectLevels:
    """``select_levels`` gives, from all decisions at once, what the streaming
    state gives at every select read of a checked schedule."""

    @pytest.mark.parametrize("arch", ["conventional", "lookahead", "parallel2"])
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64, 128, 256])
    def test_equals_the_streaming_state_at_every_select_read(self, arch, n):
        # decisions of SC on a code with frozen ones, and random bits
        m = n.bit_length() - 1
        rng = np.random.default_rng(n)
        frozen = tuple(int(i) + 1 for i in np.flatnonzero(rng.random(n) < 0.5)) or (1,)
        values = (1,) + tuple(int(v) for v in rng.integers(0, 2, len(frozen) - 1))
        spec = CodeSpec(n, n - len(frozen), frozen, values)
        u, _ = sc_decode_batch(rng.integers(-7, 8, size=(4, n)), spec, "minsum_q", q=4)
        u = np.vstack([u, rng.integers(0, 2, size=(3, n))])
        levels = select_levels(u)
        assert [level.shape for level in levels] == [
            (1 << (s - 1), n >> s, len(u)) for s in range(1, m + 1)]
        state = RowStates(n, len(u))
        reads = []
        for _, stage, op, select, _, _, decided in check_schedule(arch, n)[0][0]:
            while state.decided < decided:
                state.push(u[:, state.decided], state.decided + 1)
            if select is not None:
                got = levels[select - 1][decided // (2 * (n >> select))]
                assert np.array_equal(got.T, state.selection_bits(select)), (stage, decided)
                reads.append(select)
            if op == "fg" and stage == m:  # a merged leaf's pair, selected by its first bit
                state.push(u[:, decided], decided + 1)
                assert np.array_equal(levels[m - 1][decided // 2].T, state.selection_bits(m))
        # every g block of a sequential stage, or every odd merged block below stage 1
        assert len(reads) == (n - 1 if arch == "conventional" else n // 2 - 1)

    def test_reads_its_input_and_takes_bools(self):
        # the transforms of the left halves of the blocks of 8, 4 and 2
        u = np.array([[1, 0, 1, 1, 0, 0, 1, 0]])
        levels = select_levels(u.astype(bool))
        assert [level[:, :, 0].tolist() for level in levels] == [
            [[1, 1, 0, 1]], [[1, 0], [0, 0]], [[1], [1], [0], [1]]]
        select_levels(u)
        assert u.tolist() == [[1, 0, 1, 1, 0, 0, 1, 0]]


class TestNetwork:
    @pytest.mark.parametrize(
        "n,xors,slots", [(4, 1, 0), (8, 3, 2), (64, 31, 30), (1024, 511, 510)]
    )
    def test_resource_counts(self, n, xors, slots):
        net = build_network(n)
        assert net.xor_elements == xors == n // 2 - 1
        assert net.storage_slots == slots == n // 2 - 2

    def test_recursive_increments(self):
        # each doubling of N adds N/4 elements on a new top level
        for n in (8, 16, 32, 64, 128):
            bigger = build_network(n)
            smaller = build_network(n // 2)
            assert bigger.xor_elements - smaller.xor_elements == n // 4

    @pytest.mark.parametrize("n", [4, 8, 64, 1024])
    def test_one_slot_count(self, n):
        # the partial-sum state, the network model and the cost table agree
        slots = build_network(n).storage_slots
        assert PartialSumState(n).storage_slots == slots
        assert component_counts(PROPOSED, n, 6).igc_ram == slots

    def test_json_shape(self):
        d = build_network(8).to_json_dict()
        assert set(d) == {"n", "xor_elements", "storage_slots", "control"}
        assert d["n"] == 2

    def test_numpy_integer_n(self):
        # every N that the checks accept builds the same objects as a Python int
        n = np.int64(16)
        assert build_network(n) == build_network(16)
        assert PartialSumState(n).storage_slots == PartialSumState(16).storage_slots
        assert build_lookahead(n) == build_lookahead(16)
        assert build_conventional(n) == build_conventional(16)

    def test_rejects_bad_n(self):
        for bad in (6, 8.0):
            with pytest.raises(InvalidParameterError):
                build_network(bad)
            with pytest.raises(InvalidParameterError):
                PartialSumState(bad)
        for bad in (0, -1, True, 1.5):  # a network has at least one combining level
            with pytest.raises(InvalidParameterError):
                IgcNetwork(bad)
        assert IgcNetwork(1) == build_network(4) and build_network(4).n == 1
        for stage in (0, 4):  # N=8 has stages 1..3
            with pytest.raises(InvalidParameterError):
                PartialSumState(8).stage_ready(stage)


class TestControlSchedule:
    def test_base_level_every_cycle(self):
        sched = control_schedule(8)
        assert sched[0].stage == 1 and sched[0].period == 1

    def test_level3_period_four(self):
        sched = control_schedule(16)
        assert sched[2].stage == 3 and sched[2].period == 4

    def test_strictly_doubling(self):
        sched = control_schedule(256)
        periods = [c.period for c in sched]
        assert periods == [2**i for i in range(len(periods))]

    @pytest.mark.parametrize("m", range(2, 17))
    def test_network_control_per_level(self, m):
        # one combining level per stage 1..log2(N)-1, periods doubling from 1
        want, period = [], 1
        for stage in range(1, m):
            want.append(ControlSignal(stage=stage, period=period))
            period *= 2
        network = build_network(1 << m)
        assert network.n == m - 1
        assert network.control == tuple(want) == control_schedule(1 << m)

    def test_update_times_match_declared_periods(self):
        # the level-j feed refreshes once per 2^j decision pairs, offset by
        # half a window: consistent with a commutator toggling every
        # 2^(j-1) pairs
        n = 64
        m = n.bit_length() - 1
        state = PartialSumState(n)
        updates = {j: [] for j in range(1, m)}
        for k in range(1, n + 1):
            state.push(0, k)
            level = (k & -k).bit_length() - 1
            if 1 <= level <= m - 1:
                updates[level].append(k // 2)  # decision-pair time
        for ctrl in control_schedule(n):
            times = updates[ctrl.stage]
            assert times[0] == ctrl.period
            assert all(b - a == 2 * ctrl.period for a, b in zip(times, times[1:]))
