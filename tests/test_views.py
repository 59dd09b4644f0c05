"""RingView: the universal output of input distribution."""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core import ConfigurationError, RingConfiguration, RingView
from repro.core.views import _SHARED_PAIRS
from repro.perf.bench import workload_spec
from repro.runtime import Runner, execute


def ring_from_seed(n: int, iseed: int, dseed: int) -> RingConfiguration:
    return RingConfiguration(
        tuple((iseed >> i) & 1 for i in range(n)),
        tuple((dseed >> i) & 1 for i in range(n)),
    )


class TestConstruction:
    def test_minimal(self):
        view = RingView(((1, 7),))
        assert view.n == 1 and view.own_input == 7

    def test_viewer_must_be_self_oriented(self):
        with pytest.raises(ConfigurationError):
            RingView(((0, 7),))

    def test_rel_bits_validated(self):
        with pytest.raises(ConfigurationError):
            RingView(((1, 7), (2, 8)))

    def test_empty_rejected(self):
        with pytest.raises(ConfigurationError):
            RingView(())


class TestFromConfiguration:
    def test_clockwise(self):
        ring = RingConfiguration.oriented([10, 20, 30])
        view = RingView.from_configuration(ring, 0)
        assert view.inputs_rightward() == (10, 20, 30)
        assert all(rel == 1 for rel, _ in view.entries)

    def test_flipped_viewer_reads_backwards(self):
        ring = RingConfiguration([10, 20, 30], (1, 0, 1))
        view = RingView.from_configuration(ring, 1)
        # Processor 1's right is processor 0 (D=0), so rightward reading is
        # 20, 10, 30; neighbors are oriented opposite to it.
        assert view.inputs_rightward() == (20, 10, 30)
        assert view.entries[1][0] == 0 and view.entries[2][0] == 0

    def test_leftward(self):
        ring = RingConfiguration.oriented([1, 2, 3, 4])
        view = RingView.from_configuration(ring, 0)
        assert view.inputs_leftward() == (1, 4, 3, 2)

    def test_accessors(self):
        ring = RingConfiguration.oriented([5, 6, 7])
        view = RingView.from_configuration(ring, 1)
        assert view.input_at(1) == 7
        assert view.input_at(4) == 7  # modular
        assert view.relative_orientation_at(2) == 1


class TestConsistency:
    @given(st.integers(2, 8), st.integers(0, 255), st.integers(0, 255))
    def test_all_views_of_one_ring_consistent(self, n, iseed, dseed):
        ring = ring_from_seed(n, iseed, dseed)
        views = [RingView.from_configuration(ring, i) for i in range(n)]
        base = views[0]
        for view in views[1:]:
            assert base.consistent_with(view)

    def test_different_rings_inconsistent(self):
        v1 = RingView.from_configuration(RingConfiguration.oriented([1, 1, 0]), 0)
        v2 = RingView.from_configuration(RingConfiguration.oriented([1, 1, 1]), 0)
        assert not v1.consistent_with(v2)

    def test_different_sizes_inconsistent(self):
        v1 = RingView.from_configuration(RingConfiguration.oriented([1, 1]), 0)
        v2 = RingView.from_configuration(RingConfiguration.oriented([1, 1, 1]), 0)
        assert not v1.consistent_with(v2)

    @given(st.integers(2, 8), st.integers(0, 255), st.integers(0, 255), st.integers(0, 7))
    def test_rotated_to_same_oriented_processor(self, n, iseed, dseed, d):
        """For same-oriented processors, views are exact rotations."""
        ring = ring_from_seed(n, iseed, dseed)
        i = 0
        view = RingView.from_configuration(ring, i)
        d %= n
        if view.relative_orientation_at(d) == 1:
            step = 1 if ring.orientations[i] == 1 else -1
            j = (i + step * d) % n
            assert view.rotated_to(d) == RingView.from_configuration(ring, j)


class TestAsConfiguration:
    @given(st.integers(2, 8), st.integers(0, 255), st.integers(0, 255))
    def test_roundtrip_preserves_function_inputs(self, n, iseed, dseed):
        """The view's configuration is the ring up to renaming/reflection."""
        ring = ring_from_seed(n, iseed, dseed)
        view = RingView.from_configuration(ring, 0)
        rebuilt = view.as_configuration()
        assert sorted(rebuilt.inputs) == sorted(ring.inputs)
        assert rebuilt.orientations[0] == 1

    def test_clockwise_identity(self):
        ring = RingConfiguration.oriented([4, 5, 6])
        view = RingView.from_configuration(ring, 0)
        assert view.as_configuration() == ring


class TestSharedPairs:
    """Pairs with a bool or small-int input are interned by type and value."""

    def test_equal_values_of_other_types_stay_apart(self):
        built = (((1, 1), (0, 0)), ((1, True), (0, False)), ((1, 1.0), (0, 0.0)))
        views = [RingView(entries) for entries in built]
        for view, entries in zip(views, built):
            assert [tuple(map(type, pair)) for pair in view.entries] == [
                tuple(map(type, pair)) for pair in entries
            ]
        pickles = [pickle.dumps(view, pickle.HIGHEST_PROTOCOL) for view in views]
        assert len(set(pickles)) == len(pickles)

    def test_orientation_bit_keeps_its_type(self):
        as_bool = RingView(((True, 1), (0, 0)))
        as_int = RingView(((1, 1), (0, 0)))
        assert as_bool.entries[0][0] is True
        assert type(as_int.entries[0][0]) is int

    def test_equal_pairs_are_one_object(self):
        first = RingView(((1, 0), (0, 1), (1, 0)))
        second = RingView.from_configuration(RingConfiguration.oriented((0, 1, 0)), 0)
        assert first.entries[0] is first.entries[2] is second.entries[0]

    def test_out_of_domain_pairs_stay_as_given_and_leave_no_trace(self):
        """The table is fixed: what a process built before cannot change a
        result's sharing, so a pool worker pickles it to the same bytes."""
        spec = workload_spec("sync_input_distribution", 32)
        before = dict(_SHARED_PAIRS)
        with Runner(jobs=2) as runner:
            runner.run_specs([spec])  # forks the workers before the views below
            for k in range(10_000):
                pairs = ((1, 10**9 + k), (0, f"input {k}"), (1, (k, -k)))
                view = RingView(pairs)
                assert all(ours is theirs for ours, theirs in zip(view.entries, pairs))
            assert _SHARED_PAIRS == before
            pooled = runner.run_specs([spec])[0]
        assert pickle.dumps(pooled, pickle.HIGHEST_PROTOCOL) == pickle.dumps(
            execute(spec), pickle.HIGHEST_PROTOCOL
        )
