"""Empirical Lemma 3.1/6.1: traces respect neighborhood equality."""

from __future__ import annotations

import random

import pytest

from repro.algorithms.orientation import QuasiOrientation
from repro.algorithms.sync_and import SyncAnd
from repro.algorithms.sync_input_distribution import SyncInputDistribution
from repro.core import RingConfiguration
from repro.lowerbounds.lemma61 import (
    Lemma61Report,
    emission_traces,
    verify_lemma_61,
)


class TestEmissionTraces:
    def test_and_all_zeros(self):
        config = RingConfiguration.oriented((0,) * 5)
        _result, traces = emission_traces(config, SyncAnd)
        # Every zero announces on both ports at cycle 0.
        for per_proc in traces:
            assert 0 in per_proc
            left, right = per_proc[0]
            assert left is None and right is None  # nil announcements

    def test_silent_processor_has_empty_trace(self):
        config = RingConfiguration.oriented((1,) * 5)
        _result, traces = emission_traces(config, SyncAnd)
        assert all(not per_proc for per_proc in traces)


class TestLemma61:
    @pytest.mark.parametrize("n", [6, 9, 12])
    def test_and_on_random_rings(self, n):
        config = RingConfiguration.random(n, random.Random(n), oriented=True)
        report = verify_lemma_61([config], SyncAnd, radius=3)
        assert report.holds, report.violations

    @pytest.mark.parametrize("n", [8, 12])
    def test_fig2_on_periodic_ring(self, n):
        """Periodic inputs replicate neighborhoods; Fig. 2 must not tell
        the copies apart."""
        config = RingConfiguration.from_string("01" * (n // 2))
        report = verify_lemma_61([config], SyncInputDistribution, radius=n // 4)
        assert report.holds, report.violations
        assert report.groups <= 2  # only two neighborhood classes exist

    def test_orientation_on_two_half_rings(self):
        """Figure 1's mirror pairs behave identically (Theorem 3.5's core)."""
        config = RingConfiguration.two_half_rings(4)
        report = verify_lemma_61([config], QuasiOrientation, radius=2)
        assert report.holds, report.violations

    def test_cross_configuration_and(self):
        """The Theorem 5.1 pair: 1ⁿ vs 1ⁿ⁻¹0 share deep neighborhoods and
        the shared processors behave identically while they can't know."""
        n = 9
        ones = RingConfiguration.oriented((1,) * n)
        dotted = RingConfiguration.oriented((1,) * (n - 1) + (0,))
        report = verify_lemma_61([ones, dotted], SyncAnd, radius=2)
        assert report.holds, report.violations

    def test_report_counts(self):
        config = RingConfiguration.oriented((0, 1) * 4)
        report = verify_lemma_61([config], SyncAnd, radius=2)
        assert isinstance(report, Lemma61Report)
        assert report.groups >= 1
        assert report.active_cycles_checked <= 2

    def test_size_mismatch_rejected(self):
        a = RingConfiguration.oriented((1, 1, 1))
        b = RingConfiguration.oriented((1, 1))
        with pytest.raises(ValueError):
            verify_lemma_61([a, b], SyncAnd, radius=1)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            verify_lemma_61([], SyncAnd, radius=1)


class TestAsyncTraces:
    def test_symmetric_flood_is_uniform(self):
        """Under the Thm 5.1 adversary on 1ⁿ, every processor's emission
        trace is identical — the quadratic cost is forced, not chosen."""
        from repro.algorithms.async_input_distribution import AsyncInputDistribution
        from repro.lowerbounds.lemma61 import emission_traces_async

        n = 9
        config = RingConfiguration.oriented((1,) * n)
        _result, traces = emission_traces_async(
            config, lambda value, size: AsyncInputDistribution(value, size)
        )
        assert all(trace == traces[0] for trace in traces[1:])

    def test_directional_structure_of_and_bound(self):
        """The paper's refinement to n(n−1): on 1ⁿ every active cycle
        carries ≥ n sends in *each* direction that is active."""
        from collections import Counter

        from repro.algorithms.async_input_distribution import AsyncInputDistribution
        from repro.asynch import run_async_synchronized
        from repro.obs import CLOCK_CYCLE, EventRecorder, envelopes_from_events

        n = 9
        config = RingConfiguration.oriented((1,) * n)
        recorder = EventRecorder(clock=CLOCK_CYCLE)
        result = run_async_synchronized(
            config,
            lambda value, size: AsyncInputDistribution(value, size),
            recorder=recorder,
        )
        per_cycle_dir = Counter()
        for env in envelopes_from_events(recorder.events):
            _recv, _port, step = config.route(env.sender, env.out_port)
            per_cycle_dir[(env.send_time, step)] += 1
        assert all(count >= n for count in per_cycle_dir.values())
        assert result.stats.messages == n * (n - 1)  # the tight bound


class TestMajorityOrientation:
    def test_orients_odd_rings(self):
        from repro.algorithms.orientation_async import orient_ring_async

        for n in (3, 5, 9, 15):
            for seed in range(4):
                config = RingConfiguration.random(n, random.Random(seed * 5 + n))
                oriented, result = orient_ring_async(config)
                assert oriented.is_oriented
                assert result.stats.messages == n * (n - 1)

    def test_majority_wins(self):
        from repro.algorithms.orientation_async import orient_ring_async

        config = RingConfiguration((0,) * 5, (1, 1, 1, 0, 1))
        oriented, result = orient_ring_async(config)
        assert oriented.is_clockwise  # the lone dissenter flipped
        assert result.outputs == (0, 0, 0, 1, 0)

    def test_even_rejected(self):
        from repro.algorithms.orientation_async import orient_ring_async
        from repro.core import ConfigurationError

        with pytest.raises(ConfigurationError):
            orient_ring_async(RingConfiguration.random(6, random.Random(0)))
