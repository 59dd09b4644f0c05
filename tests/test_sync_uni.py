"""Unidirectional input distribution (§4.2.1 remark, Peterson-style)."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.algorithms.sync_input_distribution import (
    message_bound as bidirectional_bound,
)
from repro.algorithms.sync_input_distribution_uni import (
    distribute_inputs_sync_uni,
    message_bound,
)
from repro.core import ConfigurationError, RingConfiguration, RingView


def ground_truth(config: RingConfiguration):
    return tuple(RingView.from_configuration(config, i) for i in range(config.n))


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive(self, n):
        for bits in itertools.product((0, 1), repeat=n):
            config = RingConfiguration.oriented(bits)
            result = distribute_inputs_sync_uni(config)
            assert result.outputs == ground_truth(config), bits

    @pytest.mark.parametrize("n", [9, 17, 33])
    def test_random(self, n):
        for seed in range(4):
            config = RingConfiguration.random(n, random.Random(seed), oriented=True)
            result = distribute_inputs_sync_uni(config)
            assert result.outputs == ground_truth(config)

    def test_counterclockwise(self):
        config = RingConfiguration.counterclockwise([1, 0, 0, 1, 1])
        result = distribute_inputs_sync_uni(config)
        assert result.outputs == ground_truth(config)

    def test_distinct_inputs(self):
        config = RingConfiguration.oriented([3, 1, 4, 1, 5, 9, 2, 6])
        result = distribute_inputs_sync_uni(config)
        assert result.outputs == ground_truth(config)

    @pytest.mark.parametrize("period,reps", [("01", 5), ("011", 4), ("1", 9)])
    def test_periodic_deadlock_path(self, period, reps):
        config = RingConfiguration.from_string(period * reps)
        result = distribute_inputs_sync_uni(config)
        assert result.outputs == ground_truth(config)

    def test_nonoriented_rejected(self):
        config = RingConfiguration((0, 1, 1), (1, 0, 1))
        with pytest.raises(ConfigurationError):
            distribute_inputs_sync_uni(config)


class TestOneSidedness:
    def test_all_traffic_is_rightward(self):
        """Every message leaves a RIGHT port — strictly one-sided."""
        from repro.core import RIGHT

        config = RingConfiguration.random(16, random.Random(5), oriented=True)
        result = distribute_inputs_sync_uni(config)
        # rerun recorded to inspect ports
        from repro.sync import run_synchronous
        from repro.algorithms.sync_input_distribution_uni import (
            SyncInputDistributionUni,
        )
        from repro.obs import CLOCK_CYCLE, EventRecorder, envelopes_from_events

        recorder = EventRecorder(clock=CLOCK_CYCLE)
        recorded = run_synchronous(config, SyncInputDistributionUni, recorder=recorder)
        sends = envelopes_from_events(recorder.events)
        assert sends, "expected nonempty traffic"
        assert all(env.out_port is RIGHT for env in sends)
        assert recorded.stats.messages == result.stats.messages == len(sends)


class TestComplexity:
    @pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
    def test_message_bound(self, n):
        for seed in range(3):
            config = RingConfiguration.random(n, random.Random(seed), oriented=True)
            result = distribute_inputs_sync_uni(config)
            assert result.stats.messages <= message_bound(n)

    def test_growth_shape(self):
        from repro.analysis import best_shape

        ns, msgs = [], []
        for n in (16, 32, 64, 128, 256):
            config = RingConfiguration.random(n, random.Random(n), oriented=True)
            result = distribute_inputs_sync_uni(config)
            ns.append(n)
            msgs.append(result.stats.messages)
        assert best_shape(ns, msgs) in ("nlogn", "linear")

    def test_comparable_to_bidirectional(self):
        """One-sidedness costs only a constant factor (log₂ vs log₁.₅)."""
        n = 64
        config = RingConfiguration.random(n, random.Random(8), oriented=True)
        uni = distribute_inputs_sync_uni(config)
        assert uni.stats.messages <= 2 * bidirectional_bound(n)
