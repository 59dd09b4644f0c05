"""§4.2.1 / Figure 2: synchronous input distribution in O(n log n) messages."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.algorithms import distribute_inputs_sync
from repro.algorithms.sync_input_distribution import (
    SyncInputDistribution,
    cycle_bound,
    message_bound,
)
from repro.core import ConfigurationError, RingConfiguration, RingView
from repro.perf.bench import workload_spec
from repro.runtime import execute
from repro.sync import run_synchronous


def ground_truth(config: RingConfiguration):
    return tuple(RingView.from_configuration(config, i) for i in range(config.n))


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_exhaustive(self, n):
        for bits in itertools.product((0, 1), repeat=n):
            config = RingConfiguration.oriented(bits)
            result = distribute_inputs_sync(config)
            assert result.outputs == ground_truth(config), bits

    @pytest.mark.parametrize("n", [7, 12, 20, 33])
    def test_random(self, n):
        for seed in range(4):
            config = RingConfiguration.random(n, random.Random(seed), oriented=True)
            result = distribute_inputs_sync(config)
            assert result.outputs == ground_truth(config)

    @pytest.mark.parametrize(
        "period,reps", [("0", 8), ("1", 9), ("01", 5), ("011", 4), ("0011", 3)]
    )
    def test_periodic_deadlock_path(self, period, reps):
        """Periodic inputs force the deadlock-detection branch."""
        bits = period * reps
        config = RingConfiguration.from_string(bits)
        result = distribute_inputs_sync(config)
        assert result.outputs == ground_truth(config)

    def test_distinct_comparable_inputs(self):
        config = RingConfiguration.oriented([3, 1, 4, 1, 5, 9, 2, 6])
        result = distribute_inputs_sync(config)
        assert result.outputs == ground_truth(config)

    def test_counterclockwise(self):
        config = RingConfiguration.counterclockwise([1, 0, 1, 1, 0])
        result = distribute_inputs_sync(config)
        assert result.outputs == ground_truth(config)

    def test_nonoriented_rejected(self):
        config = RingConfiguration((0, 1, 1), (1, 0, 1))
        with pytest.raises(ConfigurationError):
            distribute_inputs_sync(config)

    def test_n1_rejected(self):
        with pytest.raises(ConfigurationError):
            distribute_inputs_sync(RingConfiguration.oriented([1]))

    @pytest.mark.parametrize("engine", ["sync", "sync-batch"])
    def test_views_share_their_pairs(self, engine):
        """An oriented binary ring's n² view entries are 2 pair objects."""
        spec = workload_spec("sync_input_distribution", 32).with_(engine=engine)
        outputs = execute(spec).outputs
        assert len({id(pair) for view in outputs for pair in view.entries}) == 2


class TestComplexity:
    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_message_bound(self, n):
        for seed in range(4):
            config = RingConfiguration.random(n, random.Random(seed), oriented=True)
            result = distribute_inputs_sync(config)
            assert result.stats.messages <= message_bound(n)

    @pytest.mark.parametrize("n", [4, 8, 16, 32, 64])
    def test_cycle_bound(self, n):
        for seed in range(4):
            config = RingConfiguration.random(n, random.Random(seed), oriented=True)
            result = distribute_inputs_sync(config)
            assert result.cycles <= cycle_bound(n)

    def test_symmetric_input_is_cheapest(self):
        """All-equal inputs deadlock in round one: ~3n messages."""
        n = 16
        result = distribute_inputs_sync(RingConfiguration.oriented([1] * n))
        assert result.stats.messages <= 3 * n

    def test_growth_is_subquadratic(self):
        """Measured messages grow like n log n, far below n²."""
        from repro.analysis import best_shape

        ns, messages = [], []
        for n in (8, 16, 32, 64, 128):
            config = RingConfiguration.random(n, random.Random(n), oriented=True)
            result = distribute_inputs_sync(config)
            ns.append(n)
            messages.append(result.stats.messages)
        assert best_shape(ns, messages) in ("nlogn", "linear")
        assert all(m < n * n / 2 for n, m in zip(ns, messages) if n >= 32)

    def test_every_processor_halts_simultaneously_modulo_broadcast(self):
        """Halt cycles differ by at most the broadcast pass (≤ n + 1)."""
        n = 24
        config = RingConfiguration.random(n, random.Random(5), oriented=True)
        result = distribute_inputs_sync(config)
        assert max(result.halt_times) - min(result.halt_times) <= n + 1


class CountingFig2(SyncInputDistribution):
    """Figure 2, counting every time the engine resumes a processor."""

    resumes = 0

    def run(self):
        CountingFig2.resumes += 1  # the engine's first next()
        gen = super().run()
        try:
            step = next(gen)
            while True:
                received = yield step
                CountingFig2.resumes += 1
                step = gen.send(received)
        except StopIteration as stop:
            return stop.value


class TestWork:
    def test_resumes_track_messages(self):
        """Relays and waits idle, so the engine resumes a processor about
        once per message it handles, not once per cycle (n·cycles = 10800
        resumes for 480 messages at n=32 when every quiet cycle resumed)."""
        spec = workload_spec("sync_input_distribution", 32)
        CountingFig2.resumes = 0
        result = run_synchronous(spec.ring, CountingFig2)
        assert result.outputs == execute(spec).outputs
        assert result.stats.messages == 480
        assert CountingFig2.resumes <= 3 * result.stats.messages
