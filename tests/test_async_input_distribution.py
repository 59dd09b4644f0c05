"""§4.1 asynchronous input distribution: correctness and exact message counts."""

from __future__ import annotations

import itertools
import random

import pytest

from repro.algorithms import distribute_inputs_async, expected_message_count
from repro.algorithms.async_input_distribution import compute_function_async
from repro.algorithms.functions import AND, SUM, XOR
from repro.asynch import GreedyChannelScheduler, RandomScheduler, RoundRobinScheduler
from repro.core import ConfigurationError, RingConfiguration, RingView
from repro.perf.bench import workload_spec
from repro.runtime import execute


def ground_truth(config: RingConfiguration):
    return tuple(RingView.from_configuration(config, i) for i in range(config.n))


class TestCorrectness:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive_oriented(self, n):
        for bits in itertools.product((0, 1), repeat=n):
            config = RingConfiguration.oriented(bits)
            result = distribute_inputs_async(config)
            assert result.outputs == ground_truth(config)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_exhaustive_orientations(self, n):
        for orient in itertools.product((0, 1), repeat=n):
            config = RingConfiguration(tuple(range(n)), orient)
            result = distribute_inputs_async(config)
            assert result.outputs == ground_truth(config)

    @pytest.mark.parametrize("n", [6, 9, 12, 17])
    def test_random_rings(self, n):
        for seed in range(5):
            config = RingConfiguration.random(n, random.Random(seed))
            result = distribute_inputs_async(config)
            assert result.outputs == ground_truth(config)

    @pytest.mark.parametrize(
        "scheduler_factory",
        [RoundRobinScheduler, GreedyChannelScheduler, lambda: RandomScheduler(7)],
    )
    def test_schedule_independence(self, scheduler_factory):
        config = RingConfiguration.random(9, random.Random(42))
        result = distribute_inputs_async(config, scheduler=scheduler_factory())
        assert result.outputs == ground_truth(config)

    def test_distinct_inputs(self):
        config = RingConfiguration.oriented(["a", "b", "c", "d", "e"])
        result = distribute_inputs_async(config)
        assert result.outputs == ground_truth(config)

    def test_n1_rejected(self):
        with pytest.raises(ConfigurationError):
            distribute_inputs_async(RingConfiguration.oriented([1]))

    @pytest.mark.parametrize("workload", ["async_input_distribution", "async_synchronized"])
    def test_views_share_their_pairs(self, workload):
        """An oriented binary ring's n² view entries are 2 pair objects."""
        outputs = execute(workload_spec(workload, 32)).outputs
        assert len({id(pair) for view in outputs for pair in view.entries}) == 2


class TestMessageCounts:
    @pytest.mark.parametrize("n", [3, 5, 7, 9, 11])
    def test_odd_exact(self, n):
        """Odd rings: exactly n(n−1) messages, oriented or not."""
        for oriented in (True, False):
            config = RingConfiguration.random(n, random.Random(n), oriented=oriented)
            result = distribute_inputs_async(config)
            assert result.stats.messages == n * (n - 1)

    @pytest.mark.parametrize("n", [4, 6, 8, 10])
    def test_even_oriented_refinement(self, n):
        """Even oriented rings: the refinement achieves n(n−1)."""
        config = RingConfiguration.oriented([i % 2 for i in range(n)])
        result = distribute_inputs_async(config)
        assert result.stats.messages == n * (n - 1)

    @pytest.mark.parametrize("n", [4, 6, 8])
    def test_even_general(self, n):
        """Even nonoriented rings: symmetric budgets cost n²."""
        config = RingConfiguration.random(n, random.Random(n), oriented=False)
        result = distribute_inputs_async(config, assume_oriented=False)
        assert result.stats.messages == n * n

    def test_expected_message_count_helper(self):
        assert expected_message_count(7, False) == 42
        assert expected_message_count(8, True) == 56
        assert expected_message_count(8, False) == 64
        assert expected_message_count(2, True) == 4

    def test_one_bit_payloads(self):
        """Boolean inputs: each message is (1-bit tag, 1-bit value)."""
        n = 7
        config = RingConfiguration.oriented([1] * n)
        result = distribute_inputs_async(config)
        assert result.stats.bits == 2 * result.stats.messages


class TestComputeFunction:
    @pytest.mark.parametrize("function", [AND, XOR, SUM])
    def test_functions_on_random_rings(self, function):
        for n in (4, 7):
            config = RingConfiguration.random(n, random.Random(n * 11))
            result = compute_function_async(config, function.on_view)
            assert result.unanimous_output() == function.on_inputs(config.inputs)

    def test_min_with_duplicates(self):
        """Corollary 5.2 regime: extrema with non-distinct values."""
        config = RingConfiguration.oriented([3, 1, 4, 1, 5, 9, 2, 6, 5])
        from repro.algorithms.functions import MIN

        result = compute_function_async(config, MIN.on_view)
        assert result.unanimous_output() == 1
