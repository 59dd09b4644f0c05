"""Labeled-ring baselines and the distinct/non-distinct crossover (E15)."""

from __future__ import annotations

import random

import pytest

from repro.algorithms import (
    best_case_labels,
    elect_leader,
    find_extremum_distinct,
    find_extremum_general,
    worst_case_labels,
)
from repro.asynch import RandomScheduler
from repro.core import ConfigurationError, RingConfiguration


ALGORITHMS = ["chang-roberts", "franklin", "hirschberg-sinclair", "peterson"]


class TestElection:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("n", [2, 3, 5, 9, 17])
    def test_elects_maximum(self, algorithm, n):
        for seed in range(4):
            labels = list(range(1, n + 1))
            random.Random(seed).shuffle(labels)
            config = RingConfiguration.oriented(labels)
            result = elect_leader(config, algorithm, scheduler=RandomScheduler(seed))
            assert result.unanimous_output() == n

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_arbitrary_comparable_labels(self, algorithm):
        config = RingConfiguration.oriented(["kiwi", "apple", "mango", "fig"])
        result = elect_leader(config, algorithm)
        assert result.unanimous_output() == "mango"

    def test_duplicates_rejected(self):
        config = RingConfiguration.oriented([1, 2, 1])
        with pytest.raises(ConfigurationError):
            elect_leader(config)

    def test_nonoriented_rejected(self):
        config = RingConfiguration([1, 2, 3], (1, 0, 1))
        with pytest.raises(ConfigurationError):
            elect_leader(config)

    def test_unknown_algorithm(self):
        config = RingConfiguration.oriented([1, 2, 3])
        with pytest.raises(ConfigurationError):
            elect_leader(config, "bully")


class TestComplexityContrast:
    def test_chang_roberts_worst_vs_best(self):
        n = 32
        worst = elect_leader(
            RingConfiguration.oriented(worst_case_labels(n)), "chang-roberts"
        )
        best = elect_leader(
            RingConfiguration.oriented(best_case_labels(n)), "chang-roberts"
        )
        # Worst is Θ(n²)-ish: candidate i travels n−i hops.
        assert worst.stats.messages >= n * (n + 1) // 2
        assert best.stats.messages <= 3 * n

    def test_franklin_always_nlogn(self):
        import math

        for n in (8, 16, 32, 64):
            result = elect_leader(
                RingConfiguration.oriented(worst_case_labels(n)), "franklin"
            )
            assert result.stats.messages <= 4 * n * (math.log2(n) + 2)

    def test_peterson_nlogn_and_unidirectional(self):
        import math

        from repro.algorithms.leader_election import Peterson
        from repro.asynch import run_asynchronous
        from repro.core import RIGHT
        from repro.obs import CLOCK_LAMPORT, EventRecorder, envelopes_from_events

        for n in (8, 16, 32, 64):
            config = RingConfiguration.oriented(worst_case_labels(n))
            recorder = EventRecorder(clock=CLOCK_LAMPORT)
            result = run_asynchronous(config, Peterson, recorder=recorder)
            assert result.unanimous_output() == n
            assert result.stats.messages <= 3 * n * (math.log2(n) + 3)
            sends = envelopes_from_events(recorder.events)
            assert len(sends) == result.stats.messages
            assert all(env.out_port is RIGHT for env in sends)

    def test_hirschberg_sinclair_nlogn(self):
        import math

        for n in (8, 16, 32, 64):
            result = elect_leader(
                RingConfiguration.oriented(worst_case_labels(n)),
                "hirschberg-sinclair",
            )
            assert result.stats.messages <= 8 * n * (math.log2(n) + 2)

    def test_franklin_beats_cr_on_bad_labels(self):
        n = 64
        cr = elect_leader(
            RingConfiguration.oriented(worst_case_labels(n)), "chang-roberts"
        )
        fr = elect_leader(
            RingConfiguration.oriented(worst_case_labels(n)), "franklin"
        )
        assert fr.stats.messages < cr.stats.messages


class TestExtremaCrossover:
    def test_distinct_fast_path(self):
        config = RingConfiguration.oriented([5, 3, 9, 1, 7])
        result = find_extremum_distinct(config)
        assert result.unanimous_output() == 9

    def test_duplicates_slow_path(self):
        config = RingConfiguration.oriented([5, 3, 9, 3, 9])
        result = find_extremum_general(config, maximum=True)
        assert result.unanimous_output() == 9
        assert result.stats.messages == 5 * 4  # n(n−1), the Cor. 5.2 optimum

    def test_minimum_with_duplicates(self):
        config = RingConfiguration.oriented([2, 2, 2, 1, 1, 2, 2])
        result = find_extremum_general(config)
        assert result.unanimous_output() == 1

    def test_crossover_shape(self):
        """Corollary 5.2: the general path costs Θ(n²), distinct Θ(n log n)."""
        general, distinct = [], []
        ns = (8, 16, 32)
        for n in ns:
            dup_config = RingConfiguration.oriented([1] * n)
            general.append(find_extremum_general(dup_config).stats.messages)
            labels = RingConfiguration.oriented(worst_case_labels(n))
            distinct.append(find_extremum_distinct(labels, "franklin").stats.messages)
        # general grows quadratically, distinct quasi-linearly
        assert general[-1] / general[0] > 10
        assert distinct[-1] / distinct[0] < 8
