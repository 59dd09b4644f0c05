"""Unit tests for the vectorized batch engine (``repro.batch``).

Known-answer outputs, mixed-size padding, spec validation, the
``execute`` dispatch, and the ``Runner.run_specs`` fast path (grouping,
caching, dedupe).  The statistical heavy lifting — byte-identical
results against ``run_synchronous`` on random configurations — lives in
``test_batch_equivalence.py``; these tests pin the plumbing around it.
"""

from __future__ import annotations

import pickle
import random

import pytest

from repro.batch import run_batch, run_batch_outcomes, supports_batch
from repro.core import RingConfiguration
from repro.core.errors import ConfigurationError, NonTerminationError
from repro.runtime import ResultCache, Runner, RunSpec, execute


def _and_spec(inputs, **kwargs) -> RunSpec:
    return RunSpec.make(
        engine="sync-batch",
        ring=RingConfiguration.oriented(tuple(inputs)),
        algorithm="sync-and",
        **kwargs,
    )


def _start_spec(n: int, **kwargs) -> RunSpec:
    return RunSpec.make(
        engine="sync-batch",
        ring=RingConfiguration.oriented(tuple(0 for _ in range(n))),
        algorithm="start-sync",
        **kwargs,
    )


def _sweep_specs():
    """A batched sweep: sync-and with one zero at n = 3..10, then start-sync
    with staggered wake-ups at n = 3..8."""
    return [_and_spec((1,) * n + (0,)) for n in range(3, 11)] + [
        _start_spec(n, wakeup=tuple(range(n))) for n in range(3, 9)
    ]


class TestKnownAnswers:
    def test_all_ones_ring_computes_one(self):
        result = run_batch([_and_spec([1, 1, 1, 1, 1])])[0]
        assert result.outputs == (1, 1, 1, 1, 1)

    def test_single_zero_computes_zero(self):
        result = run_batch([_and_spec([1, 1, 0, 1])])[0]
        assert result.outputs == (0, 0, 0, 0)

    def test_outputs_are_plain_python_ints(self):
        result = run_batch([_and_spec([1, 1, 1])])[0]
        assert all(type(v) is int for v in result.outputs)
        assert all(type(v) is int for v in result.halt_times)

    def test_start_sync_agreement(self):
        result = run_batch([_start_spec(6, wakeup=(0, 2, 1, 3, 2, 1))])[0]
        assert len(set(result.outputs)) == 1  # all agree on the count


class TestBatching:
    def test_mixed_sizes_and_algorithms_in_one_call(self):
        specs = [
            _and_spec([1, 1]),
            _start_spec(7),
            _and_spec([0, 1, 1, 1, 1, 1, 1, 1]),
            _start_spec(3),
        ]
        results = run_batch(specs)
        for spec, result in zip(specs, results):
            reference = execute(spec.with_(engine="sync"))
            assert pickle.dumps(result) == pickle.dumps(reference)

    def test_padding_rows_do_not_leak(self):
        """A small ring batched next to a big one behaves as if alone."""
        small, big = _and_spec([1, 1]), _and_spec([1] * 9)
        together = run_batch([small, big])[0]
        alone = run_batch([small])[0]
        assert pickle.dumps(together) == pickle.dumps(alone)

    def test_outcomes_isolate_failures(self):
        good = _and_spec([1, 1, 1])
        starved = _and_spec([1, 1, 1, 1], budget=1)
        outcomes = run_batch_outcomes([good, starved, good])
        assert isinstance(outcomes[1], NonTerminationError)
        assert pickle.dumps(outcomes[0]) == pickle.dumps(outcomes[2])

    def test_run_batch_raises_earliest_error(self):
        specs = [
            _and_spec([1, 1, 1], budget=1),  # earliest: budget failure
            _and_spec([1, 1]),
        ]
        with pytest.raises(NonTerminationError, match="cycle budget 1"):
            run_batch(specs)


class TestValidation:
    def test_supports_batch_predicate(self):
        assert supports_batch(_and_spec([1, 1, 1]))
        async_spec = RunSpec.make(
            engine="async",
            ring=RingConfiguration.random(4, random.Random(0)),
            algorithm="input-distribution",
        )
        assert not supports_batch(async_spec)

    def test_algorithm_without_batch_program_rejected(self, monkeypatch):
        # Every registered sync algorithm now ships a batch program, so
        # strip one temporarily to keep the "no batch program" path pinned.
        import dataclasses

        from repro.runtime import registry as registry_module

        entry = registry_module.algorithm("fig2-input-distribution")
        monkeypatch.setitem(
            registry_module._REGISTRY,
            "fig2-input-distribution",
            dataclasses.replace(entry, batch_program=None),
        )
        spec = RunSpec.make(
            engine="sync",  # spec itself is valid on the generator engine
            ring=RingConfiguration.oriented((0, 1, 0)),
            algorithm="fig2-input-distribution",
        )
        assert not supports_batch(spec)
        with pytest.raises(ConfigurationError, match="no batch program"):
            run_batch([spec])

    def test_record_rejected_at_spec_construction(self):
        with pytest.raises(ConfigurationError, match="does not record"):
            _and_spec([1, 1, 1], record=True)

    def test_algorithm_input_validation_matches_generator(self):
        bad = RunSpec.make(
            engine="sync-batch",
            ring=RingConfiguration.oriented((0, 2, 1)),
            algorithm="sync-and",
        )
        with pytest.raises(ConfigurationError, match="needs 0/1 inputs"):
            run_batch([bad])

    def test_wakeup_length_mismatch_rejected(self):
        from repro.core.errors import SimulationError

        with pytest.raises(SimulationError, match="schedule covers"):
            run_batch([_and_spec([1, 1, 1], wakeup=(0, 1))])


#: Canonical in-envelope ring/kwargs per batched algorithm.  The
#: round-trip test below fails loudly when a new batch_program lands
#: without an entry here — add one and the algorithm is covered.
_CANONICAL_BATCH_SPECS = {
    "sync-and": dict(ring=RingConfiguration.oriented((1, 0, 1, 1))),
    "start-sync": dict(
        ring=RingConfiguration.oriented((0, 0, 0, 0)), wakeup=(0, 2, 1, 3)
    ),
    "fig2-input-distribution": dict(
        ring=RingConfiguration.oriented((1, 0, 0, 1, 1))
    ),
    "fig2-unidirectional": dict(
        ring=RingConfiguration.oriented((0, 1, 1, 0, 1))
    ),
    "quasi-orientation": dict(
        ring=RingConfiguration(
            inputs=(0, 0, 0, 0), orientations=(0, 1, 1, 0)
        )
    ),
    "chang-roberts-sync": dict(ring=RingConfiguration.oriented((3, 1, 0, 2))),
}


class TestRegistryRoundTrip:
    def test_every_batched_entry_round_trips_sync_batch_specs(self):
        from repro.runtime.registry import registered_algorithms

        batched = [e for e in registered_algorithms() if e.batch_program]
        assert len(batched) >= 6
        for entry in batched:
            kwargs = _CANONICAL_BATCH_SPECS.get(entry.name)
            assert kwargs is not None, (
                f"{entry.name} has a batch program but no canonical spec in "
                "_CANONICAL_BATCH_SPECS; add one so the round-trip test "
                "covers it"
            )
            spec = RunSpec.make(
                engine="sync-batch", algorithm=entry.name, **kwargs
            )
            assert supports_batch(spec), entry.name
            result = run_batch([spec])[0]
            reference = execute(spec.with_(engine="sync"))
            assert pickle.dumps(result) == pickle.dumps(reference), entry.name


class TestExecuteDispatch:
    def test_execute_routes_sync_batch(self):
        spec = _and_spec([1, 0, 1])
        assert pickle.dumps(execute(spec)) == pickle.dumps(
            execute(spec.with_(engine="sync"))
        )


class TestRunnerFastPath:
    def _mixed_specs(self):
        return [
            _and_spec([1, 1, 1, 1]),
            RunSpec.make(
                engine="sync",
                ring=RingConfiguration.oriented((1, 0, 1)),
                algorithm="sync-and",
            ),
            _start_spec(5),
            _and_spec([0, 1, 1]),
        ]

    def test_mixed_engines_in_submission_order(self):
        results = Runner().run_specs(self._mixed_specs())
        assert [r.n for r in results] == [4, 3, 5, 3]
        for spec, result in zip(self._mixed_specs(), results):
            reference = execute(spec.with_(engine="sync"))
            assert pickle.dumps(result) == pickle.dumps(reference)

    def test_batched_specs_cache_under_their_digests(self, tmp_path):
        specs = self._mixed_specs()
        first = Runner(cache=ResultCache(tmp_path))
        second = Runner(cache=ResultCache(tmp_path))
        a = first.run_specs(specs)
        assert first.executed == 4
        b = second.run_specs(specs)
        assert second.executed == 0
        assert [pickle.dumps(r) for r in a] == [pickle.dumps(r) for r in b]

    def test_duplicate_batched_specs_dedupe(self, tmp_path):
        spec = _and_spec([1, 1, 1, 1, 1])
        runner = Runner(cache=ResultCache(tmp_path))
        results = runner.run_specs([spec, spec, spec])
        assert runner.executed == 1
        batch = runner.batches[-1]
        assert batch["deduped"] == 2
        assert len({pickle.dumps(r) for r in results}) == 1

    def test_batch_failure_raises_like_per_spec_path(self, tmp_path):
        specs = [_and_spec([1, 1, 1]), _and_spec([1, 1, 1, 1], budget=1)]
        with pytest.raises(NonTerminationError):
            Runner(cache=ResultCache(tmp_path)).run_specs(specs)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_jobs_value_does_not_change_bytes(self, jobs):
        serial = Runner(jobs=1).run_specs(self._mixed_specs())
        other = Runner(jobs=jobs).run_specs(self._mixed_specs())
        assert [pickle.dumps(a) for a in serial] == [
            pickle.dumps(b) for b in other
        ]


class TestMixedTokenAndUnitBatches:
    """Token-carrying and unit-bits programs sharing one run_specs call.

    The batch engine groups specs per program but shares one call; the
    Runner must keep submission order and the bytes must not depend on
    the jobs value or on what else rides in the batch.
    """

    def _specs(self):
        return [
            _and_spec([1, 1, 1, 1, 1, 1]),  # unit-bits, n=6
            RunSpec.make(
                engine="sync-batch",
                ring=RingConfiguration.oriented((1, 0, 0, 1)),
                algorithm="fig2-input-distribution",  # token, n=4
            ),
            _start_spec(9, wakeup=(0, 1, 2, 0, 1, 2, 0, 1, 2)),  # n=9
            RunSpec.make(
                engine="sync-batch",
                ring=RingConfiguration.oriented((4, 2, 0, 1, 3, 6, 5)),
                algorithm="chang-roberts-sync",  # token, n=7
            ),
            RunSpec.make(
                engine="sync-batch",
                ring=RingConfiguration(
                    inputs=(0, 0, 0, 0, 0), orientations=(1, 0, 1, 1, 0)
                ),
                algorithm="quasi-orientation",  # token, n=5
            ),
            _and_spec([1, 1, 0]),  # unit-bits, n=3
            RunSpec.make(
                engine="sync-batch",
                ring=RingConfiguration.oriented((0, 1, 1, 0, 1, 0, 1, 1)),
                algorithm="fig2-unidirectional",  # token, n=8
            ),
        ]

    def test_submission_order_preserved(self):
        results = Runner().run_specs(self._specs())
        assert [r.n for r in results] == [6, 4, 9, 7, 5, 3, 8]

    @pytest.mark.parametrize(
        "jobs, sweep",
        [(1, False), (2, False), (3, False), (2, True)],
        ids=["1", "2", "3", "sweep-2"],
    )
    def test_bit_identical_to_generator_for_every_jobs(self, jobs, sweep):
        specs = _sweep_specs() if sweep else self._specs()
        results = Runner(jobs=jobs).run_specs(specs)
        for spec, result in zip(specs, results):
            reference = execute(spec.with_(engine="sync"))
            assert pickle.dumps(result) == pickle.dumps(reference)

    def test_batching_context_does_not_change_bytes(self):
        """Each run is isolated: alone vs in the mixed batch, same bytes."""
        specs = self._specs()
        together = Runner().run_specs(specs)
        alone = [Runner().run_specs([spec])[0] for spec in specs]
        assert [pickle.dumps(a) for a in together] == [
            pickle.dumps(b) for b in alone
        ]
