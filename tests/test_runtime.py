"""The unified execution layer: RunSpec, execute, Runner, ResultCache.

Covers the determinism contract (same batch ⇒ bit-identical results for
every ``jobs`` value), the content-addressed cache (hits provably skip
execution; volatile metadata provably stays out of the keys), and the
spec validation errors that keep every stored spec replayable.
"""

from __future__ import annotations

import json
import pickle
import random

import pytest

from repro.core import RingConfiguration
from repro.core.errors import ConfigurationError
from repro.perf.bench import workload_spec
from repro.runtime import (
    ENGINES,
    ResultCache,
    RunSpec,
    Runner,
    Sweep,
    TaskCall,
    algorithm,
    derive_seed,
    execute,
    registered_algorithms,
    resolve,
    task_digest,
)
from test_cache_backends import corrupt_entry, plant_stale_version

#: Module-level counter bumped by :func:`counting_task` — lets tests
#: observe exactly how many times the runner really executed a task.
CALLS = {"count": 0}


def counting_task(value: int) -> int:
    CALLS["count"] += 1
    return value * 2


def _ring(n: int = 7, seed: int = 3, oriented: bool = True) -> RingConfiguration:
    return RingConfiguration.random(n, random.Random(seed), oriented=oriented)


def _spec(**overrides) -> RunSpec:
    base = dict(engine="async", ring=_ring(), algorithm="input-distribution")
    base.update(overrides)
    return RunSpec.make(**base)


def _result_fingerprint(result) -> tuple:
    return (
        result.outputs,
        result.stats.messages,
        result.stats.bits,
        result.stats.per_cycle,
        result.stats.delivered,
        result.stats.dropped,
        result.stats.duplicated,
        result.cycles,
    )


class TestRunSpecValidation:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            _spec(engine="warp")

    def test_scheduler_only_for_async(self):
        with pytest.raises(ConfigurationError, match="only applies to the async"):
            RunSpec.make(
                engine="sync", ring=_ring(), algorithm="sync-and", scheduler="greedy"
            )

    def test_unknown_scheduler_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scheduler"):
            _spec(scheduler="chaotic")

    def test_random_scheduler_requires_seed(self):
        with pytest.raises(ConfigurationError, match="scheduler_seed"):
            _spec(scheduler="random")
        _spec(scheduler="random", scheduler_seed=1)  # with a seed: fine

    def test_fault_profile_requires_seed_and_async(self):
        with pytest.raises(ConfigurationError, match="fault_seed"):
            _spec(fault_profile="drop")
        with pytest.raises(ConfigurationError, match="async engine"):
            RunSpec.make(
                engine="sync",
                ring=_ring(),
                algorithm="sync-and",
                fault_profile="drop",
                fault_seed=1,
            )

    def test_wakeup_only_for_sync(self):
        with pytest.raises(ConfigurationError, match="wakeup"):
            _spec(wakeup=(0, 1, 2, 3, 3, 2, 1))

    def test_unknown_algorithm_fails_at_execute(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            execute(_spec(algorithm="nonesuch"))

    def test_engine_kind_mismatch_fails_at_execute(self):
        with pytest.raises(ConfigurationError, match="sync"):
            execute(_spec(algorithm="sync-and"))  # sync algorithm, async engine

    def test_unknown_param_rejected(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            execute(_spec(params={"typo": True}))

    def test_spec_is_hashable_and_picklable(self):
        spec = _spec(scheduler="bounded-delay", scheduler_seed=5)
        assert hash(spec) == hash(pickle.loads(pickle.dumps(spec)))
        assert pickle.loads(pickle.dumps(spec)) == spec

    def test_params_normalized_sorted(self):
        a = RunSpec(engine="async", ring=_ring(), algorithm="input-distribution",
                    params=(("b", 2), ("a", 1)))
        assert a.params == (("a", 1), ("b", 2))


class TestDigest:
    def test_digest_is_stable(self):
        assert _spec().digest() == _spec().digest()

    def test_digest_distinguishes_every_field(self):
        base = _spec()
        variants = [
            _spec(ring=_ring(seed=4)),
            _spec(algorithm="and"),
            _spec(params={"assume_oriented": True}),
            _spec(scheduler="greedy"),
            _spec(budget=10_000),
            _spec(keep_log=True),
            RunSpec.make(engine="async-synchronized", ring=_ring(),
                         algorithm="input-distribution"),
        ]
        digests = {base.digest()} | {v.digest() for v in variants}
        assert len(digests) == len(variants) + 1

    def test_canonical_has_no_volatile_fields(self):
        names = [name for name, _ in _spec().canonical()]
        for volatile in ("timestamp", "time", "git", "host", "pid"):
            assert not any(volatile in name for name in names)


class TestExecuteParity:
    """execute(spec) agrees with calling the engines directly."""

    def test_sync_parity(self):
        from repro.algorithms.sync_input_distribution import distribute_inputs_sync

        ring = _ring(9, 9)
        direct = distribute_inputs_sync(ring)
        via_spec = execute(
            RunSpec.make(engine="sync", ring=ring, algorithm="fig2-input-distribution")
        )
        assert _result_fingerprint(via_spec) == _result_fingerprint(direct)

    def test_async_parity(self):
        from repro.algorithms.async_input_distribution import distribute_inputs_async
        from repro.asynch.schedulers import RandomScheduler

        ring = _ring(8, 2, oriented=False)
        direct = distribute_inputs_async(ring, scheduler=RandomScheduler(seed=11))
        via_spec = execute(
            RunSpec.make(engine="async", ring=ring, algorithm="input-distribution",
                         scheduler="random", scheduler_seed=11)
        )
        assert _result_fingerprint(via_spec) == _result_fingerprint(direct)

    def test_async_synchronized_parity(self):
        from repro.algorithms.async_input_distribution import AsyncInputDistribution
        from repro.asynch import run_async_synchronized

        ring = _ring(8, 5, oriented=False)
        direct = run_async_synchronized(
            ring, lambda value, n: AsyncInputDistribution(value, n)
        )
        via_spec = execute(
            RunSpec.make(engine="async-synchronized", ring=ring,
                         algorithm="input-distribution")
        )
        assert _result_fingerprint(via_spec) == _result_fingerprint(direct)

    def test_fault_profile_replayable(self):
        spec = _spec(ring=_ring(5, 1, oriented=False), fault_profile="delay",
                     fault_seed=42)
        a, b = execute(spec), execute(spec)
        assert _result_fingerprint(a) == _result_fingerprint(b)


class TestRegistry:
    def test_every_entry_builds(self):
        for entry in registered_algorithms():
            assert entry.kind in ("sync", "async")
            assert entry.build() is not None

    def test_parameter_free_builds_have_stable_identity(self):
        assert algorithm("and").build() is algorithm("and").build()

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ConfigurationError, match="input-distribution"):
            algorithm("nonesuch")


class TestDeriveSeed:
    def test_pure_function_of_parts(self):
        assert derive_seed("fuzz", 3, "drop") == derive_seed("fuzz", 3, "drop")

    def test_distinguishes_parts(self):
        seeds = {derive_seed("fuzz", n, p) for n in (2, 3, 5) for p in ("none", "drop")}
        assert len(seeds) == 6

    def test_matches_subprocess(self):
        """Stable across processes (i.e. not built on ``hash()``)."""
        import subprocess
        import sys

        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.runtime import derive_seed; print(derive_seed('x', 1))"],
            capture_output=True, text=True, env={"PYTHONHASHSEED": "99",
                                                 "PYTHONPATH": "src"},
            cwd=str(__import__("pathlib").Path(__file__).resolve().parent.parent),
        )
        assert int(out.stdout) == derive_seed("x", 1)


class TestRunnerDeterminism:
    def _specs(self):
        return [
            _spec(ring=_ring(n, n, oriented=False)) for n in (4, 5, 6, 7)
        ] + [
            RunSpec.make(engine="sync", ring=_ring(n, n), algorithm="sync-and")
            for n in (4, 5)
        ]

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_bit_identical_across_job_counts(self, jobs):
        specs = self._specs() + [workload_spec("sync_input_distribution", 32)]
        serial = Runner(jobs=1).run_specs(specs)
        parallel = Runner(jobs=jobs).run_specs(specs)
        assert [_result_fingerprint(r) for r in serial] == [
            _result_fingerprint(r) for r in parallel
        ]
        assert all(pickle.dumps(a) == pickle.dumps(b) for a, b in zip(serial, parallel))

    def test_results_in_submission_order(self):
        results = Runner(jobs=2).run_specs(self._specs())
        assert [r.n for r in results] == [4, 5, 6, 7, 4, 5]

    def test_sweep_runs_in_order(self):
        sweep = Sweep("smoke", tuple(self._specs()[:2]))
        assert len(sweep) == 2
        results = Runner().run_sweep(sweep)
        assert [r.n for r in results] == [4, 5]

    def test_resolve_rejects_malformed_reference(self):
        with pytest.raises(ConfigurationError, match="module:function"):
            resolve("no-colon")
        with pytest.raises(ConfigurationError, match="no attribute"):
            resolve("repro.runtime:nonesuch")


class TestResultCache:
    def test_roundtrip_and_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        hit, _ = cache.get("ab" + "0" * 62)
        assert not hit and cache.misses == 1
        cache.put("ab" + "0" * 62, {"x": 1})
        hit, value = cache.get("ab" + "0" * 62)
        assert hit and value == {"x": 1} and cache.writes == 1

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = "cd" + "0" * 62
        cache.put(key, [1, 2, 3])
        corrupt_entry(tmp_path, key, b"not a pickle")
        hit, _ = cache.get(key)
        assert not hit

    def test_cache_hit_skips_execution(self, tmp_path):
        """Second runner answers from disk without running anything."""
        spec = _spec(ring=_ring(5, 5, oriented=False))
        first = Runner(cache=ResultCache(tmp_path))
        second = Runner(cache=ResultCache(tmp_path))
        results_a = first.run_specs([spec, spec.with_(keep_log=True)])
        assert first.executed == 2
        results_b = second.run_specs([spec, spec.with_(keep_log=True)])
        assert second.executed == 0
        assert second.cache.hits == 2
        assert [pickle.dumps(r) for r in results_a] == [
            pickle.dumps(r) for r in results_b
        ]

    def test_counting_stub_not_called_on_hit(self, tmp_path):
        """Cache-hit short-circuit, observed from the task's own side."""
        call = TaskCall(func="test_runtime:counting_task", args=(21,),
                        cache_key=task_digest("count-stub", 21))
        runner = Runner(cache=ResultCache(tmp_path))
        CALLS["count"] = 0
        assert runner.map([call]) == [42]
        assert CALLS["count"] == 1
        assert runner.map([call]) == [42]
        assert CALLS["count"] == 1  # second batch never invoked the task

    def test_uncached_runner_always_executes(self):
        call = TaskCall(func="test_runtime:counting_task", args=(1,),
                        cache_key=task_digest("count-stub", 1))
        CALLS["count"] = 0
        runner = Runner()  # no cache configured
        runner.map([call])
        runner.map([call])
        assert CALLS["count"] == 2


class TestVolatileMetadataExcluded:
    def test_task_digest_ignores_ambient_state(self):
        """Keys are pure functions of coordinates + code version."""
        assert task_digest("bench", "sync_and", 16, 3) == task_digest(
            "bench", "sync_and", 16, 3
        )
        assert task_digest("bench", "sync_and", 16, 3) != task_digest(
            "bench", "sync_and", 16, 4
        )

    def test_bench_payload_volatile_fields_not_in_records(self, tmp_path):
        """timestamp/git_commit live in the envelope, never in a record —
        so cached records can't smuggle volatile metadata."""
        from repro.perf.bench import run_bench, write_bench

        records = run_bench(quick=True, sizes=(8,))
        path = write_bench(records, tmp_path / "b.json", quick=True)
        payload = json.loads(path.read_text())
        assert "timestamp" in payload and "git_commit" in payload
        for record in payload["records"]:
            assert "timestamp" not in record
            assert "git_commit" not in record

    def test_bench_reruns_hit_cache_despite_new_timestamp(self, tmp_path):
        """The envelope timestamp changes between runs; the cache keys
        don't, so a re-run is answered entirely from cache."""
        from repro.perf.bench import run_bench

        first = Runner(cache=ResultCache(tmp_path / "cache"))
        second = Runner(cache=ResultCache(tmp_path / "cache"))
        a = run_bench(quick=True, sizes=(8,), runner=first)
        b = run_bench(quick=True, sizes=(8,), runner=second)
        assert second.executed == 0
        assert [pickle.dumps(r) for r in a] == [pickle.dumps(r) for r in b]


class TestHarnessParity:
    """End-to-end: every harness yields identical output for any --jobs."""

    def test_report_parity(self):
        from repro.reporting import render_markdown, run_all

        serial = render_markdown(run_all(quick=True, jobs=1))
        parallel = render_markdown(run_all(quick=True, jobs=3))
        assert serial == parallel

    def test_bench_parity_modulo_timing(self):
        from dataclasses import asdict

        from repro.perf.bench import run_bench

        timing = ("seconds", "events_per_sec", "messages_per_sec")
        strip = lambda recs: [
            {k: v for k, v in asdict(r).items() if k not in timing} for r in recs
        ]
        assert strip(run_bench(quick=True, sizes=(8,), jobs=1)) == strip(
            run_bench(quick=True, sizes=(8,), jobs=2)
        )

    def test_fuzz_parity(self):
        from repro.faults.fuzzer import run_fuzz

        kwargs = dict(seed=5, sizes=(3,), profiles=("none", "drop"),
                      cases_per_campaign=2)
        serial = run_fuzz(jobs=1, **kwargs)
        parallel = run_fuzz(jobs=2, **kwargs)
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            parallel, sort_keys=True
        )

    def test_analysis_parity_modulo_timing(self):
        from dataclasses import asdict

        from repro.perf.analysis import default_analysis_workloads, run_analysis_bench

        workloads = default_analysis_workloads()[:2]  # engine + naive twin
        timing = ("seconds", "cells_per_sec")
        strip = lambda recs: [
            {k: v for k, v in asdict(r).items() if k not in timing} for r in recs
        ]
        assert strip(
            run_analysis_bench(quick=True, workloads=workloads, jobs=1)
        ) == strip(run_analysis_bench(quick=True, workloads=workloads, jobs=2))


class TestEngineConstant:
    def test_engines_tuple(self):
        assert ENGINES == ("sync", "sync-batch", "async", "async-synchronized")


class TestRunnerTelemetry:
    """Per-batch telemetry, METRICS.json, and the stderr progress line."""

    def _calls(self, count: int = 4):
        return [
            TaskCall(func="test_runtime:counting_task", args=(i,),
                     cache_key=task_digest("telemetry-stub", i))
            for i in range(count)
        ]

    def test_batches_record_counts_and_timings(self):
        runner = Runner()
        runner.map(self._calls())
        assert len(runner.batches) == 1
        batch = runner.batches[0]
        assert batch["tasks"] == 4 and batch["executed"] == 4
        assert batch["cache_hits"] == 0
        assert batch["wall_seconds"] >= 0
        assert batch["task_seconds"] >= 0

    def test_batches_split_executed_from_cached(self, tmp_path):
        calls = self._calls()
        runner = Runner(cache=ResultCache(tmp_path))
        runner.map(calls)
        runner.map(calls)
        first, second = runner.batches
        assert first["executed"] == 4 and first["cache"]["writes"] == 4
        assert second["executed"] == 0 and second["cache_hits"] == 4
        assert second["cache"]["hits"] == 4 and second["cache"]["writes"] == 0

    def test_metrics_snapshot_aggregates(self, tmp_path):
        runner = Runner(cache=ResultCache(tmp_path))
        runner.map(self._calls())
        runner.map(self._calls())
        snapshot = runner.metrics_snapshot()
        assert snapshot["tasks"] == 8
        assert snapshot["executed"] == 4
        assert snapshot["cache"]["hits"] == 4
        assert snapshot["jobs"] == 1
        utilization = snapshot["pool_utilization"]
        assert utilization is None or utilization >= 0.0

    def test_write_metrics_is_valid_json(self, tmp_path):
        runner = Runner()
        runner.map(self._calls(2))
        path = runner.write_metrics(tmp_path / "METRICS.json")
        payload = json.loads(path.read_text())
        assert payload["tasks"] == 2
        assert payload["batches"] == 1 and payload["executed"] == 2

    def test_progress_lines_on_stderr(self, capsys):
        runner = Runner(progress=True)
        runner.map(self._calls(3))
        err = capsys.readouterr().err
        assert "[runner]" in err
        assert "3/3 done" in err

    def test_progress_off_by_default(self, capsys):
        Runner().map(self._calls(2))
        assert "[runner]" not in capsys.readouterr().err

    def test_progress_does_not_change_results(self, tmp_path):
        specs = [_spec(ring=_ring(n, n)) for n in (4, 5, 6)]
        quiet = Runner(jobs=1).run_specs(specs)
        noisy = Runner(jobs=2, progress=True).run_specs(specs)
        assert [pickle.dumps(a) for a in quiet] == [pickle.dumps(b) for b in noisy]

    def test_recorded_specs_identical_across_job_counts(self):
        """record=True rides the pool: streams are part of the contract."""
        specs = [_spec(ring=_ring(n, n), record=True) for n in (4, 5, 6)]
        serial = Runner(jobs=1).run_specs(specs)
        parallel = Runner(jobs=2).run_specs(specs)
        assert all(r.events is not None for r in serial)
        assert [pickle.dumps(a) for a in serial] == [
            pickle.dumps(b) for b in parallel
        ]


class TestCacheMaintenance:
    """stats / prune / persistent lifetime counters."""

    def test_stats_counts_entries_and_bytes(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.put("cd" + "0" * 62, [1, 2, 3])
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["writes"] == 2

    def test_prune_keeps_current_version_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"x": 1})
        report = cache.prune()
        assert report == {
            "removed": 0,
            "kept": 1,
            "freed_bytes": 0,
            "evicted": 0,
        }

    def test_prune_removes_stale_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"x": 1})
        plant_stale_version(tmp_path, "cd" + "0" * 62)  # written by older code
        report = cache.prune()
        assert report["removed"] == 1 and report["kept"] == 1
        assert report["freed_bytes"] > 0
        hit, value = cache.get("ab" + "0" * 62)
        assert hit and value == {"x": 1}

    def test_lifetime_counters_persist_across_instances(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put("ab" + "0" * 62, 1)
        first.get("ab" + "0" * 62)
        first.get("cd" + "0" * 62)  # miss
        first.flush_counters()
        # Public counters survive the flush untouched.
        assert (first.hits, first.misses, first.writes) == (1, 1, 1)
        second = ResultCache(tmp_path)
        stats = second.stats()
        assert stats["lifetime_hits"] == 1
        assert stats["lifetime_misses"] == 1
        assert stats["lifetime_writes"] == 1

    def test_flush_is_idempotent(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, 1)
        cache.flush_counters()
        cache.flush_counters()  # no double counting past the watermark
        assert ResultCache(tmp_path).stats()["lifetime_writes"] == 1
