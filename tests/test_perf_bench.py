"""The benchmark-regression harness: records, JSON artifact, CLI."""

from __future__ import annotations

import json

import pytest

from repro.__main__ import main
from repro.perf import (
    BENCH_FILENAME,
    SCHEMA_VERSION,
    analysis_speedups,
    default_analysis_workloads,
    default_workloads,
    measure_analysis,
    render_analysis_table,
    render_table,
    run_analysis_bench,
    run_bench,
    write_analysis_bench,
    write_bench,
)


class TestSuiteDefinition:
    def test_workload_names_are_the_contract(self):
        names = [workload.name for workload in default_workloads()]
        assert names == [
            "sync_and",
            "sync_input_distribution",
            "async_input_distribution",
            "async_synchronized",
        ]

    def test_quick_sweeps_are_subsets(self):
        for workload in default_workloads():
            assert set(workload.quick_sizes) <= set(workload.sizes)


class TestBatchSuite:
    def test_quick_grid_keeps_a_large_n_row(self):
        """The quick batch bench, which CI runs under a time cap, measures
        one row per quick size: one must reach n ≥ 10^5, so every CI run
        exercises the batch engine's large-n path."""
        from repro.perf.batch import _GRID

        assert any(n >= 100_000 for row in _GRID for n in row.quick_sizes)


class TestRunBench:
    def test_records_have_consistent_throughput(self):
        records = run_bench(quick=True, repeats=1, sizes=(5,))
        assert len(records) == len(default_workloads())
        for record in records:
            assert record.n == 5
            assert record.messages > 0
            assert record.events > 0
            assert record.seconds >= 0
            assert record.events_per_sec > 0
            assert record.messages_per_sec > 0

    def test_async_distribution_counts_n_n_minus_1(self):
        """The flagship workload must measure the exact §4.1 count."""
        (record,) = run_bench(
            quick=True,
            repeats=1,
            sizes=(9,),
            workloads=[
                w for w in default_workloads() if w.name == "async_input_distribution"
            ],
        )
        assert record.messages == 9 * 8
        assert record.events == record.messages

    def test_render_table_mentions_every_workload(self):
        records = run_bench(quick=True, repeats=1, sizes=(4,))
        table = render_table(records)
        for workload in default_workloads():
            assert workload.name in table


class TestArtifact:
    def test_write_bench_schema(self, tmp_path):
        records = run_bench(quick=True, repeats=1, sizes=(4,))
        target = tmp_path / "bench.json"
        written = write_bench(records, target, quick=True)
        assert written == target
        payload = json.loads(target.read_text())
        assert payload["schema"] == SCHEMA_VERSION == 2
        assert payload["suite"] == "simulator-engines"
        assert payload["quick"] is True
        # Schema v2: the trajectory is self-describing.
        assert "git_commit" in payload
        assert payload["git_commit"] is None or len(payload["git_commit"]) == 40
        assert "timestamp" in payload and payload["timestamp"].startswith("20")
        assert len(payload["records"]) == len(records)
        first = payload["records"][0]
        for key in (
            "workload",
            "engine",
            "n",
            "repeats",
            "seconds",
            "events",
            "messages",
            "bits",
            "cycles",
            "events_per_sec",
            "messages_per_sec",
        ):
            assert key in first
        assert payload["totals"]["messages"] == sum(r.messages for r in records)

    def test_default_filename(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        records = run_bench(quick=True, repeats=1, sizes=(4,))
        written = write_bench(records)
        assert written.name == BENCH_FILENAME
        assert (tmp_path / BENCH_FILENAME).exists()


class TestAnalysisSuite:
    def test_workload_names_are_the_contract(self):
        points = [(w.name, w.impl) for w in default_analysis_workloads()]
        assert points == [
            ("symmetry_profile", "engine"),
            ("symmetry_profile", "naive"),
            ("symmetry_profile_structured", "engine"),
            ("symmetry_profile_structured", "naive"),
            ("fooling_verification", "engine"),
            ("fooling_verification", "naive"),
            ("witness_pairs", "engine"),
            ("witness_pairs", "naive"),
        ]

    def test_quick_sweeps_are_subsets(self):
        for workload in default_analysis_workloads():
            assert set(workload.quick_sizes) <= set(workload.sizes)

    def test_engine_and_naive_agree(self):
        """Engine/naive twins must produce identical checksums."""
        by_name = {}
        for workload in default_analysis_workloads():
            by_name.setdefault(workload.name, {})[workload.impl] = workload
        for name, impls in by_name.items():
            n = min(impls["naive"].quick_sizes)
            engine = measure_analysis(impls["engine"], n, repeats=1)
            naive = measure_analysis(impls["naive"], n, repeats=1)
            assert engine.checksum == naive.checksum, name
            assert engine.max_k == naive.max_k, name

    def test_speedups_cover_shared_points(self):
        records = run_analysis_bench(quick=True, repeats=1)
        speedups = analysis_speedups(records)
        # Every naive point has an engine twin at the same size in quick mode.
        naive_points = {
            (r.workload, r.n) for r in records if r.impl == "naive"
        }
        engine_points = {
            (r.workload, r.n) for r in records if r.impl == "engine"
        }
        for name, n in naive_points & engine_points:
            assert f"{name}/n={n}" in speedups

    def test_render_table_mentions_every_workload(self):
        records = run_analysis_bench(quick=True, repeats=1)
        table = render_analysis_table(records)
        for workload in default_analysis_workloads():
            assert workload.name in table

    def test_write_analysis_schema(self, tmp_path):
        records = run_analysis_bench(quick=True, repeats=1)
        target = tmp_path / "analysis.json"
        written = write_analysis_bench(records, target, quick=True)
        payload = json.loads(written.read_text())
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["suite"] == "symmetry-analysis"
        assert "git_commit" in payload and "timestamp" in payload
        assert "speedups" in payload
        first = payload["records"][0]
        for key in (
            "workload",
            "impl",
            "n",
            "max_k",
            "repeats",
            "seconds",
            "checksum",
            "cells_per_sec",
        ):
            assert key in first


class TestCli:
    def test_bench_subcommand_writes_json(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(
            ["bench", "--quick", "--sizes", "5", "--repeats", "1", "--output", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["quick"] is True
        assert {r["n"] for r in payload["records"]} == {5}
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "async_input_distribution" in out

    def test_bench_analysis_suite(self, tmp_path, capsys):
        target = tmp_path / "analysis.json"
        code = main(
            ["bench", "--suite", "analysis", "--quick", "--repeats", "1",
             "--output", str(target)]
        )
        assert code == 0
        payload = json.loads(target.read_text())
        assert payload["suite"] == "symmetry-analysis"
        assert {r["impl"] for r in payload["records"]} == {"engine", "naive"}
        out = capsys.readouterr().out
        assert "symmetry_profile" in out

    def test_bench_all_rejects_output(self, capsys):
        code = main(["bench", "--suite", "all", "--quick", "--output", "x.json"])
        assert code == 2

    def test_bench_analysis_rejects_sizes(self, capsys):
        code = main(["bench", "--suite", "analysis", "--quick", "--sizes", "7"])
        assert code == 2
