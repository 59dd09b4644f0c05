"""The observability CLI surface: ``trace``, ``cache``, ``--metrics``.

In-process ``main(argv)`` calls, so the tests see real exit codes and
real artifacts without subprocess overhead; one subprocess smoke at the
end proves the module entry point wires the same way.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.__main__ import main
from repro.obs import read_events_jsonl, validate_chrome_trace
from repro.runtime import ResultCache
from test_cache_backends import plant_stale_version


class TestTraceCommand:
    def test_sync_trace_writes_validating_artifacts(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        rc = main(["trace", "sync-and", "--n", "6", "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert validate_chrome_trace(payload) == []
        events_path = tmp_path / "trace.events.jsonl"
        events = read_events_jsonl(events_path)
        assert events and events[0].kind in ("wake", "send")
        captured = capsys.readouterr()
        assert "reconciles with TraceStats" in captured.out
        assert "cyc |" in captured.out  # the space–time diagram rendered

    def test_async_trace_with_metrics(self, tmp_path):
        out = tmp_path / "t.json"
        metrics = tmp_path / "m.json"
        rc = main(
            [
                "trace",
                "input-distribution",
                "--n",
                "5",
                "--out",
                str(out),
                "--metrics",
                str(metrics),
                "--no-diagram",
            ]
        )
        assert rc == 0
        snapshot = json.loads(metrics.read_text())
        assert snapshot["sends"] == snapshot["delivers"]
        assert snapshot["latency"]["count"] == snapshot["delivers"]
        assert snapshot["queue_depth"]["final"] == 0

    def test_dup_fault_trace_reconciles(self, tmp_path):
        rc = main(
            [
                "trace",
                "chang-roberts",
                "--n",
                "5",
                "--scheduler",
                "random",
                "--scheduler-seed",
                "3",
                "--profile",
                "dup",
                "--out",
                str(tmp_path / "dup.json"),
                "--no-diagram",
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "dup.json").read_text())
        assert validate_chrome_trace(payload) == []

    def test_unknown_target_is_an_error(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["trace"])  # missing target
        with pytest.raises(Exception):
            main(["trace", "no-such-algorithm", "--out", str(tmp_path / "x.json")])

    def test_custom_events_path(self, tmp_path):
        events_path = tmp_path / "stream.jsonl"
        rc = main(
            [
                "trace",
                "sync-and",
                "--n",
                "5",
                "--out",
                str(tmp_path / "t.json"),
                "--events",
                str(events_path),
                "--no-diagram",
            ]
        )
        assert rc == 0
        assert events_path.exists()


class TestCacheCommand:
    def test_stats_reports_entries_and_lifetime(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.flush_counters()
        rc = main(["cache", "stats", "--cache", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "1 writes" in out

    def test_prune_reports_removals(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"x": 1})
        plant_stale_version(tmp_path, "cd" + "0" * 62)
        rc = main(["cache", "prune", "--cache", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "pruned 1 stale entries" in out and "1 kept" in out

    def test_no_cache_dir_exits_2(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        rc = main(["cache", "stats"])
        assert rc == 2
        assert "no cache directory" in capsys.readouterr().err

    @pytest.mark.parametrize("action", ["stats", "prune"])
    @pytest.mark.parametrize("via_env", [False, True])
    def test_missing_root_exits_2_and_creates_nothing(
        self, tmp_path, monkeypatch, capsys, action, via_env
    ):
        root = tmp_path / "mistyped"
        if via_env:
            monkeypatch.setenv("REPRO_CACHE_DIR", str(root))
            rc = main(["cache", action])
        else:
            rc = main(["cache", action, "--cache", str(root)])
        assert rc == 2
        assert f"no cache at {root}" in capsys.readouterr().err
        assert not root.exists()


class TestCacheCommandSqlite:
    def test_stats_names_the_backend(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        cache.put("ab" + "0" * 62, {"x": 1})
        cache.flush_counters()
        rc = main(["cache", "stats", "--cache", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out

    def test_prune_max_bytes_reports_evictions(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        for index in range(3):
            cache.put(f"{index:02d}" + "a" * 62, "x" * 200)
        rc = main(
            ["cache", "prune", "--cache", str(tmp_path), "--max-bytes", "250"]
        )
        assert rc == 0
        assert "LRU-evicted" in capsys.readouterr().out


class TestRunnerMetricsFlag:
    def test_fuzz_quick_writes_metrics(self, tmp_path):
        metrics = tmp_path / "METRICS.json"
        rc = main(
            [
                "fuzz",
                "--quick",
                "--seed",
                "7",
                "--output",
                str(tmp_path / "FUZZ.json"),
                "--metrics",
                str(metrics),
            ]
        )
        assert rc == 0
        payload = json.loads(metrics.read_text())
        assert payload["tasks"] > 0
        assert payload["executed"] + payload["cache_hits"] == payload["tasks"]

    def test_bench_obs_quick_writes_overheads(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        rc = main(
            [
                "bench",
                "--suite",
                "obs",
                "--quick",
                "--sizes",
                "8",
                "--output",
                str(tmp_path / "BENCH_obs.json"),
            ]
        )
        assert rc == 0
        payload = json.loads((tmp_path / "BENCH_obs.json").read_text())
        assert payload["suite"] == "observability-overhead"
        points = payload["overheads"]["points"]
        assert points and all(p["off_seconds"] > 0 for p in points)
        # Record mode really recorded: every point saw events.
        assert all(p["recorded_events"] > 0 for p in points)


class TestModuleEntryPoint:
    def test_subprocess_trace_smoke(self, tmp_path):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "trace",
                "sync-and",
                "--n",
                "5",
                "--out",
                str(tmp_path / "trace.json"),
                "--no-diagram",
            ],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert "reconciles" in proc.stdout
