"""The serve CLI end to end: a real ``python -m repro serve --jobs 2`` process.

Starts the gateway as a subprocess with a two-worker pool and a shared
result cache, parses its readiness line, and submits a mixed warm/cold
batch over HTTP — through the client library and through the ``submit``
CLI.  The streamed results must be pickle-identical to a direct
``Runner.run_specs`` on the same specs, the pre-warmed spec must be
answered from the cache without executing, SIGINT must stop the gateway
cleanly (exit 0) within ``STOP_TIMEOUT`` seconds, and the shared cache
root must then answer the ``cache`` CLI, counting the gateway's hits.
The in-process (``--jobs 1``) gateway is covered by ``test_serve.py``.
"""

from __future__ import annotations

import json
import pickle
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.core import RingConfiguration
from repro.runtime import ResultCache, Runner, RunSpec
from repro.serve import fetch_stats, submit_specs

ROOT = Path(__file__).resolve().parent.parent

#: Seconds a SIGINTed gateway may take to exit.
STOP_TIMEOUT = 10.0
READY_TIMEOUT = 60.0


def _repro(env, *argv: str, timeout: float = 120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=timeout,
        cwd=ROOT,
        env=env,
    )


SPECS = [
    RunSpec.make(
        engine="sync", ring=RingConfiguration.oriented((1, 1, 0, 1)), algorithm="sync-and"
    ),
    RunSpec.make(
        engine="sync-batch",
        ring=RingConfiguration.oriented((0, 1, 0, 1, 1)),
        algorithm="sync-and",
    ),
    RunSpec.make(
        engine="async",
        ring=RingConfiguration.oriented((1, 1, 1)),
        algorithm="and",
        scheduler="random",
        scheduler_seed=11,
    ),
]


@pytest.fixture
def gateway(tmp_path, subprocess_env):
    """``(url, process, cache dir)`` of a live ``serve --jobs 2`` child.

    The first spec is pre-warmed into the shared cache.
    """
    cache_dir = tmp_path / "cache"
    Runner(cache=ResultCache(cache_dir)).run_specs([SPECS[0]])
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--port", "0", "--jobs", "2",
         "--cache", str(cache_dir)],
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        text=True,
        cwd=ROOT,
        env=subprocess_env,
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], READY_TIMEOUT)
        assert ready, f"gateway printed nothing within {READY_TIMEOUT}s"
        line = proc.stdout.readline().strip()
        assert line.startswith("serving on http://"), f"bad readiness line: {line!r}"
        yield line.split()[-1], proc, cache_dir
    finally:
        if proc.poll() is None:  # the test failed before its own SIGINT
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        proc.stdout.close()


def test_serve_round_trip_submit_cli_and_clean_sigint(gateway, tmp_path, subprocess_env):
    url, proc, cache_dir = gateway

    outcomes = submit_specs(url, SPECS)
    local = Runner().run_specs(SPECS)
    statuses = [outcome.status for outcome in outcomes]
    assert statuses[0] == "cached", f"pre-warmed spec executed: {statuses}"
    assert statuses[1:] == ["done", "done"], statuses
    for outcome, expected in zip(outcomes, local):
        assert pickle.dumps(outcome.result) == pickle.dumps(expected), (
            "gateway result diverges from local Runner.run_specs"
        )

    stats = fetch_stats(url)
    assert stats["warm_hits"] == 1 and stats["completed"] == 2, stats
    assert stats["cache"]["entries"] == 3, stats["cache"]
    assert stats["runner"]["jobs"] == 2

    # The submit CLI sees the now fully-warm batch.
    specs_file = tmp_path / "specs.json"
    specs_file.write_text(json.dumps({"specs": [s.to_json_dict() for s in SPECS]}))
    cli = _repro(subprocess_env, "submit", str(specs_file), "--url", url)
    assert cli.returncode == 0, cli.stderr
    assert cli.stdout.count("[cached]") == 3, cli.stdout

    proc.send_signal(signal.SIGINT)
    started = time.monotonic()
    rc = proc.wait(timeout=STOP_TIMEOUT)
    assert rc == 0, f"gateway exited {rc} on SIGINT"
    assert time.monotonic() - started < STOP_TIMEOUT

    # The shared root answers the cache CLI, the gateway's 4 hits flushed
    # when it stopped.
    for argv, needle in (
        (["cache", "stats", "--cache", str(cache_dir)], "lifetime: 4 hits"),
        (["cache", "prune", "--cache", str(cache_dir)], "pruned"),
    ):
        out = _repro(subprocess_env, *argv, timeout=60)
        assert out.returncode == 0 and needle in out.stdout, out.stdout + out.stderr
