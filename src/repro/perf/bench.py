"""The simulator benchmark-regression suite behind ``python -m repro bench``.

Every bound in the paper is checked by *running* the instrumented
simulators, so engine throughput caps how large an ``n`` the
``Θ(n log n)`` / ``Ω(n²)`` shape checks can sweep.  This module pins a
fixed set of engine workloads — synchronous AND, Figure 2 input
distribution, the §4.1 asynchronous ``n(n−1)`` distribution, and the
Theorem 5.1 synchronizing adversary — runs each across an ``n``-sweep,
and serializes wall time, events/sec and messages/sec to
``BENCH_simulators.json`` so successive PRs accumulate a perf trajectory.

"Events" is the engine's unit of work: delivered messages for the
asynchronous engines (at quiescence every sent message has been delivered
or popped-and-dropped, so events equals messages sent) and
processor-cycle steps (``n × cycles``) for the synchronous engine.
"""

from __future__ import annotations

import json
import platform
import random
import subprocess
import time
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..runtime.runner import Runner, TaskCall, task_digest
from ..runtime.spec import RunSpec, execute

#: Default output file, written to the current working directory.
BENCH_FILENAME = "BENCH_simulators.json"

#: Bumped when the JSON layout changes incompatibly.
#: v2: payloads carry ``git_commit`` and ``timestamp`` so the PR-over-PR
#: trajectory is self-describing.
SCHEMA_VERSION = 2

_SEED = 0x5EED


def _git_commit() -> Optional[str]:
    """The HEAD commit of the source checkout, or None outside a repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=Path(__file__).resolve().parent,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _utc_timestamp() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class BenchRecord:
    """One (workload, n) measurement.

    ``seconds`` is the best wall time over ``repeats`` runs; the
    throughput fields are derived from it.
    """

    workload: str
    engine: str
    n: int
    repeats: int
    seconds: float
    events: int
    messages: int
    bits: int
    cycles: Optional[int]
    events_per_sec: float
    messages_per_sec: float


@dataclass(frozen=True)
class Workload:
    """A named simulator workload swept over ring sizes.

    Attributes:
        name: stable identifier used in the JSON and regression diffs.
        engine: which engine the workload exercises (``sync``, ``async``
            or ``async-synchronized``).
        run: builds and runs the workload at size ``n``.
        events_of: extracts the engine's unit-of-work count from a result.
        sizes: the full ``n``-sweep.
        quick_sizes: the trimmed sweep used by ``--quick`` / CI smoke.
    """

    name: str
    engine: str
    run: Callable[[int], RunResult]
    events_of: Callable[[RunResult], int]
    sizes: Tuple[int, ...]
    quick_sizes: Tuple[int, ...]


def _binary_ring(n: int, oriented: bool = True) -> RingConfiguration:
    """A deterministic pseudo-random 0/1 ring (stable across runs)."""
    rng = random.Random(_SEED + n)
    return RingConfiguration.random(n, rng, oriented=oriented)


def _sync_events(result: RunResult) -> int:
    cycles = result.cycles or 0
    return result.n * max(1, cycles)


def _async_events(result: RunResult) -> int:
    # At quiescence every sent message was popped as one delivery event.
    return result.stats.messages


def workload_spec(name: str, n: int) -> RunSpec:
    """The :class:`RunSpec` a named default workload runs at size ``n``.

    Exposed so other suites (the observability-overhead bench) can rerun
    the exact same specs with different spec-level knobs
    (``spec.with_(record=True)``) and stay comparable to this suite's
    numbers.
    """
    if name == "sync_and":
        # A single zero makes the announcement wave cross the whole ring —
        # the algorithm's worst case for both messages and cycles.
        return RunSpec.make(
            engine="sync",
            ring=RingConfiguration.oriented((0,) + (1,) * (n - 1)),
            algorithm="sync-and",
        )
    if name == "sync_input_distribution":
        return RunSpec.make(
            engine="sync",
            ring=_binary_ring(n),
            algorithm="fig2-input-distribution",
        )
    if name == "async_input_distribution":
        # Oriented ring: exactly n(n−1) messages at every size (§4.1).
        return RunSpec.make(
            engine="async",
            ring=_binary_ring(n),
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler="round-robin",
        )
    if name == "async_synchronized":
        return RunSpec.make(
            engine="async-synchronized",
            ring=_binary_ring(n),
            algorithm="input-distribution",
            params={"assume_oriented": True},
        )
    raise KeyError(f"unknown workload {name!r}")


def _run_sync_and(n: int) -> RunResult:
    return execute(workload_spec("sync_and", n))


def _run_sync_input_distribution(n: int) -> RunResult:
    return execute(workload_spec("sync_input_distribution", n))


def _run_async_input_distribution(n: int) -> RunResult:
    return execute(workload_spec("async_input_distribution", n))


def _run_async_synchronized(n: int) -> RunResult:
    return execute(workload_spec("async_synchronized", n))


def default_workloads() -> Tuple[Workload, ...]:
    """The fixed benchmark suite (order and names are part of the contract)."""
    return (
        Workload(
            name="sync_and",
            engine="sync",
            run=_run_sync_and,
            events_of=_sync_events,
            sizes=(16, 64, 256, 1024),
            quick_sizes=(16, 64),
        ),
        Workload(
            name="sync_input_distribution",
            engine="sync",
            run=_run_sync_input_distribution,
            events_of=_sync_events,
            sizes=(8, 16, 32, 64, 128),
            quick_sizes=(8, 16),
        ),
        Workload(
            name="async_input_distribution",
            engine="async",
            run=_run_async_input_distribution,
            events_of=_async_events,
            sizes=(8, 16, 32, 64, 128),
            quick_sizes=(8, 16),
        ),
        Workload(
            name="async_synchronized",
            engine="async-synchronized",
            run=_run_async_synchronized,
            events_of=_async_events,
            sizes=(8, 16, 32, 64, 128),
            quick_sizes=(8, 16),
        ),
    )


def measure(workload: Workload, n: int, repeats: int) -> BenchRecord:
    """Run one workload at one size, keeping the best wall time."""
    best = float("inf")
    result: Optional[RunResult] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = workload.run(n)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    assert result is not None
    events = workload.events_of(result)
    # Guard against a 0.0 timer reading on very small workloads.
    seconds = max(best, 1e-9)
    return BenchRecord(
        workload=workload.name,
        engine=workload.engine,
        n=n,
        repeats=max(1, repeats),
        seconds=best,
        events=events,
        messages=result.stats.messages,
        bits=result.stats.bits,
        cycles=result.cycles,
        events_per_sec=events / seconds,
        messages_per_sec=result.stats.messages / seconds,
    )


def measure_named(name: str, n: int, repeats: int) -> BenchRecord:
    """Measure one default workload by name — the pool-worker entry point."""
    named = {workload.name: workload for workload in default_workloads()}
    return measure(named[name], n, repeats)


def run_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    sizes: Optional[Sequence[int]] = None,
    workloads: Optional[Sequence[Workload]] = None,
    jobs: int = 1,
    runner: Optional[Runner] = None,
) -> List[BenchRecord]:
    """Run the suite; ``quick`` trims sweeps for CI smoke runs.

    ``sizes`` overrides every workload's sweep (useful for ad-hoc probes);
    ``repeats`` defaults to 1 in quick mode and 3 otherwise.  ``jobs``
    fans the (workload, n) grid across a process pool; workloads that are
    not part of :func:`default_workloads` carry arbitrary callables, so
    they always run in-process.  Records come back in grid order
    regardless of worker interleaving.
    """
    if runner is None:
        with Runner(jobs=jobs) as owned:
            return run_bench(quick, repeats, sizes, workloads, runner=owned)
    if repeats is None:
        repeats = 1 if quick else 3
    named = {workload.name: workload for workload in default_workloads()}
    chosen = tuple(workloads) if workloads is not None else tuple(named.values())
    grid: List[Tuple[Workload, int]] = []
    for workload in chosen:
        sweep = tuple(sizes) if sizes else (
            workload.quick_sizes if quick else workload.sizes
        )
        grid.extend((workload, n) for n in sweep)
    if all(named.get(workload.name) == workload for workload, _ in grid):
        calls = [
            TaskCall(
                func="repro.perf.bench:measure_named",
                args=(workload.name, n, repeats),
                cache_key=task_digest("bench", workload.name, n, repeats),
            )
            for workload, n in grid
        ]
        return list(runner.map(calls))
    return [measure(workload, n, repeats) for workload, n in grid]


def render_table(records: Sequence[BenchRecord]) -> str:
    """A human-readable summary of a bench run."""
    lines = [
        f"{'workload':<26} {'n':>5} {'seconds':>9} {'events/s':>12} {'msgs/s':>12}",
        "-" * 68,
    ]
    for record in records:
        lines.append(
            f"{record.workload:<26} {record.n:>5} {record.seconds:>9.4f} "
            f"{record.events_per_sec:>12.0f} {record.messages_per_sec:>12.0f}"
        )
    return "\n".join(lines)


def write_payload(
    records: Sequence[object],
    path: Path,
    *,
    suite: str,
    quick: bool,
    extras: Optional[Dict] = None,
) -> Path:
    """Shared JSON writer for every bench suite (schema v2 envelope)."""
    payload: Dict = {
        "schema": SCHEMA_VERSION,
        "suite": suite,
        "quick": quick,
        "git_commit": _git_commit(),
        "timestamp": _utc_timestamp(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "records": [asdict(record) for record in records],
    }
    if extras:
        payload.update(extras)
    path.write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
    return path


def write_bench(
    records: Sequence[BenchRecord],
    path: Union[str, Path, None] = None,
    quick: bool = False,
) -> Path:
    """Serialize a bench run to JSON; returns the path written."""
    target = Path(path) if path is not None else Path(BENCH_FILENAME)
    return write_payload(
        records,
        target,
        suite="simulator-engines",
        quick=quick,
        extras={
            "totals": {
                "seconds": sum(record.seconds for record in records),
                "messages": sum(record.messages for record in records),
                "events": sum(record.events for record in records),
            },
        },
    )
