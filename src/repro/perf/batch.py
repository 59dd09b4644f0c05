"""The batch-engine throughput suite behind ``python -m repro bench --suite batch``.

The :mod:`repro.batch` engine exists for one reason — to make batch-shaped
analysis (n-sweeps, seed sweeps, fuzz corpora) cheap — so its benchmark is
batch-shaped too: each measurement runs a *batch* of B rings through one
:func:`repro.batch.engine.run_batch` call and compares the events/sec
against :func:`repro.sync.simulator.run_synchronous` stepping the same
specs one coroutine at a time.  The generator side is measured on a small
subset of the batch (running all B rings through the generator at
``n=1024`` would dominate the suite's wall time) and the rate is
extrapolated — honest, because the generator's per-run cost is
independent of how many other runs exist.

"Events" is the synchronous engine's usual unit: ``n × cycles`` per run,
summed over the batch.  The headline number is ``speedup`` =
``batch_events_per_sec / sync_events_per_sec``.  The stated floors, 50×
for the unit-bits originals (``sync_and``, ``start_sync``) and a 10×
geomean for the token-carrying Figure 2 family and the election
baseline (whose per-cycle interning is inherently heavier), are not
enforced, and the generator side got faster once idle processors stopped
being resumed: ``docs/batch.md`` lists where the committed grid misses
them and why.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..batch.engine import run_batch
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..runtime.spec import RunSpec, execute
from ..sync.wakeup import WakeupSchedule
from .bench import write_payload

#: Default output file, written to the current working directory.
BATCH_FILENAME = "BENCH_batch.json"


@dataclass(frozen=True)
class BatchBenchRecord:
    """One (workload, n) batch-vs-generator comparison.

    ``events`` counts the whole batch; ``sync_events_per_sec`` is measured
    on ``sync_runs`` of the batch's specs and is a per-run rate, directly
    comparable because generator runs are independent.
    """

    workload: str
    n: int
    batch_runs: int
    events: int
    messages: int
    bits: int
    batch_seconds: float
    batch_events_per_sec: float
    sync_runs: int
    sync_seconds: float
    sync_events_per_sec: float
    speedup: float


def _events(result: RunResult) -> int:
    return result.n * max(1, result.cycles or 0)


def sync_and_specs(n: int, batch: int) -> List[RunSpec]:
    """``batch`` single-zero AND rings at size ``n``, zero position rotating.

    The single zero is the algorithm's worst case (the announcement wave
    crosses the whole ring) and rotating its position makes every spec a
    distinct cache key without changing the workload's cost.
    """
    specs = []
    for row in range(batch):
        inputs = [1] * n
        inputs[row % n] = 0
        ring = RingConfiguration.oriented(tuple(inputs))
        specs.append(RunSpec(algorithm="sync-and", ring=ring, engine="sync-batch"))
    return specs


def start_sync_specs(n: int, batch: int) -> List[RunSpec]:
    """``batch`` staggered-wakeup start-sync rings at size ``n``.

    A lone early waker makes the election run its full ``log`` rounds;
    rotating the waker varies the specs without changing the cost.
    """
    specs = []
    for row in range(batch):
        times = [1] * n
        times[row % n] = 0
        ring = RingConfiguration.oriented(tuple(0 for _ in range(n)))
        wakeup = WakeupSchedule.from_times(times)
        specs.append(
            RunSpec(
                algorithm="start-sync",
                ring=ring,
                engine="sync-batch",
                wakeup=tuple(wakeup.times),
            )
        )
    return specs


def sync_and_sparse_specs(n: int, batch: int) -> List[RunSpec]:
    """Large-``n`` AND rings with a zero every 16 positions.

    The announcement wave only has to cross one 16-gap, so cycles stay
    O(16) however large ``n`` grows — which is what lets this workload
    push ``n`` to 10^5–10^6 lanes while the per-cycle cost (the thing the
    vectorized engine amortizes) scales with ``batch × n``.  The zero
    pattern rotates per row to keep every spec a distinct cache key.
    """
    specs = []
    for row in range(batch):
        inputs = [1] * n
        for position in range(row % 16, n, 16):
            inputs[position] = 0
        ring = RingConfiguration.oriented(tuple(inputs))
        specs.append(RunSpec(algorithm="sync-and", ring=ring, engine="sync-batch"))
    return specs


def fig2_specs(n: int, batch: int) -> List[RunSpec]:
    """Figure 2 input distribution on seeded random-bit oriented rings.

    Random inputs make the elimination tournament run its expected
    ``O(log n)`` rounds (uniform inputs would collapse it to one), so
    the token-table interning path is exercised for real.
    """
    return [
        RunSpec(
            algorithm="fig2-input-distribution",
            ring=_random_bit_ring(n, row),
            engine="sync-batch",
        )
        for row in range(batch)
    ]


def fig2_uni_specs(n: int, batch: int) -> List[RunSpec]:
    """The unidirectional Figure 2 variant on the same rings as ``fig2``."""
    return [
        RunSpec(
            algorithm="fig2-unidirectional",
            ring=_random_bit_ring(n, row),
            engine="sync-batch",
        )
        for row in range(batch)
    ]


def quasi_orientation_specs(n: int, batch: int) -> List[RunSpec]:
    """Figure 4 quasi-orientation on seeded random-orientation rings."""
    specs = []
    for row in range(batch):
        rng = random.Random(f"quasi|{n}|{row}")
        ring = RingConfiguration(
            inputs=(0,) * n,
            orientations=tuple(rng.randint(0, 1) for _ in range(n)),
        )
        specs.append(
            RunSpec(algorithm="quasi-orientation", ring=ring, engine="sync-batch")
        )
    return specs


def chang_roberts_sync_specs(n: int, batch: int) -> List[RunSpec]:
    """Synchronous Chang-Roberts on counter-clockwise-decreasing labels.

    Decreasing labels are the classic worst case — every candidacy
    travels until it meets the maximum — so the generator side pays the
    full quadratic message bill the batch engine amortizes.  The
    rotation varies the specs without changing the cost.
    """
    specs = []
    for row in range(batch):
        labels = tuple((n - 1 - i + row) % n for i in range(n))
        ring = RingConfiguration.oriented(labels)
        specs.append(
            RunSpec(algorithm="chang-roberts-sync", ring=ring, engine="sync-batch")
        )
    return specs


def _random_bit_ring(n: int, row: int) -> RingConfiguration:
    rng = random.Random(f"fig2|{n}|{row}")
    return RingConfiguration.oriented(tuple(rng.randint(0, 1) for _ in range(n)))


#: Workload name -> spec builder.  Adding a workload is one entry here
#: plus one `_GRID` row.
WORKLOADS: Dict[str, Callable[[int, int], List[RunSpec]]] = {
    "sync_and": sync_and_specs,
    "sync_and_sparse": sync_and_sparse_specs,
    "start_sync": start_sync_specs,
    "fig2": fig2_specs,
    "fig2_uni": fig2_uni_specs,
    "quasi_orientation": quasi_orientation_specs,
    "chang_roberts_sync": chang_roberts_sync_specs,
}


def measure_batch(
    workload: str,
    n: int,
    batch: int,
    sync_runs: int,
    repeats: int = 1,
) -> BatchBenchRecord:
    """One comparison: a B-run batch call vs ``sync_runs`` generator runs."""
    specs = WORKLOADS[workload](n, batch)

    best_batch = float("inf")
    results: List[RunResult] = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        results = run_batch(specs)
        best_batch = min(best_batch, time.perf_counter() - start)

    sync_runs = min(sync_runs, len(specs))
    best_sync = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        sync_results = [
            execute(replace(spec, engine="sync")) for spec in specs[:sync_runs]
        ]
        best_sync = min(best_sync, time.perf_counter() - start)

    events = sum(_events(result) for result in results)
    sync_events = sum(_events(result) for result in sync_results)
    batch_rate = events / max(best_batch, 1e-9)
    sync_rate = sync_events / max(best_sync, 1e-9)
    return BatchBenchRecord(
        workload=workload,
        n=n,
        batch_runs=len(specs),
        events=events,
        messages=sum(result.stats.messages for result in results),
        bits=sum(result.stats.bits for result in results),
        batch_seconds=best_batch,
        batch_events_per_sec=batch_rate,
        sync_runs=sync_runs,
        sync_seconds=best_sync,
        sync_events_per_sec=sync_rate,
        speedup=batch_rate / max(sync_rate, 1e-9),
    )


@dataclass(frozen=True)
class _GridRow:
    """One workload's sweep: sizes, batch widths, generator sample size.

    ``repeats`` (when set) caps the row's best-of repeats regardless of
    the suite-level default — the n=10^6 row's generator sample alone
    takes ~45s, so repeating it three times buys nothing but wall time.
    """

    workload: str
    sizes: Tuple[int, ...]
    quick_sizes: Tuple[int, ...]
    batch: int
    quick_batch: int
    sync_runs: int
    repeats: Optional[int] = None


_GRID: Tuple[_GridRow, ...] = (
    _GridRow("sync_and", (1024, 2048), (64, 128), 64, 16, 4),
    # The large-n unit-bits sweep: a zero every 16 positions keeps cycle
    # counts O(16), so lanes — the thing vectorization amortizes — can
    # scale to 10^5 and 10^6 without the suite's wall time exploding.
    _GridRow("sync_and_sparse", (100_000,), (100_000,), 16, 4, 1),
    _GridRow("sync_and_sparse", (1_000_000,), (), 4, 4, 1, repeats=1),
    _GridRow("start_sync", (256, 512), (32,), 64, 16, 4),
    _GridRow("fig2", (128, 256), (32,), 32, 8, 2),
    _GridRow("fig2_uni", (128, 256), (32,), 32, 8, 2),
    _GridRow("quasi_orientation", (256, 512), (32,), 32, 8, 2),
    _GridRow("chang_roberts_sync", (512, 1024), (64,), 64, 16, 2),
)


def run_batch_bench(
    quick: bool = False, repeats: Optional[int] = None
) -> List[BatchBenchRecord]:
    """Run the suite; ``quick`` trims sweeps and batches for CI smoke runs."""
    if repeats is None:
        repeats = 1 if quick else 3
    records = []
    for row in _GRID:
        for n in row.quick_sizes if quick else row.sizes:
            records.append(
                measure_batch(
                    row.workload,
                    n,
                    row.quick_batch if quick else row.batch,
                    row.sync_runs,
                    repeats=min(repeats, row.repeats) if row.repeats else repeats,
                )
            )
    return records


def render_batch_table(records: Sequence[BatchBenchRecord]) -> str:
    """A human-readable summary of a batch bench run."""
    lines = [
        f"{'workload':<19} {'n':>8} {'runs':>5} {'batch ev/s':>12} "
        f"{'sync ev/s':>12} {'speedup':>9}",
        "-" * 70,
    ]
    for record in records:
        lines.append(
            f"{record.workload:<19} {record.n:>8} {record.batch_runs:>5} "
            f"{record.batch_events_per_sec:>12.0f} "
            f"{record.sync_events_per_sec:>12.0f} {record.speedup:>8.1f}x"
        )
    return "\n".join(lines)


def write_batch_bench(
    records: Sequence[BatchBenchRecord],
    path: Union[str, Path, None] = None,
    quick: bool = False,
) -> Path:
    """Serialize a batch bench run to JSON (schema v2 envelope)."""
    target = Path(path) if path is not None else Path(BATCH_FILENAME)
    speedups = [record.speedup for record in records]

    def _geomean(values: Sequence[float]) -> float:
        return math.exp(sum(math.log(v) for v in values) / len(values))

    per_workload: Dict[str, List[float]] = {}
    for record in records:
        per_workload.setdefault(record.workload, []).append(record.speedup)
    return write_payload(
        records,
        target,
        suite="batch-engine",
        quick=quick,
        extras={
            "speedup": {
                "min": min(speedups),
                "max": max(speedups),
                "geomean": _geomean(speedups),
                "per_workload": {
                    name: _geomean(values)
                    for name, values in sorted(per_workload.items())
                },
            },
        },
    )
