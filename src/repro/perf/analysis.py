"""The analysis benchmark suite behind ``python -m repro bench --suite analysis``.

Where :mod:`repro.perf.bench` tracks the simulator *engines*, this suite
tracks the lower-bound *analysis* hot paths: symmetry-index profiles,
fooling-pair verification, and shared-neighborhood witness search.  Each
workload is measured twice — through the prefix-doubling equivalence
engine (:mod:`repro.core.equivalence`) and through the naive §2 tuple
path — at every size both can afford, so ``BENCH_analysis.json`` pins
the speedup PR over PR alongside ``BENCH_simulators.json``.

Every engine/naive record pair at the same ``(workload, n)`` must agree
on an implementation-independent ``checksum`` (a fingerprint of the
computed profile / witness count); :func:`run_analysis_bench` raises if
they ever diverge, so the artifact doubles as a correctness check.

Engine workloads deliberately construct a fresh
:class:`~repro.core.equivalence.EquivalenceEngine` per repeat — the
timings include the full prefix-doubling build, not a warm cache.
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.equivalence import EquivalenceEngine
from ..core.neighborhood import (
    naive_shared_neighborhood_pairs,
    naive_symmetry_profile,
    naive_symmetry_profile_set,
)
from ..core.ring import RingConfiguration
from ..runtime.runner import Runner, TaskCall, task_digest
from .bench import write_payload

#: Default output file, written to the current working directory.
ANALYSIS_FILENAME = "BENCH_analysis.json"

_SEED = 0x51

#: Radius cap for full symmetry profiles: matches the §7 ``alpha_cap``.
def profile_radius(n: int) -> int:
    """The profile sweep depth used by the symmetry workloads."""
    return n // 8


@dataclass(frozen=True)
class AnalysisRecord:
    """One (workload, impl, n) measurement.

    ``checksum`` fingerprints the computed result; engine and naive
    records at the same ``(workload, n)`` must agree on it.
    ``cells_per_sec`` is throughput in nominal neighborhood-radius cells
    ``n·(max_k+1)`` — the unit the naive path pays per tuple element.
    """

    workload: str
    impl: str
    n: int
    max_k: int
    repeats: int
    seconds: float
    checksum: int
    cells_per_sec: float


@dataclass(frozen=True)
class AnalysisWorkload:
    """A named analysis workload swept over ring sizes.

    Attributes:
        name: stable identifier shared by the engine/naive twins.
        impl: ``engine`` or ``naive``.
        run: executes the workload at size ``n``; returns
            ``(checksum, max_k)``.
        sizes: the full ``n``-sweep (naive twins sweep less far).
        quick_sizes: the trimmed sweep used by ``--quick`` / CI smoke.
    """

    name: str
    impl: str
    run: Callable[[int], Tuple[int, int]]
    sizes: Tuple[int, ...]
    quick_sizes: Tuple[int, ...]


# ----------------------------------------------------------------------
# workload inputs (deterministic across runs)
# ----------------------------------------------------------------------


def _mixed_ring(n: int) -> RingConfiguration:
    """A pseudo-random ring with mixed orientations (stable across runs)."""
    return RingConfiguration.random(n, random.Random(_SEED + n), oriented=False)


def _structured_ring(n: int) -> RingConfiguration:
    """The §6.3.1 homomorphism string ``h^k(0)`` at ``n = 3^k``."""
    from ..homomorphisms.catalog import XOR_UNIFORM

    k = round(math.log(n, 3))
    if 3**k != n:
        raise ValueError(f"structured workload needs n = 3^k, got {n}")
    return RingConfiguration.from_string(XOR_UNIFORM.iterate("0", k))


def _fooling_rings(n: int) -> Tuple[RingConfiguration, RingConfiguration, int]:
    """The §6.3.1 XOR fooling-pair rings and their radius α at ``n = 3^k``."""
    from ..homomorphisms.catalog import XOR_UNIFORM

    k = round(math.log(n, 3))
    if 3**k != n:
        raise ValueError(f"fooling workload needs n = 3^k, got {n}")
    ring_a = RingConfiguration.from_string(XOR_UNIFORM.iterate("0", k))
    ring_b = RingConfiguration.from_string(XOR_UNIFORM.iterate("1", k))
    return ring_a, ring_b, (n // 9 - 1) // 2


def _witness_rings(n: int) -> Tuple[RingConfiguration, RingConfiguration, int]:
    """The Figure 6 pair (oriented zeros vs half-reversed) and radius α."""
    return (
        RingConfiguration.oriented((0,) * n),
        RingConfiguration.half_reversed(n),
        (n - 2) // 4,
    )


def _profile_checksum(profile: Dict[int, int]) -> int:
    return sum((k + 1) * si for k, si in profile.items())


# ----------------------------------------------------------------------
# workload bodies
# ----------------------------------------------------------------------


def _run_profile_engine(ring: RingConfiguration, max_k: int) -> Tuple[int, int]:
    profile = EquivalenceEngine([ring]).symmetry_profile(max_k)
    return _profile_checksum(profile), max_k


def _run_profile_random_engine(n: int) -> Tuple[int, int]:
    return _run_profile_engine(_mixed_ring(n), profile_radius(n))


def _run_profile_random_naive(n: int) -> Tuple[int, int]:
    max_k = profile_radius(n)
    return _profile_checksum(naive_symmetry_profile(_mixed_ring(n), max_k)), max_k


def _run_profile_structured_engine(n: int) -> Tuple[int, int]:
    return _run_profile_engine(_structured_ring(n), profile_radius(n))


def _run_profile_structured_naive(n: int) -> Tuple[int, int]:
    max_k = profile_radius(n)
    return (
        _profile_checksum(naive_symmetry_profile(_structured_ring(n), max_k)),
        max_k,
    )


def _run_fooling_engine(n: int) -> Tuple[int, int]:
    ring_a, ring_b, alpha = _fooling_rings(n)
    engine = EquivalenceEngine([ring_a, ring_b])
    witness = engine.first_witness(alpha)
    profile = engine.symmetry_profile(alpha)
    return _profile_checksum(profile) + (1 if witness is not None else 0), alpha


def _run_fooling_naive(n: int) -> Tuple[int, int]:
    ring_a, ring_b, alpha = _fooling_rings(n)
    table = {ring_b.neighborhood(j, alpha) for j in range(ring_b.n)}
    witness = any(ring_a.neighborhood(i, alpha) in table for i in range(ring_a.n))
    profile = naive_symmetry_profile_set([ring_a, ring_b], alpha)
    return _profile_checksum(profile) + (1 if witness else 0), alpha


def _run_witness_engine(n: int) -> Tuple[int, int]:
    ring_a, ring_b, alpha = _witness_rings(n)
    engine = EquivalenceEngine([ring_a, ring_b])
    count = sum(1 for _ in engine.witness_pairs(alpha))
    return count, alpha


def _run_witness_naive(n: int) -> Tuple[int, int]:
    ring_a, ring_b, alpha = _witness_rings(n)
    count = sum(1 for _ in naive_shared_neighborhood_pairs(ring_a, ring_b, alpha))
    return count, alpha


def default_analysis_workloads() -> Tuple[AnalysisWorkload, ...]:
    """The fixed analysis suite (order and names are part of the contract).

    Naive sweeps stop earlier than engine sweeps on purpose: the naive
    path at the engine's top sizes would take minutes per point.  The
    committed artifact's ``speedups`` block compares the shared sizes.
    """
    return (
        AnalysisWorkload(
            name="symmetry_profile",
            impl="engine",
            run=_run_profile_random_engine,
            sizes=(64, 256, 1024, 2048),
            quick_sizes=(64, 256),
        ),
        AnalysisWorkload(
            name="symmetry_profile",
            impl="naive",
            run=_run_profile_random_naive,
            sizes=(64, 256, 1024),
            quick_sizes=(64,),
        ),
        AnalysisWorkload(
            name="symmetry_profile_structured",
            impl="engine",
            run=_run_profile_structured_engine,
            sizes=(243, 729, 2187),
            quick_sizes=(243,),
        ),
        AnalysisWorkload(
            name="symmetry_profile_structured",
            impl="naive",
            run=_run_profile_structured_naive,
            sizes=(243, 729),
            quick_sizes=(243,),
        ),
        AnalysisWorkload(
            name="fooling_verification",
            impl="engine",
            run=_run_fooling_engine,
            sizes=(243, 729, 2187),
            quick_sizes=(243,),
        ),
        AnalysisWorkload(
            name="fooling_verification",
            impl="naive",
            run=_run_fooling_naive,
            sizes=(243, 729),
            quick_sizes=(243,),
        ),
        AnalysisWorkload(
            name="witness_pairs",
            impl="engine",
            run=_run_witness_engine,
            sizes=(255, 1023, 2047),
            quick_sizes=(255,),
        ),
        AnalysisWorkload(
            name="witness_pairs",
            impl="naive",
            run=_run_witness_naive,
            sizes=(255, 1023),
            quick_sizes=(255,),
        ),
    )


def measure_analysis(
    workload: AnalysisWorkload, n: int, repeats: int
) -> AnalysisRecord:
    """Run one workload at one size, keeping the best wall time."""
    best = float("inf")
    outcome: Optional[Tuple[int, int]] = None
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        outcome = workload.run(n)
        best = min(best, time.perf_counter() - start)
    assert outcome is not None
    checksum, max_k = outcome
    cells = n * (max_k + 1)
    return AnalysisRecord(
        workload=workload.name,
        impl=workload.impl,
        n=n,
        max_k=max_k,
        repeats=max(1, repeats),
        seconds=best,
        checksum=checksum,
        cells_per_sec=cells / max(best, 1e-9),
    )


def measure_analysis_named(name: str, impl: str, n: int, repeats: int) -> AnalysisRecord:
    """Measure one default workload by (name, impl) — the pool-worker entry."""
    named = {(w.name, w.impl): w for w in default_analysis_workloads()}
    return measure_analysis(named[(name, impl)], n, repeats)


def run_analysis_bench(
    quick: bool = False,
    repeats: Optional[int] = None,
    workloads: Optional[Sequence[AnalysisWorkload]] = None,
    jobs: int = 1,
    runner: Optional[Runner] = None,
) -> List[AnalysisRecord]:
    """Run the suite; ``quick`` trims sweeps for CI smoke runs.

    ``repeats`` defaults to 1 in quick mode and 2 otherwise (the naive
    points dominate the runtime).  ``jobs`` fans the (workload, n) grid
    across a process pool — the naive points no longer serialize behind
    each other; custom workload lists carry arbitrary callables and run
    in-process.  Raises if an engine/naive pair at the same
    ``(workload, n)`` disagrees on its checksum.
    """
    if runner is None:
        with Runner(jobs=jobs) as owned:
            return run_analysis_bench(quick, repeats, workloads, runner=owned)
    if repeats is None:
        repeats = 1 if quick else 2
    named = {(w.name, w.impl): w for w in default_analysis_workloads()}
    chosen = tuple(workloads) if workloads is not None else tuple(named.values())
    grid: List[Tuple[AnalysisWorkload, int]] = []
    for workload in chosen:
        sweep = workload.quick_sizes if quick else workload.sizes
        grid.extend((workload, n) for n in sweep)
    if all(named.get((w.name, w.impl)) == w for w, _ in grid):
        calls = [
            TaskCall(
                func="repro.perf.analysis:measure_analysis_named",
                args=(w.name, w.impl, n, repeats),
                cache_key=task_digest("analysis-bench", w.name, w.impl, n, repeats),
            )
            for w, n in grid
        ]
        records = list(runner.map(calls))
    else:
        records = [measure_analysis(w, n, repeats) for w, n in grid]
    _cross_check(records)
    return records


def _cross_check(records: Sequence[AnalysisRecord]) -> None:
    by_point: Dict[Tuple[str, int], Dict[str, AnalysisRecord]] = {}
    for record in records:
        by_point.setdefault((record.workload, record.n), {})[record.impl] = record
    for (name, n), impls in by_point.items():
        if "engine" in impls and "naive" in impls:
            if impls["engine"].checksum != impls["naive"].checksum:
                raise AssertionError(
                    f"{name} n={n}: engine checksum {impls['engine'].checksum} "
                    f"!= naive checksum {impls['naive'].checksum}"
                )


def analysis_speedups(records: Sequence[AnalysisRecord]) -> Dict[str, float]:
    """``naive_seconds / engine_seconds`` per shared ``(workload, n)`` point."""
    by_point: Dict[Tuple[str, int], Dict[str, AnalysisRecord]] = {}
    for record in records:
        by_point.setdefault((record.workload, record.n), {})[record.impl] = record
    speedups: Dict[str, float] = {}
    for (name, n), impls in sorted(by_point.items()):
        if "engine" in impls and "naive" in impls:
            engine_seconds = max(impls["engine"].seconds, 1e-9)
            speedups[f"{name}/n={n}"] = impls["naive"].seconds / engine_seconds
    return speedups


def render_analysis_table(records: Sequence[AnalysisRecord]) -> str:
    """A human-readable summary of an analysis bench run."""
    lines = [
        f"{'workload':<30} {'impl':<7} {'n':>5} {'max_k':>6} {'seconds':>9} {'cells/s':>12}",
        "-" * 74,
    ]
    for record in records:
        lines.append(
            f"{record.workload:<30} {record.impl:<7} {record.n:>5} "
            f"{record.max_k:>6} {record.seconds:>9.4f} {record.cells_per_sec:>12.0f}"
        )
    return "\n".join(lines)


def write_analysis_bench(
    records: Sequence[AnalysisRecord],
    path: Union[str, Path, None] = None,
    quick: bool = False,
) -> Path:
    """Serialize an analysis bench run to JSON; returns the path written."""
    target = Path(path) if path is not None else Path(ANALYSIS_FILENAME)
    return write_payload(
        records,
        target,
        suite="symmetry-analysis",
        quick=quick,
        extras={
            "speedups": analysis_speedups(records),
            "totals": {"seconds": sum(record.seconds for record in records)},
        },
    )
