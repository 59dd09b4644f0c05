"""Seeded RunSpec generators for the serve workloads.

The program under test only ever sees the specs built here.  Every
generator is a pure function of the workload seed: the same seed yields
the same specs, and therefore the same digests, in any process.

* :func:`warm_set` — the 64 plain specs ``serve_warm`` primes the
  gateway with and then replays;
* :func:`cold_batches` — an endless stream of 8-spec batches whose
  digests never repeat, for ``serve_cold``;
* :func:`engine_sample` — a fixed slice of the cold stream the traced
  run times ``execute`` on directly.
"""

from __future__ import annotations

import random
import threading
from typing import Any, Iterator, List, Sequence, Set, Tuple

from repro import RingConfiguration
from repro.runtime import RunSpec

#: The four engines, in the order every batch cycles through them.
ENGINES = ("sync", "sync-batch", "async", "async-synchronized")

#: Ring sizes span this closed range.
MIN_N, MAX_N = 12, 32

#: Specs per request.
BATCH = 8

#: Size of the replayed warm set.
WARM_SET = 64

#: Specs per engine the traced run times ``execute`` on directly.
SAMPLE_PER_ENGINE = 8


def make_spec(rng: random.Random, engine: str, n: int, record: bool = False) -> RunSpec:
    """One plain spec for ``engine`` on a random ring of size ``n``."""
    ring = RingConfiguration.random(n, rng, oriented=True)
    if engine == "sync":
        return RunSpec.make(
            engine="sync", ring=ring, algorithm="fig2-input-distribution", record=record
        )
    if engine == "sync-batch":
        return RunSpec.make(engine="sync-batch", ring=ring, algorithm="sync-and")
    if engine == "async":
        return RunSpec.make(
            engine="async",
            ring=ring,
            algorithm="input-distribution",
            scheduler="random",
            scheduler_seed=rng.randrange(2**31),
            record=record,
        )
    if engine == "async-synchronized":
        return RunSpec.make(
            engine="async-synchronized",
            ring=ring,
            algorithm="input-distribution",
            record=record,
        )
    raise ValueError(f"unknown engine {engine!r}")


def _deck(rng: random.Random, values: Sequence[Any]) -> Iterator[Any]:
    """Endless draws that use every value once per shuffled round.

    Sizes and recording choices come from decks rather than independent
    draws, so every seed gives a run the same mix of work and seeds
    differ only in which rings carry it.
    """
    deck = list(values)
    while True:
        rng.shuffle(deck)
        yield from list(deck)


def _fresh(rng: random.Random, seen: Set[str], engine: str, n: int,
           record: bool = False) -> RunSpec:
    """A spec whose digest is not in ``seen`` yet, which it then joins.

    Random rings at n=12 can collide, and a repeated digest would turn a
    cold spec into a warm one, so a collision redraws the ring.
    """
    while True:
        spec = make_spec(rng, engine, n, record)
        digest = spec.digest()
        if digest not in seen:
            seen.add(digest)
            return spec


def warm_set(seed: int) -> List[RunSpec]:
    """The 64 distinct plain specs of ``serve_warm``.

    Each engine gets 16 specs whose sizes spread evenly over
    ``[MIN_N, MAX_N]``.
    """
    rng = random.Random(f"perfbench-warm-{seed}")
    per_engine = WARM_SET // len(ENGINES)
    step = (MAX_N - MIN_N) / (per_engine - 1)
    sizes = [MIN_N + round(i * step) for i in range(per_engine)]
    columns = []
    for engine in ENGINES:
        rng.shuffle(sizes)
        columns.append([(engine, n) for n in sizes])
    seen: Set[str] = set()
    return [_fresh(rng, seen, engine, n) for row in zip(*columns) for engine, n in row]


def warm_batches(seed: int, specs: List[RunSpec]) -> Iterator[List[RunSpec]]:
    """Endless 8-spec requests drawn from the warm set."""
    rng = random.Random(f"perfbench-warm-requests-{seed}")
    while True:
        yield rng.sample(specs, BATCH)


def cold_batches(seed: int) -> Iterator[List[RunSpec]]:
    """Endless 8-spec requests, two per engine, every digest new.

    Three batches in four carry exactly one recorded spec, so one
    non-batch spec in eight records and no request records twice.  The
    recording engine and the recorded ring's size come from their own
    decks.
    """
    rng = random.Random(f"perfbench-cold-{seed}")
    span = range(MIN_N, MAX_N + 1)
    sizes = {engine: _deck(rng, span) for engine in ENGINES}
    recording = [engine for engine in ENGINES if engine != "sync-batch"]
    recorded_sizes = {engine: _deck(rng, span) for engine in recording}
    recorders = _deck(rng, recording)
    recorded_per_batch = _deck(rng, [1, 1, 1, 0])
    seen: Set[str] = set()
    while True:
        plan = [
            (engine, next(sizes[engine]), False)
            for _ in range(BATCH // len(ENGINES))
            for engine in ENGINES
        ]
        if next(recorded_per_batch):
            engine = next(recorders)
            plan[ENGINES.index(engine)] = (engine, next(recorded_sizes[engine]), True)
        yield [_fresh(rng, seen, *item) for item in plan]


def engine_sample(seed: int) -> List[RunSpec]:
    """The first :data:`SAMPLE_PER_ENGINE` cold specs of each engine,
    recording off."""
    specs: List[RunSpec] = []
    batches = cold_batches(seed)
    while len(specs) < SAMPLE_PER_ENGINE * len(ENGINES):
        specs.extend(spec.with_(record=False) for spec in next(batches))
    return specs


class BatchStream:
    """A batch iterator shared by the client threads of a closed loop.

    Hands out ``(sequence_index, batch)`` pairs under a lock, so the
    global request sequence is fixed by the seed whichever client
    happens to take which request.  ``limit`` ends the stream after that
    many batches (the traced pass replays an exact request count).
    """

    def __init__(self, batches: Iterator[List[RunSpec]], limit: int = -1) -> None:
        self._batches = batches
        self._limit = limit
        self._next = 0
        self._lock = threading.Lock()

    def take(self) -> Tuple[int, List[RunSpec]]:
        """The next batch, or ``(-1, [])`` once ``limit`` is reached."""
        with self._lock:
            if self._next == self._limit:
                return -1, []
            index = self._next
            self._next += 1
            return index, next(self._batches)
