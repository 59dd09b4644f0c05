"""Parallel, deterministic batch execution with result caching.

A :class:`Runner` maps batches of work over one long-lived process pool
(or in-process for ``jobs=1``) and guarantees **bit-identical results
regardless of worker count or completion order**.  The contract that
makes this possible:

* every task is a :class:`TaskCall` — a module-level function named by
  ``"module:attr"`` string plus picklable positional arguments.  Nothing
  about a task depends on shared state, ambient randomness, or which
  worker runs it;
* randomness is threaded through explicit seeds derived by
  :func:`derive_seed`, a pure function of string coordinates (it uses
  :class:`random.Random`'s string seeding, not ``hash()``, so it is
  stable across processes and ``PYTHONHASHSEED`` values);
* results are returned in submission order, so downstream assembly
  never observes completion order.

The pool (a fork-context :class:`~concurrent.futures.ProcessPoolExecutor`
with ``jobs`` workers) starts on the first parallel batch and lives until
:meth:`Runner.close` or the end of a ``with Runner(...)`` block, so every
batch after the first runs on warm workers.  Concurrent :meth:`Runner.map`
calls from several threads share it.  A worker that dies breaks the pool:
the runs in flight on it fail with
:class:`~concurrent.futures.process.BrokenProcessPool`, and the next batch
starts a fresh pool.

When the runner holds a :class:`~repro.runtime.cache.ResultCache`, tasks
carrying a ``cache_key`` are looked up before dispatch and stored after;
a warm cache answers a whole batch without spawning a single worker.
:meth:`Runner.run_specs` is the spec-batch entry point every harness
uses: one :class:`~repro.runtime.spec.RunSpec` per run, cached under
``spec.digest()``.
"""

from __future__ import annotations

import importlib
import json
import multiprocessing
import os
import random
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from hashlib import sha256
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from ..core.errors import ConfigurationError
from ..core.tracing import RunResult
from .cache import ResultCache, code_version
from .spec import RunSpec

_SEED_SPAN = 2**63


def derive_seed(*parts: Any) -> int:
    """A stable seed from arbitrary coordinates.

    Joins the parts with ``"|"`` and feeds the string to
    :class:`random.Random` (which hashes it with its own algorithm, not
    ``hash()``), so the result is a pure function of the parts —
    identical in every process, on every platform, for every
    ``PYTHONHASHSEED``.
    """
    key = "|".join(str(part) for part in parts)
    return random.Random(key).randrange(_SEED_SPAN)


def task_digest(*parts: Any) -> str:
    """A cache key for a non-spec task, versioned like spec digests.

    Mixes :func:`~repro.runtime.cache.code_version` into the same kind of
    content address :meth:`RunSpec.digest` produces, so cached task
    results are invalidated by source edits exactly like cached runs.
    """
    hasher = sha256()
    hasher.update(code_version().encode())
    for part in parts:
        hasher.update(repr(part).encode())
        hasher.update(b"\n")
    return hasher.hexdigest()


@dataclass(frozen=True)
class TaskCall:
    """One unit of work: an importable function plus picklable arguments.

    ``func`` is a ``"package.module:attribute"`` reference resolved inside
    the executing process — functions never cross the pickle boundary, so
    workers always run the code they imported themselves.
    """

    func: str
    args: Tuple[Any, ...] = ()
    cache_key: Optional[str] = None


def resolve(func_ref: str) -> Callable[..., Any]:
    """Resolve a ``"module:attr"`` reference to the callable it names."""
    module_name, sep, attr = func_ref.partition(":")
    if not sep or not attr:
        raise ConfigurationError(
            f"task reference {func_ref!r} must look like 'package.module:function'"
        )
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ConfigurationError(
            f"module {module_name!r} has no attribute {attr!r}"
        ) from None


def invoke(call: TaskCall) -> Any:
    """Execute one task call in the calling process."""
    return resolve(call.func)(*call.args)


def invoke_timed(call: TaskCall) -> Tuple[float, Any]:
    """Like :func:`invoke`, returning ``(wall_seconds, value)``.

    The task entry point, in-process and in pool workers alike: the
    timing rides back with the result so the parent never has to guess
    how long a worker actually spent.
    """
    start = time.perf_counter()
    value = resolve(call.func)(*call.args)
    return time.perf_counter() - start, value


def _exit_with_parent(parent: int) -> None:
    """Pool-worker initializer: end the worker once its parent is gone.

    A parent that is killed cannot shut its pool down, and an idle
    worker would wait on the task queue forever.  A daemon thread polls
    the parent pid and exits the worker within a second of the parent's
    death.
    """

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(1.0)
        os._exit(1)

    threading.Thread(target=watch, name="repro-parent-watch", daemon=True).start()


@dataclass(frozen=True)
class Sweep:
    """A named batch of specs — the declarative unit harnesses build.

    Purely a container: :meth:`run` hands the batch to a runner and
    returns results in spec order.
    """

    name: str
    specs: Tuple[RunSpec, ...]

    def __len__(self) -> int:
        return len(self.specs)

    def run(self, runner: "Runner") -> List[RunResult]:
        return runner.run_specs(self.specs)


class _Progress:
    """Stderr progress lines for one batch (opt-in via ``Runner.progress``).

    Writes only to stderr, so artifact bytes are untouched; the ETA is a
    naive remaining × mean-task-time / jobs estimate, recomputed as
    completions arrive.
    """

    def __init__(self, total: int, cached: int, jobs: int) -> None:
        self.total = total
        self.cached = cached
        self.jobs = max(1, jobs)
        self.done = cached
        self.task_seconds = 0.0
        if cached == total:
            self._line(eta=0.0)

    def advance(self, seconds: float) -> None:
        self.done += 1
        self.task_seconds += seconds
        executed = self.done - self.cached
        mean = self.task_seconds / executed if executed else 0.0
        remaining = self.total - self.done
        self._line(eta=mean * remaining / self.jobs)

    def _line(self, eta: float) -> None:
        print(
            f"[runner] {self.done}/{self.total} done "
            f"({self.cached} cached, eta {eta:.1f}s)",
            file=sys.stderr,
            flush=True,
        )


@dataclass
class Runner:
    """Executes task batches, optionally in parallel and/or cached.

    Attributes:
        jobs: worker processes; ``1`` (the default) runs in-process with
            zero pool overhead.  Results are identical either way.  With
            ``jobs > 1`` the pool outlives each batch: release it with
            :meth:`close` or by using the runner as a context manager.
        cache: optional on-disk result cache consulted for tasks that
            carry a ``cache_key``.
        progress: emit one-line progress reports to stderr as tasks
            complete (completed/total, cache hits, ETA).  Strictly
            advisory — artifacts stay bit-identical with it on or off,
            for every ``jobs`` value, because it only ever writes to
            stderr.
        executed: number of tasks actually run (cache hits excluded) —
            the observable that lets tests prove a hit skipped execution.
        batches: per-:meth:`map` telemetry records (task counts, cache
            hits, wall and cumulative task seconds) feeding
            :meth:`metrics_snapshot`.
    """

    jobs: int = 1
    cache: Optional[ResultCache] = None
    progress: bool = False
    executed: int = field(default=0, compare=False)
    batches: List[Dict[str, Any]] = field(default_factory=list, compare=False)
    _pool: Optional[ProcessPoolExecutor] = field(
        default=None, init=False, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, init=False, repr=False, compare=False
    )

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def close(self) -> None:
        """Stop the worker pool and flush the cache; the runner stays usable.

        Waits for tasks already running on the pool.  A later parallel
        batch starts a new pool.  Flushing persists the cache's counters
        and hit bumps that no batch recorded, such as a gateway's warm
        answers.
        """
        with self._lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        if self.cache is not None:
            with self._lock:
                self.cache.flush_counters()

    def map(self, calls: Sequence[TaskCall]) -> List[Any]:
        """Run a batch; results come back in submission order."""
        started = time.perf_counter()
        counters_before = (
            (self.cache.hits, self.cache.misses, self.cache.writes)
            if self.cache is not None
            else (0, 0, 0)
        )
        results: List[Any] = [None] * len(calls)
        pending: List[Tuple[int, TaskCall]] = []
        # In-batch dedup: a batch may name the same cache_key several
        # times (overlapping sweeps, repeated specs).  Each unique key is
        # dispatched once; the duplicates are fanned the shared result in
        # submission order.  Keys are required — without a cache there is
        # no content address to dedupe on.
        owner_of: Dict[str, int] = {}
        fanout: List[Tuple[int, int]] = []  # (duplicate index, owner index)
        cached = 0
        for index, call in enumerate(calls):
            if self.cache is not None and call.cache_key is not None:
                hit, value = self.cache.get(call.cache_key)
                if hit:
                    results[index] = value
                    cached += 1
                    continue
                owner = owner_of.get(call.cache_key)
                if owner is not None:
                    fanout.append((index, owner))
                    continue
                owner_of[call.cache_key] = index
            pending.append((index, call))

        deduped = len(fanout)
        task_seconds = 0.0
        completed = 0
        error: Optional[BaseException] = None
        if pending:
            reporter = (
                _Progress(len(calls), cached + deduped, self.jobs)
                if self.progress
                else None
            )
            # Results are stored — and cached — as outcomes arrive, not
            # after the whole batch: a task that fails mid-batch must not
            # discard the completed work before it (a retry would
            # re-execute results that were already in hand).  On an
            # error, the partial batch is still recorded (with an
            # ``"error"`` field) before re-raising, so telemetry never
            # under-counts a batch that half-happened.
            try:
                for (index, call), (seconds, value) in zip(
                    pending, self._outcomes([call for _, call in pending], reporter)
                ):
                    task_seconds += seconds
                    results[index] = value
                    completed += 1
                    if self.cache is not None and call.cache_key is not None:
                        self.cache.put(call.cache_key, value)
            except BaseException as exc:  # noqa: BLE001 - recorded, re-raised
                error = exc
        elif self.progress and calls:
            _Progress(len(calls), cached + deduped, self.jobs)
        # The erroring task itself did execute (it ran and raised).
        executed = completed + (1 if error is not None else 0)
        for index, owner in fanout:
            results[index] = results[owner]

        wall = time.perf_counter() - started
        batch: Dict[str, Any] = {
            "tasks": len(calls),
            "executed": executed,
            "cache_hits": cached,
            "deduped": deduped,
            "wall_seconds": wall,
            "task_seconds": task_seconds,
        }
        if error is not None:
            batch["error"] = repr(error)
        self._record(batch, executed, counters_before)
        if error is not None:
            if completed < len(pending):
                # Which submitted call failed — pending is consumed in
                # order, so it is the first not-yet-completed one.
                # run_specs uses this to raise the earliest-submitted
                # error across the batched/non-batched split.
                try:
                    error._repro_call_index = pending[completed][0]  # type: ignore[attr-defined]
                except (AttributeError, TypeError):  # pragma: no cover - exotic exc
                    pass
            raise error
        return results

    def _record(
        self, batch: Dict[str, Any], executed: int, counters_before: Tuple[int, int, int]
    ) -> None:
        """Append one batch's telemetry (thread-safe: maps may overlap)."""
        with self._lock:
            self.executed += executed
            if self.cache is not None:
                batch["cache"] = {
                    "hits": self.cache.hits - counters_before[0],
                    "misses": self.cache.misses - counters_before[1],
                    "writes": self.cache.writes - counters_before[2],
                }
                self.cache.flush_counters()
            self.batches.append(batch)

    def _outcomes(self, calls, reporter):
        """Yield ``(seconds, value)`` per call as each completes, in order."""
        outcomes = self._map_pool(calls) if self.jobs > 1 else map(invoke_timed, calls)
        for outcome in outcomes:
            if reporter is not None:
                reporter.advance(outcome[0])
            yield outcome

    def _map_pool(self, calls: List[TaskCall]):
        """Run ``calls`` on the shared pool, yielding outcomes in submission order.

        Every call is submitted up front, so workers never wait on this
        thread; results are yielded as the head of the line finishes,
        which lets :meth:`map` cache each result the moment it lands.
        Calls still queued when the batch stops early are cancelled.
        """
        pool, futures = self._submit(calls)
        try:
            for future in futures:
                yield future.result()
        except BrokenProcessPool:
            self._discard(pool)
            raise
        finally:
            for future in futures:
                future.cancel()

    def _submit(self, calls: List[TaskCall]):
        """Hand every call to the pool; returns ``(pool, futures)``."""
        pool = self._live_pool()
        try:
            return pool, [pool.submit(invoke_timed, call) for call in calls]
        except BrokenProcessPool:
            # The pool broke before or while this batch was handed over (a
            # worker died during an earlier batch): hand it all to a new one.
            self._discard(pool)
            pool = self._live_pool()
            return pool, [pool.submit(invoke_timed, call) for call in calls]

    def _live_pool(self) -> ProcessPoolExecutor:
        """The current pool, started on first use (fork, ``jobs`` workers)."""
        with self._lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("fork"),
                    initializer=_exit_with_parent,
                    initargs=(os.getpid(),),
                )
            return self._pool

    def _discard(self, pool: ProcessPoolExecutor) -> None:
        """Forget a broken pool (if still current) and reap its workers."""
        with self._lock:
            if self._pool is pool:
                self._pool = None
        pool.shutdown(wait=True, cancel_futures=True)

    def metrics_snapshot(self) -> Dict[str, Any]:
        """Aggregate sweep telemetry as a JSON-able dict.

        Totals over every batch this runner mapped: task and cache
        counts, wall versus cumulative in-task seconds, and pool
        utilization (task seconds per wall second per worker — 1.0 means
        every worker was busy the whole time).
        """
        tasks = sum(batch["tasks"] for batch in self.batches)
        executed = sum(batch["executed"] for batch in self.batches)
        cache_hits = sum(batch["cache_hits"] for batch in self.batches)
        deduped = sum(batch.get("deduped", 0) for batch in self.batches)
        wall = sum(batch["wall_seconds"] for batch in self.batches)
        task_seconds = sum(batch["task_seconds"] for batch in self.batches)
        snapshot: Dict[str, Any] = {
            "jobs": self.jobs,
            "batches": len(self.batches),
            "tasks": tasks,
            "executed": executed,
            "cache_hits": cache_hits,
            "deduped": deduped,
            "wall_seconds": wall,
            "task_seconds": task_seconds,
            "mean_task_seconds": (task_seconds / executed) if executed else None,
            "pool_utilization": (
                task_seconds / (wall * self.jobs) if wall > 0 else None
            ),
        }
        if self.cache is not None:
            snapshot["cache"] = {
                name: sum(batch.get("cache", {}).get(name, 0) for batch in self.batches)
                for name in ("hits", "misses", "writes")
            }
        return snapshot

    def write_metrics(self, path: Union[str, Path]) -> Path:
        """Write :meth:`metrics_snapshot` as JSON (the ``METRICS.json`` file)."""
        target = Path(path)
        target.write_text(json.dumps(self.metrics_snapshot(), indent=2) + "\n")
        return target

    def run_specs(self, specs: Sequence[RunSpec]) -> List[RunResult]:
        """Execute a spec batch through :func:`repro.runtime.spec.execute`.

        Each spec is cached under its own content digest, so a re-run of
        an overlapping batch only executes the novel specs.

        ``engine="sync-batch"`` specs take the vectorized fast path: all
        compatible specs of the batch are grouped into one
        :func:`repro.batch.engine.run_batch` call (one struct-of-arrays
        program stepping every run together) instead of one task each.
        Results are byte-identical to the per-spec path, cached under the
        same digests, and come back in submission order either way.

        On failures the earliest-submitted spec's error is raised, even
        when the failures straddle the batched/non-batched split: both
        halves run to completion (so every completed result still lands
        in the cache) before the winner is chosen by submission index.
        """
        specs = list(specs)
        batched = [index for index, spec in enumerate(specs) if spec.engine == "sync-batch"]
        if not batched:
            return self.map(self._spec_calls(specs))
        results: List[Any] = [None] * len(specs)
        rest = [(index, spec) for index, spec in enumerate(specs) if spec.engine != "sync-batch"]
        errors: List[Tuple[int, BaseException]] = []
        if rest:
            try:
                values = self.map(self._spec_calls([spec for _, spec in rest]))
            except Exception as exc:
                call_index = getattr(exc, "_repro_call_index", 0)
                errors.append((rest[call_index][0], exc))
            else:
                for (index, _), value in zip(rest, values):
                    results[index] = value
        failure = self._run_batched(
            [(index, specs[index]) for index in batched], results
        )
        if failure is not None:
            errors.append(failure)
        if errors:
            raise min(errors, key=lambda item: item[0])[1]
        return results

    def _spec_calls(self, specs: Sequence[RunSpec]) -> List[TaskCall]:
        return [
            TaskCall(
                func="repro.runtime.spec:execute",
                args=(spec,),
                cache_key=spec.digest() if self.cache is not None else None,
            )
            for spec in specs
        ]

    def _run_batched(
        self, items: Sequence[Tuple[int, RunSpec]], results: List[Any]
    ) -> Optional[Tuple[int, BaseException]]:
        """Run ``sync-batch`` specs as grouped array programs.

        Mirrors :meth:`map`'s cache protocol and telemetry exactly: get
        before dispatch, put after, dedupe identical digests within the
        batch, keep ``executed`` truthful (one per spec actually run —
        the vectorized call is an implementation detail, not a task
        count).  On per-run failures the earliest submitted error is
        returned as ``(submission_index, error)`` — not raised — so
        :meth:`run_specs` can weigh it against the non-batch half's
        error and raise whichever spec was submitted first.  Successful
        runs of a failing batch are stored in the cache regardless.
        """
        from ..batch.engine import run_batch_outcomes

        started = time.perf_counter()
        counters_before = (
            (self.cache.hits, self.cache.misses, self.cache.writes)
            if self.cache is not None
            else (0, 0, 0)
        )
        pending: List[Tuple[int, RunSpec, Optional[str]]] = []
        owner_of: Dict[str, int] = {}
        fanout: List[Tuple[int, int]] = []
        cached = 0
        for index, spec in items:
            key = spec.digest() if self.cache is not None else None
            if key is not None:
                hit, value = self.cache.get(key)
                if hit:
                    results[index] = value
                    cached += 1
                    continue
                owner = owner_of.get(key)
                if owner is not None:
                    fanout.append((index, owner))
                    continue
                owner_of[key] = index
            pending.append((index, spec, key))

        failure: Optional[Tuple[int, BaseException]] = None
        if pending:
            outcomes = run_batch_outcomes([spec for _, spec, _ in pending])
            for (index, spec, key), outcome in zip(pending, outcomes):
                if isinstance(outcome, BaseException):
                    if failure is None:
                        failure = (index, outcome)
                    continue
                results[index] = outcome
                if key is not None:
                    self.cache.put(key, outcome)
        for index, owner in fanout:
            results[index] = results[owner]

        wall = time.perf_counter() - started
        batch: Dict[str, Any] = {
            "tasks": len(items),
            "executed": len(pending),
            "cache_hits": cached,
            "deduped": len(fanout),
            "wall_seconds": wall,
            "task_seconds": wall if pending else 0.0,
        }
        if failure is not None:
            batch["error"] = repr(failure[1])
        self._record(batch, len(pending), counters_before)
        return failure

    def run_sweep(self, sweep: Sweep) -> List[RunResult]:
        return self.run_specs(sweep.specs)
