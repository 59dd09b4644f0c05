"""The gateway core: warm answers, a bounded set of cold jobs, one Runner.

The data path, independent of HTTP:

1. :meth:`Gateway.submit` digests every spec of a batch and answers warm
   digests straight from the shared cache (no execution, no queueing).
   A cold digest that is already in flight — from this batch or from
   another request — shares that job instead of running again.  The
   remaining cold specs become new jobs, or the whole batch is refused
   with :class:`QueueFull` when they would not fit under
   ``queue_limit`` (the HTTP layer turns that into ``429 Retry-After``).
2. The batch's new jobs go straight to the gateway's
   :class:`~repro.runtime.runner.Runner` as one :meth:`Runner.map` call on
   a worker thread.  Concurrent requests share the runner's long-lived
   worker pool, so a request never waits for another request's batch to
   finish before its own specs start (same determinism contract, same
   telemetry as any local sweep).
3. Workers return each result already encoded
   (:func:`~repro.serve.protocol.encode_run`: pickle bytes and summary;
   a recorded run's event log rides inside the pickle).  The gateway
   stores the worker's pickle bytes in the cache under the spec digest —
   so the *next* tenant asking for the same spec is a warm answer — and
   each job's future resolves to the encoded run, which is what the
   streaming HTTP response awaits.  No cold result is unpickled or re-pickled
   here; a warm hit is encoded from the cached result as it is streamed.

Failures stay per-job: a failing spec resolves its future with a
:class:`RunError` and is never cached; its batchmates are unaffected
(see :mod:`repro.serve.worker`).  A worker process that dies breaks the
runner's pool: every job of the batches then in flight fails with a
:class:`RunError`, nothing of them is cached, and the next batch runs on
a fresh pool.
"""

from __future__ import annotations

import asyncio
import pickle
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set

from ..runtime.cache import ResultCache
from ..runtime.runner import Runner, TaskCall
from ..runtime.spec import RunSpec
from .protocol import EncodedRun
from .worker import ERR, OK


class QueueFull(RuntimeError):
    """The gateway cannot accept a submission's cold jobs right now.

    Attributes:
        pending: cold specs currently in flight.
        limit: the queue bound.
        retry_after: advisory seconds before a retry is likely to fit.
    """

    def __init__(self, pending: int, limit: int, retry_after: int) -> None:
        super().__init__(
            f"job queue full ({pending} pending, limit {limit}); "
            f"retry in ~{retry_after}s"
        )
        self.pending = pending
        self.limit = limit
        self.retry_after = retry_after


class RunError(RuntimeError):
    """One submitted spec failed to execute (carries the worker's message)."""


@dataclass
class RunEntry:
    """One spec of a submitted batch, as the stream renderer consumes it.

    ``status`` is ``"cached"`` (warm answer, ``result`` is the cached
    result) or ``"queued"`` (``future`` resolves to the worker's
    :class:`EncodedRun`, or to :class:`RunError`).  Entries for the same
    cold digest share one future, within a batch and across concurrent
    batches.
    """

    index: int
    digest: str
    status: str
    result: Any = None
    future: Optional["asyncio.Future[EncodedRun]"] = None


@dataclass
class _Job:
    digest: str
    spec: RunSpec
    future: "asyncio.Future[EncodedRun]"


class _Pickled:
    """A cache value given as its pickle bytes; it loads as the result.

    ``cache.put`` pickles its value, and this one pickles to a call of
    :func:`pickle.loads` on the bytes a worker already made: the entry
    costs a copy to write, and every reader of the cache (a local
    :class:`Runner` on the same root included) loads the plain result.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data

    def __reduce__(self) -> Any:
        return (pickle.loads, (self.data,))


@dataclass
class Gateway:
    """Ring-as-a-service core (see module docstring).

    Attributes:
        cache: shared result cache, or ``None`` to run
            everything cold.
        jobs: worker processes in the runner's pool.
        queue_limit: max distinct cold specs in flight at once; beyond it
            :meth:`submit` raises :class:`QueueFull`.
    """

    cache: Optional[ResultCache] = None
    jobs: int = 1
    queue_limit: int = 256
    submitted: int = field(default=0, init=False)
    completed: int = field(default=0, init=False)
    failed: int = field(default=0, init=False)
    warm_hits: int = field(default=0, init=False)
    rejected: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        self.runner = Runner(jobs=self.jobs, cache=self.cache)
        self._inflight: Dict[str, "asyncio.Future[EncodedRun]"] = {}
        self._dispatches: Set["asyncio.Task[None]"] = set()
        self._closed = False

    async def close(self) -> None:
        """Stop accepting work, finish what is in flight, release the pool."""
        self._closed = True
        while self._dispatches:
            await asyncio.wait(set(self._dispatches))
        self.runner.close()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, specs: Sequence[RunSpec]) -> List[RunEntry]:
        """Admit a batch: warm answers now, cold jobs to the runner.

        Must be called from the event-loop thread.  All-or-nothing
        backpressure: either every new cold job of the batch fits under
        ``queue_limit`` or the whole submission is rejected with
        :class:`QueueFull` — partial admission would leave the client
        with an unresumable half-batch.  A digest already in flight
        joins that job and takes no extra room.
        """
        if self._closed:
            raise RuntimeError("gateway is shutting down")
        loop = asyncio.get_running_loop()
        entries: List[RunEntry] = []
        fresh: Dict[str, _Job] = {}
        for index, spec in enumerate(specs):
            digest = spec.digest()
            if self.cache is not None:
                hit, value = self.cache.get(digest)
                if hit:
                    self.warm_hits += 1
                    entries.append(
                        RunEntry(index=index, digest=digest, status="cached", result=value)
                    )
                    continue
            future = self._inflight.get(digest)
            if future is None:
                job = fresh.get(digest)
                if job is None:
                    job = fresh[digest] = _Job(digest, spec, loop.create_future())
                future = job.future
            entries.append(
                RunEntry(index=index, digest=digest, status="queued", future=future)
            )
        pending = len(self._inflight)
        if pending + len(fresh) > self.queue_limit:
            self.rejected += 1
            retry_after = max(1, pending // max(1, self.jobs))
            raise QueueFull(pending, self.queue_limit, retry_after)
        self.submitted += len(specs)
        if fresh:
            jobs = list(fresh.values())
            for job in jobs:
                self._inflight[job.digest] = job.future
            task = loop.create_task(self._dispatch(jobs))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)
        return entries

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    async def _dispatch(self, jobs: List[_Job]) -> None:
        """Run one batch's new jobs on a thread; resolve their futures."""
        loop = asyncio.get_running_loop()
        try:
            outcomes = await loop.run_in_executor(None, self._execute, jobs)
        except Exception as exc:  # noqa: BLE001 - e.g. a broken worker pool
            outcomes = [(ERR, f"{type(exc).__name__}: {exc}")] * len(jobs)
        for job, (tag, value) in zip(jobs, outcomes):
            del self._inflight[job.digest]
            if tag == OK:
                self.completed += 1
                job.future.set_result(value)
            else:
                self.failed += 1
                job.future.set_exception(RunError(value))

    def _execute(self, jobs: List[_Job]) -> List[Any]:
        """Thread body: one Runner batch, cache puts on success.

        The task calls carry no ``cache_key`` — outcome tuples must not
        be auto-cached under spec digests (an error outcome would poison
        the slot) — so the gateway stores each successful result itself,
        as the worker's pickle bytes.  The runner still records the
        batch's telemetry, and ``map`` flushes the cache's lifetime
        counters.
        """
        calls = [
            TaskCall(func="repro.serve.worker:execute_outcome", args=(job.spec,))
            for job in jobs
        ]
        outcomes = self.runner.map(calls)
        if self.cache is not None:
            for job, (tag, run) in zip(jobs, outcomes):
                if tag == OK:
                    self.cache.put(job.digest, _Pickled(run.pickled))
        return outcomes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, Any]:
        """Queue, counter, cache, and runner telemetry as JSON-able data."""
        return {
            "queue": {"pending": len(self._inflight), "limit": self.queue_limit},
            "submitted": self.submitted,
            "completed": self.completed,
            "failed": self.failed,
            "warm_hits": self.warm_hits,
            "rejected": self.rejected,
            "cache": self.cache.stats() if self.cache is not None else None,
            "runner": self.runner.metrics_snapshot(),
        }
