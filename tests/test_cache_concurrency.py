"""Concurrent-access property test for the result cache (PR 8).

N worker processes hammer one cache root with overlapping ``get`` /
``put`` / ``prune`` / ``flush_counters`` traffic.  The property under
test is the crash-and-corruption contract, not throughput:

* no worker ever crashes (every exception is shipped back and fails
  the test with its traceback);
* no *corrupt read*: a hit for key ``k`` must decode to the exact
  self-validating payload every writer stores under ``k`` — a torn or
  interleaved write would surface as a mismatched payload;
* lifetime counters are *exact*: after all workers flush, the
  persisted totals (transactional ``UPDATE .. value + n``) equal the
  sum of every worker's local counts.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import traceback

from repro.runtime import ResultCache

N_WORKERS = 6
OPS_PER_WORKER = 60
KEY_SPACE = 8


def _key(slot: int) -> str:
    return hashlib.sha256(f"slot-{slot}".encode()).hexdigest()


def _payload(slot: int):
    """The one value every writer stores under slot's key.

    Deterministic per key, structured, and big enough that a torn write
    could not accidentally decode back to it.
    """
    return {"slot": slot, "blob": bytes([slot]) * 512, "shape": (slot, slot + 1)}


def _worker(root: str, worker_id: int, queue) -> None:
    try:
        cache = ResultCache(root)
        hits = 0
        for step in range(OPS_PER_WORKER):
            slot = (worker_id + step) % KEY_SPACE
            key = _key(slot)
            op = step % 4
            if op in (0, 1):  # write then read back
                cache.put(key, _payload(slot))
                hit, value = cache.get(key)
                if hit:
                    hits += 1
                    assert value == _payload(slot), f"corrupt read on slot {slot}"
            elif op == 2:  # read whatever is there
                hit, value = cache.get(key)
                if hit:
                    hits += 1
                    assert value == _payload(slot), f"corrupt read on slot {slot}"
            else:  # sweep while others are writing
                cache.prune()
        cache.flush_counters()
        queue.put(("ok", worker_id, hits, cache.hits, cache.misses, cache.writes))
    except BaseException:  # noqa: BLE001 - shipped home to fail the test
        queue.put(("err", worker_id, traceback.format_exc(), 0, 0, 0))


def test_parallel_processes_do_not_corrupt_or_lose_counts(tmp_path):
    ctx = multiprocessing.get_context("fork")
    queue = ctx.SimpleQueue()
    procs = [
        ctx.Process(target=_worker, args=(str(tmp_path), i, queue))
        for i in range(N_WORKERS)
    ]
    for proc in procs:
        proc.start()
    reports = [queue.get() for _ in procs]
    for proc in procs:
        proc.join(timeout=120)
        assert proc.exitcode == 0

    failures = [r for r in reports if r[0] == "err"]
    assert not failures, "worker crashed:\n" + "\n".join(r[2] for r in failures)

    total_hits = sum(r[3] for r in reports)
    total_misses = sum(r[4] for r in reports)
    total_writes = sum(r[5] for r in reports)
    # Every worker writes on half its ops; none of those writes may be lost.
    assert total_writes == N_WORKERS * (OPS_PER_WORKER // 2)
    # Write-then-read-back on the same connection must always hit.
    assert total_hits >= total_writes

    # Transactional increments: no flush may be lost.
    stats = ResultCache(tmp_path).stats()
    assert stats["lifetime_hits"] == total_hits
    assert stats["lifetime_misses"] == total_misses
    assert stats["lifetime_writes"] == total_writes

    # The surviving entries are all readable and uncorrupted.
    checker = ResultCache(tmp_path)
    for slot in range(KEY_SPACE):
        hit, value = checker.get(_key(slot))
        if hit:
            assert value == _payload(slot)
