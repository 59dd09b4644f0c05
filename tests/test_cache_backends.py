"""The result cache's contract, on its one store.

Covers the miss contract for every corruption shape (truncated entry,
random bytes, wrong protocol byte, ...) that PR 8's bugfix broadened
``get`` to cover, stale-version pruning, stats, persistence, LRU
eviction, exact counter flushes, pickling, and read-only hits: a hit
writes nothing until the counters are flushed.
"""

from __future__ import annotations

import pickle
import sqlite3
import sys
import threading
import time

import pytest

from repro.core import RingConfiguration
from repro.runtime import ResultCache, Runner, RunSpec
from repro.runtime.cache import SQLITE_DB_NAME

KEY_A = "ab" + "0" * 62
KEY_B = "cd" + "0" * 62
KEY_C = "ef" + "0" * 62


def corrupt_entry(root, key: str, payload: bytes) -> None:
    """Overwrite ``key``'s stored bytes with ``payload``."""
    conn = sqlite3.connect(root / SQLITE_DB_NAME)
    with conn:
        conn.execute("UPDATE entries SET value = ? WHERE key = ?", (payload, key))
    conn.close()


def plant_stale_version(root, key: str) -> None:
    """Plant an entry recorded under a bogus (old-code) version."""
    ResultCache(root).put(key, 42)
    conn = sqlite3.connect(root / SQLITE_DB_NAME)
    with conn:
        conn.execute(
            "UPDATE entries SET version = 'bogus-version' WHERE key = ?", (key,)
        )
    conn.close()


def access_times(root, key: str):
    """``(created_at, last_access)`` of ``key``'s row, read from outside."""
    conn = sqlite3.connect(root / SQLITE_DB_NAME)
    try:
        return conn.execute(
            "SELECT created_at, last_access FROM entries WHERE key = ?", (key,)
        ).fetchone()
    finally:
        conn.close()


#: The corruption shapes the bugfix demands never crash a lookup.
CORRUPTION_SHAPES = {
    "truncated": pickle.dumps({"x": list(range(50))})[:7],
    "empty": b"",
    "random_bytes": bytes(range(256)),
    "wrong_protocol_byte": b"\x80\xff" + pickle.dumps([1, 2, 3])[2:],
    "text": b"this was never a pickle",
    "bad_memo_reference": b"\x80\x04j\xff\xff\xff\xff.",  # LONG_BINGET into nowhere
    "stale_import_path": pickle.dumps(("repro-cache", "v", 1)).replace(
        b"repro-cache", b"no.such.module"
    ),
}


@pytest.fixture
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path)


class TestContract:
    def test_roundtrip_and_miss_counters(self, cache):
        hit, _ = cache.get(KEY_A)
        assert not hit and cache.misses == 1
        cache.put(KEY_A, {"x": (1, 2)})
        hit, value = cache.get(KEY_A)
        assert hit and value == {"x": (1, 2)}
        assert cache.hits == 1 and cache.writes == 1

    def test_overwrite_same_key_last_writer_wins(self, cache):
        cache.put(KEY_A, "first")
        cache.put(KEY_A, "second")
        assert cache.get(KEY_A) == (True, "second")
        assert cache.stats()["entries"] == 1

    @pytest.mark.parametrize("shape", sorted(CORRUPTION_SHAPES))
    def test_corrupt_entry_is_a_miss_not_a_crash(self, tmp_path, cache, shape):
        """A sweep must re-execute one spec, never die on a bad entry."""
        cache.put(KEY_B, [1, 2, 3])
        corrupt_entry(tmp_path, KEY_B, CORRUPTION_SHAPES[shape])
        hit, value = cache.get(KEY_B)
        assert not hit and value is None
        assert cache.misses == 1
        # ... and the slot is rewritable afterwards.
        cache.put(KEY_B, "fresh")
        assert cache.get(KEY_B) == (True, "fresh")

    @pytest.mark.parametrize("shape", sorted(CORRUPTION_SHAPES))
    def test_prune_survives_corrupt_entries(self, tmp_path, cache, shape):
        """The miss contract is mirrored in prune: no corruption crashes it."""
        cache.put(KEY_A, "keep me")
        cache.put(KEY_B, "corrupt me")
        corrupt_entry(tmp_path, KEY_B, CORRUPTION_SHAPES[shape])
        report = cache.prune()
        assert report["kept"] >= 1
        assert cache.get(KEY_A) == (True, "keep me")

    def test_prune_removes_stale_version_entries(self, tmp_path, cache):
        cache.put(KEY_A, "current")
        plant_stale_version(tmp_path, KEY_B)
        report = cache.prune()
        assert report["removed"] >= 1 and report["kept"] == 1
        assert report["freed_bytes"] > 0
        assert cache.get(KEY_A) == (True, "current")

    def test_stats_shape(self, cache):
        cache.put(KEY_A, {"x": 1})
        cache.put(KEY_B, [1, 2, 3])
        stats = cache.stats()
        assert stats["entries"] == 2
        assert stats["bytes"] > 0
        assert stats["writes"] == 2
        for field in ("lifetime_hits", "lifetime_misses", "lifetime_writes"):
            assert field in stats

    def test_lifetime_counters_persist_across_instances(self, tmp_path):
        first = ResultCache(tmp_path)
        first.put(KEY_A, 1)
        first.get(KEY_A)
        first.get(KEY_B)  # miss
        first.flush_counters()
        second = ResultCache(tmp_path)
        stats = second.stats()
        assert stats["lifetime_hits"] == 1
        assert stats["lifetime_misses"] == 1
        assert stats["lifetime_writes"] == 1
        # Unflushed in-process increments are folded into the view too.
        second.get(KEY_A)
        assert second.stats()["lifetime_hits"] == 2

    def test_runner_hit_skips_execution(self, tmp_path):
        spec = RunSpec.make(
            engine="sync",
            ring=RingConfiguration.oriented((1, 1, 0, 1)),
            algorithm="sync-and",
        )
        first = Runner(cache=ResultCache(tmp_path))
        second = Runner(cache=ResultCache(tmp_path))
        results_a = first.run_specs([spec])
        assert first.executed == 1
        results_b = second.run_specs([spec])
        assert second.executed == 0 and second.cache.hits == 1
        assert pickle.dumps(results_a) == pickle.dumps(results_b)


class TestSqliteSpecifics:
    """What the one store adds beyond the contract: LRU, exact flushes."""

    def test_lru_eviction_by_last_access(self, tmp_path):
        cache = ResultCache(tmp_path)
        for key, value in ((KEY_A, "a" * 100), (KEY_B, "b" * 100), (KEY_C, "c" * 100)):
            cache.put(key, value)
        time.sleep(0.02)
        cache.get(KEY_A)  # bump A: B becomes the least recently used
        total = cache.stats()["bytes"]
        report = cache.prune(max_bytes=total - 1)  # force at least one eviction
        assert report["evicted"] >= 1
        hit_a, _ = cache.get(KEY_A)
        hit_b, _ = cache.get(KEY_B)
        assert hit_a and not hit_b  # recently-used survived, LRU went

    def test_prune_without_budget_keeps_everything_current(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, 1)
        cache.put(KEY_B, 2)
        assert cache.prune() == {
            "removed": 0,
            "kept": 2,
            "freed_bytes": 0,
            "evicted": 0,
        }

    def test_counter_flush_is_exact_across_instances(self, tmp_path):
        """Two flushers' increments both land (no read-modify-write race)."""
        first = ResultCache(tmp_path)
        second = ResultCache(tmp_path)
        first.put(KEY_A, 1)
        second.put(KEY_B, 2)
        first.flush_counters()
        second.flush_counters()
        assert ResultCache(tmp_path).stats()["lifetime_writes"] == 2

    def test_survives_pickling_without_connection(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(KEY_A, "x")
        clone = pickle.loads(pickle.dumps(cache))
        assert clone.get(KEY_A) == (True, "x")


class TestReadOnlyHits:
    """A hit is a SELECT and an unpickle; its bump waits for a flush."""

    def test_a_hit_writes_nothing(self, cache):
        cache.put(KEY_A, {"x": 1})
        conn = cache._connect()
        before = conn.total_changes
        for _ in range(5):
            assert cache.get(KEY_A) == (True, {"x": 1})
        assert conn.total_changes == before

    def test_second_instance_sees_the_bump_after_flush(self, tmp_path, cache):
        cache.put(KEY_A, "x")
        created, _ = access_times(tmp_path, KEY_A)
        time.sleep(0.02)
        cache.get(KEY_A)
        assert access_times(tmp_path, KEY_A)[1] == created
        cache.flush_counters()
        assert access_times(tmp_path, KEY_A)[1] > created
        assert ResultCache(tmp_path).stats()["lifetime_hits"] == 1

    def test_pickling_drops_unwritten_bumps(self, tmp_path, cache):
        cache.put(KEY_A, "x")
        created, _ = access_times(tmp_path, KEY_A)
        time.sleep(0.02)
        cache.get(KEY_A)
        pickle.loads(pickle.dumps(cache)).flush_counters()
        assert access_times(tmp_path, KEY_A)[1] == created

    def test_concurrent_get_and_flush(self, tmp_path, cache):
        """Hits on one thread (a gateway's event loop), flushes on another
        (its executor): no dict-iteration race, no lost hit or bump."""
        keys = [f"{index:02x}" + "0" * 62 for index in range(64)]
        for key in keys:
            cache.put(key, key)
        time.sleep(0.02)
        errors = []
        done = threading.Event()

        def reader() -> None:
            try:
                for _ in range(20):
                    for key in keys:
                        assert cache.get(key) == (True, key)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)
            finally:
                done.set()

        def flusher() -> None:
            try:
                while not done.is_set():
                    cache.flush_counters()
                cache.flush_counters()
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader), threading.Thread(target=flusher)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors
        assert ResultCache(tmp_path).stats()["lifetime_hits"] == 20 * len(keys)
        assert all(access_times(tmp_path, key)[1] > access_times(tmp_path, key)[0]
                   for key in keys)
