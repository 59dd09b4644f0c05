"""Content-addressed on-disk result cache: one WAL-mode sqlite database.

Results are stored under their spec digest (see
:meth:`repro.runtime.spec.RunSpec.digest`), and every digest mixes in
:func:`code_version` — a content hash of the package's own sources — so
editing any module under :mod:`repro` silently invalidates every cached
result without a manual flush.  Nothing volatile (timestamps, host
names, git state) ever enters a key: two executions of the same spec on
the same code hit the same slot, whichever machine or worker produced
them first.

:class:`ResultCache` keeps every entry in one database,
``cache.sqlite`` at the cache root:

* **Versioned rows** — the producing :func:`code_version` is stored per
  row, so ``python -m repro cache prune`` can drop entries from older
  code without knowing the keys that once reached them.
* **Concurrency** — WAL mode lets readers proceed under a writer; every
  write is a single short transaction serialized by sqlite's own lock
  (with a generous busy timeout), so "atomic put, last writer wins"
  holds across processes, threads, and machines sharing a filesystem
  that supports POSIX locks.
* **Corrupt-entry-is-a-miss** — a garbage blob (or a torn database) is
  reported as a miss, never an exception out of :meth:`ResultCache.get`
  (see :data:`CORRUPT_ENTRY_ERRORS`); the dead row is dropped.
* **Read-only hits** — a hit is one ``SELECT`` and an unpickle.  Its
  ``last_access`` bump waits in memory and is written by
  :meth:`ResultCache.flush_counters` (with the counters) or before
  :meth:`ResultCache.prune` evicts.
* **Exact lifetime counters** — hit/miss/write counts persist across
  processes; each flush is one transaction of ``value + n`` upserts, so
  concurrent flushers never lose each other's increments.
* **LRU-ish eviction** — ``prune(max_bytes=...)`` evicts the least
  recently used current entries down to a byte budget.

A directory written by the older pickle-per-file layout (two-hex-digit
shards of ``*.pkl`` files and a ``counters.json``) is ignored: its
entries were keyed by an older :func:`code_version` and can never hit
again, so such directories can simply be deleted.
"""

from __future__ import annotations

import hashlib
import os
import pickle
import sqlite3
import struct
import threading
import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

#: Environment variable consulted by the CLI for a default cache root.
CACHE_DIR_ENV = "REPRO_CACHE_DIR"

#: Everything a truncated, garbage, or half-written pickle can raise.
#:
#: ``pickle.load`` on corrupt bytes is not limited to
#: :class:`pickle.UnpicklingError`: a truncated stream raises
#: :class:`EOFError`, a garbage opcode argument raises :class:`ValueError`
#: or :class:`struct.error`, a memo reference into nowhere raises
#: :class:`IndexError` or :class:`KeyError`, and a stale class path (an
#: entry written by renamed code) raises :class:`AttributeError`,
#: :class:`ImportError` or :class:`ModuleNotFoundError`.  Any of these
#: means "this entry is unreadable", which the cache contract defines as
#: a miss — never a crash of the sweep that happened to look it up.
CORRUPT_ENTRY_ERRORS = (
    OSError,
    pickle.UnpicklingError,
    EOFError,
    AttributeError,
    ImportError,
    IndexError,
    KeyError,
    TypeError,
    ValueError,
    OverflowError,
    struct.error,
    MemoryError,
)

_code_version: Optional[str] = None


def code_version() -> str:
    """A content hash of every ``.py`` file in the ``repro`` package.

    Computed once per process and cached; ~40 small files, so the first
    call costs single-digit milliseconds.  This is the "code" component
    of every cache key: any source edit yields a new version string.
    """
    global _code_version
    if _code_version is None:
        package_root = Path(__file__).resolve().parent.parent
        hasher = hashlib.sha256()
        for path in sorted(package_root.rglob("*.py")):
            hasher.update(str(path.relative_to(package_root)).encode())
            hasher.update(b"\0")
            hasher.update(path.read_bytes())
            hasher.update(b"\0")
        _code_version = hasher.hexdigest()[:16]
    return _code_version


#: Filename of the database inside a cache root.
SQLITE_DB_NAME = "cache.sqlite"

_SCHEMA = """
CREATE TABLE IF NOT EXISTS entries (
    key TEXT PRIMARY KEY,
    version TEXT NOT NULL,
    value BLOB NOT NULL,
    nbytes INTEGER NOT NULL,
    created_at REAL NOT NULL,
    last_access REAL NOT NULL
);
CREATE INDEX IF NOT EXISTS entries_last_access ON entries(last_access);
CREATE TABLE IF NOT EXISTS counters (
    name TEXT PRIMARY KEY,
    value INTEGER NOT NULL
);
"""

#: How long a writer waits on sqlite's lock before giving up (seconds).
BUSY_TIMEOUT = 30.0


class ResultCache:
    """The result cache over one WAL database (see module docstring).

    Safe to share one root between processes; each process/thread lazily
    opens its own connection (connections never survive a ``fork``).

    Attributes:
        root: cache directory (created on first use).
        hits / misses / writes: per-instance counters, handy for tests
            and ``--cache`` CLI summaries; :meth:`flush_counters` folds
            them into the root's persistent lifetime totals.
    """

    def __init__(self, root: os.PathLike) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        # High-water marks of what flush_counters already persisted, so
        # the public counters stay monotonically increasing observables.
        self._flushed = {"hits": 0, "misses": 0, "writes": 0}
        self._local = threading.local()
        # key -> time of its latest unwritten hit.  Gateway hits arrive
        # on the event-loop thread while flushes run on an executor
        # thread, so inserts and the swap in _write_touches hold a lock.
        self._touched: Dict[str, float] = {}
        self._touch_lock = threading.Lock()

    @property
    def db_path(self) -> Path:
        return self.root / SQLITE_DB_NAME

    def _connect(self) -> sqlite3.Connection:
        """This thread's connection, (re)opened after a fork.

        ``threading.local`` keys the connection by thread; the stored
        pid guards against inheriting a parent's connection across
        ``fork`` (sqlite connections must not cross processes).
        """
        conn: Optional[sqlite3.Connection] = getattr(self._local, "conn", None)
        if conn is not None and getattr(self._local, "pid", None) == os.getpid():
            return conn
        self.root.mkdir(parents=True, exist_ok=True)
        conn = sqlite3.connect(self.db_path, timeout=BUSY_TIMEOUT)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        with conn:
            conn.executescript(_SCHEMA)
        self._local.conn = conn
        self._local.pid = os.getpid()
        return conn

    def __getstate__(self) -> Dict[str, Any]:
        state = dict(self.__dict__)
        # Connections and unwritten bumps never cross pickling.
        for name in ("_local", "_touched", "_touch_lock"):
            state.pop(name)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._local = threading.local()
        self._touched = {}
        self._touch_lock = threading.Lock()

    def get(self, key: str) -> Tuple[bool, Any]:
        """``(True, value)`` on a hit, ``(False, None)`` on a miss."""
        try:
            conn = self._connect()
            row = conn.execute(
                "SELECT value FROM entries WHERE key = ?", (key,)
            ).fetchone()
        except sqlite3.Error:
            self.misses += 1
            return False, None
        if row is None:
            self.misses += 1
            return False, None
        try:
            value = pickle.loads(row[0])
        except CORRUPT_ENTRY_ERRORS:
            # Corrupt blob: a miss, and the row is dead weight — drop it
            # best-effort so the slot is rewritten cleanly.
            try:
                with conn:
                    conn.execute("DELETE FROM entries WHERE key = ?", (key,))
            except sqlite3.Error:
                pass
            self.misses += 1
            return False, None
        now = time.time()
        with self._touch_lock:
            self._touched[key] = now
        self.hits += 1
        return True, value

    def put(self, key: str, value: Any) -> None:
        """Store in one transaction; concurrent writers of a key both win."""
        blob = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        now = time.time()
        conn = self._connect()
        with conn:
            conn.execute(
                "INSERT INTO entries (key, version, value, nbytes, created_at,"
                " last_access) VALUES (?, ?, ?, ?, ?, ?)"
                " ON CONFLICT(key) DO UPDATE SET version = excluded.version,"
                " value = excluded.value, nbytes = excluded.nbytes,"
                " last_access = excluded.last_access",
                (key, code_version(), blob, len(blob), now, now),
            )
        self.writes += 1

    def stats(self) -> Dict[str, Any]:
        """Entry count, total bytes, and lifetime + in-process counters.

        The ``lifetime_*`` numbers are everything flushed to the root so
        far plus this instance's still-unflushed counters.
        """
        entries = 0
        size = 0
        try:
            conn = self._connect()
            row = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
            ).fetchone()
            entries, size = int(row[0]), int(row[1])
        except sqlite3.Error:
            pass
        persisted = self._read_counters()
        return {
            "root": str(self.root),
            "entries": entries,
            "bytes": size,
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "lifetime_hits": persisted.get("hits", 0) + self.hits - self._flushed["hits"],
            "lifetime_misses": persisted.get("misses", 0)
            + self.misses
            - self._flushed["misses"],
            "lifetime_writes": persisted.get("writes", 0)
            + self.writes
            - self._flushed["writes"],
        }

    def prune(self, max_bytes: Optional[int] = None) -> Dict[str, int]:
        """Drop stale-version entries; optionally evict LRU to a byte budget.

        Stale entries (``version != code_version()``) can never be hit
        again and always go.  With ``max_bytes`` set, least-recently-used
        current entries are then evicted until the stored bytes fit the
        budget; this instance's unwritten hits count as uses.  Returns
        ``{"removed", "kept", "freed_bytes", "evicted"}``; ``removed``
        includes the evicted entries.
        """
        current = code_version()
        conn = self._connect()
        removed = freed = evicted = 0
        with conn:
            self._write_touches(conn)
            row = conn.execute(
                "SELECT COUNT(*), COALESCE(SUM(nbytes), 0) FROM entries"
                " WHERE version != ?",
                (current,),
            ).fetchone()
            removed, freed = int(row[0]), int(row[1])
            conn.execute("DELETE FROM entries WHERE version != ?", (current,))
            if max_bytes is not None:
                total = int(
                    conn.execute(
                        "SELECT COALESCE(SUM(nbytes), 0) FROM entries"
                    ).fetchone()[0]
                )
                if total > max_bytes:
                    for key, nbytes in conn.execute(
                        "SELECT key, nbytes FROM entries ORDER BY last_access, key"
                    ):
                        conn.execute("DELETE FROM entries WHERE key = ?", (key,))
                        total -= int(nbytes)
                        freed += int(nbytes)
                        evicted += 1
                        if total <= max_bytes:
                            break
            kept = int(conn.execute("SELECT COUNT(*) FROM entries").fetchone()[0])
        return {
            "removed": removed + evicted,
            "kept": kept,
            "freed_bytes": freed,
            "evicted": evicted,
        }

    def _read_counters(self) -> Dict[str, int]:
        try:
            conn = self._connect()
            rows = conn.execute("SELECT name, value FROM counters").fetchall()
        except sqlite3.Error:
            return {}
        return {str(name): int(value) for name, value in rows}

    def _write_touches(self, conn: sqlite3.Connection) -> None:
        """Write the unwritten hits' ``last_access`` bumps in ``conn``'s
        open transaction (never moving a row's ``last_access`` back)."""
        with self._touch_lock:
            touched, self._touched = self._touched, {}
        if touched:
            conn.executemany(
                "UPDATE entries SET last_access = MAX(last_access, ?) WHERE key = ?",
                [(at, key) for key, at in touched.items()],
            )

    def flush_counters(self) -> None:
        """Fold unflushed counters and hit bumps into the database — exactly.

        One transaction per flush: concurrent flushers cannot lose each
        other's increments, so lifetime totals across any number of
        processes are precise.  The public counters are left untouched
        (they keep growing for the process's lifetime); an internal
        watermark prevents double-counting across flushes.
        """
        counts = {"hits": self.hits, "misses": self.misses, "writes": self.writes}
        deltas = {name: counts[name] - self._flushed[name] for name in counts}
        if not self._touched and not any(deltas.values()):
            return
        conn = self._connect()
        with conn:
            self._write_touches(conn)
            for name, delta in deltas.items():
                if delta:
                    conn.execute(
                        "INSERT INTO counters (name, value) VALUES (?, ?)"
                        " ON CONFLICT(name) DO UPDATE SET"
                        " value = value + excluded.value",
                        (name, delta),
                    )
        self._flushed = counts

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache({str(self.root)!r}, hits={self.hits}, "
            f"misses={self.misses}, writes={self.writes})"
        )


def default_cache() -> Optional[ResultCache]:
    """The cache named by ``$REPRO_CACHE_DIR``, or ``None`` when unset."""
    root = os.environ.get(CACHE_DIR_ENV)
    if not root:
        return None
    return ResultCache(root)
