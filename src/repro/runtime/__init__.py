"""The unified execution layer: one ``RunSpec``, one ``Runner``.

Every harness in this repository — the 18-experiment report, both bench
suites, and the schedule fuzzer — verifies the paper by *running* the
ring model.  This package is the one place that running happens:

* :mod:`repro.runtime.spec` — :class:`RunSpec`, a frozen, hashable,
  picklable description of a single run, and :func:`execute`, the single
  dispatcher in front of both engines;
* :mod:`repro.runtime.registry` — named algorithm factories, so specs
  carry names (data) instead of callables (code);
* :mod:`repro.runtime.runner` — :class:`Runner`, deterministic parallel
  batch execution over a ``multiprocessing`` pool, plus
  :func:`derive_seed` for replayable per-task seeding;
* :mod:`repro.runtime.cache` — :class:`ResultCache`, a content-addressed
  on-disk store (one sqlite database) keyed by ``spec.digest()`` and the
  package's code version.

The determinism contract (results are bit-identical for every ``jobs``
value) and the cache layout are documented in ``docs/runtime.md``.
"""

from .cache import CACHE_DIR_ENV, ResultCache, code_version, default_cache
from .registry import AlgorithmEntry, algorithm, register, registered_algorithms
from .runner import Runner, Sweep, TaskCall, derive_seed, invoke, resolve, task_digest
from .spec import ENGINES, SCHEDULERS, RunSpec, execute

__all__ = [
    "CACHE_DIR_ENV",
    "ENGINES",
    "SCHEDULERS",
    "AlgorithmEntry",
    "ResultCache",
    "RunSpec",
    "Runner",
    "Sweep",
    "TaskCall",
    "algorithm",
    "code_version",
    "default_cache",
    "derive_seed",
    "execute",
    "invoke",
    "register",
    "registered_algorithms",
    "resolve",
    "task_digest",
]
