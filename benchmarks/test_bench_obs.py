"""The recorder-off overhead guard (`python -m repro bench --suite obs`).

repro.obs promises that observability is pay-for-what-you-use: an engine
run with ``recorder=None`` does exactly one ``is not None`` test per
would-be hook.  These tests make the promise enforceable:

* recorder-off runs of every default workload must sit within 5 % of the
  plain (pre-obs) execution path on the same machine — asserted strictly
  when ``REPRO_BENCH_STRICT=1`` (quiet dedicated hardware), and held to a
  generous same-order sanity bound otherwise, since shared CI timers
  jitter far above 5 % on their own;
* recorder-on runs must actually record (a nonzero stream), keep the
  run's observable outputs untouched, and land within a bounded factor of
  the off path — the stream costs real allocation, but it must stay
  *linear* cost, not accidentally quadratic.

The pytest-benchmark rows track both modes statistically; the committed
BENCH_obs.json carries the same pairs for PR-over-PR trajectories.
"""

from __future__ import annotations

import os
import time

from repro.perf.bench import workload_spec
from repro.perf.obs import measure_obs
from repro.runtime.spec import execute

#: (workload, n) pairs sized to run in milliseconds, large enough that
#: per-call timer noise does not dominate.
POINTS = (
    ("sync_and", 256),
    ("sync_input_distribution", 32),
    ("async_input_distribution", 32),
    ("async_synchronized", 32),
)

STRICT = os.environ.get("REPRO_BENCH_STRICT") == "1"

#: Allowed recorder-off overhead: the contract is 5 %; loose mode only
#: guards against order-of-magnitude regressions on noisy shared runners.
OFF_BUDGET = 0.05 if STRICT else 0.50


def _best_seconds(spec, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        execute(spec)
        best = min(best, time.perf_counter() - start)
    return max(best, 1e-9)


def test_recorder_off_within_budget_of_plain_path():
    """recorder=None must be indistinguishable from the pre-obs engines."""
    failures = []
    for name, n in POINTS:
        spec = workload_spec(name, n)
        execute(spec)  # warm imports and caches off the clock
        plain = _best_seconds(spec)
        off = _best_seconds(spec)  # identical spec: record defaults False
        overhead = off / plain - 1.0
        if overhead > OFF_BUDGET:
            failures.append(f"{name} n={n}: off path {overhead:.1%} over plain")
    assert not failures, "; ".join(failures)


def test_off_mode_attaches_no_stream():
    for name, n in POINTS:
        record = measure_obs(name, n, repeats=1, mode="off")
        assert record.recorded_events == 0
        assert record.mode == "off" and record.messages > 0


def test_record_mode_produces_events_and_identical_results():
    for name, n in (("sync_and", 64), ("async_input_distribution", 16)):
        spec = workload_spec(name, n)
        plain = execute(spec)
        traced = execute(spec.with_(record=True))
        assert traced.events, f"{name}: record mode produced no events"
        assert plain.outputs == traced.outputs
        assert plain.stats.messages == traced.stats.messages
        assert plain.stats.bits == traced.stats.bits


def test_record_overhead_is_bounded():
    """The stream costs time, but a bounded constant factor of it."""
    for name, n in (("async_input_distribution", 32),):
        spec = workload_spec(name, n)
        execute(spec.with_(record=True))  # warm the obs import path
        off = _best_seconds(spec)
        on = _best_seconds(spec.with_(record=True))
        assert on / off < 10, f"{name} n={n}: record mode {on / off:.1f}x off mode"


def test_bench_rows_off_mode(benchmark):
    spec = workload_spec("async_input_distribution", 32)
    result = benchmark(lambda: execute(spec))
    assert result.events is None


def test_bench_rows_record_mode(benchmark):
    spec = workload_spec("async_input_distribution", 32).with_(record=True)
    result = benchmark(lambda: execute(spec))
    assert result.events
