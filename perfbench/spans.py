"""The traced run: per-layer self time from spans around entry points.

Spans are recorded by this file, around calls into each layer's public
entry points; the program itself carries no instrumentation.  A span's
self time is its duration minus the time of the spans it encloses on
the same thread.

* Serve workloads host the gateway in-process (``ServerThread``, same
  jobs and chunk defaults as ``serve``) so gateway-side calls can be
  wrapped.  The run replays the workload's request sequence twice on
  fresh caches: untraced, then traced.  The wall-time difference is the
  tracing overhead.
* Every traced run makes one report sweep with a span around each
  ``reporting.run_experiment`` (in dispatch order, two workers) and
  around ``render_markdown``; the report workload sets it against an
  untraced ``report --metrics`` sweep.
* Engine throughput and recording cost come from timing ``execute`` on
  a fixed slice of the cold stream, recording off and on.

Worker-side time comes from the runner's own task timings
(``Runner.batches`` for the gateway, ``report --metrics`` for the
sweep).  An entry point that no longer exists is listed as missing and
its metrics read 0; the run does not fail for it.
"""

from __future__ import annotations

import inspect
import json
import multiprocessing
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Tuple

from repro.runtime import RunSpec, execute

from checkout import EXPERIMENTS
from gate import experiment_ids, local_fingerprints, report_failures, serve_failures
from report_load import JOBS as REPORT_JOBS
from report_load import sweep
from serve_load import JOBS as SERVE_JOBS
from serve_load import closed_loop, post, send, workload_batches
from specgen import ENGINES, BatchStream, engine_sample
from summary import Measure

#: Layers whose self time is reported (modules per layer: layers.json).
LAYERS = ("serve", "spec", "cache", "runner", "engine", "reporting")

#: Span names per layer (engine self time comes from worker timings).
LAYER_SPANS = {
    "serve": ("serve.submit", "serve.encode", "serve.event_lines", "serve.decode"),
    "spec": ("spec.to_json", "spec.from_json", "spec.digest"),
    "cache": ("cache.get_hit", "cache.get_miss", "cache.put"),
    "runner": ("runner.map",),
    "reporting": ("reporting.run_experiment", "reporting.render"),
}

_ENGINE_KEYS = {engine: engine.replace("-", "_") for engine in ENGINES}

#: Every per-layer metric with its unit and direction, in output order.
#: A metric the workload does not exercise reads 0.
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _layer in LAYERS + ("unattributed",):
    PER_LAYER[f"{_layer}.self_ms"] = ("ms", "lower")
    PER_LAYER[f"{_layer}.share"] = ("ratio", "lower")
for _layer in LAYER_SPANS:
    PER_LAYER[f"{_layer}.calls"] = ("count", "lower")
PER_LAYER.update({
    "tracing.overhead_ms": ("ms", "lower"),
    "tracing.overhead_share": ("ratio", "lower"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.encode_us": ("us", "lower"),
    "serve.decode_us": ("us", "lower"),
    "serve.event_lines": ("count", "lower"),
    "serve.response_kb": ("KiB", "lower"),
    "spec.from_json_us": ("us", "lower"),
    "spec.to_json_us": ("us", "lower"),
    "spec.digest_us": ("us", "lower"),
    "cache.get_hit_us": ("us", "lower"),
    "cache.get_miss_us": ("us", "lower"),
    "cache.put_us": ("us", "lower"),
    "cache.entry_kb": ("KiB", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "runner.chunks": ("count", "lower"),
    "runner.map_ms": ("ms", "lower"),
    "runner.task_ms": ("ms", "lower"),
    "runner.overhead_ms": ("ms", "lower"),
    "runner.pool_utilization": ("ratio", "higher"),
})
for _key in _ENGINE_KEYS.values():
    PER_LAYER[f"engine.{_key}.events_per_s"] = ("1/s", "higher")
    PER_LAYER[f"engine.{_key}.execute_ms"] = ("ms", "lower")
PER_LAYER.update({
    "obs.record_ratio": ("ratio", "lower"),
    "obs.events_per_recorded_spec": ("count", "lower"),
})
for _index in range(1, 21):
    PER_LAYER[f"report.E{_index}_s"] = ("s", "lower")
PER_LAYER.update({
    "report.render_ms": ("ms", "lower"),
    "report.critical_path_s": ("s", "lower"),
})


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------


@dataclass
class _Frame:
    name: str
    children: float = 0.0


class Tracer:
    """In-memory spans with per-thread nesting, aggregated at the end."""

    def __init__(self) -> None:
        self._local = threading.local()
        self.spans: List[Tuple[str, float, float]] = []  # (name, seconds, self)
        self._lock = threading.Lock()
        self.counters: Dict[str, float] = {}
        self.samples: Dict[str, List[float]] = {}

    @contextmanager
    def span(self, name: str) -> Iterator[_Frame]:
        """Time the block; the frame's name may be refined inside it."""
        stack = self._local.__dict__.setdefault("stack", [])
        frame = _Frame(name)
        stack.append(frame)
        started = time.perf_counter()
        try:
            yield frame
        finally:
            seconds = time.perf_counter() - started
            stack.pop()
            if stack:
                stack[-1].children += seconds
            self.spans.append((frame.name, seconds, seconds - frame.children))

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples.setdefault(name, []).append(value)

    def totals(self) -> Dict[str, Tuple[int, float, float]]:
        """``{name: (calls, seconds, self seconds)}``."""
        out: Dict[str, Tuple[int, float, float]] = {}
        for name, seconds, own in self.spans:
            calls, total, total_own = out.get(name, (0, 0.0, 0.0))
            out[name] = (calls + 1, total + seconds, total_own + own)
        return out


class Patches:
    """Reversible wrappers around attributes of classes, modules, objects."""

    def __init__(self) -> None:
        self.missing: List[str] = []
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    def wrap(self, owner: Any, attr: str, label: str,
             make: Callable[[Callable[..., Any]], Callable[..., Any]]) -> None:
        """Replace ``owner.attr`` by ``make(original)``, or note it missing."""
        try:
            static = inspect.getattr_static(owner, attr)
        except AttributeError:
            self.missing.append(label)
            return
        own = attr in getattr(owner, "__dict__", {})
        replacement = make(getattr(owner, attr))
        if isinstance(static, (classmethod, staticmethod)):
            replacement = staticmethod(replacement)
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, static, own))

    def spanned(self, tracer: Tracer, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` in a span called ``name``."""

        def make(original: Callable[..., Any]) -> Callable[..., Any]:
            def traced(*args: Any, **kwargs: Any) -> Any:
                with tracer.span(name):
                    return original(*args, **kwargs)

            return traced

        self.wrap(owner, attr, name, make)

    def undo(self) -> None:
        for owner, attr, static, own in reversed(self._undo):
            if own:
                setattr(owner, attr, static)
            else:
                delattr(owner, attr)
        self._undo.clear()


# ----------------------------------------------------------------------
# Serve: the gateway hosted in-process
# ----------------------------------------------------------------------


def open_cache(root: Path) -> Any:
    """The cache ``serve --cache DIR`` would open, by whichever API exists."""
    import repro.runtime as runtime

    for name in ("open_cache", "SqliteResultCache", "ResultCache"):
        factory = getattr(runtime, name, None)
        if factory is not None:
            return factory(root)
    raise RuntimeError("repro.runtime offers no result cache")


@contextmanager
def hosted(cache_root: Path) -> Iterator[Tuple[Any, Any]]:
    """``(ServerThread, cache)`` for one pass, stopped on exit."""
    from repro.serve import ServerThread

    cache = open_cache(cache_root)
    server = ServerThread(cache=cache, jobs=SERVE_JOBS)
    server.start()
    try:
        yield server, cache
    finally:
        server.stop()


def instrument_serve(tracer: Tracer, patches: Patches, gateway: Any, cache: Any) -> None:
    """Spans around the client-, gateway- and cache-side entry points."""
    import repro.serve.client as client
    import repro.serve.http as http
    import repro.serve.protocol as protocol

    enqueued: Dict[int, float] = {}

    def make_submit(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(specs: Any) -> Any:
            with tracer.span("serve.submit"):
                entries = original(specs)
            now = time.perf_counter()
            for entry in entries:
                if getattr(entry, "status", None) == "queued":
                    enqueued[id(specs[entry.index])] = now
            return entries

        return traced

    def make_map(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(calls: Any) -> Any:
            now = time.perf_counter()
            for call in calls:
                args = getattr(call, "args", ())
                queued_at = enqueued.pop(id(args[0]), None) if args else None
                if queued_at is not None:
                    tracer.sample("serve.queue_wait", now - queued_at)
            with tracer.span("runner.map"):
                return original(calls)

        return traced

    def make_get(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(key: str) -> Any:
            with tracer.span("cache.get") as frame:
                hit, value = original(key)
                frame.name = "cache.get_hit" if hit else "cache.get_miss"
            return hit, value

        return traced

    def make_put(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(key: str, value: Any) -> Any:
            with tracer.span("cache.put"):
                original(key, value)
            tracer.count("cache.entry_bytes", len(pickle.dumps(value)))

        return traced

    def make_encode(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(value: Any) -> str:
            with tracer.span("serve.encode"):
                text = original(value)
            tracer.count("serve.response_bytes", len(text))
            return text

        return traced

    def make_event_lines(original: Callable[..., Any]) -> Callable[..., Any]:
        def traced(entry: Any, result: Any) -> Iterator[Any]:
            with tracer.span("serve.event_lines"):
                lines = list(original(entry, result))
            tracer.count("serve.event_lines", len(lines))
            tracer.count(
                "serve.response_bytes", sum(len(json.dumps(line)) for line in lines)
            )
            return iter(lines)

        return traced

    patches.wrap(gateway, "submit", "serve.submit", make_submit)
    patches.wrap(getattr(gateway, "runner", None), "map", "runner.map", make_map)
    patches.wrap(cache, "get", "cache.get", make_get)
    patches.wrap(cache, "put", "cache.put", make_put)
    patches.wrap(protocol, "encode_result", "serve.encode", make_encode)
    patches.wrap(http, "event_lines", "serve.event_lines", make_event_lines)
    patches.spanned(tracer, client, "decode_result", "serve.decode")
    patches.spanned(tracer, RunSpec, "to_json_dict", "spec.to_json")
    patches.spanned(tracer, RunSpec, "from_json_dict", "spec.from_json")
    patches.spanned(tracer, RunSpec, "digest", "spec.digest")


def runner_rows(batches: List[Dict[str, Any]], jobs: int) -> Tuple[Dict[str, float], float]:
    """Runner metrics from per-batch telemetry, plus engine busy seconds.

    A batch's engine time is its task seconds spread over the workers
    that could run them; the rest of its wall time is runner overhead.
    """
    if not batches:
        return {}, 0.0
    walls = [batch["wall_seconds"] for batch in batches]
    tasks = [batch["task_seconds"] for batch in batches]
    workers = [max(1, min(jobs, batch["executed"])) for batch in batches]
    busy = [task / worker for task, worker in zip(tasks, workers)]
    executed = sum(batch["executed"] for batch in batches)
    rows = {
        "runner.chunks": float(len(batches)),
        "runner.map_ms": 1000 * sum(walls) / len(batches),
        "runner.task_ms": 1000 * sum(tasks) / executed if executed else 0.0,
        "runner.overhead_ms": 1000 * sum(w - b for w, b in zip(walls, busy)) / len(batches),
        "runner.pool_utilization": sum(tasks) / (sum(walls) * jobs) if sum(walls) else 0.0,
    }
    return rows, sum(busy)


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def serve_rows(tracer: Tracer, requests: int, batches: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer rows of a traced serve pass (per request where timed)."""
    totals = tracer.totals()
    rows, engine_busy = runner_rows(batches, SERVE_JOBS)

    def mean_us(name: str) -> float:
        calls, seconds, _ = totals.get(name, (0, 0.0, 0.0))
        return 1e6 * seconds / calls if calls else 0.0

    request_time = totals.get("request", (0, 0.0, 0.0))[1]
    own = {layer: sum(totals.get(name, (0, 0, 0))[2] for name in names)
           for layer, names in LAYER_SPANS.items()}
    own["engine"] = engine_busy
    own["runner"] = own["runner"] - engine_busy
    own["unattributed"] = request_time - sum(own.values())
    for layer, seconds in own.items():
        rows[f"{layer}.self_ms"] = 1000 * seconds / requests
        rows[f"{layer}.share"] = seconds / request_time if request_time else 0.0
    for layer, names in LAYER_SPANS.items():
        rows[f"{layer}.calls"] = float(sum(totals.get(name, (0,))[0] for name in names))
    hits = totals.get("cache.get_hit", (0,))[0]
    misses = totals.get("cache.get_miss", (0,))[0]
    puts = totals.get("cache.put", (0,))[0]
    rows.update({
        "serve.queue_wait_ms": 1000 * _mean(tracer.samples.get("serve.queue_wait", [])),
        "serve.encode_us": mean_us("serve.encode"),
        "serve.decode_us": mean_us("serve.decode"),
        "serve.event_lines": tracer.counters.get("serve.event_lines", 0) / requests,
        "serve.response_kb": tracer.counters.get("serve.response_bytes", 0) / requests / 1024,
        "spec.from_json_us": mean_us("spec.from_json"),
        "spec.to_json_us": mean_us("spec.to_json"),
        "spec.digest_us": mean_us("spec.digest"),
        "cache.get_hit_us": mean_us("cache.get_hit"),
        "cache.get_miss_us": mean_us("cache.get_miss"),
        "cache.put_us": mean_us("cache.put"),
        "cache.entry_kb": tracer.counters.get("cache.entry_bytes", 0) / puts / 1024 if puts else 0.0,
        "cache.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    })
    return rows


def serve_run(workload: str, seed: int, seconds: float, work: Path) -> Dict[str, Any]:
    """Untraced then traced pass of one serve workload, on fresh caches."""
    primer, batches = workload_batches(workload, seed)
    with hosted(work / "cache-plain") as (server, _cache):
        priming = [post(server.url, -1, primer)]
        plain, plain_wall = closed_loop(server.url, BatchStream(batches), seconds / 2)
    # The traced pass replays exactly the requests the untraced one sent;
    # they are generated before any wrapper is installed.
    primer, batches = workload_batches(workload, seed)
    replay = [next(batches) for _ in plain]
    tracer, patches = Tracer(), Patches()

    def traced_submit(url: str, specs: List[RunSpec]) -> List[Any]:
        with tracer.span("request"):
            return send(url, specs)

    with hosted(work / "cache-traced") as (server, cache):
        priming.append(post(server.url, -1, primer))
        runner = getattr(server.gateway, "runner", None)
        first_batch = len(getattr(runner, "batches", []))
        instrument_serve(tracer, patches, server.gateway, cache)
        try:
            traced, traced_wall = closed_loop(
                server.url, BatchStream(iter(replay), limit=len(replay)),
                float("inf"), traced_submit,
            )
        finally:
            patches.undo()
        batches_seen = list(getattr(runner, "batches", []))[first_batch:]
    count = len(traced)
    rows = serve_rows(tracer, count, batches_seen)
    rows["tracing.overhead_ms"] = 1000 * (traced_wall - plain_wall) / count
    rows["tracing.overhead_share"] = traced_wall / plain_wall - 1
    gated = priming + plain + traced
    local = local_fingerprints([spec for request in gated for spec in request.specs])
    failed, reasons = serve_failures(gated, local)
    return {
        "rows": rows,
        "samples": count,
        "attempted": sum(len(request.specs) for request in gated),
        "failed": failed,
        "problems": reasons,
        "missing": patches.missing,
    }


# ----------------------------------------------------------------------
# Report: experiments in dispatch order
# ----------------------------------------------------------------------


def timed_experiment(exp_id: str) -> Tuple[float, Any]:
    """Pool entry point: one ``reporting.run_experiment`` call, timed."""
    from repro import reporting

    started = time.perf_counter()
    record = reporting.run_experiment(exp_id)
    return time.perf_counter() - started, record


def makespan(durations: List[float], workers: int) -> float:
    """Finish time when each task goes to the first free worker, in order."""
    free = [0.0] * workers
    for seconds in durations:
        index = free.index(min(free))
        free[index] += seconds
    return max(free)


def traced_sweep(work: Path) -> Dict[str, Any]:
    """The report sweep with a span per experiment and around rendering.

    Every experiment runs through ``reporting.run_experiment`` in
    dispatch order on :data:`REPORT_JOBS` forked workers; the records
    are rendered over a copy of EXPERIMENTS.md, which must come back
    byte-identical.  Every traced run makes this sweep, as it times the
    engines, so the reporting layer is measured whichever workload runs.
    """
    from repro import reporting

    expected = EXPERIMENTS.read_text(encoding="utf-8")
    ids = experiment_ids(expected)
    if not hasattr(reporting, "run_experiment"):
        return {"rows": {}, "wall": 0.0, "own": 0.0, "calls": 0, "attempted": 0,
                "failed": 0, "missing": ["reporting.run_experiment"]}
    tracer, patches = Tracer(), Patches()
    output = work / "EXPERIMENTS-traced.md"
    output.write_text(expected, encoding="utf-8")
    started = time.perf_counter()
    with multiprocessing.get_context("fork").Pool(REPORT_JOBS) as pool:
        timed = pool.map(timed_experiment, ids, chunksize=1)
    patches.spanned(tracer, reporting, "render_markdown", "reporting.render")
    try:
        reporting.write_markdown([record for _, record in timed], output)
    finally:
        patches.undo()
    wall = time.perf_counter() - started
    render = tracer.totals().get("reporting.render", (0, 0.0, 0.0))[1]
    durations = [seconds for seconds, _ in timed]
    rows = {f"report.{exp_id}_s": seconds for exp_id, seconds in zip(ids, durations)}
    rows["report.render_ms"] = 1000 * render
    rows["report.critical_path_s"] = makespan(durations, REPORT_JOBS) + render
    return {
        "rows": rows,
        "wall": wall,
        "own": sum(durations) + render,
        "calls": len(durations) + 1,
        "attempted": len(ids),
        "failed": report_failures(expected, output.read_text(encoding="utf-8")),
        "missing": patches.missing,
    }


def report_run(work: Path, traced: Dict[str, Any]) -> Dict[str, Any]:
    """One untraced ``report --metrics`` sweep, set against the traced one."""
    expected = EXPERIMENTS.read_text(encoding="utf-8")
    plain_wall, text, error = sweep(work, 0, metrics=work / "metrics.json")
    failed = report_failures(expected, text) or (1 if error else 0)
    problems = [error] if error else []
    rows: Dict[str, float] = {}
    try:
        telemetry = json.loads((work / "metrics.json").read_text())
    except (OSError, ValueError):
        telemetry = None
        problems.append("report --metrics wrote no telemetry")
    if telemetry is not None:
        rows.update(runner_rows([{
            "wall_seconds": telemetry["wall_seconds"],
            "task_seconds": telemetry["task_seconds"],
            "executed": telemetry["executed"],
        }], REPORT_JOBS)[0])
        rows["runner.chunks"] = float(telemetry["batches"])
    if traced["wall"]:
        capacity = REPORT_JOBS * traced["wall"]
        rows["reporting.self_ms"] = 1000 * traced["own"]
        rows["reporting.share"] = traced["own"] / capacity
        rows["reporting.calls"] = float(traced["calls"])
        rows["unattributed.self_ms"] = 1000 * (capacity - traced["own"])
        rows["unattributed.share"] = 1 - traced["own"] / capacity
        rows["tracing.overhead_ms"] = 1000 * (traced["wall"] - plain_wall)
        rows["tracing.overhead_share"] = traced["wall"] / plain_wall - 1
    return {
        "rows": rows,
        "samples": 1,
        "attempted": len(experiment_ids(expected)),
        "failed": failed,
        "problems": problems,
        "missing": [],
    }


# ----------------------------------------------------------------------
# Engines and recording, timed directly
# ----------------------------------------------------------------------


def engine_events(spec: RunSpec, result: Any) -> int:
    """Engine work units: deliveries (async engines), n × cycles (sync)."""
    if spec.engine.startswith("async"):
        return result.stats.messages
    return result.n * max(1, result.cycles or 0)


def engine_rows(seed: int) -> Dict[str, float]:
    """Per-engine execute time and throughput, and the recording cost."""
    sample = engine_sample(seed)
    for engine in ENGINES:  # first-call imports stay out of the timings
        execute(next(spec for spec in sample if spec.engine == engine))
    seconds: Dict[str, float] = {engine: 0.0 for engine in ENGINES}
    events: Dict[str, int] = {engine: 0 for engine in ENGINES}
    runs: Dict[str, int] = {engine: 0 for engine in ENGINES}
    plain = recorded = 0.0
    recorded_events = recorded_runs = 0
    for spec in sample:
        started = time.perf_counter()
        result = execute(spec)
        took = time.perf_counter() - started
        seconds[spec.engine] += took
        events[spec.engine] += engine_events(spec, result)
        runs[spec.engine] += 1
        if spec.engine == "sync-batch":  # the batch engine cannot record
            continue
        started = time.perf_counter()
        result = execute(spec.with_(record=True))
        recorded += time.perf_counter() - started
        plain += took
        recorded_events += len(result.events or ())
        recorded_runs += 1
    rows: Dict[str, float] = {}
    for engine, key in _ENGINE_KEYS.items():
        rows[f"engine.{key}.events_per_s"] = events[engine] / seconds[engine]
        rows[f"engine.{key}.execute_ms"] = 1000 * seconds[engine] / runs[engine]
    rows["obs.record_ratio"] = recorded / plain
    rows["obs.events_per_recorded_spec"] = recorded_events / recorded_runs
    return rows


def run(workload: str, seed: int, seconds: float, work: Path) -> Dict[str, Any]:
    """The traced run of ``workload``: every per-layer metric, by name."""
    traced = traced_sweep(work)
    if workload == "report":
        outcome = report_run(work, traced)
    else:
        outcome = serve_run(workload, seed, seconds, work)
    measured = dict(traced["rows"])
    measured.update(outcome["rows"])
    measured.update(engine_rows(seed))
    samples = outcome["samples"]
    rows: Dict[str, Measure] = {
        name: (float(measured.get(name, 0.0)), unit, samples)
        for name, (unit, _better) in PER_LAYER.items()
    }
    problems = list(outcome["problems"])
    if traced["failed"]:
        problems.append(f"traced sweep: {traced['failed']} experiments differ")
    return {
        "rows": rows,
        "attempted": outcome["attempted"] + traced["attempted"],
        "failed": outcome["failed"] + traced["failed"],
        "problems": problems,
        "missing": outcome["missing"] + traced["missing"],
    }
