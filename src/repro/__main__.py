"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo``    — a 30-second tour (compute, orient, synchronize).
* ``report``  — run every experiment and print the EXPERIMENTS.md body.
* ``verify``  — re-verify every lower-bound construction numerically.
* ``bench``   — run a benchmark suite (``--suite
  simulators|analysis|obs|batch|dynamic|all``), write BENCH_simulators.json /
  BENCH_analysis.json / BENCH_obs.json / BENCH_batch.json /
  BENCH_dynamic.json.
* ``fuzz``    — schedule-fuzz the asynchronous algorithm registry
  (optionally with drop/dup/crash/delay fault injection), shrink any
  failing schedule to a minimal replayable witness, write FUZZ.json.
* ``trace``   — run one algorithm with event recording on, write the
  JSONL event log + a Perfetto-loadable Chrome trace, and draw the
  space–time diagram from the recorded events.
* ``cache``   — inspect (``stats``) or clean (``prune``, optionally
  evicting least-recently-used entries to ``--max-bytes``) the on-disk
  result cache.
* ``serve``   — the asyncio HTTP gateway: accept RunSpec batches over
  HTTP, answer warm digests from the shared cache, queue cold specs
  (bounded, 429 on overflow) onto Runner worker processes, stream one
  NDJSON line per run (status and pickled result; a recorded run's
  events ride inside it; see docs/serve.md).
* ``submit``  — client for ``serve``: post a JSON spec file to a
  gateway and print per-run outcomes.

``report``/``bench``/``fuzz`` accept ``--metrics PATH`` (sweep telemetry
as METRICS.json) and ``--progress`` (stderr progress lines); both are
observers only — artifact bytes are identical with them on or off.
"""

from __future__ import annotations

import argparse
import json
import sys
import time


def _cache_for(args: argparse.Namespace):
    """The cache at ``--cache``, else at $REPRO_CACHE_DIR, else ``None``."""
    from .runtime import ResultCache, default_cache

    return ResultCache(args.cache) if getattr(args, "cache", None) else default_cache()


def _make_runner(args: argparse.Namespace):
    """A Runner honouring ``--jobs``, ``--cache`` / $REPRO_CACHE_DIR, ``--progress``."""
    from .runtime import Runner

    return Runner(
        jobs=args.jobs,
        cache=_cache_for(args),
        progress=bool(getattr(args, "progress", False)),
    )


def _add_runner_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (results are identical for every value)",
    )
    parser.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="result-cache directory (default: $REPRO_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="stderr progress lines (completed/total, cache hits, ETA)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="write sweep telemetry (wall time, pool utilization, cache "
        "hits) as JSON to PATH",
    )


def _write_runner_metrics(runner, args: argparse.Namespace) -> None:
    """Honour ``--metrics`` after a runner-backed command finishes."""
    if getattr(args, "metrics", None):
        path = runner.write_metrics(args.metrics)
        print(f"wrote {path} (runner telemetry)", file=sys.stderr)


def _cmd_demo(_args: argparse.Namespace) -> int:
    import random

    from . import (
        AND,
        SUM,
        XOR,
        RingConfiguration,
        WakeupSchedule,
        compute_async,
        compute_sync,
        orient_ring,
        synchronize_start,
    )

    ring = RingConfiguration.from_string("1101011010110")
    print(f"ring: {ring.describe()}")
    for function in (XOR, AND, SUM):
        sync = compute_sync(ring, function)
        asyn = compute_async(ring, function)
        print(
            f"  {function.name:<4} = {sync.unanimous_output()!s:<3} "
            f"(sync {sync.stats.messages} msgs, async {asyn.stats.messages} msgs)"
        )
    rng = random.Random(1)
    scrambled = RingConfiguration((0,) * 15, tuple(rng.randrange(2) for _ in range(15)))
    fixed, result = orient_ring(scrambled)
    print(
        f"orientation: {scrambled.orientation_string()} -> "
        f"{fixed.orientation_string()} in {result.stats.messages} msgs"
    )
    schedule = WakeupSchedule((0, 1, 2, 3, 3, 2, 1, 0))
    sync = synchronize_start(RingConfiguration.oriented((0,) * 8), schedule)
    print(
        f"start sync: spread {schedule.spread} -> all halt at cycle "
        f"{sync.halt_times[0]} ({sync.stats.messages} msgs)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from .reporting import render_markdown, report_footer, run_all, write_markdown

    start = time.time()
    with _make_runner(args) as runner:
        records = run_all(quick=args.quick, runner=runner)
        _write_runner_metrics(runner, args)
    ok = all(record.ok for record in records)
    if args.output is not None:
        write_markdown(records, args.output)
        print(f"wrote {args.output} ({len(records)} experiments)", file=sys.stderr)
    else:
        # stdout carries only deterministic text (byte-identical for
        # every --jobs value); the timing goes to stderr.
        print(render_markdown(records))
        print(report_footer(records))
    print(f"report took {time.time() - start:.1f}s", file=sys.stderr)
    return 0 if ok else 1


def _cmd_verify(_args: argparse.Namespace) -> int:
    from .lowerbounds import (
        and_fooling_pair,
        orientation_arbitrary_pair,
        orientation_async_pair,
        orientation_sync_pair,
        xor_arbitrary_pair,
        xor_sync_pair,
    )

    checks = [
        ("AND async (n=15)", and_fooling_pair(15)),
        ("orientation async (n=15)", orientation_async_pair(15)),
        ("XOR sync (n=81)", xor_sync_pair(4)),
        ("orientation sync (n=81)", orientation_sync_pair(4)),
        ("XOR arbitrary (n=200)", xor_arbitrary_pair(200)),
        ("orientation arbitrary (n=501)", orientation_arbitrary_pair(501, max_alpha=64)),
    ]
    failed = 0
    for name, pair in checks:
        neighborhoods = pair.verify_neighborhoods()
        # Full-depth symmetry check: affordable since the equivalence
        # engine computes the whole SI profile in O(n log α).
        symmetry = pair.verify_symmetry()
        status = "ok" if neighborhoods and symmetry else "FAILED"
        failed += 0 if (neighborhoods and symmetry) else 1
        print(
            f"{name:<32} neighborhoods={neighborhoods} symmetry={symmetry} "
            f"bound={pair.message_lower_bound():.0f}  {status}"
        )
    return 1 if failed else 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .perf import (
        render_analysis_table,
        render_batch_table,
        render_dynamic_table,
        render_obs_table,
        render_table,
        run_analysis_bench,
        run_batch_bench,
        run_bench,
        run_dynamic_bench,
        run_obs_bench,
        write_analysis_bench,
        write_batch_bench,
        write_bench,
        write_dynamic_bench,
        write_obs_bench,
    )

    suites = (
        ("simulators", "analysis", "obs", "batch", "dynamic")
        if args.suite == "all"
        else (args.suite,)
    )
    if args.output is not None and len(suites) > 1:
        print("--output needs a single suite (not --suite all)", file=sys.stderr)
        return 2
    if args.sizes and not set(suites) <= {"simulators", "obs"}:
        print(
            "--sizes only applies to the simulators/obs suites (analysis "
            "workloads have shape constraints like n = 3^k; the batch and "
            "dynamic suites' grids are fixed so speedups and bound checks "
            "stay comparable)",
            file=sys.stderr,
        )
        return 2
    with _make_runner(args) as runner:
        for suite in suites:
            start = time.time()
            if suite == "simulators":
                records = run_bench(
                    quick=args.quick,
                    repeats=args.repeats,
                    sizes=tuple(args.sizes) if args.sizes else None,
                    runner=runner,
                )
                path = write_bench(records, args.output, quick=args.quick)
                print(render_table(records))
            elif suite == "obs":
                records = run_obs_bench(
                    quick=args.quick,
                    repeats=args.repeats,
                    sizes=tuple(args.sizes) if args.sizes else None,
                    runner=runner,
                )
                path = write_obs_bench(records, args.output, quick=args.quick)
                print(render_obs_table(records))
            elif suite == "batch":
                records = run_batch_bench(quick=args.quick, repeats=args.repeats)
                path = write_batch_bench(records, args.output, quick=args.quick)
                print(render_batch_table(records))
            elif suite == "dynamic":
                records = run_dynamic_bench(quick=args.quick, repeats=args.repeats)
                path = write_dynamic_bench(records, args.output, quick=args.quick)
                print(render_dynamic_table(records))
                if not all(record.within_bounds for record in records):
                    print("dynamic suite: complexity bounds violated", file=sys.stderr)
                    return 1
            else:
                records = run_analysis_bench(
                    quick=args.quick, repeats=args.repeats, runner=runner
                )
                path = write_analysis_bench(records, args.output, quick=args.quick)
                print(render_analysis_table(records))
            print(f"wrote {path} ({len(records)} records in {time.time() - start:.1f}s)")
        _write_runner_metrics(runner, args)
    return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from .faults import default_targets, render_summary, run_fuzz, target_by_name
    from .faults.report import write_report

    if args.targets:
        targets = tuple(target_by_name(name) for name in args.targets)
    else:
        targets = default_targets()
    cases = args.cases if args.cases is not None else (2 if args.quick else 8)
    profiles = tuple(args.faults) if args.faults else (
        ("none", "drop", "crash") if args.quick
        else ("none", "drop", "dup", "crash", "delay", "mixed")
    )
    sizes = tuple(args.sizes) if args.sizes else None

    start = time.time()
    with _make_runner(args) as runner:
        report = run_fuzz(
            seed=args.seed,
            targets=targets,
            sizes=sizes,
            profiles=profiles,
            cases_per_campaign=cases,
            runner=runner,
        )
        _write_runner_metrics(runner, args)
    path = write_report(report, args.output)
    print(render_summary(report))
    print(
        f"wrote {path} ({report['totals']['cases']} cases in "
        f"{time.time() - start:.1f}s)",
        file=sys.stderr,
    )
    return 1 if report["totals"]["violations"] else 0


#: Registry names that need distinct labels (the election baselines).
_LABELED = frozenset({"chang-roberts", "franklin", "hirschberg-sinclair", "peterson"})


def _trace_ring(target: str, n: int, seed: int):
    """A deterministic ring suited to ``target`` (same family as the fuzzer)."""
    import random

    from .core.ring import RingConfiguration

    rng = random.Random(seed)
    if target in _LABELED:
        labels = list(range(1, n + 1))
        rng.shuffle(labels)
        return RingConfiguration.oriented(tuple(labels))
    if "orientation" in target:
        # Orientation algorithms need something to fix: scrambled ports.
        return RingConfiguration.random(n, rng)
    return RingConfiguration.random(n, rng, oriented=True)


def _cmd_trace(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .core.diagram import message_density, space_time_diagram
    from .obs import (
        reconcile,
        result_from_events,
        run_metrics,
        write_chrome_trace,
        write_events_jsonl,
    )
    from .runtime import RunSpec, execute
    from .runtime.registry import algorithm

    entry = algorithm(args.target)
    engine = args.engine or ("sync" if entry.kind == "sync" else "async")
    ring = _trace_ring(args.target, args.n, args.seed)
    spec = RunSpec.make(
        engine=engine,
        ring=ring,
        algorithm=args.target,
        scheduler=args.scheduler if engine == "async" else None,
        scheduler_seed=args.scheduler_seed,
        fault_profile=args.profile,
        fault_seed=args.fault_seed if args.profile else None,
        fault_horizon=args.horizon,
        record=True,
    )
    result = execute(spec)
    events = result.events or ()

    out = Path(args.out)
    write_chrome_trace(events, out, n=ring.n)
    events_path = (
        Path(args.events) if args.events else out.with_suffix(".events.jsonl")
    )
    write_events_jsonl(events, events_path)
    print(
        f"wrote {out} (Chrome trace) and {events_path} "
        f"({len(events)} events)",
        file=sys.stderr,
    )
    if args.metrics:
        snapshot = run_metrics(events, result.stats)
        Path(args.metrics).write_text(json.dumps(snapshot, indent=2) + "\n")
        print(f"wrote {args.metrics} (run metrics)", file=sys.stderr)

    if not args.no_diagram:
        # Rebuild a renderable result from the events alone — the
        # diagram below is drawn from the recorded stream, not the run.
        rebuilt = result_from_events(events, ring.n)
        print(space_time_diagram(ring, rebuilt, events=events))
        print(f"density: {message_density(rebuilt)}")

    mode = "sync" if engine == "sync" else "async"
    problems = reconcile(events, result.stats, engine=mode)
    if problems:
        for problem in problems:
            print(f"RECONCILIATION FAILED: {problem}", file=sys.stderr)
        return 1
    print(
        f"{args.target} n={ring.n} [{engine}]: {result.stats.messages} messages, "
        f"{result.stats.bits} bits; event stream reconciles with TraceStats"
    )
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _cache_for(args)
    if cache is None:
        print(
            "no cache directory: pass --cache DIR or set $REPRO_CACHE_DIR",
            file=sys.stderr,
        )
        return 2
    if not cache.db_path.exists():
        # Both actions only read or trim a store: on a missing (or
        # mistyped) root, say so instead of creating an empty one.
        print(f"no cache at {cache.root}", file=sys.stderr)
        return 2
    if args.action == "stats":
        stats = cache.stats()
        print(f"cache root: {stats['root']}")
        print(f"  entries: {stats['entries']}  bytes: {stats['bytes']}")
        print(
            f"  lifetime: {stats['lifetime_hits']} hits, "
            f"{stats['lifetime_misses']} misses, "
            f"{stats['lifetime_writes']} writes"
        )
        return 0
    outcome = cache.prune(max_bytes=args.max_bytes)
    suffix = f" (incl. {outcome['evicted']} LRU-evicted)" if outcome["evicted"] else ""
    print(
        f"pruned {outcome['removed']} stale entries{suffix} "
        f"({outcome['freed_bytes']} bytes); {outcome['kept']} kept"
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .serve.app import run_server

    cache = _cache_for(args)

    def ready(server, _gateway) -> None:
        # Machine-readable readiness line (the CI smoke parses the url).
        print(f"serving on {server.url}", flush=True)
        print(
            f"  jobs={args.jobs} queue_limit={args.queue_limit} "
            f"cache={'none' if cache is None else cache.stats()['root']}",
            file=sys.stderr,
        )

    try:
        asyncio.run(
            run_server(
                host=args.host,
                port=args.port,
                jobs=args.jobs,
                queue_limit=args.queue_limit,
                cache=cache,
                on_ready=ready,
            )
        )
    except KeyboardInterrupt:
        print("gateway stopped", file=sys.stderr)
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .runtime import RunSpec
    from .serve.client import ServeClientError, ServerQueueFull, submit_specs

    payload = json.loads(Path(args.specs).read_text())
    if isinstance(payload, dict):
        payload = payload.get("specs", [])
    specs = [RunSpec.from_json_dict(data) for data in payload]
    try:
        outcomes = submit_specs(args.url, specs, timeout=args.timeout)
    except ServerQueueFull as exc:
        print(f"rejected: {exc} (retry after {exc.retry_after}s)", file=sys.stderr)
        return 3
    except (ServeClientError, OSError) as exc:
        print(f"submit failed: {exc}", file=sys.stderr)
        return 2
    failed = 0
    for outcome in outcomes:
        if outcome.ok:
            summary = outcome.result.stats
            print(
                f"run {outcome.index} [{outcome.status}] {outcome.digest[:16]}: "
                f"{summary.messages} messages, {summary.bits} bits"
                + (f", {len(outcome.events)} events" if outcome.events else "")
            )
        else:
            failed += 1
            print(
                f"run {outcome.index} [error] {outcome.digest[:16]}: {outcome.error}"
            )
    print(f"{len(outcomes) - failed}/{len(outcomes)} runs ok", file=sys.stderr)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Computing on an Anonymous Ring — executable reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("demo", help="30-second tour").set_defaults(fn=_cmd_demo)
    report = sub.add_parser("report", help="run all experiments, print EXPERIMENTS body")
    report.add_argument("--quick", action="store_true", help="trimmed sweeps")
    report.add_argument(
        "--output",
        default=None,
        metavar="PATH",
        help="regenerate a markdown file in place (e.g. EXPERIMENTS.md) "
        "instead of printing to stdout",
    )
    _add_runner_arguments(report)
    report.set_defaults(fn=_cmd_report)
    sub.add_parser("verify", help="re-verify lower-bound constructions").set_defaults(
        fn=_cmd_verify
    )
    bench = sub.add_parser(
        "bench",
        help="run a benchmark suite, write its BENCH_*.json (simulators, "
        "analysis, obs, batch, dynamic)",
    )
    bench.add_argument(
        "--suite",
        choices=("simulators", "analysis", "obs", "batch", "dynamic", "all"),
        default="simulators",
        help="simulator engines, symmetry/fooling analysis paths, "
        "observability overhead (recorder off vs on), batch-engine "
        "throughput vs the generator, counting on dynamic/oblivious "
        "topologies (paper-bound checks), or all of them",
    )
    bench.add_argument("--quick", action="store_true", help="trimmed sweeps (CI smoke)")
    bench.add_argument(
        "--repeats", type=int, default=None, help="timed runs per point (best kept)"
    )
    bench.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="override every n-sweep"
    )
    bench.add_argument(
        "--output",
        default=None,
        help="output path (default: the suite's ./BENCH_*.json)",
    )
    _add_runner_arguments(bench)
    bench.set_defaults(fn=_cmd_bench)
    fuzz = sub.add_parser(
        "fuzz",
        help="schedule-fuzz the async algorithms, shrink failures, write FUZZ.json",
    )
    fuzz.add_argument(
        "--seed", type=int, default=0, help="master seed (same seed ⇒ same report)"
    )
    fuzz.add_argument(
        "--targets",
        nargs="+",
        default=None,
        help="registry targets to fuzz (default: all)",
    )
    fuzz.add_argument(
        "--sizes", type=int, nargs="+", default=None, help="override every n-sweep"
    )
    fuzz.add_argument(
        "--faults",
        nargs="+",
        default=None,
        choices=("none", "drop", "dup", "crash", "delay", "mixed"),
        help="fault profiles to exercise (default: all six)",
    )
    fuzz.add_argument(
        "--cases",
        type=int,
        default=None,
        help="fuzz cases per (target, n, profile) campaign (default 8; --quick 2)",
    )
    fuzz.add_argument(
        "--quick", action="store_true", help="trimmed sweep (CI smoke)"
    )
    fuzz.add_argument(
        "--output", default="FUZZ.json", help="report path (default ./FUZZ.json)"
    )
    _add_runner_arguments(fuzz)
    fuzz.set_defaults(fn=_cmd_fuzz)
    trace = sub.add_parser(
        "trace",
        help="record one run's event stream; write Chrome trace + JSONL, "
        "draw the space-time diagram from events",
    )
    trace.add_argument("target", help="registry algorithm name (e.g. sync-and, and)")
    trace.add_argument("--n", type=int, default=8, help="ring size (default 8)")
    trace.add_argument(
        "--engine",
        choices=("sync", "async", "async-synchronized"),
        default=None,
        help="engine override (default: sync for sync algorithms, async "
        "for async ones)",
    )
    trace.add_argument(
        "--seed", type=int, default=0, help="ring-generation seed (default 0)"
    )
    trace.add_argument(
        "--scheduler",
        choices=("round-robin", "random", "greedy", "bounded-delay"),
        default=None,
        help="async engine schedule (default round-robin)",
    )
    trace.add_argument(
        "--scheduler-seed",
        type=int,
        default=None,
        help="seed for the random/bounded-delay schedulers",
    )
    trace.add_argument(
        "--profile",
        choices=("none", "drop", "dup", "crash", "delay", "mixed"),
        default=None,
        help="fault profile to inject (async engine)",
    )
    trace.add_argument(
        "--fault-seed", type=int, default=0, help="fault-injector seed (default 0)"
    )
    trace.add_argument(
        "--horizon",
        type=int,
        default=None,
        help="event horizon for crash planting (crashing profiles)",
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        metavar="PATH",
        help="Chrome trace output (default ./trace.json)",
    )
    trace.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="JSONL event-log output (default: <out>.events.jsonl)",
    )
    trace.add_argument(
        "--metrics",
        default=None,
        metavar="PATH",
        help="also write the run-metrics snapshot as JSON",
    )
    trace.add_argument(
        "--no-diagram",
        action="store_true",
        help="skip the ASCII space-time diagram",
    )
    trace.set_defaults(fn=_cmd_trace)
    cache = sub.add_parser("cache", help="inspect or clean the result cache")
    cache.add_argument("action", choices=("stats", "prune"))
    cache.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="cache directory (default: $REPRO_CACHE_DIR)",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=None,
        metavar="N",
        help="with prune: also evict least-recently-used entries until "
        "the store fits N bytes",
    )
    cache.set_defaults(fn=_cmd_cache)
    serve = sub.add_parser(
        "serve",
        help="HTTP gateway: RunSpec batches in, cached/queued results out "
        "(NDJSON streaming; see docs/serve.md)",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="port (0 picks a free one)"
    )
    serve.add_argument(
        "--jobs", type=int, default=1, help="worker processes running cold specs"
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=256,
        help="max cold specs queued or running; beyond it submissions get "
        "429 + Retry-After",
    )
    serve.add_argument(
        "--cache",
        default=None,
        metavar="DIR",
        help="shared result cache (default: $REPRO_CACHE_DIR if set, else "
        "no cache — every spec runs cold)",
    )
    serve.set_defaults(fn=_cmd_serve)
    submit = sub.add_parser(
        "submit", help="post a JSON spec batch to a running gateway"
    )
    submit.add_argument(
        "specs",
        help='JSON file: a list of RunSpec objects, or {"specs": [...]} '
        "(the to_json_dict format; see docs/serve.md)",
    )
    submit.add_argument(
        "--url",
        default="http://127.0.0.1:8642",
        help="gateway base url (default http://127.0.0.1:8642)",
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="overall response timeout in seconds",
    )
    submit.set_defaults(fn=_cmd_submit)
    args = parser.parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
