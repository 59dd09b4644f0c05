"""The repository benchmark: one command, three workloads.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three in turn and prefixes each metric of
the JSON line with its workload; its ``peak_rss_mb`` is the peak so far
across the workloads already run.

Workloads (reasons and layer maps in ``perfbench/layers.json``):

* ``serve_warm`` — ``python -m repro serve`` primed with 64 specs, then
  replayed by two closed-loop clients: every spec is a cache hit;
* ``serve_cold`` — the same gateway and clients, every spec new;
* ``report`` — ``python -m repro report --jobs 2`` sweeps to a copy of
  EXPERIMENTS.md (not gated by BENCHMARK.json: too unsteady on a shared
  host, see layers.json).

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` is the separate traced run: it replays the same request
sequence with spans around each layer's public entry points and reports
per-layer self time (see :mod:`spans`).  Human-readable lines carry
every metric with its unit and sample count; the last line is the JSON
result.  The exit code is nonzero when any output check fails.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys

from checkout import (
    ROOT, SRC, adopt_orphans, missing_program, reap_children, use_program, work_dir,
)

WORKLOADS = ("serve_warm", "serve_cold", "report")

#: The gated end-to-end metrics (BENCHMARK.json) and where each comes
#: from in a workload's rows: a report "request" is one whole sweep.
END_TO_END = {
    "setup_s": ("setup_s", "setup_s"),
    "latency_p50_ms": ("latency_p50_ms", "sweep_s"),
    "throughput_per_s": ("specs_per_s", "experiments_per_s"),
    "peak_rss_mb": ("peak_rss_mb", "peak_rss_mb"),
}


def end_to_end(workload: str, rows):
    """The BENCHMARK.json end-to-end metrics picked from a run's rows."""
    metrics = {}
    for name, (serve_key, report_key) in END_TO_END.items():
        value, unit, samples = rows[report_key if workload == "report" else serve_key]
        if name == "latency_p50_ms" and workload == "report":
            value, unit = value * 1000, "ms"
        metrics[name] = (value, unit, samples)
    return metrics


def measure(workload: str, seed: int, seconds: float, trace: bool):
    """One workload's run: ``(outcome, metrics for the JSON line)``."""
    with work_dir() as work:
        if trace:
            import spans

            outcome = spans.run(workload, seed, seconds, work)
            return outcome, outcome["rows"]
        if workload == "report":
            import report_load

            outcome = report_load.run(seed, seconds, work)
        else:
            import serve_load

            outcome = serve_load.run(workload, seed, seconds, work)
    return outcome, end_to_end(workload, outcome["rows"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    problem = missing_program()
    if problem:
        print(f"perfbench: cannot run here: {problem}", file=sys.stderr)
        return 2
    use_program()
    # A launcher that ignores SIGINT (a background job of a shell script)
    # would hand that on to the gateway, which stops cleanly on SIGINT.
    if signal.getsignal(signal.SIGINT) is signal.SIG_IGN:
        signal.signal(signal.SIGINT, signal.default_int_handler)
    adopt_orphans()
    try:
        return run_workloads(args)
    finally:
        reap_children()


def run_workloads(args: argparse.Namespace) -> int:
    """Measure, print and check each chosen workload; the exit code."""
    from summary import print_table, provenance, result_line

    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    title = "per-layer metrics (traced run)" if args.trace else "end-to-end metrics"
    correct, attempted, failed, metrics = True, 0, 0, {}
    for workload in chosen:
        print("# provenance " + json.dumps(
            provenance(ROOT, SRC, workload, args.seed, bool(args.trace))
        ))
        outcome, measured = measure(workload, args.seed, args.seconds, bool(args.trace))
        print_table(workload, title, outcome["rows"])
        for name in outcome.get("missing", ()):
            print(f"# missing entry point {name}: its layer metrics read 0")
        for line in outcome["problems"]:
            print(f"# FAILED {line}")
        correct = correct and outcome["failed"] == 0 and not outcome["problems"]
        attempted += outcome["attempted"]
        failed += outcome["failed"]
        prefix = f"{workload}." if len(chosen) > 1 else ""
        metrics.update({prefix + name: value for name, value in measured.items()})
    print(result_line(correct, attempted, failed, metrics))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
