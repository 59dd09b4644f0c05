#!/usr/bin/env bash
# CI entry point: tier-1 tests, the repo benchmark's own tests and short
# checked runs of both its serve workloads, a full `report --jobs 2` that
# must regenerate the committed EXPERIMENTS.md byte for byte, both cold
# and again warm from the result cache the first run filled, plus
# quick-mode smoke runs of the bench suites and the symmetry-analysis
# pytest-benchmarks, so the perf harnesses themselves are exercised on
# every change.  Engine parity,
# the sync fuzz corpus, the topology-adversary fuzz, the dynamic bench's
# bound check and the batch bench's large-n row are tier-1 tests, so this
# script runs no inline Python.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH}

echo "== lint (ruff) =="
# Config lives in pyproject.toml ([tool.ruff]); tolerated as a no-op
# where the ruff binary isn't installed.
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
else
    echo "ruff not installed; skipping lint"
fi

echo "== tier-1 tests =="
python -m pytest -x -q

echo "== repo benchmark harness tests (perfbench/, outside tier-1's testpaths) =="
python -m pytest perfbench -q

echo "== repo benchmark smoke (serve_cold, 5 s, every result checked) =="
# A real `serve --jobs 2` child under the closed loop; exits nonzero when
# any served result, or the event count of a decoded recorded result,
# differs from a local execute.
python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 5 --trace 0

echo "== repo benchmark smoke (serve_warm, 5 s, every result checked) =="
# Every spec a cache hit: warm answers are encoded in the gateway
# (`protocol.encode_run`), a path serve_cold does not take.
python3 perfbench/run.py --workload serve_warm --seed 1 --seconds 5 --trace 0

echo "== report regenerates EXPERIMENTS.md byte-identically (--jobs 2, cold then warm cache) =="
# The fourth byte-identity suite: every experiment, run through the pool,
# must reproduce the committed tables exactly.  The first run fills a
# fresh result cache; the second is answered from it and must match too.
report_cache="$(mktemp -d)"
cold_copy="$(mktemp)"
warm_copy="$(mktemp)"
cp EXPERIMENTS.md "$cold_copy"
cp EXPERIMENTS.md "$warm_copy"
python -m repro report --jobs 2 --cache "$report_cache" --output "$cold_copy" > /dev/null
python -m repro report --jobs 2 --cache "$report_cache" --output "$warm_copy" > /dev/null
cmp "$cold_copy" EXPERIMENTS.md
cmp "$warm_copy" EXPERIMENTS.md
rm -rf "$report_cache" "$cold_copy" "$warm_copy"

echo "== bench smoke (quick, --jobs 2) =="
python -m repro bench --quick --jobs 2 --output BENCH_smoke.json
rm -f BENCH_smoke.json

echo "== analysis bench smoke (quick, --jobs 2) =="
python -m repro bench --suite analysis --quick --jobs 2 --output BENCH_analysis_smoke.json
rm -f BENCH_analysis_smoke.json

echo "== obs bench smoke (recorder-off overhead, quick) =="
python -m repro bench --suite obs --quick --sizes 8 --output BENCH_obs_smoke.json
rm -f BENCH_obs_smoke.json

echo "== batch bench smoke (vectorized engine vs generator, quick, incl. n=10^5) =="
# The quick grid includes the sparse-AND workload at n=100000 (a tier-1
# test keeps that row), so the large-n path (int32 lanes, padded delivery
# tables, bit accounting at 10^5 processors) is exercised on every CI
# run.  The time cap guards against the large-n row regressing into
# generator-like territory.
timeout 300 python -m repro bench --suite batch --quick --output BENCH_batch_smoke.json
rm -f BENCH_batch_smoke.json

echo "== symmetry analysis benchmarks =="
python -m pytest benchmarks/test_bench_symmetry.py -q

echo "== obs overhead guard =="
python -m pytest benchmarks/test_bench_obs.py -q

echo "== trace smoke (event stream reconciles with TraceStats) =="
# The sync-and line and the faulted line also draw the space-time
# diagram from the stream's send events, with its ! (dropped delivery)
# and + (duplicate) marks: sync-and drops sends at halted receivers.
python -m repro trace sync-and --n 6 --out TRACE_smoke.json
python -m repro trace input-distribution --n 5 --out TRACE_smoke.json \
    --metrics TRACE_smoke_metrics.json --no-diagram
# Both recording rules that write a state-transition row only for a
# transition that receives or sends: the synchronous engine with idling
# relays (Figure 2), and the synchronizing adversary (a row per delivery).
python -m repro trace fig2-input-distribution --n 8 --out TRACE_smoke.json --no-diagram
python -m repro trace input-distribution --n 5 --engine async-synchronized \
    --out TRACE_smoke.json --no-diagram
# A faulted stream: its duplicate and drop rows go through the log, both
# exporters, reconcile and the diagram.
python -m repro trace input-distribution --n 5 --profile dup --fault-seed 1 \
    --out TRACE_smoke.json
rm -f TRACE_smoke.json TRACE_smoke.events.jsonl TRACE_smoke_metrics.json

echo "== schedule-fuzz smoke (fixed seed, --jobs 2) =="
# Small fixed-seed sweep so schedule-dependent regressions in the engine
# or the algorithms fail fast; exits nonzero on any invariant violation.
# --jobs 2 exercises the multiprocessing path (reports are identical for
# every job count).
python -m repro fuzz --quick --seed 20240501 --jobs 2 --output FUZZ_smoke.json \
    --metrics METRICS_smoke.json
rm -f FUZZ_smoke.json METRICS_smoke.json

echo "ci.sh: all green"

# Docs refresh: after a change that moves any measured number, the
# report step above fails; regenerate the committed experiment tables in
# place with
#   python -m repro report --output EXPERIMENTS.md --jobs "$(nproc)"
# and commit the diff.  The file's footer carries no timestamps, so an
# unchanged report regenerates byte-identically.
