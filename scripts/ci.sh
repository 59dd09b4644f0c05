#!/usr/bin/env bash
# CI entry point: tier-1 tests, the repo benchmark's own tests and a
# short checked run of it, plus quick-mode smoke runs of both bench
# suites and the symmetry-analysis pytest-benchmarks, so the perf
# harnesses themselves are exercised on every PR.
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
# any served result or streamed event count differs from a local execute.
python3 perfbench/run.py --workload serve_cold --seed 1 --seconds 5 --trace 0

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
# The quick grid includes the sparse-AND workload at n=100000 — the
# large-n path (int32 lanes, padded delivery tables, bit accounting at
# 10^5 processors) is exercised on every CI run.  The time cap guards
# against the large-n row regressing into generator-like territory.
timeout 300 python -m repro bench --suite batch --quick --output BENCH_batch_smoke.json
python - <<'EOF'
import json

with open("BENCH_batch_smoke.json") as handle:
    payload = json.load(handle)
rows = payload["records"]
assert any(r["n"] >= 100_000 for r in rows), "quick grid lost its large-n row"
EOF
rm -f BENCH_batch_smoke.json

echo "== batched-sweep parity (--jobs 2, sync-batch vs sync, byte-identical) =="
python - <<'EOF'
import pickle
from repro.core import RingConfiguration
from repro.runtime import Runner, RunSpec

specs = [
    RunSpec.make(engine="sync-batch",
                 ring=RingConfiguration.oriented((1,) * n + (0,)),
                 algorithm="sync-and")
    for n in range(3, 11)
] + [
    RunSpec.make(engine="sync-batch",
                 ring=RingConfiguration.oriented((0,) * n),
                 algorithm="start-sync", wakeup=tuple(range(n)))
    for n in range(3, 9)
]
batched = Runner(jobs=2).run_specs(specs)
generator = Runner(jobs=2).run_specs(
    [spec.with_(engine="sync") for spec in specs]
)
assert [pickle.dumps(a) for a in batched] == [pickle.dumps(b) for b in generator], \
    "sync-batch results diverge from the generator engine"
print(f"batched-sweep parity: {len(specs)} specs byte-identical")
EOF

echo "== sync fuzz corpus parity (batched vs generator, byte-identical) =="
# The fault-free synchronous corpus rides the batched sweep path by
# default; forcing the generator engine must produce the same report
# bytes, or the engines have diverged.
python - <<'EOF'
import json
from repro.faults import run_sync_corpus

auto = run_sync_corpus(seed=20240501, engine="auto")
forced = run_sync_corpus(seed=20240501, engine="sync")
assert json.dumps(auto, sort_keys=True) == json.dumps(forced, sort_keys=True), \
    "batched sync corpus diverges from the generator engine"
assert auto["violations"] == 0, f"sync corpus violations: {auto['violations']}"
print(f"sync corpus parity: {auto['cases']} cases byte-identical, 0 violations")
EOF

echo "== topology-adversary fuzz smoke (fixed seeds, dynamic + oblivious) =="
# The fault-free corpus must carry the topology-layer counting targets,
# and they must survive seeded adversarial rewiring sweeps: every
# processor outputs the true ring size on every case, or the run fails.
python - <<'EOF'
from repro.faults import run_sync_corpus
from repro.faults.registry import default_sync_targets, sync_target_by_name

names = {t.name for t in default_sync_targets()}
assert {"dynamic-counting", "oblivious-counting"} <= names, names
assert sync_target_by_name("dynamic-counting").topologies
assert sync_target_by_name("oblivious-counting").oblivious

targets = (
    sync_target_by_name("dynamic-counting"),
    sync_target_by_name("oblivious-counting"),
)
cases = 0
for seed in (20240501, 20240502):
    report = run_sync_corpus(seed=seed, targets=targets)
    assert report["violations"] == 0, report["campaigns"]
    cases += report["cases"]
print(f"topology fuzz smoke: {cases} adversarial cases, 0 violations")
EOF

echo "== dynamic bench smoke (counting bounds, quick) =="
python -m repro bench --suite dynamic --quick --output BENCH_dynamic_smoke.json
python - <<'EOF'
import json

with open("BENCH_dynamic_smoke.json") as handle:
    payload = json.load(handle)
assert payload["schema"] == 2 and payload["suite"] == "dynamic-counting"
assert payload["bounds"]["ok"], payload["bounds"]["violations"]
EOF
rm -f BENCH_dynamic_smoke.json

echo "== symmetry analysis benchmarks =="
python -m pytest benchmarks/test_bench_symmetry.py -q

echo "== obs overhead guard =="
python -m pytest benchmarks/test_bench_obs.py -q

echo "== trace smoke (event stream reconciles with TraceStats) =="
python -m repro trace sync-and --n 6 --out TRACE_smoke.json --no-diagram
python -m repro trace input-distribution --n 5 --out TRACE_smoke.json \
    --metrics TRACE_smoke_metrics.json --no-diagram
# A faulted stream: its duplicate and drop rows go through the log, both
# exporters and reconcile.
python -m repro trace input-distribution --n 5 --profile dup --fault-seed 1 \
    --out TRACE_smoke.json --no-diagram
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

# Docs refresh (not run in CI): after a change that moves any measured
# number, regenerate the committed experiment tables in place with
#   python -m repro report --output EXPERIMENTS.md --jobs "$(nproc)"
# and commit the diff.  The file's footer carries no timestamps, so an
# unchanged report regenerates byte-identically.
