"""Tests of the benchmark's own code: ``python -m pytest perfbench``."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

import checkout
import gate
import run
import spans
import specgen
from checkout import EXPERIMENTS, ROOT, SRC
from summary import percentile


def _digests(seed):
    warm = [spec.digest() for spec in specgen.warm_set(seed)]
    batches = specgen.cold_batches(seed)
    cold = [spec.digest() for _ in range(4) for spec in next(batches)]
    return warm + cold


def test_same_seed_gives_same_digests_in_two_processes():
    here = _digests(11)
    code = (
        "import json, sys; "
        f"sys.path[:0] = [{str(ROOT / 'perfbench')!r}, {str(SRC)!r}]; "
        "from test_perfbench import _digests; print(json.dumps(_digests(11)))"
    )
    there = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        timeout=120,
    )
    assert json.loads(there.stdout) == here
    assert _digests(12) != here


def test_cold_digests_are_all_distinct():
    batches = specgen.cold_batches(5)
    digests = [spec.digest() for _ in range(150) for spec in next(batches)]
    assert len(set(digests)) == len(digests)
    warm = [spec.digest() for spec in specgen.warm_set(5)]
    assert len(set(warm)) == specgen.WARM_SET


def test_cold_batches_balance_engines_sizes_and_recording():
    sizes = list(range(specgen.MIN_N, specgen.MAX_N + 1))
    recording = [engine for engine in specgen.ENGINES if engine != "sync-batch"]
    # Three recorded specs per four batches: enough batches to record
    # every size once on every recording engine.
    rounds = len(sizes) * len(recording) * 4 // 3
    stream = specgen.cold_batches(2)
    batches = [next(stream) for _ in range(rounds)]
    assert all(sum(spec.record for spec in batch) <= 1 for batch in batches)
    specs = [spec for batch in batches for spec in batch]
    assert sum(spec.record for spec in specs) * 8 == 6 * rounds  # one in eight
    for engine in specgen.ENGINES:
        mine = [spec for spec in specs if spec.engine == engine]
        assert len(mine) == 2 * rounds
        assert all(spec.ring.n in sizes for spec in mine)
        recorded = sorted(spec.ring.n for spec in mine if spec.record)
        assert recorded == ([] if engine == "sync-batch" else sizes)


def test_percentile_refuses_fewer_than_ten_samples_beyond_it():
    assert percentile(range(1, 101), 90) == 90
    with pytest.raises(ValueError):
        percentile(range(1, 100), 90)
    assert percentile(range(1, 1001), 99) == 990
    with pytest.raises(ValueError):
        percentile(range(1, 1000), 99)


def _served(specs):
    """A request whose outcomes match local execution exactly."""
    local = gate.local_fingerprints(specs)
    outcomes = [
        gate.Outcome(spec.digest(), "done", *local[spec.digest()]) for spec in specs
    ]
    return gate.Request(0, list(specs), latency=0.01, outcomes=outcomes), local


def test_gate_fails_on_one_tampered_result():
    specs = next(specgen.cold_batches(3))
    request, local = _served(specs)
    assert gate.serve_failures([request], local) == (0, [])
    request.outcomes[5].fingerprint = b"tampered"
    failed, reasons = gate.serve_failures([request], local)
    assert failed == 1
    assert "differs from local execute" in reasons[0]


def test_gate_counts_refused_and_failed_requests():
    specs = next(specgen.cold_batches(3))
    request, local = _served(specs)
    request.outcomes[0] = gate.Outcome(specs[0].digest(), "error", error="boom")
    refused = gate.Request(1, list(specs), error="HTTP 429", refused=True)
    failed, _ = gate.serve_failures([request, refused], local)
    assert failed == 1 + len(specs)


def test_gate_fails_on_one_altered_experiments_row():
    expected = EXPERIMENTS.read_text(encoding="utf-8")
    assert gate.report_failures(expected, expected) == 0
    lines = expected.splitlines(keepends=True)
    row = next(i for i, line in enumerate(lines) if line.startswith("| E5 "))
    altered = lines[:row] + [lines[row].replace("|", "| 0", 1)] + lines[row + 1:]
    assert gate.report_failures(expected, "".join(altered)) == 1
    assert gate.report_failures(expected, "# other preamble\n" + expected) == 1
    assert len(gate.experiment_ids(expected)) == 20


def test_tracer_self_time_excludes_nested_spans():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(10000))
    totals = tracer.totals()
    outer_calls, outer_total, outer_self = totals["outer"]
    _, inner_total, inner_self = totals["inner"]
    assert outer_calls == 1
    assert inner_self == inner_total
    assert outer_self == pytest.approx(outer_total - inner_total)


def test_missing_entry_point_is_reported_not_raised():
    class Owner:
        def present(self):
            return 1

    owner, patches, tracer = Owner(), spans.Patches(), spans.Tracer()
    patches.spanned(tracer, owner, "present", "layer.present")
    patches.spanned(tracer, owner, "absent", "layer.absent")
    assert owner.present() == 1
    assert patches.missing == ["layer.absent"]
    patches.undo()
    assert "present" not in vars(owner)
    assert [name for name, _, _ in tracer.spans] == ["layer.present"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and prctl")
def test_reaper_stops_a_grandchild_orphaned_by_its_parent():
    checkout.adopt_orphans()
    orphaning = (
        "import subprocess, sys; "
        "p = subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)'], "
        "stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL); "
        "print(p.pid, flush=True)"
    )
    parent = subprocess.run(
        [sys.executable, "-c", orphaning], capture_output=True, text=True, check=True,
        timeout=60,
    )
    grandchild = int(parent.stdout)
    assert grandchild in checkout.children()
    checkout.reap_children()
    assert checkout.children() == []
    assert not (Path("/proc") / str(grandchild)).exists()


def test_makespan_dispatches_in_order_to_the_first_free_worker():
    assert spans.makespan([1.0, 1.0, 5.0, 1.0], 2) == pytest.approx(6.0)
    assert spans.makespan([2.0, 1.0, 1.0], 1) == pytest.approx(4.0)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == ["serve_warm", "serve_cold"]
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())
    assert list(layers["workloads"]) == list(run.WORKLOADS)
