"""The dynamic-counting benchmark suite: records, bounds, committed artifact."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.__main__ import main
from repro.perf import (
    DYNAMIC_FILENAME,
    SCHEMA_VERSION,
    dynamic_workload_spec,
    measure_dynamic,
    render_dynamic_table,
    run_dynamic_bench,
    write_dynamic_bench,
)
from repro.runtime.spec import execute

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestWorkloads:
    def test_unknown_workload_rejected(self):
        with pytest.raises(KeyError):
            dynamic_workload_spec("nope", 4)

    def test_specs_are_cache_stable(self):
        """Same (workload, n) must hash to the same slot run over run."""
        for name in ("dynamic_counting", "dynamic_counting_churn", "oblivious_counting"):
            assert (
                dynamic_workload_spec(name, 8).digest()
                == dynamic_workload_spec(name, 8).digest()
            )

    def test_dynamic_and_churn_specs_differ(self):
        assert dynamic_workload_spec("dynamic_counting", 8) != dynamic_workload_spec(
            "dynamic_counting_churn", 8
        )


class TestMeasure:
    def test_dynamic_counting_within_linear_bound(self):
        record = measure_dynamic("dynamic_counting", 8, repeats=1)
        assert record.within_bounds
        assert record.rounds <= 3 * 8
        assert not record.exact

    def test_oblivious_counting_exactly_2n(self):
        record = measure_dynamic("oblivious_counting", 16, repeats=1)
        assert record.exact
        assert record.within_bounds
        assert record.rounds == record.messages == record.bits == 32

    def test_measure_checks_outputs(self):
        """The suite re-verifies correctness, not just speed."""
        result = execute(dynamic_workload_spec("dynamic_counting", 6))
        assert all(out == 6 for out in result.outputs)


class TestSuite:
    def test_quick_run_and_table(self):
        records = run_dynamic_bench(quick=True, repeats=1)
        assert all(record.within_bounds for record in records)
        table = render_dynamic_table(records)
        for name in ("dynamic_counting", "oblivious_counting"):
            assert name in table

    def test_write_payload_schema(self, tmp_path):
        records = run_dynamic_bench(quick=True, repeats=1)
        target = tmp_path / "bench.json"
        written = write_dynamic_bench(records, target, quick=True)
        assert written == target
        payload = json.loads(target.read_text())
        assert payload["schema"] == SCHEMA_VERSION == 2
        assert payload["suite"] == "dynamic-counting"
        assert payload["bounds"]["ok"] is True
        assert payload["bounds"]["violations"] == []
        assert payload["bounds"]["max_rounds_per_n"]["oblivious_counting"] == 2.0


    def test_cli_quick_run_holds_the_bounds(self, tmp_path):
        target = tmp_path / "dynamic.json"
        assert main(["bench", "--suite", "dynamic", "--quick", "--output", str(target)]) == 0
        payload = json.loads(target.read_text())
        assert payload["schema"] == 2 and payload["suite"] == "dynamic-counting"
        assert payload["bounds"]["ok"], payload["bounds"]["violations"]


class TestCommittedArtifact:
    """The repo ships a full-grid BENCH_dynamic.json; it must validate."""

    @pytest.fixture()
    def payload(self):
        path = REPO_ROOT / DYNAMIC_FILENAME
        if not path.exists():
            pytest.skip(f"{DYNAMIC_FILENAME} not present")
        return json.loads(path.read_text())

    def test_schema_and_bounds(self, payload):
        assert payload["schema"] == SCHEMA_VERSION
        assert payload["suite"] == "dynamic-counting"
        assert payload["bounds"]["ok"] is True
        assert payload["bounds"]["violations"] == []

    def test_records_respect_their_own_bounds(self, payload):
        assert payload["records"], "artifact has no records"
        for record in payload["records"]:
            assert record["within_bounds"] is True
            if record["exact"]:
                assert record["rounds"] == record["round_bound"]
                assert record["bits"] == record["message_bound"]
            else:
                assert record["rounds"] <= record["round_bound"]
                assert record["messages"] <= record["message_bound"]

    def test_linear_rounds_curve(self, payload):
        """The committed curve itself is linear: rounds/n stays bounded."""
        ratios = payload["bounds"]["max_rounds_per_n"]
        assert ratios["dynamic_counting"] <= 3.0
        assert ratios["oblivious_counting"] == 2.0
