"""End-to-end tests for the schedule-fuzzing harness (`repro.faults`).

The centerpiece is the planted-bug test: a throwaway algorithm with a
deliberate schedule-dependent output is handed to the fuzzer, which must
find the bug, shrink the witness to a locally minimal failing prefix,
and certify that ``(seed, trace)`` replays it byte-identically.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.asynch import ReplayAdversary, RoundRobinScheduler, run_asynchronous
from repro.asynch.process import AsyncProcess
from repro.core import RingConfiguration
from repro.faults import (
    FuzzCase,
    FuzzTarget,
    ReplayDivergence,
    ReplayScheduler,
    ScheduleTrace,
    default_sync_targets,
    default_targets,
    run_case,
    run_fuzz,
    run_sync_corpus,
    sync_target_by_name,
    target_by_name,
)
from repro.faults.report import report_json
from repro.obs import CLOCK_LAMPORT, EventRecorder
from repro.__main__ import main


class Racy(AsyncProcess):
    """The planted bug: output depends on message *arrival order*."""

    def __init__(self, inp, n):
        super().__init__(inp, n)
        self.got = []

    def on_start(self, ctx):
        ctx.send_both(self.input)

    def on_message(self, ctx, port, payload):
        self.got.append(payload)
        if len(self.got) == 2:
            ctx.halt(tuple(self.got))  # unsorted: schedule-dependent


def _distinct_ring(n: int, rng: random.Random) -> RingConfiguration:
    labels = list(range(n))
    rng.shuffle(labels)
    return RingConfiguration.oriented(labels)


PLANTED = FuzzTarget(
    name="planted-racy",
    factory=Racy,
    make_config=_distinct_ring,
    sizes=(4, 5),
    description="throwaway algorithm with a schedule-dependent output",
)


def _planted_report(seed: int = 3):
    return run_fuzz(
        seed,
        targets=(PLANTED,),
        sizes=(4,),
        profiles=("none",),
        cases_per_campaign=12,
    )


class TestPlantedBug:
    def test_fuzzer_finds_shrinks_and_certifies(self):
        report = _planted_report()
        assert report["totals"]["violations"] >= 1
        violations = [
            v for c in report["campaigns"] for v in c["violations"]
        ]
        assert all(v["kind"] == "wrong-output" for v in violations)
        for v in violations:
            full = ScheduleTrace.from_json(v["trace"])
            minimized = ScheduleTrace.from_json(v["minimized"]["trace"])
            assert len(minimized) <= len(full)
            assert v["minimized"]["reproduced"] is True
            assert v["minimized"]["replay_deterministic"] is True
            assert v["scheduler_seed"] is not None

    def test_minimized_witness_replays_byte_identically(self):
        report = _planted_report()
        violation = next(
            v for c in report["campaigns"] for v in c["violations"]
        )
        n = 4
        trace = ScheduleTrace.from_json(violation["minimized"]["trace"])
        # (seed, trace) is the whole witness: the case seed regenerates
        # the ring, the trace pins every scheduling decision.
        config = _distinct_ring(n, random.Random(violation["case_seed"]))
        reference = run_asynchronous(config, Racy, scheduler=RoundRobinScheduler())

        def replay():
            recorder = EventRecorder(clock=CLOCK_LAMPORT)
            result = run_asynchronous(
                config,
                Racy,
                scheduler=ReplayScheduler(trace.choices),
                adversary=ReplayAdversary(trace.actions, trace.crashes),
                recorder=recorder,
            )
            return result, recorder.events

        (first, first_events), (second, second_events) = replay(), replay()
        assert first.outputs == second.outputs
        assert first_events == second_events
        assert first.stats.per_cycle == second.stats.per_cycle
        assert first.outputs != reference.outputs  # still the bug

    def test_minimized_witness_is_locally_minimal(self):
        report = _planted_report()
        violation = next(
            v for c in report["campaigns"] for v in c["violations"]
        )
        trace = ScheduleTrace.from_json(violation["minimized"]["trace"])
        assert len(trace) >= 1
        config = _distinct_ring(4, random.Random(violation["case_seed"]))
        reference = run_asynchronous(config, Racy, scheduler=RoundRobinScheduler())
        shorter = trace.truncated(len(trace) - 1)
        result = run_asynchronous(
            config,
            Racy,
            scheduler=ReplayScheduler(shorter.choices),
            adversary=ReplayAdversary(shorter.actions, shorter.crashes),
        )
        # One event less and the failure is gone: prefix is minimal.
        assert result.outputs == reference.outputs


@pytest.mark.parametrize("target", default_targets(), ids=lambda t: t.name)
@settings(max_examples=8, deadline=None)
@given(case_seed=st.integers(min_value=0, max_value=2**63 - 1))
def test_fault_free_fuzz_matches_round_robin(target, case_seed):
    """§2's ∀-schedule quantifier: every registered algorithm must give
    the round-robin reference output under any fault-free schedule."""
    n = target.sizes[0]
    record = run_case(target, FuzzCase(target.name, n, case_seed, "none"))
    assert record["status"] == "ok"


class TestReportDeterminism:
    def test_same_seed_byte_identical(self):
        kwargs = dict(
            targets=(target_by_name("and"),),
            sizes=(3,),
            profiles=("none", "drop"),
            cases_per_campaign=3,
        )
        a = run_fuzz(17, **kwargs)
        b = run_fuzz(17, **kwargs)
        assert report_json(a) == report_json(b)

    def test_report_shape(self):
        report = run_fuzz(
            17,
            targets=(target_by_name("input-distribution"),),
            sizes=(3,),
            profiles=("none",),
            cases_per_campaign=2,
        )
        assert report["schema"] == 1
        assert report["seed"] == 17
        assert report["totals"]["cases"] == 2
        assert "input-distribution" in report["targets"]
        (campaign,) = report["campaigns"]
        assert campaign["strict"] is True
        assert campaign["ok"] + campaign["tolerated_failures"] + len(
            campaign["violations"]
        ) == campaign["cases"]


class TestTraceRoundTrip:
    def test_json_round_trip(self):
        trace = ScheduleTrace(
            choices=(1, 0, 2), actions=(0, 1, 2), crashes=((3, 1),)
        )
        assert ScheduleTrace.from_json(trace.to_json()) == trace

    def test_truncated_keeps_crashes(self):
        trace = ScheduleTrace(choices=(1, 0, 2), actions=(0, 1, 2), crashes=((3, 1),))
        cut = trace.truncated(1)
        assert cut.choices == (1,)
        assert cut.actions == (0,)
        assert cut.crashes == trace.crashes

    def test_empty_trace_replays_as_round_robin(self):
        target = target_by_name("and")
        config = target.make_config(4, random.Random(5))
        a_events = EventRecorder(clock=CLOCK_LAMPORT)
        b_events = EventRecorder(clock=CLOCK_LAMPORT)
        a = run_asynchronous(
            config, target.factory, scheduler=ReplayScheduler(()), recorder=a_events
        )
        b = run_asynchronous(
            config, target.factory, scheduler=RoundRobinScheduler(), recorder=b_events
        )
        assert a.outputs == b.outputs
        assert a_events.events == b_events.events

    def test_divergent_replay_raises(self):
        target = target_by_name("and")
        config = target.make_config(3, random.Random(5))
        with pytest.raises(ReplayDivergence):
            run_asynchronous(
                config, target.factory, scheduler=ReplayScheduler((999,))
            )


class TestRegistry:
    def test_target_by_name_round_trips(self):
        for target in default_targets():
            assert target_by_name(target.name) is not None

    def test_unknown_target_rejected(self):
        from repro.core import ConfigurationError

        with pytest.raises(ConfigurationError, match="unknown fuzz target"):
            target_by_name("definitely-not-a-target")


class TestCli:
    def test_fuzz_smoke_deterministic(self, tmp_path):
        argv = [
            "fuzz",
            "--seed",
            "7",
            "--targets",
            "and",
            "--sizes",
            "3",
            "--faults",
            "none",
            "drop",
            "--cases",
            "2",
        ]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(argv + ["--output", str(out1)]) == 0
        assert main(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestWitnessEvents:
    """Violations carry the minimized witness's repro.obs event stream."""

    def test_violation_records_attach_events(self):
        from repro.obs import EVENT_KINDS, event_from_json

        report = _planted_report()
        violations = [v for c in report["campaigns"] for v in c["violations"]]
        assert violations
        for violation in violations:
            rows = violation["events"]
            assert rows, "reproduced violation should carry its event stream"
            events = [event_from_json(row) for row in rows]
            assert [e.seq for e in events] == list(range(len(events)))
            assert all(e.kind in EVENT_KINDS for e in events)
            # The stream is a complete replay of the witness: transport
            # conservation holds at the point the run ended.
            kinds = {k: sum(1 for e in events if e.kind == k) for k in EVENT_KINDS}
            assert (
                kinds["send"] + kinds["duplicate"]
                >= kinds["deliver"] + kinds["drop"]
            )

    def test_witness_events_are_deterministic(self):
        first = _planted_report()
        second = _planted_report()
        events_a = [
            v["events"] for c in first["campaigns"] for v in c["violations"]
        ]
        events_b = [
            v["events"] for c in second["campaigns"] for v in c["violations"]
        ]
        assert events_a == events_b


class TestSyncCorpus:
    """The fault-free synchronous corpus rides the batched sweep path."""

    def test_engine_knob_is_invisible_in_the_report(self):
        """auto (sync-batch where supported) vs forced sync: same bytes."""
        import json

        for seed in (11, 20240501):
            auto = run_sync_corpus(seed=seed, engine="auto")
            forced = run_sync_corpus(seed=seed, engine="sync")
            assert json.dumps(auto, sort_keys=True) == json.dumps(
                forced, sort_keys=True
            )
            assert auto["violations"] == 0

    def test_topology_targets_survive_adversarial_rewiring(self):
        """Dynamic and oblivious counting output the true ring size on
        every seeded adversarial rewiring case."""
        targets = (
            sync_target_by_name("dynamic-counting"),
            sync_target_by_name("oblivious-counting"),
        )
        assert {t.name for t in targets} <= {t.name for t in default_sync_targets()}
        assert targets[0].topologies and targets[1].oblivious
        for seed in (20240501, 20240502):
            report = run_sync_corpus(seed=seed, targets=targets)
            assert report["cases"] > 0
            assert report["violations"] == 0, report["campaigns"]

    def test_every_default_target_runs_clean(self):
        report = run_sync_corpus(seed=7)
        assert report["violations"] == 0
        assert set(report["targets"]) == {
            t.name for t in default_sync_targets()
        }
        by_target = {c["target"] for c in report["campaigns"]}
        assert by_target == set(report["targets"])
        for campaign in report["campaigns"]:
            assert campaign["ok"] == len(campaign["cases"])

    def test_invariant_checker_catches_wrong_outputs(self):
        """A deliberately broken checker proves the wiring can fail."""
        import dataclasses

        target = sync_target_by_name("sync-and")
        broken = dataclasses.replace(
            target, check=lambda config, result: "planted mismatch"
        )
        report = run_sync_corpus(seed=5, targets=(broken,))
        assert report["violations"] == report["cases"] > 0
        violation = report["campaigns"][0]["cases"][0]["violation"]
        assert violation["kind"] == "invariant"
        assert violation["detail"] == "planted mismatch"
        assert "config" in violation

    def test_rejects_unknown_engine(self):
        from repro.core.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="'auto' or 'sync'"):
            run_sync_corpus(seed=1, engine="sync-batch")

    def test_corpus_section_reaches_run_fuzz_report(self):
        report = run_fuzz(
            seed=13,
            targets=(target_by_name("and"),),
            sizes=(3,),
            profiles=("none",),
            cases_per_campaign=1,
            sync_cases_per_campaign=1,
        )
        assert report["totals"]["sync_cases"] > 0
        assert report["totals"]["sync_violations"] == 0
        assert set(report["sync_targets"]) == {
            t.name for t in default_sync_targets()
        }
        assert report["sync_campaigns"]
