"""Property tests for the observability layer.

The counters (:class:`TraceStats`) and the event stream travel through
*independent* engine code paths, so randomized agreement between them is
the strongest end-to-end check the layer has: on arbitrary rings, seeds,
schedulers and fault profiles, :func:`repro.obs.reconcile` must come back
empty, the conservation law ``messages + duplicated == delivered +
dropped`` must hold on both views at quiescence, every stream must
round-trip through JSONL, and every Chrome trace must validate.

The columnar :class:`~repro.obs.events.EventLog` is proved against
``ReferenceEventRecorder`` (``tests/reference_engines.py``), which records
frozen :class:`~repro.obs.events.Event` records: same events, same wire
texts, and a pickle round trip that changes nothing — on complete runs
and on runs a budget kills.
"""

from __future__ import annotations

import json
import pickle
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from reference_engines import ReferenceEventRecorder

from repro.core.errors import NonTerminationError, ReproError
from repro.core.message import Port
from repro.core.ring import RingConfiguration
from repro.obs import (
    EventRecorder,
    chrome_trace,
    event_to_json,
    events_to_jsonl,
    read_events_jsonl,
    reconcile,
    run_metrics,
    validate_chrome_trace,
    write_events_jsonl,
)
from repro.runtime import spec as spec_module
from repro.runtime.spec import RunSpec, execute
from repro.topology import TopologySpec

ring_sizes = st.integers(3, 8)
seeds = st.integers(0, 10_000)


def binary_ring(n: int, seed: int, oriented: bool = True) -> RingConfiguration:
    return RingConfiguration.random(n, random.Random(seed), oriented=oriented)


def election_ring(n: int, seed: int) -> RingConfiguration:
    labels = list(range(1, n + 1))
    random.Random(seed).shuffle(labels)
    return RingConfiguration.oriented(tuple(labels))


class TestReconciliation:
    @given(ring_sizes, seeds)
    @settings(max_examples=30, deadline=None)
    def test_sync_runs_reconcile(self, n, seed):
        spec = RunSpec.make(
            engine="sync",
            ring=binary_ring(n, seed),
            algorithm="fig2-input-distribution",
            record=True,
        )
        result = execute(spec)
        assert reconcile(result.events, result.stats, engine="sync") == []

    @given(ring_sizes, seeds, st.sampled_from(["round-robin", "random", "greedy"]))
    @settings(max_examples=30, deadline=None)
    def test_async_runs_reconcile(self, n, seed, scheduler):
        spec = RunSpec.make(
            engine="async",
            ring=binary_ring(n, seed),
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler=scheduler,
            scheduler_seed=seed if scheduler == "random" else None,
            record=True,
        )
        result = execute(spec)
        assert reconcile(result.events, result.stats, engine="async") == []
        stats = result.stats
        assert stats.messages + stats.duplicated == stats.delivered + stats.dropped

    @given(ring_sizes, seeds)
    @settings(max_examples=20, deadline=None)
    def test_async_synchronized_runs_reconcile(self, n, seed):
        spec = RunSpec.make(
            engine="async-synchronized",
            ring=binary_ring(n, seed),
            algorithm="input-distribution",
            params={"assume_oriented": True},
            record=True,
        )
        result = execute(spec)
        assert reconcile(result.events, result.stats, engine="async") == []

    @given(
        st.integers(4, 7),
        seeds,
        seeds,
        st.sampled_from(["dup", "delay"]),
    )
    @settings(max_examples=25, deadline=None)
    def test_faulted_elections_reconcile_even_when_they_die(
        self, n, seed, fault_seed, profile
    ):
        """Conservation survives faults — including runs the faults kill.

        A duplicated or delayed token can deadlock chang-roberts; the
        recorder hooks still fired for every transport event up to the
        failure, so the *stream's* conservation law must hold at the
        point of death even when no result comes back.
        """
        from repro.obs.events import CLOCK_LAMPORT, EventRecorder
        from repro.runtime.spec import build_adversary, build_scheduler
        from repro.asynch.simulator import run_asynchronous
        from repro.runtime.registry import algorithm

        spec = RunSpec.make(
            engine="async",
            ring=election_ring(n, seed),
            algorithm="chang-roberts",
            scheduler="random",
            scheduler_seed=seed,
            fault_profile=profile,
            fault_seed=fault_seed,
        )
        recorder = EventRecorder(clock=CLOCK_LAMPORT)
        try:
            result = run_asynchronous(
                spec.ring,
                algorithm(spec.algorithm).factory(),
                scheduler=build_scheduler(spec),
                adversary=build_adversary(spec),
                recorder=recorder,
            )
        except ReproError:
            result = None
        events = recorder.events
        kinds = {
            kind: sum(1 for e in events if e.kind == kind)
            for kind in ("send", "deliver", "drop", "duplicate")
        }
        # In-flight messages at the point of death are neither delivered
        # nor dropped, so the invariant is an inequality mid-run and an
        # equality at quiescence.
        assert kinds["send"] + kinds["duplicate"] >= kinds["deliver"] + kinds["drop"]
        if result is not None:
            assert reconcile(events, result.stats, engine="async") == []


class TestExportProperties:
    @given(n=ring_sizes, seed=seeds)
    @settings(max_examples=15, deadline=None)
    def test_jsonl_round_trip_on_random_runs(self, tmp_path_factory, n, seed):
        spec = RunSpec.make(
            engine="sync",
            ring=binary_ring(n, seed),
            algorithm="sync-and",
            record=True,
        )
        events = execute(spec).events
        path = tmp_path_factory.mktemp("jsonl") / "events.jsonl"
        write_events_jsonl(events, path)
        read_back = read_events_jsonl(path)
        # Re-encoding the decoded stream reproduces the file exactly.
        assert events_to_jsonl(read_back) == path.read_text()
        assert [e.kind for e in read_back] == [e.kind for e in events]
        assert [e.time for e in read_back] == [e.time for e in events]

    @given(ring_sizes, seeds, st.sampled_from(["sync", "async"]))
    @settings(max_examples=20, deadline=None)
    def test_chrome_traces_validate_on_random_runs(self, n, seed, engine):
        if engine == "sync":
            spec = RunSpec.make(
                engine="sync",
                ring=binary_ring(n, seed),
                algorithm="fig2-input-distribution",
                record=True,
            )
        else:
            spec = RunSpec.make(
                engine="async",
                ring=binary_ring(n, seed),
                algorithm="input-distribution",
                params={"assume_oriented": True},
                scheduler="random",
                scheduler_seed=seed,
                record=True,
            )
        result = execute(spec)
        assert validate_chrome_trace(chrome_trace(result.events, n=n)) == []

    @given(ring_sizes, seeds)
    @settings(max_examples=15, deadline=None)
    def test_metrics_totals_match_the_stream(self, n, seed):
        spec = RunSpec.make(
            engine="async",
            ring=binary_ring(n, seed),
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler="random",
            scheduler_seed=seed,
            record=True,
        )
        result = execute(spec)
        snapshot = run_metrics(result.events, result.stats)
        assert snapshot["sends"] == result.stats.messages
        assert snapshot["delivers"] == result.stats.delivered
        assert snapshot["bits"] == result.stats.bits
        assert snapshot["halts"] == n
        assert snapshot["queue_depth"]["final"] == 0
        assert snapshot["latency"]["count"] == result.stats.delivered
        assert snapshot["trace_stats"]["messages"] == result.stats.messages


def leader_ring(n: int) -> RingConfiguration:
    return RingConfiguration.oriented((1,) + (0,) * (n - 1))


@st.composite
def recorded_specs(draw, budget=None):
    """A recorded spec over every recording engine and the hooks' variety."""
    n = draw(ring_sizes)
    seed = draw(seeds)
    shape = draw(
        st.sampled_from(
            ["sync", "wakeup", "dynamic", "oblivious", "async", "faults", "synchronized"]
        )
    )
    if shape == "sync":
        spec = RunSpec.make(
            engine="sync",
            ring=binary_ring(n, seed),
            algorithm=draw(st.sampled_from(["fig2-input-distribution", "sync-and"])),
        )
    elif shape == "wakeup":
        times = draw(st.lists(st.integers(0, 3), min_size=n - 1, max_size=n - 1))
        spec = RunSpec.make(
            engine="sync",
            ring=RingConfiguration.oriented((0,) * n),
            algorithm="start-sync",
            wakeup=(0, *times),
        )
    elif shape == "dynamic":
        spec = RunSpec.make(
            engine="sync",
            ring=leader_ring(n),
            algorithm="dynamic-counting",
            topology=TopologySpec("dynamic-ring", seed=seed, churn=0.5, path_rate=0.3),
        )
    elif shape == "oblivious":
        spec = RunSpec.make(
            engine="sync",
            ring=leader_ring(n),
            algorithm="oblivious-counting",
            message_mode="oblivious",
        )
    elif shape == "async":
        scheduler = draw(st.sampled_from(["round-robin", "random", "greedy"]))
        spec = RunSpec.make(
            engine="async",
            ring=binary_ring(n, seed),
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler=scheduler,
            scheduler_seed=seed if scheduler == "random" else None,
        )
    elif shape == "faults":
        profile = draw(st.sampled_from(["drop", "dup", "crash", "delay"]))
        spec = RunSpec.make(
            engine="async",
            ring=election_ring(n, seed),
            algorithm="chang-roberts",
            scheduler="random",
            scheduler_seed=seed,
            fault_profile=profile,
            fault_seed=draw(seeds),
            fault_horizon=4 * n * n if profile == "crash" else None,
        )
    else:
        spec = RunSpec.make(
            engine="async-synchronized",
            ring=binary_ring(n, seed),
            algorithm="input-distribution",
            params={"assume_oriented": True},
        )
    return spec.with_(record=True, budget=budget)


def record_both(spec: RunSpec):
    """``(log, reference events, raised)`` for one spec, run once per recorder.

    ``execute`` builds its recorder through ``build_recorder``; each run
    gets one recorder handed in, so a run that raises still leaves
    everything recorded up to the failure.
    """
    build = spec_module.build_recorder
    recorders = (build(spec), ReferenceEventRecorder(clock=build(spec).clock))
    raised = []
    for recorder in recorders:
        with mock.patch.object(spec_module, "build_recorder", return_value=recorder):
            try:
                result = execute(spec)
            except ReproError:
                raised.append(True)
            else:
                assert result.events is recorder.events
                raised.append(False)
    assert raised[0] == raised[1]
    return recorders[0].events, recorders[1].events, raised[0]


def assert_log_matches(log, reference) -> None:
    assert list(log) == reference
    assert pickle.loads(pickle.dumps(log, protocol=pickle.HIGHEST_PROTOCOL)) == log


class TestLogAgainstReference:
    @given(recorded_specs())
    @settings(max_examples=60, deadline=None)
    def test_log_equals_the_reference_recorder(self, spec):
        log, reference, _ = record_both(spec)
        assert reference
        assert_log_matches(log, reference)

    @given(recorded_specs(budget=1))
    @settings(max_examples=20, deadline=None)
    def test_a_run_killed_by_its_budget_keeps_the_reference_prefix(self, spec):
        """The fuzzer's witness replays read logs of runs that died."""
        log, reference, raised = record_both(spec)
        assume(raised)  # a 3-ring finishes input distribution in one cycle
        with pytest.raises(NonTerminationError):
            execute(spec)
        assert_log_matches(log, reference)

    def test_equal_payloads_of_different_types_stay_apart(self):
        """``True == 1 == 1.0``: interning by equality would merge them."""
        recorder = EventRecorder()
        for channel, payload in enumerate((True, 1, 1.0)):
            recorder.send(channel, channel + 1, Port.RIGHT, Port.LEFT, payload, 1, 0, channel)
            recorder.deliver(channel, 1)
        texts = [
            json.dumps(event_to_json(event))
            for event in recorder.events
            if event.kind == "deliver"
        ]
        assert '"payload": true,' in texts[0]
        assert '"payload": 1,' in texts[1]
        assert '"payload": 1.0,' in texts[2]
        assert [type(event.payload) for event in recorder.events] == [
            bool, bool, bool, int, int, int, float, float, float
        ]
