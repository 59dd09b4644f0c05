"""The repro.obs event stream: recorder semantics and engine hook-up.

Two layers under test.  First the :class:`EventRecorder` in isolation —
its FIFO channel mirrors, message-id linking, the Lamport clock rules
(tick on send, ``max+1`` on receive, no tick on drop), and the one-slot
pending-copy protocol behind ``duplicate``.  Then the engines end to end:
a recorded run must attach a stream that reconciles field-for-field with
the same run's :class:`TraceStats`, and recording must not perturb the
run itself (outputs, counters and logs stay byte-identical).
"""

from __future__ import annotations

import http.client
import json
import pickle
import random
from urllib.parse import urlsplit

import pytest

from repro.algorithms.async_input_distribution import AsyncInputDistribution
from repro.asynch import run_async_synchronized
from repro.core.message import Port
from repro.core.ring import RingConfiguration
from repro.obs import (
    CLOCK_CYCLE,
    CLOCK_LAMPORT,
    EVENT_KINDS,
    EventRecorder,
    Recorder,
    assert_reconciled,
    reconcile,
)
from repro.perf.bench import workload_spec
from repro.runtime.spec import RunSpec, execute
from repro.serve import ServerThread
from repro.sync import Idle, Out, SyncProcess, run_synchronous


def oriented_ring(bits) -> RingConfiguration:
    return RingConfiguration.oriented(tuple(bits))


def recorded(spec: RunSpec):
    """Run a spec with recording on; returns (result, events)."""
    result = execute(spec.with_(record=True))
    assert result.events is not None
    return result, result.events


class TestRecorderUnit:
    """EventRecorder semantics, no engine involved."""

    def test_rejects_unknown_clock(self):
        with pytest.raises(ValueError):
            EventRecorder(clock="wall")

    def test_seq_is_emission_order(self):
        rec = EventRecorder(clock=CLOCK_CYCLE)
        rec.wake(0, 0)
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "x", 1, 0, channel=("c",))
        rec.deliver(("c",), 1)
        assert [e.seq for e in rec.events] == list(range(len(rec.events)))
        assert all(e.kind in EVENT_KINDS for e in rec.events)

    def test_send_emits_send_and_enqueue_linked_by_msg(self):
        rec = EventRecorder(clock=CLOCK_CYCLE)
        rec.send(2, 3, Port.RIGHT, Port.LEFT, "hello", 5, 7, channel="ch")
        send, enqueue = rec.events
        assert (send.kind, enqueue.kind) == ("send", "enqueue")
        assert send.msg == enqueue.msg == 0
        assert (send.proc, send.peer) == (2, 3)
        assert (enqueue.proc, enqueue.peer) == (3, 2)
        assert send.port == "right" and enqueue.port == "left"
        assert send.bits == 5 and send.etime == 7

    def test_channel_mirror_is_fifo(self):
        rec = EventRecorder(clock=CLOCK_CYCLE)
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "a", 1, 0, channel="ch")
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "b", 1, 0, channel="ch")
        rec.deliver("ch", 1)
        rec.deliver("ch", 2)
        delivers = [e for e in rec.events if e.kind == "deliver"]
        assert [e.payload for e in delivers] == ["a", "b"]
        assert [e.msg for e in delivers] == [0, 1]

    def test_lamport_send_ticks_and_deliver_witnesses(self):
        rec = EventRecorder(clock=CLOCK_LAMPORT)
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "a", 1, 0, channel="ch")
        send = rec.events[0]
        assert send.time == 1  # first local event at processor 0
        rec.deliver("ch", 1)
        deliver = next(e for e in rec.events if e.kind == "deliver")
        # Receive rule: max(local=0, send stamp=1) + 1.
        assert deliver.time == 2
        # The delivery is the receiver's state transition.
        assert rec.events[-1].kind == "state-transition"
        assert rec.events[-1].time == 2

    def test_lamport_drop_keeps_send_stamp_and_ticks_nothing(self):
        rec = EventRecorder(clock=CLOCK_LAMPORT)
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "a", 1, 0, channel="ch")
        send_stamp = rec.events[0].time
        rec.drop("ch", 3, reason="adversary")
        drop = rec.events[-1]
        assert drop.kind == "drop" and drop.detail == "adversary"
        assert drop.time == send_stamp
        # No state change at the receiver: its clock is still untouched.
        rec.send(1, 0, Port.LEFT, Port.RIGHT, "b", 1, 0, channel="back")
        assert rec.events[-2].time == 1  # processor 1's first tick

    def test_duplicate_copy_is_delivered_before_original(self):
        rec = EventRecorder(clock=CLOCK_LAMPORT)
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "tok", 1, 0, channel="ch")
        original = rec.events[0].msg
        rec.duplicate("ch", 1)
        dup = rec.events[-1]
        assert dup.kind == "duplicate"
        assert dup.msg != original and dup.detail == f"copy-of:{original}"
        rec.deliver("ch", 2)  # the copy
        rec.deliver("ch", 3)  # the original, still at the mirror's head
        delivered = [e.msg for e in rec.events if e.kind == "deliver"]
        assert delivered == [dup.msg, original]

    def test_duplicate_copy_can_be_dropped(self):
        rec = EventRecorder(clock=CLOCK_LAMPORT)
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "tok", 1, 0, channel="ch")
        rec.duplicate("ch", 1)
        copy_id = rec.events[-1].msg
        rec.drop("ch", 2)
        assert rec.events[-1].msg == copy_id
        rec.deliver("ch", 3)
        assert rec.events[-1].kind == "state-transition"
        delivers = [e for e in rec.events if e.kind == "deliver"]
        assert [e.msg for e in delivers] == [0]

    def test_values_outside_int32_raise_and_leave_the_log_whole(self):
        rec = EventRecorder(clock=CLOCK_CYCLE)
        rec.step(0, 1)
        for hook in (lambda: rec.step(0, 2**31), lambda: rec.step(-(2**31) - 1, 0)):
            with pytest.raises(OverflowError):
                hook()
            assert len(rec.events) == 1
            assert {len(column) for column in rec.events.columns} == {1}
        assert [e.etime for e in rec.events] == [1]

    def test_base_recorder_is_noop(self):
        rec = Recorder()
        rec.send(0, 1, Port.RIGHT, Port.LEFT, "x", 1, 0, channel="ch")
        rec.deliver("ch", 1)
        rec.drop("ch", 1)
        rec.duplicate("ch", 1)
        rec.wake(0, 0)
        rec.step(0, 1)
        rec.halt(0, 2, output=1)
        rec.crash(0, 3)
        rec.schedule("ch", 0)  # nothing raised, nothing stored


class TestSyncEngineRecording:
    def test_cycle_stamps_and_reconciliation(self):
        spec = RunSpec.make(
            engine="sync",
            ring=oriented_ring((0, 1, 1, 1, 1)),
            algorithm="sync-and",
            keep_log=True,
        )
        result, events = recorded(spec)
        assert_reconciled(events, result.stats, engine="sync")
        sends = [e for e in events if e.kind == "send"]
        assert all(e.time == e.etime for e in events if e.kind != "schedule")
        assert {e.etime for e in sends} <= set(result.stats.per_cycle)
        wakes = [e for e in events if e.kind == "wake"]
        assert len(wakes) == 5 and all(e.etime == 0 for e in wakes)
        halts = [e for e in events if e.kind == "halt"]
        assert sorted(e.proc for e in halts) == [0, 1, 2, 3, 4]
        assert {e.payload for e in halts} == {0}  # AND of inputs with a zero

    def test_recording_does_not_perturb_the_run(self):
        spec = RunSpec.make(
            engine="sync",
            ring=oriented_ring((1, 0, 1, 1, 0, 1)),
            algorithm="fig2-input-distribution",
            keep_log=True,
        )
        plain = execute(spec)
        traced = execute(spec.with_(record=True))
        assert plain.outputs == traced.outputs
        assert plain.stats.messages == traced.stats.messages
        assert plain.stats.bits == traced.stats.bits
        assert plain.stats.per_cycle == traced.stats.per_cycle
        assert plain.stats.log == traced.stats.log
        assert plain.events is None and traced.events is not None

    def test_sync_drops_to_halted_processors_are_events(self):
        # The AND wave: early halters still receive announcements, which
        # the engine counts as immediate drops.
        spec = RunSpec.make(
            engine="sync",
            ring=oriented_ring((0,) + (1,) * 7),
            algorithm="sync-and",
        )
        result, events = recorded(spec)
        # Conservation always holds for the stream:
        n_send = sum(1 for e in events if e.kind == "send")
        n_del = sum(1 for e in events if e.kind == "deliver")
        n_drop = sum(1 for e in events if e.kind == "drop")
        assert n_send == n_del + n_drop
        assert not reconcile(events, result.stats, engine="sync")


class _Acts(SyncProcess):
    """Input 1 (processor 0) sends at its start, sends with nothing
    arrived on cycle 1, resumes quietly on cycle 2, idles from cycle 3 and
    halts on its timeout at cycle 6.  Input 0 (processor 1) idles and is
    resumed by each arrival, on cycles 1 and 2, halting on the second."""

    def run(self):
        if self.input:
            yield Out(right="x")
            yield Out(right="y")
            yield Out()
            yield Idle(3)
            return None
        yield Idle(10)
        yield Idle(10)
        return None


def step_rows(events):
    return [(e.proc, e.etime) for e in events if e.kind == "state-transition"]


class TestStepRows:
    """One rule on every engine: a ``state-transition`` row marks each
    transition after the first (``wake``) that receives or sends a
    message, and no other transition."""

    def _events(self):
        recorder = EventRecorder()
        result = run_synchronous(
            RingConfiguration.oriented((1, 0)), _Acts, recorder=recorder
        )
        assert result.halt_times == (6, 2)
        return recorder.events

    def test_the_first_transition_writes_only_wake(self):
        events = self._events()
        assert [(e.kind, e.proc) for e in events if e.etime == 0][:2] == [
            ("wake", 0),
            ("wake", 1),
        ]
        assert all(etime > 0 for _, etime in step_rows(events))

    def test_a_resume_that_only_sends_writes_one_row_after_its_yield(self):
        events = list(self._events())
        assert step_rows(events).count((0, 1)) == 1
        kinds = [(e.kind, e.proc) for e in events if e.etime == 1]
        assert kinds.index(("state-transition", 0)) < kinds.index(("send", 0))

    def test_a_resume_that_receives_writes_one_row_before_resuming(self):
        events = list(self._events())
        assert step_rows(events).count((1, 1)) == 1
        assert step_rows(events).count((1, 2)) == 1
        kinds = [(e.kind, e.proc) for e in events if e.etime == 2]
        assert kinds.index(("state-transition", 1)) < kinds.index(("halt", 1))

    def test_quiet_resumes_and_idled_cycles_write_none(self):
        events = self._events()
        # Processor 0: a quiet resume on cycle 2, idle on cycles 3-5, and
        # a timeout resume that halts on cycle 6.
        assert step_rows(events) == [(0, 1), (1, 1), (1, 2)]

    def test_each_async_synchronized_delivery_writes_one_row(self):
        recorder = EventRecorder()
        config = RingConfiguration.random(5, random.Random(4), oriented=True)
        run_async_synchronized(
            config,
            lambda value, n: AsyncInputDistribution(value, n, assume_oriented=True),
            recorder=recorder,
        )
        events = list(recorder.events)
        delivers = [i for i, e in enumerate(events) if e.kind == "deliver"]
        assert delivers
        assert len(step_rows(events)) == len(delivers)
        for i in delivers:
            step = events[i + 1]
            assert step.kind == "state-transition"
            assert (step.proc, step.etime) == (events[i].proc, events[i].etime)

    @pytest.mark.parametrize("n", [32, 128])
    def test_recorded_figure_2_writes_at_most_5_rows_per_message(self, n):
        """Rows grow with the messages: a quiet processor-cycle writes
        nothing (25.6 and 92.0 rows a message when every live processor
        wrote a row each cycle)."""
        result, events = recorded(workload_spec("sync_input_distribution", n))
        assert len(events) <= 5 * result.stats.messages


class TestAsyncEngineRecording:
    def _spec(self, **kwargs) -> RunSpec:
        ring = RingConfiguration.random(6, random.Random(11), oriented=True)
        base = dict(
            engine="async",
            ring=ring,
            algorithm="input-distribution",
            params={"assume_oriented": True},
            scheduler="round-robin",
        )
        base.update(kwargs)
        return RunSpec.make(**base)

    def test_lamport_stream_reconciles(self):
        result, events = recorded(self._spec())
        assert_reconciled(events, result.stats, engine="async")
        # One schedule decision per delivery-or-drop.
        kinds = {e.kind: sum(1 for x in events if x.kind == e.kind) for e in events}
        assert kinds["schedule"] == kinds["deliver"] + kinds.get("drop", 0)

    def test_lamport_monotone_per_processor(self):
        _, events = recorded(self._spec(scheduler="random", scheduler_seed=5))
        last = {}
        for event in events:
            if event.proc is None or event.kind in ("drop", "duplicate", "enqueue"):
                continue  # stamped with foreign clocks by design
            assert event.time >= last.get(event.proc, 0)
            last[event.proc] = event.time

    def test_dup_fault_profile_records_duplicates(self):
        labels = list(range(1, 6))
        random.Random(0).shuffle(labels)
        ring = RingConfiguration.oriented(tuple(labels))
        spec = RunSpec.make(
            engine="async",
            ring=ring,
            algorithm="chang-roberts",
            scheduler="random",
            scheduler_seed=0,
            fault_profile="dup",
            fault_seed=1,
        )
        result, events = recorded(spec)
        assert result.stats.duplicated > 0
        dups = [e for e in events if e.kind == "duplicate"]
        assert len(dups) == result.stats.duplicated
        assert all(e.detail.startswith("copy-of:") for e in dups)
        assert_reconciled(events, result.stats, engine="async")

    def test_async_synchronized_records_in_cycle_mode(self):
        ring = RingConfiguration.random(5, random.Random(2), oriented=True)
        spec = RunSpec.make(
            engine="async-synchronized",
            ring=ring,
            algorithm="input-distribution",
            params={"assume_oriented": True},
        )
        result, events = recorded(spec)
        assert_reconciled(events, result.stats, engine="async")
        assert all(e.time == e.etime for e in events if e.kind == "send")

    def test_recording_does_not_perturb_async_run(self):
        spec = self._spec(scheduler="random", scheduler_seed=9, keep_log=True)
        plain = execute(spec)
        traced = execute(spec.with_(record=True))
        assert plain.outputs == traced.outputs
        assert plain.stats.messages == traced.stats.messages
        assert plain.stats.delivered == traced.stats.delivered
        assert plain.stats.log == traced.stats.log


class TestResultSize:
    @pytest.mark.parametrize(
        "workload",
        ["sync_input_distribution", "async_input_distribution", "async_synchronized"],
    )
    def test_pickled_outputs_are_at_most_3_bytes_per_view_entry(self, workload):
        """n views of n pairs: a binary ring's pairs are pickled once each,
        and every other entry is a memo reference of about 2 bytes."""
        n = 32
        outputs = execute(workload_spec(workload, n)).outputs
        size = len(pickle.dumps(outputs, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 3 * n * n, f"{size / (n * n):.2f} bytes per entry"


class TestLogSize:
    @pytest.mark.parametrize(
        "workload",
        ["sync_input_distribution", "async_input_distribution", "async_synchronized"],
    )
    def test_pickled_log_is_at_most_48_bytes_per_event(self, workload):
        """Ten int32 columns are 40 bytes a row; the tables add the rest."""
        events = execute(workload_spec(workload, 32).with_(record=True)).events
        size = len(pickle.dumps(events, protocol=pickle.HIGHEST_PROTOCOL))
        assert size <= 48 * len(events), f"{size / len(events):.1f} bytes per event"

    @pytest.mark.parametrize(
        "workload",
        ["sync_input_distribution", "async_input_distribution", "async_synchronized"],
    )
    def test_served_response_is_at_most_72_bytes_per_event(self, workload):
        """The whole ``POST /runs`` body of one recorded run: base64 of the
        48-byte pickled-log ceiling, plus the rest of the result."""
        spec = workload_spec(workload, 32).with_(record=True)
        events = len(execute(spec).events)
        with ServerThread() as server:
            parts = urlsplit(server.url)
            conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=60)
            try:
                conn.request("POST", "/runs", json.dumps({"specs": [spec.to_json_dict()]}))
                response = conn.getresponse()
                body = response.read()
            finally:
                conn.close()
        assert response.status == 200
        assert body.count(b"\n") == 3  # accepted, run, done
        assert len(body) <= 72 * events, f"{len(body) / events:.1f} bytes per event"
