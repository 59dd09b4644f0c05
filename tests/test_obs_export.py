"""The repro.obs exporters: JSONL round-trips, Chrome trace schema,
and stream → RunResult reconstruction.

The load-bearing properties: a written JSONL stream reads back equal
(payloads included, with non-JSON payloads degrading to a *stable*
:class:`OpaquePayload` that re-encodes identically); every Chrome trace
the exporter emits passes :func:`validate_chrome_trace` — including
duplicate-heavy fault runs, where each manufactured copy needs its own
flow-arrow start; and :func:`result_from_events` rebuilds enough of a
:class:`RunResult` from events alone to drive the space–time diagram.
"""

from __future__ import annotations

import json
import random

from repro.core.diagram import space_time_diagram
from repro.core.message import Port
from repro.core.ring import RingConfiguration
from repro.obs import (
    Event,
    OpaquePayload,
    chrome_trace,
    decode_value,
    encode_value,
    event_from_json,
    event_to_json,
    events_to_jsonl,
    read_events_jsonl,
    result_from_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from repro.runtime.spec import RunSpec, execute


def recorded(spec: RunSpec):
    result = execute(spec.with_(record=True))
    assert result.events is not None
    return result, result.events


def sync_and_spec(n: int = 6) -> RunSpec:
    return RunSpec.make(
        engine="sync",
        ring=RingConfiguration.oriented((0,) + (1,) * (n - 1)),
        algorithm="sync-and",
    )


def async_spec(seed: int = 4) -> RunSpec:
    ring = RingConfiguration.random(6, random.Random(seed), oriented=True)
    return RunSpec.make(
        engine="async",
        ring=ring,
        algorithm="input-distribution",
        params={"assume_oriented": True},
        scheduler="random",
        scheduler_seed=seed,
    )


def dup_fault_spec() -> RunSpec:
    labels = list(range(1, 6))
    random.Random(0).shuffle(labels)
    return RunSpec.make(
        engine="async",
        ring=RingConfiguration.oriented(tuple(labels)),
        algorithm="chang-roberts",
        scheduler="random",
        scheduler_seed=0,
        fault_profile="dup",
        fault_seed=1,
    )


class TestPayloadEncoding:
    def test_scalars_pass_through(self):
        for value in (None, True, 0, 1.5, "text"):
            assert decode_value(encode_value(value)) == value

    def test_containers_round_trip_exactly(self):
        value = {"k": (1, 2, [3, "x"]), "nested": {"a": (None, True)}}
        decoded = decode_value(encode_value(value))
        assert decoded == value
        assert isinstance(decoded["k"], tuple)
        assert isinstance(decoded["k"][2], list)

    def test_port_round_trips_as_port(self):
        assert decode_value(encode_value(Port.LEFT)) is Port.LEFT

    def test_opaque_payload_is_a_fixed_point(self):
        class Weird:
            def __repr__(self):
                return "Weird<7>"

        once = decode_value(encode_value(Weird()))
        assert once == OpaquePayload("Weird<7>")
        # Second round trip: re-encoding the opaque value is stable.
        twice = decode_value(encode_value(once))
        assert twice == once
        assert encode_value(once) == encode_value(twice)


class TestJsonlRoundTrip:
    def test_event_to_json_round_trips(self):
        event = Event(
            seq=3,
            kind="send",
            time=2,
            etime=1,
            proc=0,
            peer=1,
            port="right",
            payload=("tok", 5),
            bits=4,
            msg=7,
            detail="",
        )
        assert event_from_json(event_to_json(event)) == event

    def test_recorded_stream_round_trips_via_file(self, tmp_path):
        # Async halt payloads are RingView dataclasses, which degrade to
        # OpaquePayload on export — so the guarantee here is re-encode
        # stability: reading a file back and rewriting it is a no-op.
        _, events = recorded(async_spec())
        path = write_events_jsonl(events, tmp_path / "run.events.jsonl")
        read_back = read_events_jsonl(path)
        assert len(read_back) == len(events)
        assert events_to_jsonl(read_back) == path.read_text()
        # Everything except degraded payloads is preserved exactly.
        for original, returned in zip(events, read_back):
            if not isinstance(returned.payload, OpaquePayload):
                assert returned == original
            else:
                assert returned.payload.text == repr(original.payload)

    def test_jsonl_is_one_json_object_per_line(self):
        _, events = recorded(sync_and_spec())
        lines = events_to_jsonl(events).splitlines()
        assert len(lines) == len(events)
        parsed = [json.loads(line) for line in lines]
        assert [row["seq"] for row in parsed] == list(range(len(events)))

    def test_fault_stream_round_trips(self, tmp_path):
        result, events = recorded(dup_fault_spec())
        assert result.stats.duplicated > 0
        path = write_events_jsonl(events, tmp_path / "dup.events.jsonl")
        assert read_events_jsonl(path) == list(events)


class TestChromeTrace:
    def test_sync_trace_validates(self):
        result, events = recorded(sync_and_spec())
        payload = chrome_trace(events, n=result.n)
        assert validate_chrome_trace(payload) == []

    def test_async_trace_validates(self):
        result, events = recorded(async_spec())
        payload = chrome_trace(events, n=result.n)
        assert validate_chrome_trace(payload) == []

    def test_duplicate_flow_arrows_pair_up(self):
        result, events = recorded(dup_fault_spec())
        payload = chrome_trace(events)
        assert validate_chrome_trace(payload) == []
        starts = [e for e in payload["traceEvents"] if e.get("ph") == "s"]
        dups = [e for e in events if e.kind == "duplicate"]
        sends = [e for e in events if e.kind == "send"]
        assert len(starts) == len(sends) + len(dups)

    def test_tracks_cover_every_processor_and_the_scheduler(self):
        result, events = recorded(async_spec())
        payload = chrome_trace(events, n=result.n)
        names = {
            entry["args"]["name"]
            for entry in payload["traceEvents"]
            if entry["ph"] == "M" and entry["name"] == "thread_name"
        }
        assert names == {f"P{i}" for i in range(result.n)} | {"scheduler"}

    def test_write_chrome_trace_is_loadable_json(self, tmp_path):
        _, events = recorded(sync_and_spec())
        path = write_chrome_trace(events, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert validate_chrome_trace(payload) == []
        assert payload["displayTimeUnit"] == "ms"

    def test_validator_rejects_malformed_payloads(self):
        assert validate_chrome_trace([]) != []
        assert validate_chrome_trace({"traceEvents": "nope"}) != []
        bad_phase = {"traceEvents": [{"name": "x", "pid": 0, "ph": "Z"}]}
        assert any("unknown phase" in p for p in validate_chrome_trace(bad_phase))
        orphan_finish = {
            "traceEvents": [
                {
                    "name": "msg",
                    "ph": "f",
                    "bp": "e",
                    "id": 9,
                    "ts": 1.0,
                    "pid": 0,
                    "tid": 0,
                }
            ]
        }
        assert any(
            "no earlier start" in p for p in validate_chrome_trace(orphan_finish)
        )

    def test_validator_rejects_negative_timestamps(self):
        bad = {
            "traceEvents": [
                {"name": "x", "ph": "i", "s": "t", "ts": -1, "pid": 0, "tid": 0}
            ]
        }
        assert any("negative" in p for p in validate_chrome_trace(bad))


class TestReconstruction:
    def test_result_from_events_matches_the_run(self):
        spec = sync_and_spec()
        result, events = recorded(spec)
        rebuilt = result_from_events(events, spec.ring.n)
        assert rebuilt.outputs == result.outputs
        assert rebuilt.halt_times == result.halt_times
        assert rebuilt.stats.messages == result.stats.messages
        assert rebuilt.stats.bits == result.stats.bits
        assert rebuilt.stats.per_cycle == result.stats.per_cycle

    def test_rebuilt_result_drives_the_diagram(self):
        spec = sync_and_spec()
        result, events = recorded(spec)
        rebuilt = result_from_events(events, spec.ring.n)
        direct = space_time_diagram(spec.ring, result)
        from_stream = space_time_diagram(spec.ring, rebuilt, events=events)
        # Same sends, same halts; the stream version may add fault marks.
        assert direct.splitlines()[0] == from_stream.splitlines()[0]
        assert "* halt" in from_stream

    def test_async_reconstruction_counts_faults(self):
        result, events = recorded(dup_fault_spec())
        rebuilt = result_from_events(events, result.n)
        assert rebuilt.stats.duplicated == result.stats.duplicated
        assert rebuilt.stats.delivered == result.stats.delivered
        assert rebuilt.stats.dropped == result.stats.dropped
        assert rebuilt.outputs == result.outputs
