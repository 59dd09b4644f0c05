"""Exporters for recorded event streams.

Two on-disk formats plus reconstruction helpers:

* **JSONL** — one JSON object per event, in ``seq`` order.  Payloads are
  encoded with a small tagged scheme (tuples, lists, dicts and the JSON
  scalars round-trip exactly; anything else degrades to a tagged ``repr``
  wrapped in :class:`OpaquePayload` so a decoded stream re-encodes to the
  same bytes).  :func:`read_events_jsonl` inverts
  :func:`write_events_jsonl` — the round-trip property the test suite
  pins down.

* **Chrome trace-event format** — loadable in Perfetto / ``chrome://
  tracing``: one track (thread) per processor, slices for sends,
  deliveries and state transitions (``step``: one per transition that
  received or sent a message), instants for wakes / halts / crashes
  / drops / duplicates, flow arrows (``ph: "s"``/``"f"``) tying every
  send to its delivery, and an in-flight message counter track.
  :func:`validate_chrome_trace` checks a payload against the trace-event
  schema (required fields per phase, flow-arrow pairing) and is what the
  schema test asserts on.

* **Reconstruction** — :func:`envelopes_from_events` and
  :func:`result_from_events` rebuild the classic
  :class:`~repro.core.message.Envelope` log and a renderable
  :class:`~repro.core.tracing.RunResult` from a recorded stream, which is
  how ``python -m repro trace`` draws the existing space–time diagram
  from events alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Sequence, Union

from ..core.message import Envelope, Port
from ..core.tracing import RunResult, TraceStats
from .events import Event


@dataclass(frozen=True)
class OpaquePayload:
    """A payload that only survived export as its ``repr`` string."""

    text: str

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"OpaquePayload({self.text!r})"


def encode_value(value: Any) -> Any:
    """Encode a payload as JSON-able data, preserving type where possible."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__t__": "tuple", "v": [encode_value(item) for item in value]}
    if isinstance(value, list):
        return {"__t__": "list", "v": [encode_value(item) for item in value]}
    if isinstance(value, dict):
        return {
            "__t__": "dict",
            "v": [[encode_value(k), encode_value(v)] for k, v in value.items()],
        }
    if isinstance(value, Port):
        return {"__t__": "port", "v": value.value}
    if isinstance(value, OpaquePayload):
        return {"__t__": "repr", "v": value.text}
    return {"__t__": "repr", "v": repr(value)}


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value` (repr-tagged values become opaque)."""
    if not isinstance(value, dict):
        return value
    tag, body = value.get("__t__"), value.get("v")
    if tag == "tuple":
        return tuple(decode_value(item) for item in body)
    if tag == "list":
        return [decode_value(item) for item in body]
    if tag == "dict":
        return {decode_value(k): decode_value(v) for k, v in body}
    if tag == "port":
        return Port(body)
    if tag == "repr":
        return OpaquePayload(body)
    return value


def event_to_json(event: Event) -> Dict[str, Any]:
    """One event as a JSON-able dict (payload tagged-encoded).

    Built field by field rather than via :func:`dataclasses.asdict`,
    which would recursively dismantle dataclass *payloads* (e.g. a
    ``RingView`` halt output) before :func:`encode_value` could wrap
    them as a stable :class:`OpaquePayload`.
    """
    return {
        "seq": event.seq,
        "kind": event.kind,
        "time": event.time,
        "etime": event.etime,
        "proc": event.proc,
        "peer": event.peer,
        "port": event.port,
        "payload": encode_value(event.payload),
        "bits": event.bits,
        "msg": event.msg,
        "detail": event.detail,
    }


def event_from_json(data: Dict[str, Any]) -> Event:
    """Invert :func:`event_to_json`."""
    fields = dict(data)
    fields["payload"] = decode_value(fields.get("payload"))
    return Event(**fields)


def events_to_jsonl(events: Sequence[Event]) -> str:
    """The full stream as JSON-lines text (one event per line)."""
    return "".join(
        json.dumps(event_to_json(event), sort_keys=True) + "\n" for event in events
    )


def write_events_jsonl(events: Sequence[Event], path: Union[str, Path]) -> Path:
    """Write the stream to ``path``; returns the path written."""
    target = Path(path)
    target.write_text(events_to_jsonl(events))
    return target


def read_events_jsonl(path: Union[str, Path]) -> List[Event]:
    """Read a stream written by :func:`write_events_jsonl`."""
    events = []
    for line in Path(path).read_text().splitlines():
        if line.strip():
            events.append(event_from_json(json.loads(line)))
    return events


# ----------------------------------------------------------------------
# Chrome trace-event format
# ----------------------------------------------------------------------

#: Slice duration used for point-like work, in clock units.
_SLICE_DUR = 1.0

#: Instant-event kinds and the tracing name they render under.
_INSTANT_NAMES = {
    "wake": "wake",
    "halt": "halt",
    "crash": "crash",
    "drop": "drop",
    "duplicate": "duplicate",
}


def chrome_trace(events: Sequence[Event], n: Optional[int] = None) -> Dict[str, Any]:
    """The stream as a Chrome trace-event payload (Perfetto-loadable).

    Tracks: ``pid`` 0 holds one thread per processor plus a
    ``scheduler`` thread (tid ``n``); flow arrows (id = message id) run
    send → deliver; the ``in-flight`` counter tracks queued messages.

    Args:
        events: the recorded stream.
        n: ring size for track naming; inferred from the stream if
            omitted.
    """
    if n is None:
        procs = [event.proc for event in events if event.proc is not None]
        peers = [event.peer for event in events if event.peer is not None]
        n = max(procs + peers, default=-1) + 1
    trace: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": 0, "args": {"name": "anonymous ring"}}
    ]
    for i in range(n):
        trace.append(
            {"name": "thread_name", "ph": "M", "pid": 0, "tid": i, "args": {"name": f"P{i}"}}
        )
    trace.append(
        {"name": "thread_name", "ph": "M", "pid": 0, "tid": n, "args": {"name": "scheduler"}}
    )

    depth = 0
    for event in events:
        ts = float(event.time)
        if event.kind == "send":
            args = {"payload": repr(event.payload), "bits": event.bits, "to": event.peer}
            trace.append(
                {
                    "name": "send",
                    "cat": "message",
                    "ph": "X",
                    "ts": ts,
                    "dur": _SLICE_DUR,
                    "pid": 0,
                    "tid": event.proc,
                    "args": args,
                }
            )
            trace.append(
                {
                    "name": "msg",
                    "cat": "message",
                    "ph": "s",
                    "id": event.msg,
                    "ts": ts,
                    "pid": 0,
                    "tid": event.proc,
                }
            )
            depth += 1
        elif event.kind == "deliver":
            trace.append(
                {
                    "name": "deliver",
                    "cat": "message",
                    "ph": "X",
                    "ts": ts,
                    "dur": _SLICE_DUR,
                    "pid": 0,
                    "tid": event.proc,
                    "args": {"payload": repr(event.payload), "from": event.peer},
                }
            )
            trace.append(
                {
                    "name": "msg",
                    "cat": "message",
                    "ph": "f",
                    "bp": "e",
                    "id": event.msg,
                    "ts": ts,
                    "pid": 0,
                    "tid": event.proc,
                }
            )
            depth -= 1
        elif event.kind == "state-transition":
            trace.append(
                {
                    "name": "step",
                    "cat": "processor",
                    "ph": "X",
                    "ts": ts,
                    "dur": _SLICE_DUR,
                    "pid": 0,
                    "tid": event.proc,
                }
            )
            continue
        elif event.kind in _INSTANT_NAMES:
            trace.append(
                {
                    "name": _INSTANT_NAMES[event.kind],
                    "cat": "lifecycle" if event.kind in ("wake", "halt", "crash") else "fault",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 0,
                    "tid": event.proc,
                    "args": {"detail": event.detail} if event.detail else {},
                }
            )
            if event.kind == "duplicate":
                # The copy is a fresh message id; give its flow arrow a
                # start at the duplication instant so its later delivery's
                # finish ("f") has a matching earlier start ("s").
                trace.append(
                    {
                        "name": "msg",
                        "cat": "message",
                        "ph": "s",
                        "id": event.msg,
                        "ts": ts,
                        "pid": 0,
                        "tid": event.proc,
                    }
                )
                depth += 1
            elif event.kind == "drop":
                depth -= 1
            else:
                continue
        elif event.kind == "schedule":
            trace.append(
                {
                    "name": "schedule",
                    "cat": "scheduler",
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 0,
                    "tid": n,
                    "args": {"channel": event.detail},
                }
            )
            continue
        else:  # enqueue: folded into the counter track only
            continue
        trace.append(
            {
                "name": "in-flight",
                "ph": "C",
                "ts": ts,
                "pid": 0,
                "args": {"messages": depth},
            }
        )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


def write_chrome_trace(
    events: Sequence[Event], path: Union[str, Path], n: Optional[int] = None
) -> Path:
    """Serialize :func:`chrome_trace` to ``path``; returns the path."""
    target = Path(path)
    target.write_text(json.dumps(chrome_trace(events, n), indent=1) + "\n")
    return target


_KNOWN_PHASES = frozenset("XBEisfMC")


def validate_chrome_trace(payload: Any) -> List[str]:
    """Check a payload against the trace-event schema; return the problems.

    Covers the subset of the Chrome trace-event format this exporter
    emits: required top-level shape, per-phase required fields, and
    flow-arrow pairing (every finish has a matching earlier start with
    the same id).  An empty return value means the payload validates.
    """
    problems: List[str] = []
    if not isinstance(payload, dict) or not isinstance(payload.get("traceEvents"), list):
        return ["payload must be a dict with a 'traceEvents' list"]
    flow_starts: Dict[Any, float] = {}
    for index, entry in enumerate(payload["traceEvents"]):
        where = f"traceEvents[{index}]"
        if not isinstance(entry, dict):
            problems.append(f"{where}: not an object")
            continue
        ph = entry.get("ph")
        if ph not in _KNOWN_PHASES:
            problems.append(f"{where}: unknown phase {ph!r}")
            continue
        if "name" not in entry or "pid" not in entry:
            problems.append(f"{where}: missing required 'name'/'pid'")
            continue
        if ph == "M":
            if not isinstance(entry.get("args"), dict) or "name" not in entry["args"]:
                problems.append(f"{where}: metadata event needs args.name")
            continue
        ts = entry.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: missing or negative 'ts'")
            continue
        if ph == "C":
            args = entry.get("args")
            if not isinstance(args, dict) or not all(
                isinstance(v, (int, float)) for v in args.values()
            ):
                problems.append(f"{where}: counter event needs numeric args")
            continue
        if "tid" not in entry:
            problems.append(f"{where}: missing 'tid'")
            continue
        if ph == "X" and not isinstance(entry.get("dur"), (int, float)):
            problems.append(f"{where}: complete event needs numeric 'dur'")
        if ph == "i" and entry.get("s", "t") not in ("t", "p", "g"):
            problems.append(f"{where}: instant scope must be t/p/g")
        if ph in ("s", "f"):
            if "id" not in entry:
                problems.append(f"{where}: flow event needs 'id'")
                continue
            if ph == "s":
                flow_starts[entry["id"]] = float(ts)
            else:
                if entry.get("bp") != "e":
                    problems.append(f"{where}: flow finish should carry bp='e'")
                if entry["id"] not in flow_starts:
                    problems.append(
                        f"{where}: flow finish id={entry['id']!r} has no earlier start"
                    )
                elif float(ts) < flow_starts[entry["id"]]:
                    problems.append(
                        f"{where}: flow finish at ts={ts} precedes its start"
                    )
    return problems


# ----------------------------------------------------------------------
# Reconstruction
# ----------------------------------------------------------------------


def envelopes_from_events(events: Iterable[Event]) -> List[Envelope]:
    """Rebuild the classic message log from the stream's send events."""
    envelopes = []
    for event in events:
        if event.kind != "send":
            continue
        receiver = event.peer
        out_port = Port(event.port)
        envelopes.append(
            Envelope(
                sender=event.proc,
                receiver=receiver,
                out_port=out_port,
                # The in-port travels on the paired enqueue event; recover
                # it from the matching enqueue if present, else fall back
                # to the out-port (overridden below when available).
                in_port=out_port,
                payload=event.payload,
                send_time=event.etime,
            )
        )
    # Second pass: fix in_ports from enqueue events (same msg ids).
    in_ports = {
        event.msg: Port(event.port) for event in events if event.kind == "enqueue"
    }
    sends = [event for event in events if event.kind == "send"]
    return [
        Envelope(
            sender=env.sender,
            receiver=env.receiver,
            out_port=env.out_port,
            in_port=in_ports.get(send.msg, env.in_port),
            payload=env.payload,
            send_time=env.send_time,
        )
        for env, send in zip(envelopes, sends)
    ]


def result_from_events(events: Sequence[Event], n: int) -> RunResult:
    """A renderable :class:`RunResult` reconstructed from the stream alone.

    Outputs, halt times, the full envelope log and the send counters all
    come from events — enough to drive
    :func:`repro.core.diagram.space_time_diagram` without rerunning the
    spec.
    """
    stats = TraceStats(keep_log=True)
    for envelope in envelopes_from_events(events):
        stats.record(envelope)
    for event in events:
        if event.kind == "deliver":
            stats.delivered += 1
        elif event.kind == "drop":
            stats.dropped += 1
        elif event.kind == "duplicate":
            stats.duplicated += 1
    outputs: List[Any] = [None] * n
    halt_times = [0] * n
    halted = False
    for event in events:
        if event.kind == "halt" and event.proc is not None and event.proc < n:
            outputs[event.proc] = event.payload
            halt_times[event.proc] = event.etime
            halted = True
    cycles = max((event.etime for event in events), default=0)
    return RunResult(
        outputs=tuple(outputs),
        stats=stats,
        cycles=cycles,
        halt_times=tuple(halt_times) if halted else None,
    )
