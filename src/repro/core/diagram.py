"""ASCII space–time diagrams of synchronous runs.

A debugging and teaching aid: render who sent what, when, and which way,
as the classic distributed-computing space–time picture.  Columns are
processors, rows are cycles, ``>``/``<`` mark sends in the +1/−1 physical
direction, ``*`` marks a halt.  Works from the recorded event stream, so
any run executed with ``record=True`` can be drawn after the fact.

    from repro.core.diagram import space_time_diagram
    result = execute(RunSpec.make("sync", ring, "sync-and", record=True))
    print(space_time_diagram(ring, result))

Lost and copied deliveries show up too: ``!`` marks a dropped delivery
and ``+`` a duplicated message, both drawn at the *receiver's* column on
the engine-time row.  A drop is any delivery that went nowhere, as
``TraceStats.dropped`` counts it: a ``drop`` fault profile's loss, or a
message that reached a processor which had already halted or crashed —
so a fault-free run whose processors halt at different cycles shows
``!`` too.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .message import Port
from .ring import RingConfiguration
from .tracing import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import Event


def space_time_diagram(
    config: RingConfiguration,
    result: RunResult,
    max_cycles: Optional[int] = None,
    show_payloads: bool = False,
    events: Optional[Sequence["Event"]] = None,
) -> str:
    """Render a recorded run as an ASCII space–time diagram.

    Args:
        config: the configuration the run executed on (for directions).
        result: the run (its halt times and message count).
        max_cycles: truncate the picture (``None`` = all cycles).
        show_payloads: append a legend of payloads per cycle.
        events: the recorded :mod:`repro.obs` stream to draw sends and
            fault marks from (``!`` dropped delivery, ``+`` duplicate, at
            the receiver); defaults to ``result.events``.

    Raises:
        ValueError: if the run sent messages and no stream is attached.
    """
    if events is None:
        events = result.events
    if events is None:
        if result.stats.messages:
            raise ValueError("run has no recorded event stream; pass record=True")
        events = ()
    n = config.n
    fault_marks: Dict[Tuple[int, int], str] = {}
    rows = [0]
    sent: List["Event"] = []
    for event in events:
        if event.kind == "send":
            sent.append(event)
            rows.append(event.etime)
        elif event.kind in ("drop", "duplicate") and event.proc is not None:
            mark = "!" if event.kind == "drop" else "+"
            key = (event.etime, event.proc)
            existing = fault_marks.get(key, "")
            if mark not in existing:
                fault_marks[key] = existing + mark
            rows.append(event.etime)
    last_cycle = max(rows + list(result.halt_times or (0,)))
    if max_cycles is not None:
        last_cycle = min(last_cycle, max_cycles)

    # cell[cycle][processor] -> marks
    sends: Dict[Tuple[int, int], str] = {}
    payload_notes: Dict[int, List[str]] = {}
    for event in sent:
        if event.etime > last_cycle:
            continue
        _recv, _port, step = config.route(event.proc, Port(event.port))
        mark = ">" if step == 1 else "<"
        key = (event.etime, event.proc)
        existing = sends.get(key, "")
        sends[key] = "x" if existing and existing != mark else mark
        if show_payloads:
            payload_notes.setdefault(event.etime, []).append(
                f"p{event.proc}{mark}{event.payload!r}"
            )

    width = max(3, len(str(n - 1)) + 2)
    header = "cyc | " + "".join(f"{i:^{width}}" for i in range(n))
    ruler = "-" * len(header)
    lines = [header, ruler]
    halts = result.halt_times or ()
    for cycle in range(last_cycle + 1):
        row = []
        for processor in range(n):
            mark = sends.get((cycle, processor), ".")
            if halts and halts[processor] == cycle:
                mark = mark + "*" if mark != "." else "*"
            faults = fault_marks.get((cycle, processor))
            if faults:
                mark = faults if mark == "." else mark + faults
            row.append(f"{mark:^{width}}")
        line = f"{cycle:>3} | " + "".join(row)
        if show_payloads and cycle in payload_notes:
            line += "   " + " ".join(payload_notes[cycle])
        lines.append(line)
    lines.append(ruler)
    legend = (
        "legend: > send clockwise, < send counterclockwise, x both, * halt"
    )
    if fault_marks:
        legend += ", ! dropped delivery, + duplicate"
    lines.append(f"{legend}; {result.stats.messages} messages total")
    return "\n".join(lines)


def message_density(result: RunResult, buckets: int = 10) -> str:
    """A one-line sparkline of messages per cycle — where the traffic is.

    Runs that lost or copied deliveries carry them in the tail:
    ``(D dropped, K duplicated)`` is appended whenever either count is
    nonzero, so a dense-looking trace can't silently hide lost messages.
    A recorded run's counts come from its stream, so they match the
    ``!``/``+`` marks of :func:`space_time_diagram`; the synchronous
    engine's counters track sends only, so an unrecorded synchronous
    run shows no drops.
    """
    if not result.stats.per_cycle:
        return "(no messages)"
    dropped, duplicated = result.stats.dropped, result.stats.duplicated
    if result.events is not None:
        kinds = Counter(event.kind for event in result.events)
        dropped, duplicated = kinds["drop"], kinds["duplicate"]
    last = max(result.stats.per_cycle)
    ticks = " ▁▂▃▄▅▆▇█"
    counts = [0.0] * buckets
    for cycle, count in result.stats.per_cycle.items():
        counts[min(buckets - 1, cycle * buckets // (last + 1))] += count
    peak = max(counts) or 1.0
    line = "".join(ticks[int(c / peak * (len(ticks) - 1))] for c in counts)
    if dropped or duplicated:
        line += f" ({dropped} dropped, {duplicated} duplicated)"
    return line
