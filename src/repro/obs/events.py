"""Typed event tracing for both ring engines.

Every bound in the paper is a statement about *what messages flowed
when*; the aggregate counters of :class:`repro.core.tracing.TraceStats`
answer "how many" but not "which, in what order, caused by what".  This
module records the full causal history of a run as a stream of typed
:class:`Event` records — the event-structure view of a distributed run
(cf. Aiswarya–Bollig–Gastin's automata-theoretic analysis of exactly
this artifact).

The taxonomy:

* message lifecycle — ``send``, ``enqueue``, ``deliver``, ``drop``,
  ``duplicate``;
* processor lifecycle — ``wake``, ``state-transition``, ``halt``,
  ``crash``;
* adversary decisions — ``schedule`` (one per scheduling event of the
  general asynchronous engine).

Clock semantics (see ``docs/observability.md``):

* **cycle mode** (synchronous engine, synchronizing adversary):
  ``Event.time`` is the cycle index — the global clock these engines
  actually have.
* **lamport mode** (general asynchronous engine): there is no global
  clock, so ``Event.time`` is a per-processor Lamport stamp — local
  events tick the local clock, a delivery advances the receiver to
  ``max(local, send stamp) + 1`` — which makes causality reconstructible
  from the stream: ``e₁ happens-before e₂`` at different processors only
  if a chain of messages carries ``e₁``'s stamp forward.

``Event.etime`` always carries the *engine-native* clock (the cycle for
synchronous engines; the delivery-clock value the engine stamps sends
with for the asynchronous engine; the scheduling-event index for
``schedule``/``crash`` events), so the stream reconciles field-for-field
with ``TraceStats`` — see :func:`repro.obs.metrics.reconcile`.

Storage is columnar: :class:`EventRecorder` appends one positional row
per event to an :class:`EventLog` — int32 columns plus a payload table
interned by identity and a detail table — and builds no :class:`Event`.
The log rebuilds :class:`Event` records on access and pickles as its
column bytes and tables.

Recording is strictly opt-in: engines take ``recorder=None`` and guard
every hook behind a single ``is not None`` check, so the hot paths stay
envelope-free and allocation-free when recording is off (the overhead
guard in ``benchmarks/test_bench_obs.py`` holds them to that).
"""

from __future__ import annotations

from array import array
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional, Sequence, Tuple

from ..core.message import Port

#: Every kind an :class:`Event` can carry, in taxonomy order.
EVENT_KINDS = (
    "send",
    "enqueue",
    "deliver",
    "drop",
    "duplicate",
    "wake",
    "state-transition",
    "halt",
    "crash",
    "schedule",
)

(_SEND, _ENQUEUE, _DELIVER, _DROP, _DUPLICATE, _WAKE, _STEP, _HALT, _CRASH,
 _SCHEDULE) = range(len(EVENT_KINDS))

#: Clock modes an :class:`EventRecorder` can run in.
CLOCK_CYCLE = "cycle"
CLOCK_LAMPORT = "lamport"

#: The columns of an :class:`EventLog`, in row order.
COLUMNS = (
    "kind", "time", "etime", "proc", "peer", "port", "bits", "msg", "payload", "detail",
)

#: ``array`` typecode of every column: C ``int``, 32 bits on every
#: platform CPython supports.
_TYPECODE = "i"

_LEFT = Port.LEFT

#: Port names by an :class:`EventLog`'s port code; code -1 (``None``)
#: lands on the last entry.
PORT_NAMES = ("left", "right", None)


@dataclass(frozen=True)
class Event:
    """One record of the run's event stream.

    Attributes:
        seq: global emission index (total order of recording).
        kind: one of :data:`EVENT_KINDS`.
        time: primary stamp — cycle index (cycle mode) or per-processor
            Lamport stamp (lamport mode); ``schedule`` events use the
            scheduling-event index in both modes.
        etime: engine-native clock — always the value the engine itself
            uses at this point (``TraceStats.per_cycle`` keys sends by
            exactly this number).
        proc: processor the event happens *at* (the receiver for message
            arrival events, the sender for ``send``); ``None`` for
            ``schedule`` events.
        peer: the other endpoint of a message event.
        port: local port name (``"left"``/``"right"``) — the sender's
            out-port for ``send``, the receiver's in-port otherwise.
        payload: message payload, halt output, or ``None``.
        bits: payload size (``send``/``enqueue`` events only).
        msg: message instance id linking ``send``→``enqueue``→``deliver``
            (or ``drop``); duplicate copies get fresh ids with the
            original recorded in ``detail``.
        detail: free-form qualifier (drop reason, wake mode, channel of a
            ``schedule`` event, ``copy-of:<id>`` for duplicates).
    """

    seq: int
    kind: str
    time: int
    etime: int
    proc: Optional[int] = None
    peer: Optional[int] = None
    port: Optional[str] = None
    payload: Any = None
    bits: int = 0
    msg: Optional[int] = None
    detail: str = ""


class Recorder:
    """The hook protocol engines call when recording is on.

    The base class is a no-op on every hook, so a subclass only overrides
    what it needs.  Engines never call these when ``recorder is None`` —
    passing no recorder is the zero-overhead default, not a no-op object.

    The message hooks are stateful by design: ``send`` announces a
    message on a *channel key* and ``deliver``/``drop``/``duplicate``
    refer to the head of that channel, mirroring the engines' own FIFO
    queues — so implementations can link sends to their deliveries
    without the engines threading message ids through their hot-path
    data structures.
    """

    def send(
        self,
        sender: int,
        receiver: int,
        out_port: Port,
        in_port: Port,
        payload: Any,
        bits: int,
        etime: int,
        channel: Any,
    ) -> None:
        """A message left ``sender`` via ``out_port`` onto ``channel``."""

    def deliver(self, channel: Any, etime: int) -> None:
        """The head message of ``channel`` reached its receiver's handler."""

    def drop(self, channel: Any, etime: int, reason: str = "") -> None:
        """The head message of ``channel`` was lost (see ``reason``)."""

    def duplicate(self, channel: Any, etime: int) -> None:
        """The adversary manufactured a copy of ``channel``'s head message.

        The copy — not the original — is the subject of the next
        ``deliver``/``drop`` call on the channel; the original stays at
        the head, exactly as in the engine's FIFO queue.
        """

    def wake(self, proc: int, etime: int, spontaneous: bool = True) -> None:
        """``proc`` executed its first transition (start event / wake-up)."""

    def step(self, proc: int, etime: int) -> None:
        """``proc`` executed one (non-wake) state transition that received
        or sent a message; engines call it for no other transition."""

    def halt(self, proc: int, etime: int, output: Any = None) -> None:
        """``proc`` halted with ``output``."""

    def crash(self, proc: int, etime: int) -> None:
        """The adversary crash-stopped ``proc`` at event index ``etime``."""

    def schedule(self, channel: Any, etime: int) -> None:
        """The scheduler chose ``channel`` at event index ``etime``."""


class EventLog(Sequence[Event]):
    """A recorded event stream, stored as columns.

    One row per event in ten int32 columns (:data:`COLUMNS`: kind, time,
    etime, proc, peer, port, bits, msg, payload id, detail id; ``seq`` is
    the row index), plus two tables the id columns point into:

    * ``payloads`` — every payload and halt output, interned by
      *identity*: one entry per distinct object, however often it is
      sent.  Equality would merge ``True``, ``1`` and ``1.0`` (they
      compare and hash equal) and cannot hold unhashable payloads; the
      table keeps each object alive, so its ``id`` is never reused while
      it is interned.  Entry 0 is ``None``.
    * ``details`` — the ``detail`` strings, interned by value.  Entry 0
      is ``""``.

    ``kind`` indexes :data:`EVENT_KINDS`; ``port`` is 0 for ``left`` and
    1 for ``right``; -1 stands for ``None`` in proc, peer, port and msg.

    The log is a read-only, re-iterable ``Sequence[Event]``: indexing and
    iteration rebuild :class:`Event` records from the row, so consumers
    that read events (:func:`~repro.obs.metrics.reconcile`, both
    exporters, the diagrams, the fuzzer) need not know the layout.  It
    pickles as the columns' bytes (native byte order) and the two
    tables.  Only :class:`EventRecorder` writes to it.
    """

    __slots__ = ("columns", "payloads", "details")

    def __init__(
        self,
        data: bytes = b"",
        payloads: Sequence[Any] = (None,),
        details: Sequence[str] = ("",),
    ) -> None:
        whole = array(_TYPECODE, data)
        size = len(whole) // len(COLUMNS)
        self.columns: Tuple[array, ...] = tuple(
            whole[k * size : (k + 1) * size] for k in range(len(COLUMNS))
        )
        self.payloads: List[Any] = list(payloads)
        self.details: List[str] = list(details)

    def __len__(self) -> int:
        return len(self.columns[0])

    def __getitem__(self, index):  # type: ignore[override]
        if isinstance(index, slice):
            return [self[seq] for seq in range(len(self))[index]]
        seq = range(len(self))[index]
        return self._event(seq, [column[seq] for column in self.columns])

    def __iter__(self) -> Iterator[Event]:
        event = self._event
        for seq, row in enumerate(zip(*self.columns)):
            yield event(seq, row)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        return list(self) == list(other)

    def __reduce__(self):
        data = b"".join(column.tobytes() for column in self.columns)
        return EventLog, (data, self.payloads, self.details)

    def _event(self, seq: int, row: Sequence[int]) -> Event:
        kind, time, etime, proc, peer, port, bits, msg, payload, detail = row
        return Event(
            seq,
            EVENT_KINDS[kind],
            time,
            etime,
            None if proc < 0 else proc,
            None if peer < 0 else peer,
            PORT_NAMES[port],
            self.payloads[payload],
            bits,
            None if msg < 0 else msg,
            self.details[detail],
        )

    def _writer(self) -> Callable[..., None]:
        """A function appending one positional row, in :data:`COLUMNS` order.

        A value outside int32 raises :class:`OverflowError`; the partly
        written row is rolled back first, so a run that dies on it still
        leaves a readable prefix.
        """
        columns = self.columns
        kind, time, etime, proc, peer, port, bits, msg, payload, detail = (
            column.append for column in columns
        )

        def write(k: int, t: int, e: int, p: int, q: int, o: int, b: int,
                  m: int, pl: int, d: int) -> None:
            try:
                kind(k)
                time(t)
                etime(e)
                proc(p)
                peer(q)
                port(o)
                bits(b)
                msg(m)
                payload(pl)
                detail(d)
            except OverflowError:
                size = min(map(len, columns))
                for column in columns:
                    del column[size:]
                raise

        return write


class EventRecorder(Recorder):
    """Records the full typed event stream of one run into an :class:`EventLog`.

    Args:
        clock: :data:`CLOCK_CYCLE` for the synchronous engines (stamps
            are cycle indices) or :data:`CLOCK_LAMPORT` for the general
            asynchronous engine (stamps are per-processor Lamport
            clocks).

    ``events`` is the log being filled: each hook appends one row per
    event, building no :class:`Event`.  The recorder maintains a FIFO
    mirror of every engine channel keyed by the opaque ``channel`` value
    the engine passes to :meth:`send`, which is what lets it assign
    message ids and Lamport stamps without any engine-side bookkeeping.
    """

    def __init__(self, clock: str = CLOCK_CYCLE) -> None:
        if clock not in (CLOCK_CYCLE, CLOCK_LAMPORT):
            raise ValueError(f"unknown clock mode {clock!r}")
        self.clock = clock
        self.events = EventLog()
        self._row = self.events._writer()
        self._lamport = clock == CLOCK_LAMPORT
        self._clocks: Dict[int, int] = {}
        # Mirror entry: (msg, sender, receiver, in-port code, payload id, send stamp)
        self._channels: Dict[Any, Deque[Tuple[int, ...]]] = {}
        self._next_msg = 0
        self._copy: Optional[Tuple[Any, Tuple[int, ...]]] = None  # (channel, entry)
        self._payload_ids: Dict[int, int] = {id(None): 0}
        self._detail_ids: Dict[str, int] = {"": 0}

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _payload(self, value: Any) -> int:
        """``value``'s row in the payload table, interned by identity."""
        pid = self._payload_ids.get(id(value))
        if pid is None:
            pid = self._payload_ids[id(value)] = len(self.events.payloads)
            self.events.payloads.append(value)
        return pid

    def _detail(self, text: str) -> int:
        """``text``'s row in the detail table."""
        did = self._detail_ids.get(text)
        if did is None:
            did = self._detail_ids[text] = len(self.events.details)
            self.events.details.append(text)
        return did

    def _tick(self, proc: int) -> int:
        stamp = self._clocks.get(proc, 0) + 1
        self._clocks[proc] = stamp
        return stamp

    def _witness(self, proc: int, stamp: int) -> int:
        """Lamport receive rule: advance ``proc`` past ``stamp``."""
        new = max(self._clocks.get(proc, 0), stamp) + 1
        self._clocks[proc] = new
        return new

    def _take(self, channel: Any) -> Tuple[int, ...]:
        """Consume the subject of the next delivery on ``channel``.

        Returns the pending duplicate copy if :meth:`duplicate` just
        manufactured one; otherwise pops the channel mirror's head.
        """
        if self._copy is not None and self._copy[0] == channel:
            entry = self._copy[1]
            self._copy = None
            return entry
        return self._channels[channel].popleft()

    # ------------------------------------------------------------------
    # Recorder hooks
    # ------------------------------------------------------------------

    def send(
        self,
        sender: int,
        receiver: int,
        out_port: Port,
        in_port: Port,
        payload: Any,
        bits: int,
        etime: int,
        channel: Any,
    ) -> None:
        msg = self._next_msg
        self._next_msg += 1
        stamp = self._tick(sender) if self._lamport else etime
        pid = self._payload(payload)
        port = 0 if in_port is _LEFT else 1
        self._row(
            _SEND, stamp, etime, sender, receiver, 0 if out_port is _LEFT else 1,
            bits, msg, pid, 0,
        )
        self._row(_ENQUEUE, stamp, etime, receiver, sender, port, bits, msg, pid, 0)
        queue = self._channels.get(channel)
        if queue is None:
            queue = self._channels[channel] = deque()
        queue.append((msg, sender, receiver, port, pid, stamp))

    def deliver(self, channel: Any, etime: int) -> None:
        msg, sender, receiver, port, pid, stamp = self._take(channel)
        time = self._witness(receiver, stamp) if self._lamport else etime
        self._row(_DELIVER, time, etime, receiver, sender, port, 0, msg, pid, 0)
        if self._lamport:
            # The delivery *is* the receiver's state transition in the
            # asynchronous model (one handler invocation per delivery).
            # Cycle-mode engines call :meth:`step` themselves: the
            # synchronizing adversary right after each delivery, the
            # synchronous engine when the receiver is next resumed.
            self._row(_STEP, time, etime, receiver, -1, -1, 0, -1, 0, 0)

    def drop(self, channel: Any, etime: int, reason: str = "") -> None:
        msg, sender, receiver, port, pid, stamp = self._take(channel)
        # A drop changes no processor state: stamp it with the message's
        # send stamp (its last causal point) and tick no clock.
        time = stamp if self._lamport else etime
        self._row(
            _DROP, time, etime, receiver, sender, port, 0, msg, pid, self._detail(reason)
        )

    def duplicate(self, channel: Any, etime: int) -> None:
        original = self._channels[channel][0]
        msg, sender, receiver, port, pid, stamp = original
        copy_id = self._next_msg
        self._next_msg += 1
        time = stamp if self._lamport else etime
        self._row(
            _DUPLICATE, time, etime, receiver, sender, port, 0, copy_id, pid,
            self._detail(f"copy-of:{msg}"),
        )
        self._copy = (channel, (copy_id, sender, receiver, port, pid, stamp))

    def wake(self, proc: int, etime: int, spontaneous: bool = True) -> None:
        time = self._tick(proc) if self._lamport else etime
        detail = self._detail("spontaneous" if spontaneous else "message")
        self._row(_WAKE, time, etime, proc, -1, -1, 0, -1, 0, detail)

    def step(self, proc: int, etime: int) -> None:
        time = self._tick(proc) if self._lamport else etime
        self._row(_STEP, time, etime, proc, -1, -1, 0, -1, 0, 0)

    def halt(self, proc: int, etime: int, output: Any = None) -> None:
        # Halting happens inside the transition that was already stamped.
        time = self._clocks.get(proc, 0) if self._lamport else etime
        self._row(_HALT, time, etime, proc, -1, -1, 0, -1, self._payload(output), 0)

    def crash(self, proc: int, etime: int) -> None:
        time = self._clocks.get(proc, 0) if self._lamport else etime
        self._row(_CRASH, time, etime, proc, -1, -1, 0, -1, 0, 0)

    def schedule(self, channel: Any, etime: int) -> None:
        self._row(
            _SCHEDULE, etime, etime, -1, -1, -1, 0, -1, 0, self._detail(repr(channel))
        )
