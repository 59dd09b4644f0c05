"""Straightforward reference implementations of both engines.

These are the *semantic spec* the optimized engines in
``repro.asynch.simulator`` / ``repro.sync.simulator`` must match: the
seed engines' obviously-correct structure (re-sort the pending channels
every event, rebuild every per-cycle structure from scratch, scan
``all(halted)``) with the documented timing conventions applied —

* asynchronous start-event sends are stamped ``send_time = 0`` and the
  delivery clock counts actual deliveries only — drops at halted
  processors are tallied in ``stats.dropped`` and do not tick the clock;
* the one-message-per-port-per-cycle rule applies to waking processors
  exactly as to awake ones;
* a synchronous process that yields ``Idle(k)`` sends nothing from that
  cycle on and is resumed with ``(elapsed, In)`` on the cycle after one in
  which something arrived, or after ``k`` cycles.

Each reference engine keeps its own list of sends, one
:class:`~repro.core.message.Envelope` each, appended to the ``sends``
list a caller passes in.  ``tests/test_trace_equivalence.py`` asserts
that list equals the optimized engines' recorded send events, and all
counters agree, on randomized rings and schedules.  Keep these slow and
simple: their value is being obviously right.

:class:`ReferenceEventRecorder` plays the same role for the
:mod:`repro.obs` event log: it records each event as a frozen
:class:`~repro.obs.events.Event`, the way the recorder did before the log
became columnar.

:func:`bit_length_reference` is the sizing rule as a plain ``isinstance``
chain, the oracle for :func:`repro.core.message.bit_length`'s exact-type
walk.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.asynch.process import AsyncFactory, Context
from repro.asynch.schedulers import ChannelId, RoundRobinScheduler, Scheduler
from repro.core.errors import NonTerminationError, SimulationError
from repro.core.message import Envelope, Port
from repro.core.ring import RingConfiguration
from repro.core.tracing import RunResult, TraceStats
from repro.obs.events import CLOCK_CYCLE, CLOCK_LAMPORT, Event, Recorder
from repro.sync.process import ABSENT, Idle, In, Out, ProcessGen, SyncProcess
from repro.sync.simulator import ProcessFactory, default_cycle_budget
from repro.sync.wakeup import WakeupSchedule
from repro.asynch.simulator import default_event_budget


def bit_length_reference(payload: Any) -> int:
    """The sizing rules of :func:`repro.core.message.bit_length`, checked
    one ``isinstance`` at a time and recursing for every item."""
    if payload is None:
        return 1
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, int):
        return max(1, payload.bit_length() + (1 if payload < 0 else 0))
    if isinstance(payload, str):
        if payload and all(ch in "01" for ch in payload):
            return len(payload)
        return 8 * max(1, len(payload))
    if isinstance(payload, bytes):
        return 8 * max(1, len(payload))
    if isinstance(payload, (tuple, list)):
        return max(1, sum(bit_length_reference(item) for item in payload))
    if isinstance(payload, enum.Enum):
        population = len(type(payload))
        width = max(1, (population - 1).bit_length())
        return width
    return 32


class _RefEngine:
    """Reference counterpart of the shared async machinery."""

    def __init__(
        self,
        config: RingConfiguration,
        factory: AsyncFactory,
        sends: Optional[List[Envelope]],
    ):
        self.config = config
        self.n = config.n
        self.processes = [factory(config.inputs[i], config.n) for i in range(config.n)]
        self.halted = [False] * self.n
        self.outputs: List[Any] = [None] * self.n
        self.stats = TraceStats()
        self.sends = sends if sends is not None else []

    def invoke_start(self, i: int) -> List[Tuple[Port, Any]]:
        ctx = Context()
        self.processes[i].on_start(ctx)
        return self._absorb(i, ctx)

    def invoke_message(self, i: int, port: Port, payload: Any) -> List[Tuple[Port, Any]]:
        ctx = Context()
        self.processes[i].on_message(ctx, port, payload)
        return self._absorb(i, ctx)

    def _absorb(self, i: int, ctx: Context) -> List[Tuple[Port, Any]]:
        if ctx._halted:
            self.halted[i] = True
            self.outputs[i] = ctx._output
        return ctx._sends

    def record(self, sender: int, out_port: Port, payload: Any, time: int):
        receiver, in_port, step = self.config.route(sender, out_port)
        envelope = Envelope(
            sender=sender,
            receiver=receiver,
            out_port=out_port,
            in_port=in_port,
            payload=payload,
            send_time=time,
        )
        self.stats.record_send(envelope.bits, time)
        self.sends.append(envelope)
        return receiver, in_port, step

    def check_all_halted(self) -> None:
        if not all(self.halted):
            laggards = [i for i in range(self.n) if not self.halted[i]]
            raise SimulationError(
                f"deadlock: no messages pending but processors {laggards} "
                "have not halted"
            )


def run_asynchronous_reference(
    config: RingConfiguration,
    factory: AsyncFactory,
    scheduler: Optional[Scheduler] = None,
    max_events: Optional[int] = None,
    sends: Optional[List[Envelope]] = None,
) -> RunResult:
    """Seed-style general async engine: re-sorts pending channels per event."""
    engine = _RefEngine(config, factory, sends)
    n = config.n
    budget = max_events if max_events is not None else default_event_budget(n)
    scheduler = scheduler or RoundRobinScheduler()
    queues: Dict[ChannelId, Deque[Tuple[Port, Any]]] = {}

    def dispatch(sender: int, sends: List[Tuple[Port, Any]], time: int) -> None:
        for out_port, payload in sends:
            receiver, in_port, step = engine.record(sender, out_port, payload, time)
            queues.setdefault((sender, receiver, step), deque()).append(
                (in_port, payload)
            )

    for i in range(n):
        dispatch(i, engine.invoke_start(i), 0)

    clock = 0
    events = 0
    while True:
        pending = sorted(cid for cid, queue in queues.items() if queue)
        if not pending:
            break
        events += 1
        if events > budget:
            raise NonTerminationError(f"event budget {budget} exhausted")
        cid = scheduler.choose(tuple(pending))
        if cid not in queues or not queues[cid]:
            raise SimulationError(
                f"{type(scheduler).__name__} chose channel {cid!r}, which has "
                "no pending message (schedulers must return one of the "
                "channels in the pending view)"
            )
        in_port, payload = queues[cid].popleft()
        _, receiver, _ = cid
        if engine.halted[receiver]:
            engine.stats.dropped += 1
            continue
        engine.stats.delivered += 1
        clock += 1
        dispatch(receiver, engine.invoke_message(receiver, in_port, payload), clock)

    engine.check_all_halted()
    return RunResult(outputs=tuple(engine.outputs), stats=engine.stats, cycles=None)


def run_async_synchronized_reference(
    config: RingConfiguration,
    factory: AsyncFactory,
    max_cycles: Optional[int] = None,
    sends: Optional[List[Envelope]] = None,
) -> RunResult:
    """Seed-style Theorem 5.1 adversary: rebuilds the inflight store per cycle."""
    engine = _RefEngine(config, factory, sends)
    n = config.n
    budget = max_cycles if max_cycles is not None else 8 * n + 64

    inflight: List[Dict[Port, List[Any]]] = [
        {Port.LEFT: [], Port.RIGHT: []} for _ in range(n)
    ]

    def dispatch(sender: int, sends: List[Tuple[Port, Any]], cycle: int) -> None:
        for out_port, payload in sends:
            receiver, in_port, _ = engine.record(sender, out_port, payload, cycle)
            inflight[receiver][in_port].append(payload)

    cycle = 0
    for i in range(n):
        dispatch(i, engine.invoke_start(i), cycle)

    while any(batch[Port.LEFT] or batch[Port.RIGHT] for batch in inflight):
        cycle += 1
        if cycle > budget:
            raise NonTerminationError(f"cycle budget {budget} exhausted")
        arriving, inflight = inflight, [
            {Port.LEFT: [], Port.RIGHT: []} for _ in range(n)
        ]
        for i in range(n):
            for port in (Port.LEFT, Port.RIGHT):
                for payload in arriving[i][port]:
                    if engine.halted[i]:
                        engine.stats.dropped += 1
                        continue
                    engine.stats.delivered += 1
                    dispatch(i, engine.invoke_message(i, port, payload), cycle)

    engine.check_all_halted()
    return RunResult(outputs=tuple(engine.outputs), stats=engine.stats, cycles=cycle)


def run_synchronous_reference(
    config: RingConfiguration,
    factory: ProcessFactory,
    wakeup: Optional[WakeupSchedule] = None,
    max_cycles: Optional[int] = None,
    sends: Optional[List[Envelope]] = None,
) -> RunResult:
    """Seed-style synchronous engine: fresh structures every cycle."""
    if sends is None:
        sends = []
    n = config.n
    wakeup = wakeup or WakeupSchedule.simultaneous(n)
    if wakeup.n != n:
        raise SimulationError(f"schedule covers {wakeup.n} processors, ring has {n}")

    processes: List[SyncProcess] = [factory(config.inputs[i], n) for i in range(n)]
    gens: List[Optional[ProcessGen]] = [None] * n
    outputs: List[Any] = [None] * n
    halted = [False] * n
    halt_times = [0] * n
    wake_time = list(wakeup.times)
    wake_messages: List[List] = [[] for _ in range(n)]
    last_in: List[In] = [In() for _ in range(n)]
    # (first idle cycle, k) of each processor's current Idle(k), or None.
    idling: List[Optional[Tuple[int, int]]] = [None] * n
    stats = TraceStats()
    budget = max_cycles if max_cycles is not None else default_cycle_budget(n)

    cycle = 0
    while not all(halted):
        # Budget = number of permitted cycles (0..budget-1), matching the
        # optimized engine and the async-synchronized convention.
        if cycle >= budget:
            laggards = [i for i in range(n) if not halted[i]]
            raise NonTerminationError(
                f"cycle budget {budget} exhausted; still running: {laggards}"
            )

        emissions: List[Tuple[int, Out]] = []
        for i in range(n):
            if halted[i] or wake_time[i] > cycle:
                continue
            gen = gens[i]
            try:
                if gen is None:
                    proc = processes[i]
                    proc.wake_inbox = list(wake_messages[i])
                    proc.woke_spontaneously = not wake_messages[i]
                    gen = proc.run()
                    gens[i] = gen
                    out = next(gen)
                elif idling[i] is None:
                    out = gen.send(last_in[i])
                else:
                    start, k = idling[i]
                    if not last_in[i].any() and cycle - start < k:
                        continue  # still idle: a quiet cycle
                    idling[i] = None
                    out = gen.send((cycle - start, last_in[i]))
            except StopIteration as stop:
                halted[i] = True
                outputs[i] = stop.value
                halt_times[i] = cycle
                continue
            if isinstance(out, Idle):
                idling[i] = (cycle, out.cycles)
                continue
            if not isinstance(out, Out):
                raise SimulationError(
                    f"processor yielded {out!r}; processes must yield Out(...) "
                    "or Idle(k)"
                )
            emissions.append((i, out))

        arriving: List[Dict[Port, Any]] = [dict() for _ in range(n)]
        for sender, out in emissions:
            for port, payload in out.sends():
                receiver, in_port = config.arrival_port(sender, port)
                envelope = Envelope(
                    sender=sender,
                    receiver=receiver,
                    out_port=port,
                    in_port=in_port,
                    payload=payload,
                    send_time=cycle,
                )
                stats.record_send(envelope.bits, cycle)
                sends.append(envelope)
                if halted[receiver]:
                    continue
                if gens[receiver] is None and wake_time[receiver] > cycle:
                    if any(p is in_port for p, _ in wake_messages[receiver]):
                        raise SimulationError(
                            f"two messages on one port in one cycle at {receiver}"
                        )
                    wake_messages[receiver].append((in_port, payload))
                    wake_time[receiver] = cycle + 1
                    continue
                if in_port in arriving[receiver]:
                    raise SimulationError(
                        f"two messages on one port in one cycle at {receiver}"
                    )
                arriving[receiver][in_port] = payload

        for i in range(n):
            got = arriving[i]
            last_in[i] = In(
                left=got.get(Port.LEFT, ABSENT),
                right=got.get(Port.RIGHT, ABSENT),
            )

        cycle += 1

    return RunResult(
        outputs=tuple(outputs),
        stats=stats,
        cycles=max(halt_times) if halt_times else 0,
        halt_times=tuple(halt_times),
    )


class ReferenceEventRecorder(Recorder):
    """The obviously-right recorder: one frozen :class:`Event` per event.

    The oracle for :class:`repro.obs.events.EventRecorder`, which appends
    columnar rows instead: both must produce the same events for the same
    hook calls (``tests/test_obs_properties.py``).

    Args:
        clock: :data:`CLOCK_CYCLE` for the synchronous engines (stamps
            are cycle indices) or :data:`CLOCK_LAMPORT` for the general
            asynchronous engine (stamps are per-processor Lamport
            clocks).

    The recorder maintains a FIFO mirror of every engine channel keyed by
    the opaque ``channel`` value the engine passes to :meth:`send`, which
    is what lets it assign message ids and Lamport stamps without any
    engine-side bookkeeping.
    """

    def __init__(self, clock: str = CLOCK_CYCLE) -> None:
        if clock not in (CLOCK_CYCLE, CLOCK_LAMPORT):
            raise ValueError(f"unknown clock mode {clock!r}")
        self.clock = clock
        self.events: List[Event] = []
        self._lamport = clock == CLOCK_LAMPORT
        self._clocks: Dict[int, int] = {}
        # Mirror entry: (msg, sender, receiver, in_port, payload, bits, send_stamp)
        self._channels: Dict[Any, Deque[Tuple]] = {}
        self._next_msg = 0
        self._copy: Optional[Tuple[Any, Tuple]] = None  # (channel, entry)

    # ------------------------------------------------------------------
    # Internal helpers
    # ------------------------------------------------------------------

    def _emit(self, kind: str, time: int, etime: int, **fields: Any) -> None:
        self.events.append(
            Event(seq=len(self.events), kind=kind, time=time, etime=etime, **fields)
        )

    def _tick(self, proc: int) -> int:
        stamp = self._clocks.get(proc, 0) + 1
        self._clocks[proc] = stamp
        return stamp

    def _witness(self, proc: int, stamp: int) -> int:
        """Lamport receive rule: advance ``proc`` past ``stamp``."""
        new = max(self._clocks.get(proc, 0), stamp) + 1
        self._clocks[proc] = new
        return new

    def _take(self, channel: Any) -> Tuple:
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
        self._emit(
            "send",
            stamp,
            etime,
            proc=sender,
            peer=receiver,
            port=out_port.value,
            payload=payload,
            bits=bits,
            msg=msg,
        )
        self._emit(
            "enqueue",
            stamp,
            etime,
            proc=receiver,
            peer=sender,
            port=in_port.value,
            payload=payload,
            bits=bits,
            msg=msg,
        )
        queue = self._channels.get(channel)
        if queue is None:
            queue = self._channels[channel] = deque()
        queue.append((msg, sender, receiver, in_port, payload, bits, stamp))

    def deliver(self, channel: Any, etime: int) -> None:
        msg, sender, receiver, in_port, payload, bits, stamp = self._take(channel)
        time = self._witness(receiver, stamp) if self._lamport else etime
        self._emit(
            "deliver",
            time,
            etime,
            proc=receiver,
            peer=sender,
            port=in_port.value,
            payload=payload,
            msg=msg,
        )
        if self._lamport:
            # The delivery *is* the receiver's state transition in the
            # asynchronous model (one handler invocation per delivery).
            # Cycle-mode engines call :meth:`step` themselves: the
            # synchronizing adversary right after each delivery, the
            # synchronous engine when the receiver is next resumed.
            self._emit("state-transition", time, etime, proc=receiver)

    def drop(self, channel: Any, etime: int, reason: str = "") -> None:
        msg, sender, receiver, in_port, payload, bits, stamp = self._take(channel)
        # A drop changes no processor state: stamp it with the message's
        # send stamp (its last causal point) and tick no clock.
        time = stamp if self._lamport else etime
        self._emit(
            "drop",
            time,
            etime,
            proc=receiver,
            peer=sender,
            port=in_port.value,
            payload=payload,
            msg=msg,
            detail=reason,
        )

    def duplicate(self, channel: Any, etime: int) -> None:
        original = self._channels[channel][0]
        msg, sender, receiver, in_port, payload, bits, stamp = original
        copy_id = self._next_msg
        self._next_msg += 1
        time = stamp if self._lamport else etime
        self._emit(
            "duplicate",
            time,
            etime,
            proc=receiver,
            peer=sender,
            port=in_port.value,
            payload=payload,
            msg=copy_id,
            detail=f"copy-of:{msg}",
        )
        self._copy = (
            channel,
            (copy_id, sender, receiver, in_port, payload, bits, stamp),
        )

    def wake(self, proc: int, etime: int, spontaneous: bool = True) -> None:
        time = self._tick(proc) if self._lamport else etime
        self._emit(
            "wake",
            time,
            etime,
            proc=proc,
            detail="spontaneous" if spontaneous else "message",
        )

    def step(self, proc: int, etime: int) -> None:
        time = self._tick(proc) if self._lamport else etime
        self._emit("state-transition", time, etime, proc=proc)

    def halt(self, proc: int, etime: int, output: Any = None) -> None:
        # Halting happens inside the transition that was already stamped.
        time = self._clocks.get(proc, 0) if self._lamport else etime
        self._emit("halt", time, etime, proc=proc, payload=output)

    def crash(self, proc: int, etime: int) -> None:
        time = self._clocks.get(proc, 0) if self._lamport else etime
        self._emit("crash", time, etime, proc=proc)

    def schedule(self, channel: Any, etime: int) -> None:
        self._emit("schedule", etime, etime, detail=repr(channel))
