"""The asynchronous engines (§2, asynchronous model).

Two entry points:

* :func:`run_asynchronous` — the general event-driven engine.  A pluggable
  :class:`repro.asynch.schedulers.Scheduler` decides which FIFO channel
  delivers next; correctness of an algorithm means the ring output is right
  under *every* schedule.

* :func:`run_async_synchronized` — the synchronizing adversary of
  Theorem 5.1.  Deliveries proceed in cycles: everything sent at cycle ``t``
  arrives at cycle ``t+1``, each processor receiving its left port's
  messages before its right port's, in send order.  This schedule keeps a
  symmetric configuration symmetric, which is what forces the ``Ω(n²)``
  bounds of §5; it also produces a per-cycle trace, so the fooling-pair
  checker can count messages per cycle.

Timing convention (see ``docs/model.md``): every start-event send is
stamped ``send_time = 0``; the delivery clock starts at 1 with the first
*actual* delivery, so a send caused by the ``k``-th delivered message is
stamped ``k``.  Scheduling events whose message is dropped — receiver
halted or crashed, or a fault adversary lost it — do not advance the
clock; they are counted in ``TraceStats.dropped`` instead.  Under the
synchronizing adversary ``send_time`` is the cycle number instead.

Fault injection: :func:`run_asynchronous` accepts an optional
:class:`repro.asynch.adversary.Adversary` that may crash-stop processors
at chosen event indices and drop or duplicate the scheduled message; see
that module for the exact semantics and accounting.

Both engines are hot paths — every bound in the paper is checked by
running them — so the event loops avoid per-event rebuilding: routing is
resolved once per (sender, port), the set of nonempty channels is
maintained incrementally in sorted order (never re-sorted from scratch),
and trace accounting is one ``record_send`` per send; who sent what is
the recorder's to keep.  Each fresh payload is sized once: a message's
queue entry keeps the size its payload may carry (see
:func:`~repro.core.message.send_size`), and a handler re-sending the
payload it was just delivered reuses that size.

Recording follows one rule on every engine: a ``state-transition`` row
marks each transition after the first (``wake``) that receives or sends
a message.  Here every transition after the start handler is a delivery,
so both engines write one row per delivery.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, Dict, List, Optional, Tuple

from ..core.errors import NonTerminationError, SimulationError
from ..core.message import Port, send_size
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult, TraceStats
from ..topology.base import static_route_table
from .adversary import Action, Adversary
from .process import AsyncFactory, AsyncProcess, Context
from .schedulers import ChannelId, PendingView, RoundRobinScheduler, Scheduler

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import Recorder


def default_event_budget(n: int) -> int:
    """Generous event budget: well above the ``n(n−1)`` of input distribution."""
    return 32 * n * n + 256 * n + 1024


class _Engine:
    """Shared machinery: processor table, halting, routing, send accounting."""

    def __init__(
        self,
        config: RingConfiguration,
        factory: AsyncFactory,
        recorder: Optional["Recorder"] = None,
        channel_keys: str = "cid",
        oblivious: bool = False,
    ):
        self.config = config
        self.n = config.n
        self.processes: List[AsyncProcess] = [
            factory(config.inputs[i], config.n) for i in range(config.n)
        ]
        self.halted = [False] * self.n
        self.crashed = [False] * self.n
        self.outputs: List[Any] = [None] * self.n
        self.stats = TraceStats()
        self.recorder = recorder
        # Which channel key the recorder's FIFO mirror uses: the event
        # engine delivers per directed channel ("cid"), the synchronizing
        # adversary per receiver in-port ("port") — each matches that
        # engine's own FIFO discipline.
        self.cid_keys = channel_keys == "cid"
        # Content-oblivious delivery: payloads stripped to None on the
        # wire, one bit (a beep) per message.
        self.oblivious = oblivious
        # Each (sender, port) always maps to the same channel; the static
        # route table is the topology layer's, resolved once per run.
        # (The asynchronous engines are static-ring only: the dynamic
        # adversary's rounds have no meaning without a global clock.)
        self.routes: List[Dict[Port, Tuple[int, Port, int]]] = static_route_table(
            config
        )

    def invoke_start(self, i: int, etime: int = 0) -> List[Tuple[Port, Any]]:
        if self.recorder is not None:
            self.recorder.wake(i, etime, spontaneous=True)
        ctx = Context()
        self.processes[i].on_start(ctx)
        return self._absorb(i, ctx, etime)

    def invoke_message(
        self, i: int, port: Port, payload: Any, etime: int = 0
    ) -> List[Tuple[Port, Any]]:
        ctx = Context()
        self.processes[i].on_message(ctx, port, payload)
        return self._absorb(i, ctx, etime)

    def _absorb(self, i: int, ctx: Context, etime: int = 0) -> List[Tuple[Port, Any]]:
        if ctx._halted:
            self.halted[i] = True
            self.outputs[i] = ctx._output
            if self.recorder is not None:
                self.recorder.halt(i, etime, ctx._output)
        return ctx._sends

    def record(
        self, sender: int, out_port: Port, payload: Any, time: int, carried: int = 0
    ) -> Tuple[int, Port, int, Any, int]:
        """Account one send; returns the route, the *wire* payload and the
        size it carries.

        ``carried`` is the payload's size when it travels with the message
        (a handler re-sending the payload it was just delivered), else 0
        and the payload is sized here.  The returned size is what the
        queue entry keeps: the payload's size if it may travel (see
        :func:`~repro.core.message.send_size`), else 0.

        Under content-oblivious delivery the payload is stripped to
        ``None`` here — the boundary where the message leaves its sender
        — so the recorder and the receiver both see the beep.
        """
        receiver, in_port, step = self.routes[sender][out_port]
        if self.oblivious:
            payload = None
            carried = 0
        if carried:
            bits = carried
        else:
            bits, carries = send_size(payload)
            if carries:
                carried = bits
        self.stats.record_send(bits, time)
        if self.recorder is not None:
            channel = (sender, receiver, step) if self.cid_keys else (receiver, in_port)
            self.recorder.send(
                sender,
                receiver,
                out_port,
                in_port,
                payload,
                bits,
                time,
                channel=channel,
            )
        return receiver, in_port, step, payload, carried

    def check_all_halted(self) -> None:
        """Quiescence check: everyone halted, crashed processors excused."""
        laggards = [
            i for i in range(self.n) if not self.halted[i] and not self.crashed[i]
        ]
        if laggards:
            raise SimulationError(
                f"deadlock: no messages pending but processors {laggards} "
                "have not halted"
            )


def run_asynchronous(
    config: RingConfiguration,
    factory: AsyncFactory,
    scheduler: Optional[Scheduler] = None,
    max_events: Optional[int] = None,
    adversary: Optional[Adversary] = None,
    recorder: Optional["Recorder"] = None,
    oblivious: bool = False,
) -> RunResult:
    """Run an asynchronous computation under an arbitrary schedule.

    Start events fire for every processor (in index order) before any
    delivery; thereafter the scheduler repeatedly picks a nonempty FIFO
    channel and its head message is delivered.  The run ends when no
    message is pending; every processor must have halted by then (crashed
    processors are excused and output ``None``).

    Start-event sends are stamped ``send_time = 0``; the delivery clock
    counts actual deliveries, so sends caused by the ``k``-th delivered
    message are stamped ``k``.  Drops — at halted or crashed processors,
    or injected by the ``adversary`` — are counted in ``stats.dropped``
    and do not advance the clock.

    ``recorder`` (a :class:`repro.obs.events.Recorder`) receives the typed
    event stream — scheduler picks and crashes stamped with the event
    index, transport events with the delivery clock / Lamport stamps; the
    default ``None`` records nothing and adds no per-event work.

    Raises:
        NonTerminationError: the event budget was exhausted.
        SimulationError: quiescence was reached with processors not
            halted, or the scheduler chose a channel with no pending
            message (the error names the scheduler class).
    """
    engine = _Engine(config, factory, recorder, channel_keys="cid", oblivious=oblivious)
    n = config.n
    budget = max_events if max_events is not None else default_event_budget(n)
    scheduler = scheduler or RoundRobinScheduler()

    # One FIFO queue per directed channel, created up front (a ring has at
    # most 2n channels).  `pending` is the sorted list of channels whose
    # queue is nonempty, maintained incrementally: a channel is inserted
    # when its queue goes empty→nonempty and removed when it drains.  This
    # replaces the seed engine's per-event `sorted(...)` rebuild while
    # presenting the Scheduler with the exact same sorted sequence.
    # Each entry is (in-port, payload, carried size; see _Engine.record).
    queues: Dict[ChannelId, Deque[Tuple[Port, Any, int]]] = {}
    for i in range(n):
        for port in (Port.LEFT, Port.RIGHT):
            receiver, _in_port, step = engine.routes[i][port]
            queues[(i, receiver, step)] = deque()
    pending: List[ChannelId] = []

    def dispatch(
        sender: int,
        sends: List[Tuple[Port, Any]],
        time: int,
        delivered: Any = None,
        size: int = 0,
    ) -> None:
        # ``delivered`` is the payload whose handler made these sends, and
        # ``size`` the size it carries: re-sending it reuses that size.
        for out_port, payload in sends:
            receiver, in_port, step, payload, carried = engine.record(
                sender, out_port, payload, time, size if payload is delivered else 0
            )
            cid: ChannelId = (sender, receiver, step)
            queue = queues[cid]
            if not queue:
                insort(pending, cid)
            queue.append((in_port, payload, carried))

    for i in range(n):
        dispatch(i, engine.invoke_start(i), 0)

    # Schedulers see a read-only live view of `pending`, never the list
    # itself: a scheduler that tries to mutate it fails loudly instead of
    # silently corrupting the engine's incremental bookkeeping.
    view = PendingView(pending)
    halted = engine.halted
    crashed = engine.crashed
    stats = engine.stats
    clock = 0
    events = 0
    choose = scheduler.choose
    while pending:
        events += 1
        if events > budget:
            raise NonTerminationError(f"event budget {budget} exhausted")
        if adversary is not None:
            for victim in adversary.crashes_at(events):
                crashed[victim] = True
                if recorder is not None:
                    recorder.crash(victim, events)
        cid = choose(view)
        queue = queues.get(cid)
        if not queue:
            raise SimulationError(
                f"{type(scheduler).__name__} chose channel {cid!r}, which has "
                "no pending message (schedulers must return one of the "
                "channels in the pending view)"
            )
        if recorder is not None:
            recorder.schedule(cid, events)
        action = (
            Action.DELIVER if adversary is None else adversary.on_delivery(events, cid)
        )
        if action is Action.DUPLICATE:
            # Deliver a copy; the original stays at the head of the FIFO
            # queue (adjacent copies, so link order is preserved) and the
            # channel stays pending.
            in_port, payload, size = queue[0]
            stats.duplicated += 1
            if recorder is not None:
                recorder.duplicate(cid, clock)
        else:
            in_port, payload, size = queue.popleft()
            if not queue:
                # The channel drained; drop it from `pending` before the
                # handler runs (an n=1 self-send may re-add the same channel).
                del pending[bisect_left(pending, cid)]
        receiver = cid[1]
        if action is Action.DROP or halted[receiver] or crashed[receiver]:
            # Lost by the adversary, or a late message to a halted/crashed
            # processor: no delivery, and the delivery clock does not tick.
            stats.dropped += 1
            if recorder is not None:
                reason = (
                    "adversary"
                    if action is Action.DROP
                    else ("halted" if halted[receiver] else "crashed")
                )
                recorder.drop(cid, clock, reason)
            continue
        stats.delivered += 1
        clock += 1
        if recorder is not None:
            recorder.deliver(cid, clock)
        dispatch(
            receiver,
            engine.invoke_message(receiver, in_port, payload, etime=clock),
            clock,
            payload,
            size,
        )

    engine.check_all_halted()
    return RunResult(outputs=tuple(engine.outputs), stats=engine.stats, cycles=None)


def run_async_synchronized(
    config: RingConfiguration,
    factory: AsyncFactory,
    max_cycles: Optional[int] = None,
    recorder: Optional["Recorder"] = None,
    oblivious: bool = False,
) -> RunResult:
    """Run under the synchronizing adversary of Theorem 5.1.

    All messages sent at cycle ``t`` are received at cycle ``t+1``; each
    processor receives all of its left port's arrivals first, then its
    right port's, each in send order.  The induction of Lemma 3.1 then
    applies: after ``k`` cycles a processor's state is a function of its
    k-neighborhood, so symmetric rings generate symmetric (and therefore
    voluminous) traffic.

    Returns a result whose ``cycles`` field is the number of delivery
    cycles and whose trace has a meaningful per-cycle histogram.  An
    optional ``recorder`` receives the cycle-stamped event stream, with one
    ``state-transition`` row per delivery; within one receiver's in-port,
    deliveries happen in global send order, so the recorder keys its FIFO
    mirror by ``(receiver, in_port)``.
    """
    engine = _Engine(config, factory, recorder, channel_keys="port", oblivious=oblivious)
    n = config.n
    budget = max_cycles if max_cycles is not None else 8 * n + 64

    # Double-buffered in-flight store: `inflight[i][port]` holds the
    # (payload, carried size) of each message to deliver to processor i
    # next cycle.  The two buffers are swapped each cycle and their lists
    # cleared after consumption, so no per-cycle list allocation happens.
    inflight: List[Dict[Port, List[Tuple[Any, int]]]] = [
        {Port.LEFT: [], Port.RIGHT: []} for _ in range(n)
    ]
    spare: List[Dict[Port, List[Tuple[Any, int]]]] = [
        {Port.LEFT: [], Port.RIGHT: []} for _ in range(n)
    ]
    pending_count = 0

    def dispatch(
        sender: int,
        sends: List[Tuple[Port, Any]],
        cycle: int,
        delivered: Any = None,
        size: int = 0,
    ) -> None:
        nonlocal pending_count
        for out_port, payload in sends:
            receiver, in_port, _, payload, carried = engine.record(
                sender, out_port, payload, cycle, size if payload is delivered else 0
            )
            inflight[receiver][in_port].append((payload, carried))
            pending_count += 1

    cycle = 0
    for i in range(n):
        dispatch(i, engine.invoke_start(i), cycle)

    halted = engine.halted
    stats = engine.stats
    while pending_count:
        cycle += 1
        if cycle > budget:
            raise NonTerminationError(f"cycle budget {budget} exhausted")
        arriving, inflight = inflight, spare
        spare = arriving
        pending_count = 0
        for i in range(n):
            batch = arriving[i]
            for port in (Port.LEFT, Port.RIGHT):
                msgs = batch[port]
                if not msgs:
                    continue
                for payload, size in msgs:
                    if halted[i]:
                        stats.dropped += 1
                        if recorder is not None:
                            recorder.drop((i, port), cycle, "halted")
                        continue
                    stats.delivered += 1
                    if recorder is not None:
                        recorder.deliver((i, port), cycle)
                        # Each delivery is one handler invocation: one
                        # state transition, as on the event engine.
                        recorder.step(i, cycle)
                    dispatch(
                        i,
                        engine.invoke_message(i, port, payload, etime=cycle),
                        cycle,
                        payload,
                        size,
                    )
                msgs.clear()

    engine.check_all_halted()
    return RunResult(outputs=tuple(engine.outputs), stats=engine.stats, cycles=cycle)
