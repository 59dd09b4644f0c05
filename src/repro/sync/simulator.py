"""The synchronous lock-step simulator (§2, synchronous model).

One cycle has two half-steps:

1. every awake, non-halted processor emits (at most one message per port),
   as a function of its state;
2. emitted messages are delivered — a message sent at cycle ``t`` is
   accepted by the neighbor at cycle ``t`` and shapes its behavior from
   cycle ``t+1`` on.

A processor that yields :class:`~repro.sync.process.Idle` ``(k)`` sends
nothing and is not resumed until something arrives or ``k`` cycles pass:
the engine skips it in half-step 1 and resumes it with ``(elapsed, In)``
on the cycle after an arrival or the timeout.

A recorder gets a ``state-transition`` row for each resume that receives
last cycle's messages (written before the resume) or sends this cycle
(written after its yield), and for no other: the first transition is the
``wake`` row, and a quiet cycle writes nothing, whether the processor
idles through it or spells it out with ``Out()``.  So recorded logs do
not depend on whether a process idles, and they grow with the messages,
not with processors times cycles.

A message delivered to a still-idle processor wakes it: it starts at the
next cycle with the waking messages available in
:attr:`repro.sync.process.SyncProcess.wake_inbox`.  A message delivered to
a halted processor is dropped (it is still counted as sent, which is what
the bounds measure).  At most one message may land on a port per cycle —
the engine enforces this for waking processors exactly as for awake ones.

Processor indices exist only inside this engine; algorithms are built by a
single factory from ``(input, n)``, so the ring stays anonymous.

Routing is owned by the :mod:`repro.topology` layer: the engine asks the
topology for the round's arrival table.  The default —
:class:`~repro.topology.StaticRing` — is time-invariant, so the table is
resolved once up front exactly as before; a dynamic topology is consulted
per cycle.  A send on a port the round's graph leaves unconnected (a
Hamiltonian-path endpoint) is a no-op: nothing crossed a link, so nothing
is counted.  With ``oblivious=True`` payloads are stripped to ``None`` at
the delivery boundary — only message *presence* crosses the wire, and
every message costs exactly one bit (a beep).

This engine is a hot path (every synchronous bound is checked by running
it), so it pays per message, not per processor-cycle.  Half-step 1 walks
a due list instead of every processor: in index order, the processors
that yielded an ``Out`` last cycle, the receivers of last cycle's
messages, and the starts and ``Idle`` timeouts due this cycle.  Index
order matters: emission order fixes the send order, and with it the
log, the wake inboxes and recorded message ids.  A tuple's size travels
with it for two cycles (:func:`~repro.core.message.send_size`), so a
relay forwarding the tuple it was delivered is not charged a second
walk.  The loop also keeps a live halted counter, reuses the per-cycle
arrival buffers, routes only emissions that send something, and skips
:class:`~repro.core.message.Envelope` construction unless a log is
requested.  Delivered :class:`In` objects are allocated fresh only for
processors that actually received something; the shared empty ``In``
handed out otherwise must be treated as read-only (processes only ever
read their inbox).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from ..core.errors import NonTerminationError, SimulationError
from ..core.message import Envelope, Port, bit_length, send_size
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult, TraceStats
from ..topology.base import StaticRing, Topology
from .process import ABSENT, Idle, In, Out, ProcessGen, SyncProcess
from .wakeup import WakeupSchedule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import Recorder

#: A factory building the (identical) program of every processor.
ProcessFactory = Callable[[Any, int], SyncProcess]

#: Shared "nothing arrived" inbox; never mutated (see module docstring).
_EMPTY_IN = In()


def default_cycle_budget(n: int) -> int:
    """A generous cycle budget: well above every algorithm in the paper.

    The slowest algorithm here is Figure 2's input distribution at
    ``n(2·log₁.₅ n + 1)`` cycles, so the budget scales with ``log₁.₅ n``
    (not ``log₂``) and leaves over an order of magnitude of headroom —
    hitting it reliably signals a deadlock bug.
    """
    log15 = math.log(max(2, n), 1.5)
    return 64 * n * max(4, math.ceil(log15)) + 512


def run_synchronous(
    config: RingConfiguration,
    factory: ProcessFactory,
    wakeup: Optional[WakeupSchedule] = None,
    max_cycles: Optional[int] = None,
    keep_log: bool = False,
    recorder: Optional["Recorder"] = None,
    topology: Optional[Topology] = None,
    oblivious: bool = False,
) -> RunResult:
    """Run one synchronous computation to completion.

    Args:
        config: the initial ring configuration (inputs + orientations).
        factory: builds each processor's program from ``(input, n)``.
        wakeup: spontaneous wake-up cycles; default is simultaneous start.
        max_cycles: cycle budget; defaults to :func:`default_cycle_budget`.
        keep_log: retain the full message log on the returned stats.
        recorder: optional :class:`repro.obs.events.Recorder` receiving
            the typed event stream (cycle-stamped); ``None`` — the
            default — records nothing and costs nothing.
        topology: the communication substrate; ``None`` — the default —
            is the static ring of ``config``.  A dynamic topology's
            orientation bits replace the ring's for the whole run (the
            adversary re-draws ports every round).
        oblivious: content-oblivious delivery — payloads are stripped to
            ``None`` at the delivery boundary, and each message counts
            one bit (a beep) in the trace.

    Returns:
        A :class:`repro.core.tracing.RunResult` with per-processor outputs,
        the message/bit trace, the final cycle, and per-processor halt
        cycles.

    Raises:
        NonTerminationError: the budget was exhausted before all halted.
    """
    n = config.n
    wakeup = wakeup or WakeupSchedule.simultaneous(n)
    if wakeup.n != n:
        raise SimulationError(f"schedule covers {wakeup.n} processors, ring has {n}")
    if topology is None:
        topology = StaticRing(config)
    elif topology.n != n:
        raise SimulationError(
            f"topology covers {topology.n} processors, ring has {n}"
        )

    processes: List[SyncProcess] = [factory(config.inputs[i], n) for i in range(n)]
    gens: List[Optional[ProcessGen]] = [None] * n
    outputs: List[Any] = [None] * n
    halted = [False] * n
    halted_count = 0
    halt_times = [0] * n
    wake_time = list(wakeup.times)
    wake_messages: List[List] = [[] for _ in range(n)]
    last_in: List[In] = [_EMPTY_IN] * n
    # ``idle_from[i]`` is the cycle processor i's current Idle began (-1
    # when it is not idling) and ``idle_until[i]`` the cycle it times out
    # (0 when it is not idling).
    idle_until = [0] * n
    idle_from = [-1] * n
    stats = TraceStats(keep_log=keep_log)
    budget = max_cycles if max_cycles is not None else default_cycle_budget(n)

    # The due list.  Half-step 1 visits, in index order, only processors
    # due this cycle: those that yielded an Out last cycle, receivers of
    # last cycle's messages, and the starts and Idle timeouts filed under
    # this cycle in ``timers``.  ``due_next`` collects the first two kinds
    # while the cycle runs; ``listed[i]`` is the cycle processor i was
    # last listed for, so nobody is listed twice.  Out-yielders join
    # ``due_next`` in index order, so it is sorted only when something
    # else joins it out of order.
    due: List[int] = []
    due_next: List[int] = []
    listed = [-1] * n
    unsorted = False
    timers: Dict[int, List[int]] = {}
    for i, at in enumerate(wake_time):
        timers.setdefault(at, []).append(i)

    # Sizes that travel with their messages: this cycle's and last
    # cycle's sends of payloads whose size may be carried (see
    # :func:`~repro.core.message.send_size`), by ``id``.  Each entry holds
    # its payload, so the ``id`` cannot be reused while it is listed, and
    # at most two cycles of sends are kept.
    sized: Dict[int, Tuple[Any, int]] = {}
    sized_before: Dict[int, Tuple[Any, int]] = {}

    # Static routing never changes during a run: resolve the table once.
    # A dynamic topology is asked again at the top of every cycle.
    arrival = topology.arrival_table(0)
    rewired = not topology.is_static

    # Reused across cycles: per-receiver arrival buffers plus the list of
    # receivers that actually got something (so resetting is O(arrivals),
    # not O(n) allocations per cycle).
    arriving: List[Dict[Port, Any]] = [dict() for _ in range(n)]
    touched: List[int] = []
    prev_touched: List[int] = []
    emissions: List[Tuple[int, Out]] = []

    cycle = 0
    while halted_count < n:
        # ``budget`` is the number of permitted cycles: cycles 0..budget-1
        # may run, exactly as ``run_async_synchronized`` permits delivery
        # cycles 1..budget.  (``>`` here would silently grant budget+1.)
        if cycle >= budget:
            laggards = [i for i in range(n) if not halted[i]]
            raise NonTerminationError(
                f"cycle budget {budget} exhausted; still running: {laggards}"
            )

        # --- half-step 1: emissions -----------------------------------
        nxt = cycle + 1
        due, due_next = due_next, due
        due_next.clear()
        list_next = due_next.append
        timed = timers.pop(cycle, None)
        if timed is not None:
            for i in timed:
                # A start not yet made, or an Idle still waiting for this
                # cycle; an entry whose processor has since resumed (or
                # idles toward another cycle) is stale.
                if listed[i] != cycle and (gens[i] is None or idle_until[i] == cycle):
                    listed[i] = cycle
                    if due and due[-1] > i:
                        unsorted = True
                    due.append(i)
        if unsorted:
            due.sort()
            unsorted = False
        emissions.clear()
        for i in due:
            gen = gens[i]
            arrived = last_in[i]
            try:
                if gen is None:
                    proc = processes[i]
                    proc.wake_inbox = list(wake_messages[i])
                    proc.woke_spontaneously = not wake_messages[i]
                    if recorder is not None:
                        recorder.wake(i, cycle, spontaneous=not wake_messages[i])
                    gens[i] = started = proc.run()
                    out = next(started)
                else:
                    if recorder is not None and arrived is not _EMPTY_IN:
                        recorder.step(i, cycle)
                    start = idle_from[i]
                    if start < 0:
                        out = gen.send(arrived)
                    else:
                        idle_from[i] = -1
                        idle_until[i] = 0
                        out = gen.send((cycle - start, arrived))
            except StopIteration as stop:
                halted[i] = True
                halted_count += 1
                outputs[i] = stop.value
                halt_times[i] = cycle
                if recorder is not None:
                    recorder.halt(i, cycle, stop.value)
                continue
            if isinstance(out, Out):
                listed[i] = nxt
                list_next(i)
                if out.left is not ABSENT or out.right is not ABSENT:
                    emissions.append((i, out))
                    if recorder is not None and gen is not None and arrived is _EMPTY_IN:
                        # A resume that only sends: its row follows its yield.
                        recorder.step(i, cycle)
            elif isinstance(out, Idle):
                idle_from[i] = cycle
                until = idle_until[i] = cycle + out.cycles
                waiting = timers.get(until)
                if waiting is None:
                    timers[until] = [i]
                else:
                    waiting.append(i)
            else:
                raise SimulationError(
                    f"processor yielded {out!r}; processes must yield Out(...) "
                    "or Idle(k)"
                )

        # --- half-step 2: delivery ------------------------------------
        if rewired:
            arrival = topology.arrival_table(cycle)
        for sender, out in emissions:
            sender_routes = arrival[sender]
            for port, payload in out.sends():
                dest = sender_routes[port]
                if dest is None:
                    # The round's graph left this port dangling (a
                    # path endpoint): nothing crossed a link, so the
                    # send is a no-op and nothing is counted.
                    continue
                receiver, in_port = dest
                if oblivious:
                    payload = None
                if type(payload) is tuple:
                    key = id(payload)
                    known = sized.get(key) or sized_before.get(key)
                    if known is None:
                        bits, carries = send_size(payload)
                        if carries:
                            sized[key] = (payload, bits)
                    else:
                        sized[key] = known
                        bits = known[1]
                else:
                    bits = bit_length(payload)
                stats.record_send(bits, cycle)
                if keep_log:
                    stats.log.append(
                        Envelope(
                            sender=sender,
                            receiver=receiver,
                            out_port=port,
                            in_port=in_port,
                            payload=payload,
                            send_time=cycle,
                        )
                    )
                if recorder is not None:
                    # Channel key: each (sender, out-port) is one link, and
                    # its message is delivered or dropped before the next
                    # send on it, so the recorder's FIFO mirror stays
                    # depth-one per key.
                    recorder.send(
                        sender,
                        receiver,
                        port,
                        in_port,
                        payload,
                        bits,
                        cycle,
                        channel=(sender, port),
                    )
                if halted[receiver]:
                    if recorder is not None:
                        recorder.drop((sender, port), cycle, "halted")
                    continue
                if gens[receiver] is None and wake_time[receiver] > cycle:
                    # Wakes an idle processor: it starts next cycle with
                    # the message in hand.  The one-message-per-port-per-
                    # cycle rule applies to wake messages too (the inbox
                    # only ever holds the waking cycle's arrivals).
                    inbox = wake_messages[receiver]
                    if any(prior_port is in_port for prior_port, _ in inbox):
                        raise SimulationError(
                            f"two messages on one port in one cycle at {receiver}"
                        )
                    inbox.append((in_port, payload))
                    wake_time[receiver] = nxt
                    if recorder is not None:
                        recorder.deliver((sender, port), cycle)
                else:
                    got = arriving[receiver]
                    if in_port in got:
                        raise SimulationError(
                            f"two messages on one port in one cycle at {receiver}"
                        )
                    if not got:
                        touched.append(receiver)
                    got[in_port] = payload
                    if recorder is not None:
                        recorder.deliver((sender, port), cycle)
                if listed[receiver] != nxt:
                    listed[receiver] = nxt
                    if due_next and due_next[-1] > receiver:
                        unsorted = True
                    list_next(receiver)

        for i in prev_touched:
            last_in[i] = _EMPTY_IN
        for i in touched:
            got = arriving[i]
            last_in[i] = In(
                left=got.get(Port.LEFT, ABSENT),
                right=got.get(Port.RIGHT, ABSENT),
            )
            got.clear()
        prev_touched, touched = touched, prev_touched
        touched.clear()
        sized_before, sized = sized, sized_before
        sized.clear()

        cycle = nxt

    return RunResult(
        outputs=tuple(outputs),
        stats=stats,
        cycles=max(halt_times) if halt_times else 0,
        halt_times=tuple(halt_times),
    )
