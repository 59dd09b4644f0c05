"""Engine fault hooks: drop, duplicate, crash-stop, and their accounting.

Also the satellite regression tests for this PR's engine bugfixes:
drops no longer tick the delivery clock, schedulers get a read-only
pending view, bogus scheduler choices raise a named error, and
``RandomScheduler`` always has a recoverable seed.
"""

from __future__ import annotations

import pytest

from repro.asynch import (
    Action,
    Adversary,
    BoundedDelayScheduler,
    FaultInjector,
    FaultSpec,
    GreedyChannelScheduler,
    PendingView,
    RandomScheduler,
    ReplayAdversary,
    RoundRobinScheduler,
    Scheduler,
    run_asynchronous,
)
from repro.core import LEFT, RIGHT, RingConfiguration, SimulationError
from repro.asynch.process import AsyncProcess
from repro.faults import ReplayScheduler
from repro.obs import CLOCK_LAMPORT, EventRecorder


def _recorded(ring, factory, **kwargs):
    """Run the general async engine with a recorder: (result, events)."""
    recorder = EventRecorder(clock=CLOCK_LAMPORT)
    result = run_asynchronous(ring, factory, recorder=recorder, **kwargs)
    return result, recorder.events


class PingOnce(AsyncProcess):
    """Send input both ways; halt after two receipts."""

    def __init__(self, inp, n):
        super().__init__(inp, n)
        self.got = []

    def on_start(self, ctx):
        ctx.send_both(self.input)

    def on_message(self, ctx, port, payload):
        self.got.append(payload)
        if len(self.got) == 2:
            ctx.halt(tuple(sorted(self.got)))


class EmitRelayQuit(AsyncProcess):
    """Oriented 3-ring fixture: 'E' emits both ways, 'R' relays, 'Q' quits."""

    def on_start(self, ctx):
        if self.input == "E":
            ctx.send(LEFT, "ping-left")
            ctx.send(RIGHT, "ping-right")
            ctx.halt("E")
        elif self.input == "Q":
            ctx.halt("Q")

    def on_message(self, ctx, port, payload):
        ctx.send(RIGHT, "pong")
        ctx.halt("R")


class TestClockTicksOnlyOnDeliveries:
    """Satellite regression: drops must not consume delivery-clock ticks."""

    def test_drop_before_delivery_does_not_skew_send_time(self):
        # Ring E(0) R(1) Q(2), oriented.  Q halts at start.  Replay forces
        # the E→Q message first (a drop), then E→R (the first *delivery*).
        # R's resulting send must be stamped send_time = 1: it is caused
        # by delivery #1, no matter how many drops preceded it.
        ring = RingConfiguration.oriented(["E", "R", "Q"])
        result, events = _recorded(
            ring, EmitRelayQuit, scheduler=ReplayScheduler([1, 0])
        )
        assert result.outputs == ("E", "R", "Q")
        pongs = [e for e in events if e.kind == "send" and e.payload == "pong"]
        assert len(pongs) == 1
        assert pongs[0].etime == 1
        assert result.stats.delivered == 1
        assert result.stats.dropped == 2  # E→Q at start, R→Q pong
        # per-cycle histogram: start bucket + one bucket per delivery.
        assert result.stats.per_cycle == {0: 2, 1: 1}

    def test_conservation_holds_fault_free(self):
        ring = RingConfiguration.oriented([1, 0, 1])
        result = run_asynchronous(ring, PingOnce)
        stats = result.stats
        assert stats.messages + stats.duplicated == stats.delivered + stats.dropped


class _MutatingScheduler(Scheduler):
    def choose(self, pending):
        pending.append((99, 99, 1))  # engine must make this impossible
        return pending[0]


class _OffListScheduler(Scheduler):
    def choose(self, pending):
        return (7, 8, 1)  # syntactically a channel, but not pending


class TestPendingViewGuard:
    """Satellite regression: schedulers cannot corrupt the live pending list."""

    def test_mutation_attempt_fails_loudly(self):
        ring = RingConfiguration.oriented([1, 2, 3])
        with pytest.raises(AttributeError):
            run_asynchronous(ring, PingOnce, scheduler=_MutatingScheduler())

    def test_view_has_no_mutators(self):
        view = PendingView([(0, 1, 1), (1, 2, 1)])
        assert len(view) == 2
        assert view[0] == (0, 1, 1)
        assert (1, 2, 1) in view
        assert list(view) == [(0, 1, 1), (1, 2, 1)]
        with pytest.raises(TypeError):
            view[0] = (5, 5, 1)  # type: ignore[index]
        for attr in ("append", "pop", "insert", "remove", "clear", "sort"):
            assert not hasattr(view, attr)

    def test_bad_choice_names_the_scheduler_class(self):
        ring = RingConfiguration.oriented([1, 2, 3])
        with pytest.raises(SimulationError, match="_OffListScheduler"):
            run_asynchronous(ring, PingOnce, scheduler=_OffListScheduler())


class TestRandomSchedulerSeed:
    """Satellite regression: every RandomScheduler run is replayable."""

    def test_auto_drawn_seed_is_exposed_and_replays(self):
        auto = RandomScheduler()
        assert isinstance(auto.seed, int)
        replay = RandomScheduler(seed=auto.seed)
        pending = [(0, 1, 1), (0, 2, -1), (1, 2, 1), (2, 0, 1)]
        assert [auto.choose(pending) for _ in range(50)] == [
            replay.choose(pending) for _ in range(50)
        ]

    def test_explicit_seed_reproducible_across_runs(self):
        ring = RingConfiguration.oriented(list(range(6)))
        a, a_events = _recorded(ring, PingOnce, scheduler=RandomScheduler(99))
        b, b_events = _recorded(ring, PingOnce, scheduler=RandomScheduler(99))
        assert a.outputs == b.outputs
        assert a_events == b_events

    def test_bounded_delay_scheduler_exposes_seed(self):
        scheduler = BoundedDelayScheduler(bound=4)
        assert isinstance(scheduler.seed, int)


class TestDropFault:
    def test_dropped_message_never_delivered_and_counted(self):
        # Drop the very first scheduled delivery; PingOnce then deadlocks
        # (it waits for two receipts), which is the *clean* failure mode.
        ring = RingConfiguration.oriented([1, 0])
        adversary = ReplayAdversary(actions=[Action.DROP])
        with pytest.raises(SimulationError, match="deadlock"):
            run_asynchronous(
                ring, PingOnce, scheduler=GreedyChannelScheduler(), adversary=adversary
            )

    def test_drop_does_not_tick_clock(self):
        ring = RingConfiguration.oriented(["E", "R", "Q"])
        # Deliver everything, but let the adversary drop event 1 (E→R with
        # the greedy schedule); R never runs, Q and E halted at start.
        adversary = ReplayAdversary(actions=[Action.DROP])
        with pytest.raises(SimulationError, match=r"deadlock.*\[1\]"):
            run_asynchronous(
                ring,
                EmitRelayQuit,
                scheduler=GreedyChannelScheduler(),
                adversary=adversary,
            )


class TestDuplicateFault:
    def test_duplicate_delivers_copy_and_keeps_original(self):
        class CountAll(AsyncProcess):
            """Halt only on a sentinel; count every arrival."""

            def __init__(self, inp, n):
                super().__init__(inp, n)
                self.count = 0

            def on_start(self, ctx):
                if self.input == "S":
                    ctx.send(RIGHT, "x")
                    ctx.send(RIGHT, "y")
                    ctx.halt("S")

            def on_message(self, ctx, port, payload):
                self.count += 1
                if payload == "y":
                    ctx.halt((self.count,))

        ring = RingConfiguration.oriented(["S", "a"])
        # Event 1 duplicates the head ("x"): the receiver sees x, x, y —
        # adjacent copies, FIFO order preserved.
        adversary = ReplayAdversary(actions=[Action.DUPLICATE])
        result = run_asynchronous(
            ring, CountAll, scheduler=GreedyChannelScheduler(), adversary=adversary
        )
        assert result.outputs[1] == (3,)  # x delivered twice, then y
        stats = result.stats
        assert stats.duplicated == 1
        assert stats.messages == 2
        assert stats.delivered == 3
        assert stats.messages + stats.duplicated == stats.delivered + stats.dropped


class TestCrashStop:
    def test_crashed_processor_is_excused_and_outputs_none(self):
        ring = RingConfiguration.oriented([1, 0, 1])
        # Processor 1 crashes before the first delivery: all its pending
        # arrivals drop, everyone else still terminates.
        adversary = ReplayAdversary(crashes=[(1, 1)])
        result = run_asynchronous(
            ring, PingOnce, scheduler=RoundRobinScheduler(), adversary=adversary
        )
        assert result.outputs[1] is None
        assert result.outputs[0] is not None
        assert result.outputs[2] is not None
        stats = result.stats
        assert stats.dropped >= 2  # both arrivals at the crashed processor
        assert stats.messages + stats.duplicated == stats.delivered + stats.dropped

    def test_fault_injector_plans_crashes_deterministically(self):
        spec = FaultSpec(crashes=2)
        a = FaultInjector(spec, n=5, horizon=40, seed=11)
        b = FaultInjector(spec, n=5, horizon=40, seed=11)
        assert a.crashes == b.crashes
        assert len(a.crashes) == 2
        assert all(1 <= when <= 40 and 0 <= p < 5 for when, p in a.crashes)


class TestBoundedDelayScheduler:
    def test_no_channel_starves_beyond_bound(self):
        # One overdue channel is served per event, so with c channels
        # pending the worst-case wait is bound + c (see the docstring).
        bound = 3
        scheduler = BoundedDelayScheduler(bound=bound, seed=5)
        pending = [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]
        waits = {cid: 0 for cid in pending}
        for _ in range(2000):
            choice = scheduler.choose(pending)
            for cid in pending:
                waits[cid] = 0 if cid == choice else waits[cid] + 1
            assert all(wait <= bound + len(pending) for wait in waits.values())

    def test_deterministic_given_seed(self):
        pending = [(0, 1, 1), (1, 2, 1), (2, 3, 1)]
        a = BoundedDelayScheduler(bound=4, seed=3)
        b = BoundedDelayScheduler(bound=4, seed=3)
        assert [a.choose(pending) for _ in range(100)] == [
            b.choose(pending) for _ in range(100)
        ]


class TestAdversaryDefaults:
    def test_base_adversary_is_benign(self):
        ring = RingConfiguration.oriented([1, 2, 3, 4])
        plain, plain_events = _recorded(ring, PingOnce)
        adversed, adversed_events = _recorded(ring, PingOnce, adversary=Adversary())
        assert plain.outputs == adversed.outputs
        assert plain_events == adversed_events
        assert adversed.stats.dropped == plain.stats.dropped
