"""Regression tests for the engine timing/delivery bug fixes.

Each class pins one of the fixed bugs:

* async start-event sends used to be stamped ``send_time = i`` (one clock
  tick per start event), conflating processor index with time in the
  per-cycle histogram;
* two same-cycle messages to a *waking* processor on the same port were
  silently appended to its wake inbox while awake processors raised;
* ``default_cycle_budget`` claimed the Figure 2 ``log₁.₅`` bound but
  computed with ``log₂``.
"""

from __future__ import annotations

import math

import pytest

from repro.asynch import AsyncProcess, run_asynchronous
from repro.core import LEFT, RIGHT, RingConfiguration, SimulationError
from repro.core.message import Port
from repro.obs import CLOCK_LAMPORT, EventRecorder, envelopes_from_events
from repro.sync import Out, SyncProcess, WakeupSchedule, run_synchronous
from repro.sync.simulator import default_cycle_budget


class StartAndEcho(AsyncProcess):
    """Sends at start, echoes the first arrival, halts on the second."""

    def __init__(self, inp, n):
        super().__init__(inp, n)
        self.got = 0

    def on_message(self, ctx, port, payload):
        self.got += 1
        if self.got == 1:
            ctx.send(port.opposite, "echo")
        elif self.got == 2:
            ctx.halt(None)

    def on_start(self, ctx):
        ctx.send_both(self.input)


def _sends(config, factory):
    """The run's sends, read back from its recorded event stream."""
    recorder = EventRecorder(clock=CLOCK_LAMPORT)
    run_asynchronous(config, factory, recorder=recorder)
    return envelopes_from_events(recorder.events)


class TestAsyncStartTiming:
    def test_start_sends_stamped_zero(self):
        """Every start-event send carries send_time 0, for any processor."""
        n = 7
        config = RingConfiguration.oriented(range(n))
        start_sends = [env for env in _sends(config, StartAndEcho) if env.send_time == 0]
        assert len(start_sends) == 2 * n
        assert {env.sender for env in start_sends} == set(range(n))

    def test_histogram_does_not_conflate_index_with_time(self):
        """All-start traffic lands in one histogram bucket, not n of them."""

        class StartOnly(AsyncProcess):
            def on_start(self, ctx):
                ctx.send_both("x")
                ctx.halt(None)

            def on_message(self, ctx, port, payload):  # pragma: no cover
                raise AssertionError("unreachable: all halt at start")

        n = 9
        result = run_asynchronous(RingConfiguration.oriented([0] * n), StartOnly)
        assert result.stats.per_cycle == {0: 2 * n}

    def test_delivery_clock_starts_after_start_phase(self):
        """The k-th delivery's sends are stamped k, not offset by n start ticks."""
        n = 5
        config = RingConfiguration.oriented(range(n))
        delivery_times = sorted(
            env.send_time for env in _sends(config, StartAndEcho) if env.send_time > 0
        )
        # The very first delivery triggers an echo stamped 1 (seed: n+1).
        assert delivery_times
        assert delivery_times[0] == 1


class _ColliderRing(RingConfiguration):
    """Routes every send onto processor 1's LEFT port.

    Ring routing can never put two same-cycle messages on one port (the
    two channels into a processor face opposite physical directions), so
    the engine's per-port collision guard is exercised with this white-box
    override.
    """

    def arrival_port(self, sender, out_port):
        return 1, Port.LEFT


class _Shout(SyncProcess):
    def run(self):
        if self.input == "S":
            yield Out(left="a", right="b")
        else:
            yield Out()  # stay alive through the collision cycle
        return "done"


class TestSamePortCollision:
    def test_awake_receiver_raises(self):
        config = _ColliderRing(("S", 0, 0), (1, 1, 1))
        with pytest.raises(SimulationError, match="two messages on one port"):
            run_synchronous(config, _Shout)

    def test_waking_receiver_raises_too(self):
        """The one-message-per-port rule applies to wake messages as well."""
        config = _ColliderRing(("S", 0, 0), (1, 1, 1))
        schedule = WakeupSchedule((0, 100, 0))
        with pytest.raises(SimulationError, match="two messages on one port"):
            run_synchronous(config, _Shout, wakeup=schedule)

    def test_two_wake_messages_on_distinct_ports_allowed(self):
        """Both neighbors may wake a sleeper in the same cycle."""

        class WakeBoth(SyncProcess):
            def run(self):
                if self.woke_spontaneously:
                    yield Out(left="w", right="w")
                    return "waker"
                return sorted(port.value for port, _ in self.wake_inbox)

        schedule = WakeupSchedule((0, 100, 0))
        result = run_synchronous(
            RingConfiguration.oriented([0, 0, 0]), WakeBoth, wakeup=schedule
        )
        assert result.outputs[1] == ["left", "right"]


class TestCycleBudget:
    def test_covers_figure2_log15_bound_with_headroom(self):
        """The budget must dominate n(2·log₁.₅ n + 1) by an order of magnitude."""
        for n in (2, 3, 8, 16, 81, 128, 729, 4096):
            fig2 = n * (2 * math.log(max(2, n), 1.5) + 1)
            assert default_cycle_budget(n) >= 10 * fig2, n

    def test_monotone(self):
        sizes = (2, 4, 8, 16, 64, 256, 1024)
        budgets = [default_cycle_budget(n) for n in sizes]
        assert budgets == sorted(budgets)


class TestIncrementalPending:
    def test_self_ring_channel_readdition(self):
        """n=1: a handler's self-send re-fills the channel it just drained."""

        class SelfTalk(AsyncProcess):
            def __init__(self, inp, n):
                super().__init__(inp, n)
                self.got = 0

            def on_start(self, ctx):
                ctx.send(RIGHT, 0)

            def on_message(self, ctx, port, payload):
                self.got += 1
                if payload < 3:
                    ctx.send(RIGHT, payload + 1)
                else:
                    ctx.halt(self.got)

        result = run_asynchronous(RingConfiguration.oriented([0]), SelfTalk)
        assert result.outputs == (4,)
        assert result.stats.messages == 4

    def test_events_equal_messages_at_quiescence(self):
        """Every sent message is popped exactly once before quiescence."""
        n = 6
        result = run_asynchronous(
            RingConfiguration.oriented(range(n)), StartAndEcho
        )
        # 2n start sends plus exactly one echo per processor.
        assert result.stats.messages == 3 * n
