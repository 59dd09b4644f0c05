"""The asynchronous engines: schedules, FIFO, adversary, quiescence."""

from __future__ import annotations

import pytest

from repro.asynch import (
    AsyncProcess,
    GreedyChannelScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    run_async_synchronized,
    run_asynchronous,
)
from repro.core import (
    LEFT,
    ModelViolationError,
    NonTerminationError,
    RIGHT,
    RingConfiguration,
    SimulationError,
)


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


class FifoProbe(AsyncProcess):
    """Processor 'S' streams numbers right; others record arrival order."""

    def __init__(self, inp, n):
        super().__init__(inp, n)
        self.seen = []

    def on_start(self, ctx):
        if self.input == "S":
            for i in range(5):
                ctx.send(RIGHT, i)
            ctx.halt(None)

    def on_message(self, ctx, port, payload):
        self.seen.append(payload)
        if len(self.seen) == 5:
            ctx.halt(tuple(self.seen))


class TestGeneralEngine:
    @pytest.mark.parametrize(
        "scheduler_factory",
        [RoundRobinScheduler, GreedyChannelScheduler, lambda: RandomScheduler(1)],
    )
    def test_schedule_independent_outcome(self, scheduler_factory):
        ring = RingConfiguration.oriented([1, 2, 3, 4])
        result = run_asynchronous(ring, PingOnce, scheduler=scheduler_factory())
        assert result.outputs == ((2, 4), (1, 3), (2, 4), (1, 3))

    def test_fifo_order_preserved(self):
        ring = RingConfiguration.oriented(["S", "a"])
        for seed in range(5):
            result = run_asynchronous(ring, FifoProbe, scheduler=RandomScheduler(seed))
            assert result.outputs[1] == (0, 1, 2, 3, 4)

    def test_deadlock_detected(self):
        class NeverHalts(AsyncProcess):
            def on_message(self, ctx, port, payload):  # pragma: no cover
                pass

        with pytest.raises(SimulationError):
            run_asynchronous(RingConfiguration.oriented([0, 0]), NeverHalts)

    def test_event_budget(self):
        class PingPong(AsyncProcess):
            def on_start(self, ctx):
                ctx.send(RIGHT, 0)

            def on_message(self, ctx, port, payload):
                ctx.send(port.opposite, payload + 1)

        with pytest.raises(NonTerminationError):
            run_asynchronous(
                RingConfiguration.oriented([0, 0, 0]), PingPong, max_events=50
            )

    def test_send_after_halt_rejected(self):
        class Bad(AsyncProcess):
            def on_start(self, ctx):
                ctx.halt(1)
                ctx.send(LEFT, 0)

        with pytest.raises(ModelViolationError):
            run_asynchronous(RingConfiguration.oriented([0, 0]), Bad)

    def test_double_halt_rejected(self):
        class Bad(AsyncProcess):
            def on_start(self, ctx):
                ctx.halt(1)
                ctx.halt(2)

        with pytest.raises(ModelViolationError):
            run_asynchronous(RingConfiguration.oriented([0, 0]), Bad)

    def test_message_to_halted_dropped(self):
        class HaltFast(AsyncProcess):
            def __init__(self, inp, n):
                super().__init__(inp, n)
                self.count = 0

            def on_start(self, ctx):
                if self.input == 1:
                    ctx.send_both("x")
                else:
                    ctx.halt("quit")

            def on_message(self, ctx, port, payload):
                self.count += 1
                ctx.halt("ok")

        ring = RingConfiguration.oriented([1, 0, 1])
        result = run_asynchronous(ring, HaltFast)
        assert result.outputs == ("ok", "quit", "ok")

    def test_stats_count_all_sends(self):
        ring = RingConfiguration.oriented([1, 2, 3])
        result = run_asynchronous(ring, PingOnce)
        assert result.stats.messages == 6


class TestSynchronizedAdversary:
    def test_round_structure(self):
        """All starts at cycle 0, all deliveries of a wave share a cycle."""
        ring = RingConfiguration.oriented([1, 2, 3, 4, 5])
        result = run_async_synchronized(ring, PingOnce)
        assert result.cycles == 1
        assert result.stats.per_cycle == {0: 10}

    def test_left_before_right_order(self):
        class Simple(AsyncProcess):
            def __init__(self, inp, n):
                super().__init__(inp, n)
                self.got = []

            def on_start(self, ctx):
                ctx.send_both("m")

            def on_message(self, ctx, port, payload):
                self.got.append(port)
                if len(self.got) == 2:
                    ctx.halt(tuple(self.got))

        ring = RingConfiguration.oriented([0, 0, 0])
        result = run_async_synchronized(ring, Simple)
        # Theorem 5.1 adversary: left port's arrivals processed first.
        assert all(out == (LEFT, RIGHT) for out in result.outputs)

    def test_forwarding_advances_one_cycle(self):
        class Relay(AsyncProcess):
            """0 emits; everyone else forwards once and halts."""

            def on_start(self, ctx):
                if self.input == "src":
                    ctx.send(RIGHT, 0)

            def on_message(self, ctx, port, payload):
                if self.input == "src":
                    ctx.halt(payload)
                else:
                    ctx.send(port.opposite, payload + 1)
                    ctx.halt(payload)

        ring = RingConfiguration.oriented(["src", "a", "b", "c"])
        result = run_async_synchronized(ring, Relay)
        # hop i delivered at cycle i+1; 4 messages over 4 cycles.
        assert result.stats.messages == 4
        assert sorted(result.stats.per_cycle.keys()) == [0, 1, 2, 3]
        assert result.outputs[0] == 3  # traveled all the way around

    def test_budget(self):
        class PingPong(AsyncProcess):
            def on_start(self, ctx):
                ctx.send(RIGHT, None)

            def on_message(self, ctx, port, payload):
                ctx.send(port.opposite, payload)

        with pytest.raises(NonTerminationError):
            run_async_synchronized(
                RingConfiguration.oriented([0, 0, 0]), PingPong, max_cycles=20
            )
