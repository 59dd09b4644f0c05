"""The synchronous lock-step engine: timing, wake-ups, halting, budgets."""

from __future__ import annotations

import pytest

from repro.core import (
    LEFT,
    NonTerminationError,
    RIGHT,
    RingConfiguration,
    SimulationError,
)
from repro.obs.events import EventRecorder
from repro.sync import (
    ABSENT,
    Idle,
    In,
    Out,
    SyncProcess,
    WakeupSchedule,
    run_synchronous,
)
from repro.sync.process import expect_single
from repro.core.errors import ProtocolError


class Silent(SyncProcess):
    """Halts immediately without sending."""

    def run(self):
        return "done"
        yield  # pragma: no cover


class OneShot(SyncProcess):
    """Sends its input right once, reports what it saw."""

    def run(self):
        received = yield Out(right=self.input)
        return (received.left, received.right)


class Forever(SyncProcess):
    def run(self):
        while True:
            yield Out()


class TestBasics:
    def test_silent_halts_at_cycle_zero(self):
        result = run_synchronous(RingConfiguration.oriented([0, 0]), Silent)
        assert result.outputs == ("done", "done")
        assert result.halt_times == (0, 0)
        assert result.stats.messages == 0

    def test_same_cycle_delivery(self):
        """A message sent at cycle t is received at cycle t (§2 semantics)."""
        result = run_synchronous(RingConfiguration.oriented([7, 8, 9]), OneShot)
        # Clockwise: i's right send arrives at i+1's left port, same cycle.
        assert result.outputs == ((9, ABSENT), (7, ABSENT), (8, ABSENT))
        assert result.cycles == 1

    def test_message_accounting(self):
        result = run_synchronous(RingConfiguration.oriented([1, 1]), OneShot)
        assert result.stats.messages == 2
        assert result.stats.per_cycle == {0: 2}

    def test_nontermination_budget(self):
        with pytest.raises(NonTerminationError):
            run_synchronous(
                RingConfiguration.oriented([0, 0]), Forever, max_cycles=10
            )

    def test_yielding_non_out_rejected(self):
        class Bad(SyncProcess):
            def run(self):
                yield "nope"

        with pytest.raises(SimulationError):
            run_synchronous(RingConfiguration.oriented([0, 0]), Bad)

    def test_message_to_halted_is_dropped_but_counted(self):
        class ZeroHaltsOneSends(SyncProcess):
            def run(self):
                if self.input == 0:
                    return "early"
                yield Out()  # cycle 0: let the zero halt first
                yield Out(right=None)  # cycle 1: send into the void
                return "sent"

        result = run_synchronous(
            RingConfiguration.oriented([0, 1]), ZeroHaltsOneSends
        )
        assert result.outputs == ("early", "sent")
        assert result.stats.messages == 1


class TestPortMapping:
    def test_opposing_orientations_same_port(self):
        """Two processors both calling each other 'right' (n=2, D=(1,0))."""

        class SendRight(SyncProcess):
            def run(self):
                received = yield Out(right=self.input)
                return (received.left is not ABSENT, received.right is not ABSENT)

        ring = RingConfiguration([10, 20], (1, 0))
        result = run_synchronous(ring, SendRight)
        # 0's right is +1 channel: arrives at 1; D(1)=0 so 1's right faces 0
        # through... both sends land on the *right* port of the receiver.
        assert result.outputs == ((False, True), (False, True))

    def test_three_ring_flipped_middle(self):
        class Probe(SyncProcess):
            def run(self):
                received = yield Out(left="L", right="R")
                return (received.left, received.right)

        ring = RingConfiguration([0, 1, 2], (1, 0, 1))
        result = run_synchronous(ring, Probe)
        # Processor 1 is flipped: its left is processor 2, right is 0.
        # It receives 0's R on its right port and 2's L on its left port.
        assert result.outputs[1] == ("L", "R")


class TestWakeups:
    def test_staggered_spontaneous(self):
        class Waker(SyncProcess):
            def run(self):
                return ("spont", self.woke_spontaneously)
                yield  # pragma: no cover

        schedule = WakeupSchedule((0, 2, 1))
        result = run_synchronous(
            RingConfiguration.oriented([0, 0, 0]), Waker, wakeup=schedule
        )
        assert result.halt_times == (0, 2, 1)
        assert all(out[1] for out in result.outputs)

    def test_message_wakes_sleeper(self):
        class WakeOther(SyncProcess):
            def run(self):
                if self.woke_spontaneously:
                    yield Out(right="wake!")
                    return "waker"
                return ("woken", list(self.wake_inbox))
                yield  # pragma: no cover

        schedule = WakeupSchedule((0, 100))
        result = run_synchronous(
            RingConfiguration.oriented([0, 0]), WakeOther, wakeup=schedule
        )
        waker, woken = result.outputs
        assert waker == "waker"
        assert woken[0] == "woken"
        assert woken[1] == [(LEFT, "wake!")]
        # Woken at cycle 1, not at its spontaneous cycle 100.
        assert result.halt_times[1] == 1

    def test_schedule_size_mismatch(self):
        with pytest.raises(SimulationError):
            run_synchronous(
                RingConfiguration.oriented([0, 0]),
                Silent,
                wakeup=WakeupSchedule((0, 0, 0)),
            )


class TestHelpers:
    def test_out_on(self):
        out = Out.on(LEFT, "x")
        assert out.left == "x" and out.right is ABSENT
        assert list(out.sends()) == [(LEFT, "x")]

    def test_out_both(self):
        out = Out.both("a", "b")
        assert len(list(out.sends())) == 2

    def test_out_via(self):
        out = Out(left="x")
        assert out.via(LEFT) == "x"
        assert out.via(RIGHT) is ABSENT

    def test_in_helpers(self):
        got = In(left="x")
        assert got.any() and got.has(LEFT) and not got.has(RIGHT)
        assert got.items() == [(LEFT, "x")]
        assert got.count() == 1

    def test_in_none_payload_counts(self):
        """None is a real (nil) message, distinct from ABSENT."""
        got = In(left=None)
        assert got.any() and got.count() == 1

    def test_expect_single(self):
        assert expect_single(In(right=3)) == (RIGHT, 3)
        with pytest.raises(ProtocolError):
            expect_single(In())
        with pytest.raises(ProtocolError):
            expect_single(In(left=1, right=2))

    def test_sleep_collects(self):
        class Sleeper(SyncProcess):
            def run(self):
                inbox = yield from self.sleep(3)
                return inbox

            # partner sends at cycle 1

        class Partner(SyncProcess):
            def run(self):
                yield Out()
                yield Out(right="hello")
                return None

        class Both(SyncProcess):
            def run(self):
                if self.input == 0:
                    inbox = yield from self.sleep(3)
                    return [(t, got.items()) for t, got in inbox]
                yield Out()
                yield Out(right="hello")
                yield from self.sleep(1)
                return None

        result = run_synchronous(RingConfiguration.oriented([0, 1]), Both)
        inbox = result.outputs[0]
        assert inbox == [(1, [(LEFT, "hello")])]

    def test_absent_singleton_falsy(self):
        assert not ABSENT
        assert repr(ABSENT) == "ABSENT"


class Scripted(SyncProcess):
    """Input ``("idle", k)``: one ``Idle(k)``, then report what resumed it.
    Input ``("send", t)``: quiet until cycle ``t``, then one right send.
    Input ``("quiet", 0)``: halt at once."""

    def run(self):
        role, k = self.input
        if role == "idle":
            elapsed, received = yield Idle(k)
            return (elapsed, received.items())
        if role == "send":
            for _ in range(k):
                yield Out()
            yield Out(right="ping")
        return None


def _idle_run(idler, partner, wakeup=None):
    """Processor 0 runs ``idler``; processor 1 (whose right send lands on
    0's left port) runs ``partner``."""
    config = RingConfiguration.oriented([idler, partner])
    return run_synchronous(config, Scripted, wakeup=wakeup)


class TestIdle:
    def test_arrival_mid_idle_resumes_next_cycle(self):
        result = _idle_run(("idle", 5), ("send", 2))
        assert result.outputs[0] == (3, [(LEFT, "ping")])
        assert result.halt_times[0] == 3

    def test_timeout_resumes_with_k_and_empty_inbox(self):
        result = _idle_run(("idle", 4), ("quiet", 0))
        assert result.outputs[0] == (4, [])
        assert result.halt_times[0] == 4

    def test_arrival_on_last_idle_cycle(self):
        result = _idle_run(("idle", 3), ("send", 2))
        assert result.outputs[0] == (3, [(LEFT, "ping")])
        assert result.halt_times[0] == 3

    def test_arrival_after_the_idle_is_not_seen(self):
        """The timeout resumes at cycle k, before that cycle's arrivals."""
        result = _idle_run(("idle", 3), ("send", 3))
        assert result.outputs[0] == (3, [])
        assert result.stats.messages == 1  # sent, then dropped at a halted 0

    @pytest.mark.parametrize("cycles", [0, -1])
    def test_nonpositive_idle_raises(self, cycles):
        with pytest.raises(ProtocolError):
            Idle(cycles)

    def test_idle_under_wakeup_schedule(self):
        """0 wakes at cycle 2 and idles over cycles 2-4; mail at cycle 3."""
        result = _idle_run(("idle", 3), ("send", 3), wakeup=WakeupSchedule((2, 0)))
        assert result.outputs[0] == (2, [(LEFT, "ping")])
        assert result.halt_times[0] == 4

    def test_message_woken_processor_can_idle(self):
        """A processor woken by mail starts next cycle and may idle at once."""

        class WokenIdler(SyncProcess):
            def run(self):
                if self.woke_spontaneously:
                    yield Out(right="wake")
                    yield Out()
                    yield Out(right="late")
                    return None
                elapsed, received = yield Idle(5)
                return (elapsed, received.items())

        result = run_synchronous(
            RingConfiguration.oriented([0, 0]),
            WokenIdler,
            wakeup=WakeupSchedule((0, 9)),
        )
        # Woken at cycle 1, idles from cycle 1, "late" arrives at cycle 2.
        assert result.outputs[1] == (2, [(LEFT, "late")])
        assert result.halt_times[1] == 3


class Gossip(SyncProcess):
    """Sleeps ``input`` cycles, pings both ways, then listens for 2n
    cycles; the output is every arrival with its offset.

    ``spelled_out`` writes every wait as per-cycle ``yield Out()``, the
    way :meth:`SyncProcess.sleep` did before it idled.
    """

    spelled_out = False

    def wait(self, cycles):
        if not self.spelled_out:
            inbox = yield from self.sleep(cycles)
            return inbox
        inbox = []
        for offset in range(cycles):
            got = yield Out()
            if got.any():
                inbox.append((offset, got))
        return inbox

    def run(self):
        heard = yield from self.wait(self.input)
        got = yield Out(left=("l", self.input), right=("r", self.input))
        heard.append((-1, got))
        heard.extend((yield from self.wait(2 * self.n)))
        return tuple((offset, tuple(got.items())) for offset, got in heard)


class SpelledOutGossip(Gossip):
    spelled_out = True


class TestIdleRecording:
    """Idling is invisible in a recorded log: a quiet cycle writes no
    ``state-transition`` row, whether the process idles through it or
    spells it out with ``Out()``."""

    @pytest.mark.parametrize("seed", range(6))
    def test_event_log_matches_per_cycle_quiet_outs(self, seed):
        import random

        rng = random.Random(seed)
        n = rng.randrange(2, 8)
        config = RingConfiguration.random(
            n, rng, input_values=range(6), oriented=rng.random() < 0.5
        )
        wakeup = WakeupSchedule(tuple([0] + [rng.randrange(4) for _ in range(n - 1)]))
        logs, results = [], []
        for factory in (Gossip, SpelledOutGossip):
            recorder = EventRecorder()
            results.append(
                run_synchronous(config, factory, wakeup=wakeup, recorder=recorder)
            )
            logs.append(recorder.events)
        idled, spelled = results
        assert idled.outputs == spelled.outputs
        assert idled.halt_times == spelled.halt_times
        assert idled.stats.per_cycle == spelled.stats.per_cycle
        assert logs[0] == logs[1]
        assert any(kind == "state-transition" for kind in (e.kind for e in logs[0]))
