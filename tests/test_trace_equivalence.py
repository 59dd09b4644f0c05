"""Optimized engines vs. reference engines: byte-identical traces.

The engines in ``repro.asynch.simulator`` / ``repro.sync.simulator`` keep
incremental structures (sorted pending list, live halt counter, reused
buffers) purely for speed; ``tests/reference_engines.py`` holds the
obviously-correct seed-style implementations of the same semantics.  On
randomized rings, schedules and wake-up times the two must agree on
*everything*: outputs, message and bit totals, per-cycle histograms, the
full envelope log, and even the exception raised on deadlock.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.async_input_distribution import AsyncInputDistribution
from repro.algorithms.sync_and import SyncAnd
from repro.algorithms.sync_input_distribution import SyncInputDistribution
from repro.asynch import AsyncProcess, run_async_synchronized, run_asynchronous
from repro.asynch.schedulers import (
    GreedyChannelScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.core import LEFT, RIGHT, RingConfiguration
from repro.sync import Out, SyncProcess, WakeupSchedule, run_synchronous

from reference_engines import (
    run_async_synchronized_reference,
    run_asynchronous_reference,
    run_synchronous_reference,
)


def outcome(run):
    """Run a simulation, capturing either the result or the failure."""
    try:
        return ("ok", run())
    except Exception as error:  # noqa: BLE001 - equivalence includes failures
        return ("error", type(error).__name__, str(error))


def assert_equivalent(got, want):
    """Optimized and reference outcomes must match in every observable."""
    assert got[0] == want[0], f"outcome kinds differ: {got[0]} vs {want[0]}"
    if got[0] == "error":
        assert got[1:] == want[1:]
        return
    a, b = got[1], want[1]
    assert a.outputs == b.outputs
    assert a.cycles == b.cycles
    assert a.halt_times == b.halt_times
    assert a.stats.messages == b.stats.messages
    assert a.stats.bits == b.stats.bits
    assert a.stats.per_cycle == b.stats.per_cycle
    assert a.stats.delivered == b.stats.delivered
    assert a.stats.dropped == b.stats.dropped
    assert a.stats.duplicated == b.stats.duplicated
    assert a.stats.log == b.stats.log  # byte-identical envelope sequence


class Chatter(AsyncProcess):
    """Randomized-but-deterministic async traffic (seeded per processor).

    Behavior is a pure function of ``(input, n)`` and the arrival
    sequence, so two engines delivering identical event sequences drive
    identical chatter.  Quotas may leave processors waiting at quiescence —
    then *both* engines must raise the same deadlock error.
    """

    def __init__(self, inp, n):
        super().__init__(inp, n)
        self.rng = random.Random((inp + 1) * 7919 + n)
        self.received = 0
        self.quota = self.rng.randrange(1, 4)

    def on_start(self, ctx):
        for port in (LEFT, RIGHT):
            for _ in range(self.rng.randrange(0, 3)):
                ctx.send(port, self.rng.randrange(8))

    def on_message(self, ctx, port, payload):
        self.received += 1
        if self.received >= self.quota:
            ctx.halt(self.received)
            return
        if self.rng.random() < 0.5:
            ctx.send(port.opposite, payload + 1)


_SCHEDULERS = {
    "round-robin": RoundRobinScheduler,
    "greedy": GreedyChannelScheduler,
    "random": lambda: RandomScheduler(1234),
}


class TestAsyncGeneral:
    @given(
        st.integers(2, 10),
        st.integers(0, 10_000),
        st.sampled_from(sorted(_SCHEDULERS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_input_distribution(self, n, seed, scheduler_name):
        config = RingConfiguration.random(n, random.Random(seed))
        make = _SCHEDULERS[scheduler_name]
        got = outcome(
            lambda: run_asynchronous(
                config, AsyncInputDistribution, scheduler=make(), keep_log=True
            )
        )
        want = outcome(
            lambda: run_asynchronous_reference(
                config, AsyncInputDistribution, scheduler=make(), keep_log=True
            )
        )
        assert_equivalent(got, want)

    @given(
        st.integers(1, 9),
        st.integers(0, 10_000),
        st.sampled_from(sorted(_SCHEDULERS)),
    )
    @settings(max_examples=30, deadline=None)
    def test_chatter(self, n, seed, scheduler_name):
        config = RingConfiguration.random(
            n, random.Random(seed), input_values=range(16)
        )
        make = _SCHEDULERS[scheduler_name]
        got = outcome(
            lambda: run_asynchronous(config, Chatter, scheduler=make(), keep_log=True)
        )
        want = outcome(
            lambda: run_asynchronous_reference(
                config, Chatter, scheduler=make(), keep_log=True
            )
        )
        assert_equivalent(got, want)


class TestAsyncSynchronized:
    @given(st.integers(2, 10), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_input_distribution(self, n, seed):
        config = RingConfiguration.random(n, random.Random(seed))
        got = outcome(
            lambda: run_async_synchronized(
                config, AsyncInputDistribution, keep_log=True
            )
        )
        want = outcome(
            lambda: run_async_synchronized_reference(
                config, AsyncInputDistribution, keep_log=True
            )
        )
        assert_equivalent(got, want)

    @given(st.integers(1, 9), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_chatter(self, n, seed):
        config = RingConfiguration.random(
            n, random.Random(seed), input_values=range(16)
        )
        got = outcome(
            lambda: run_async_synchronized(config, Chatter, keep_log=True)
        )
        want = outcome(
            lambda: run_async_synchronized_reference(config, Chatter, keep_log=True)
        )
        assert_equivalent(got, want)


class WakeProbe(SyncProcess):
    """Exercises wake-by-message, wake inboxes and staggered halting."""

    def run(self):
        if not self.woke_spontaneously:
            return ("woken", self.input, list(self.wake_inbox))
        received = yield Out(left=("s", self.input), right=("s", self.input))
        return ("spont", self.input, received.items())


class IdleProbe(SyncProcess):
    """Idles ``input`` cycles, pings both ways, then idles and relays."""

    def run(self):
        heard = yield from self.sleep(self.input)
        got = yield Out(left=("p", self.input), right=("p", self.input))
        heard.append((-1, got))
        heard.extend((yield from self.sleep(self.n + self.input)))
        return (
            self.woke_spontaneously,
            tuple((offset, tuple(got.items())) for offset, got in heard),
        )


def _random_schedule(n: int, seed: int) -> WakeupSchedule:
    rng = random.Random(seed)
    times = [rng.randrange(0, 4) for _ in range(n)]
    times[rng.randrange(n)] = 0  # schedules are normalized to min 0
    return WakeupSchedule(tuple(times))


class TestSynchronous:
    @given(st.integers(2, 10), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sync_and(self, n, seed):
        config = RingConfiguration.random(n, random.Random(seed), oriented=True)
        got = outcome(lambda: run_synchronous(config, SyncAnd, keep_log=True))
        want = outcome(
            lambda: run_synchronous_reference(config, SyncAnd, keep_log=True)
        )
        assert_equivalent(got, want)

    @given(st.integers(2, 9), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_input_distribution(self, n, seed):
        config = RingConfiguration.random(n, random.Random(seed), oriented=True)
        got = outcome(
            lambda: run_synchronous(config, SyncInputDistribution, keep_log=True)
        )
        want = outcome(
            lambda: run_synchronous_reference(
                config, SyncInputDistribution, keep_log=True
            )
        )
        assert_equivalent(got, want)

    @given(st.integers(2, 10), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_wakeups(self, n, seed, wake_seed):
        config = RingConfiguration.random(
            n, random.Random(seed), input_values=range(8)
        )
        schedule = _random_schedule(n, wake_seed)
        got = outcome(
            lambda: run_synchronous(config, WakeProbe, wakeup=schedule, keep_log=True)
        )
        want = outcome(
            lambda: run_synchronous_reference(
                config, WakeProbe, wakeup=schedule, keep_log=True
            )
        )
        assert_equivalent(got, want)

    @given(st.integers(2, 9), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_idle_under_wakeups(self, n, seed, wake_seed):
        config = RingConfiguration.random(
            n, random.Random(seed), input_values=range(6)
        )
        schedule = _random_schedule(n, wake_seed)
        got = outcome(
            lambda: run_synchronous(config, IdleProbe, wakeup=schedule, keep_log=True)
        )
        want = outcome(
            lambda: run_synchronous_reference(
                config, IdleProbe, wakeup=schedule, keep_log=True
            )
        )
        assert_equivalent(got, want)

    def test_one_processor_ring(self):
        class SelfTalk(SyncProcess):
            def run(self):
                received = yield Out(left="a", right="b")
                return (received.left, received.right)

        config = RingConfiguration.oriented([0])
        got = outcome(lambda: run_synchronous(config, SelfTalk, keep_log=True))
        want = outcome(
            lambda: run_synchronous_reference(config, SelfTalk, keep_log=True)
        )
        assert_equivalent(got, want)
