"""Optimized engines vs. reference engines: identical traces.

The engines in ``repro.asynch.simulator`` / ``repro.sync.simulator`` keep
incremental structures (sorted pending list, live halt counter, reused
buffers) purely for speed; ``tests/reference_engines.py`` holds the
obviously-correct seed-style implementations of the same semantics.  On
randomized rings, schedules and wake-up times the two must agree on
*everything*: outputs, message and bit totals, per-cycle histograms, every
send — sender, receiver, both ports, payload, engine time and order, read
back from the optimized engine's recorded event stream — and even the
exception raised on deadlock.
"""

from __future__ import annotations

import random

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
from repro.obs import CLOCK_CYCLE, CLOCK_LAMPORT, EventRecorder, envelopes_from_events
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


def assert_equivalent(engine_run, reference_run, clock=CLOCK_CYCLE):
    """Run the optimized engine, recorded and unrecorded, and the reference
    engine; they must match in every observable.

    ``engine_run`` takes the recorder to run under (``None`` for the
    unrecorded run), ``reference_run`` the list its sends go to.
    """
    recorder = EventRecorder(clock=clock)
    sends = []
    want = outcome(lambda: reference_run(sends))
    for got in (outcome(lambda: engine_run(recorder)), outcome(lambda: engine_run(None))):
        assert got[0] == want[0], f"outcome kinds differ: {got[0]} vs {want[0]}"
        if got[0] == "error":
            assert got[1:] == want[1:]
            continue
        a, b = got[1], want[1]
        assert a.outputs == b.outputs
        assert a.cycles == b.cycles
        assert a.halt_times == b.halt_times
        assert a.stats == b.stats
    if want[0] == "ok":
        assert envelopes_from_events(recorder.events) == sends  # every send, in order


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
        assert_equivalent(
            lambda recorder: run_asynchronous(
                config, AsyncInputDistribution, scheduler=make(), recorder=recorder
            ),
            lambda sends: run_asynchronous_reference(
                config, AsyncInputDistribution, scheduler=make(), sends=sends
            ),
            CLOCK_LAMPORT,
        )

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
        assert_equivalent(
            lambda recorder: run_asynchronous(
                config, Chatter, scheduler=make(), recorder=recorder
            ),
            lambda sends: run_asynchronous_reference(
                config, Chatter, scheduler=make(), sends=sends
            ),
            CLOCK_LAMPORT,
        )


class TestAsyncSynchronized:
    @given(st.integers(2, 10), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_input_distribution(self, n, seed):
        config = RingConfiguration.random(n, random.Random(seed))
        assert_equivalent(
            lambda recorder: run_async_synchronized(
                config, AsyncInputDistribution, recorder=recorder
            ),
            lambda sends: run_async_synchronized_reference(
                config, AsyncInputDistribution, sends=sends
            ),
        )

    @given(st.integers(1, 9), st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_chatter(self, n, seed):
        config = RingConfiguration.random(
            n, random.Random(seed), input_values=range(16)
        )
        assert_equivalent(
            lambda recorder: run_async_synchronized(config, Chatter, recorder=recorder),
            lambda sends: run_async_synchronized_reference(config, Chatter, sends=sends),
        )


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
        assert_equivalent(
            lambda recorder: run_synchronous(config, SyncAnd, recorder=recorder),
            lambda sends: run_synchronous_reference(config, SyncAnd, sends=sends),
        )

    @given(st.integers(2, 9), st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_input_distribution(self, n, seed):
        config = RingConfiguration.random(n, random.Random(seed), oriented=True)
        assert_equivalent(
            lambda recorder: run_synchronous(
                config, SyncInputDistribution, recorder=recorder
            ),
            lambda sends: run_synchronous_reference(
                config, SyncInputDistribution, sends=sends
            ),
        )

    @given(st.integers(2, 10), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_wakeups(self, n, seed, wake_seed):
        config = RingConfiguration.random(
            n, random.Random(seed), input_values=range(8)
        )
        schedule = _random_schedule(n, wake_seed)
        assert_equivalent(
            lambda recorder: run_synchronous(
                config, WakeProbe, wakeup=schedule, recorder=recorder
            ),
            lambda sends: run_synchronous_reference(
                config, WakeProbe, wakeup=schedule, sends=sends
            ),
        )

    @given(st.integers(2, 9), st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_idle_under_wakeups(self, n, seed, wake_seed):
        config = RingConfiguration.random(
            n, random.Random(seed), input_values=range(6)
        )
        schedule = _random_schedule(n, wake_seed)
        assert_equivalent(
            lambda recorder: run_synchronous(
                config, IdleProbe, wakeup=schedule, recorder=recorder
            ),
            lambda sends: run_synchronous_reference(
                config, IdleProbe, wakeup=schedule, sends=sends
            ),
        )

    def test_one_processor_ring(self):
        class SelfTalk(SyncProcess):
            def run(self):
                received = yield Out(left="a", right="b")
                return (received.left, received.right)

        config = RingConfiguration.oriented([0])
        assert_equivalent(
            lambda recorder: run_synchronous(config, SelfTalk, recorder=recorder),
            lambda sends: run_synchronous_reference(config, SelfTalk, sends=sends),
        )
