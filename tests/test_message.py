"""Ports, envelopes, and the canonical bit-size estimate."""

from __future__ import annotations

import enum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engines import bit_length_reference

from repro.asynch import AsyncProcess, run_async_synchronized, run_asynchronous
from repro.core import LEFT, RIGHT, Envelope, Port, RingConfiguration, bit_length
from repro.core.message import send_size
from repro.obs.events import EventRecorder
from repro.sync import Out, SyncProcess, run_synchronous


class TestPort:
    def test_opposite(self):
        assert LEFT.opposite is RIGHT
        assert RIGHT.opposite is LEFT

    def test_opposite_involution(self):
        for port in Port:
            assert port.opposite.opposite is port


class TestBitLength:
    def test_none_is_signal(self):
        assert bit_length(None) == 1

    def test_bool(self):
        assert bit_length(True) == 1
        assert bit_length(False) == 1

    def test_small_ints(self):
        assert bit_length(0) == 1
        assert bit_length(1) == 1
        assert bit_length(7) == 3
        assert bit_length(8) == 4

    def test_negative_ints(self):
        assert bit_length(-1) == 2

    def test_binary_strings(self):
        assert bit_length("0101") == 4
        assert bit_length("") == 8  # empty string is not a bit string

    def test_text_strings(self):
        assert bit_length("abc") == 24

    def test_bytes(self):
        assert bit_length(b"ab") == 16

    def test_tuples_sum(self):
        assert bit_length((1, "01")) == 3
        assert bit_length(()) == 1  # a nil-like marker still costs a bit

    def test_nested(self):
        assert bit_length(((1, 1), (1, 1))) == 4

    def test_enum(self):
        class Three(enum.Enum):
            A = 1
            B = 2
            C = 3

        assert bit_length(Three.A) == 2

    def test_fallback(self):
        assert bit_length(object()) == 32

    @given(st.integers(1, 10**9))
    def test_int_width_monotone(self, x):
        assert bit_length(x) == x.bit_length()

    @given(st.lists(st.integers(0, 255), max_size=6))
    def test_tuple_at_least_parts(self, xs):
        total = bit_length(tuple(xs))
        assert total >= max(1, len(xs))


class _Three(enum.Enum):
    A = 1
    B = 2
    C = 3


class _Level(enum.IntEnum):
    LOW = 0
    HIGH = 5
    BELOW = -3


class _Int(int):
    pass


class _Tuple(tuple):
    pass


class _List(list):
    pass


class _Str(str):
    pass


#: Every leaf kind the sizing rules tell apart, subclasses included.
_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([0, -1, 2**64, 2**64 + 1, -(2**64) - 1]),
    st.integers(-(2**70), 2**70).map(_Int),
    st.sampled_from(list(_Level)),
    st.sampled_from(list(_Three)),
    st.text(max_size=6),
    st.text(alphabet="01", max_size=8),
    st.sampled_from(["", "0101", "01x"]),
    st.text(alphabet="01ab", max_size=5).map(_Str),
    st.binary(max_size=5),
    st.floats(),
    st.builds(object),
)

#: Nested tuples and lists of those leaves, exact types and subclasses.
_payloads = st.recursive(
    _leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5).map(tuple),
        st.lists(children, max_size=5),
        st.lists(children, max_size=5).map(_Tuple),
        st.lists(children, max_size=5).map(_List),
    ),
    max_leaves=40,
)


class TestFastWalk:
    """The exact-type walk keeps the rules of the ``isinstance`` chain."""

    @given(_payloads)
    @settings(max_examples=400)
    def test_walk_matches_the_isinstance_chain(self, payload):
        assert bit_length(payload) == bit_length_reference(payload)

    @given(_payloads)
    @settings(max_examples=200)
    def test_only_exact_flat_tuples_carry_their_size(self, payload):
        bits, carries = send_size(payload)
        assert bits == bit_length_reference(payload)
        assert carries == (
            type(payload) is tuple
            and all(type(item) in (bool, int) or item is None for item in payload)
        )

    def test_subclasses_size_by_their_base(self):
        assert bit_length(_Level.HIGH) == 3
        assert bit_length(_Level.BELOW) == 3
        assert bit_length(_Int(0)) == 1
        assert bit_length(_Str("0101")) == 4
        assert bit_length(_Tuple((1, _List([2, 3])))) == 5
        assert bit_length(((), [])) == 2


#: One payload of every kind :func:`bit_length` distinguishes.
PAYLOAD_KINDS = [
    None, True, False, 0, 7, -3, "0101", "abc", "", b"xy", _Three.B, object(),
    1.5, (), (1, "01"), ((1, 1), (True, None)), [1, 2], (1, [2, 3]),
    (_Three.A, b"z", -1), ("x", (1.0, 2)),
]


def _expected_send_bits():
    """What the input-1 sender below is charged, send by send."""
    return [bit_length(p) for p in PAYLOAD_KINDS] + [3, 34, 2, 8]


class _SyncSender(SyncProcess):
    """Input 1 sends every payload kind, ``(2, True)`` and ``(2, 1.0)``,
    then one tuple twice, growing the list inside it between the sends."""

    def run(self):
        if not self.input:
            yield from self.sleep(len(PAYLOAD_KINDS) + 5)
            return None
        for payload in PAYLOAD_KINDS + [(2, True), (2, 1.0)]:
            yield Out(right=payload)
        inner = [1]
        payload = (1, inner)
        yield Out(right=payload)
        inner.extend([7, 7])
        yield Out(right=payload)
        return None


class _AsyncSender(AsyncProcess):
    """The same sends; the grown tuple goes again when input 0's ping
    arrives."""

    def on_start(self, ctx):
        if not self.input:
            ctx.send(RIGHT, None)
            return
        for payload in PAYLOAD_KINDS + [(2, True), (2, 1.0)]:
            ctx.send(RIGHT, payload)
        self.inner = [1]
        self.payload = (1, self.inner)
        ctx.send(RIGHT, self.payload)

    def on_message(self, ctx, port, payload):
        if self.input:
            self.inner.extend([7, 7])
            ctx.send(RIGHT, self.payload)
        ctx.halt(None)


class _SyncForwarder(SyncProcess):
    """Input 1 sends ``(1, [1])`` then ``(2, 3)``.  Input 0 forwards each
    the cycle after it arrives, the same object, growing the list inside
    the first; :attr:`forwarded` keeps each forward's size as sent."""

    forwarded: list = []

    def run(self):
        if self.input:
            yield Out(right=(1, [1]))
            yield Out(right=(2, 3))
            for _ in range(3):
                yield Out()
            return None
        got = yield Out()
        for _ in range(2):
            payload = got.left
            if isinstance(payload[1], list):
                payload[1].extend([7, 7])
            self.forwarded.append(bit_length_reference(payload))
            got = yield Out(right=payload)
        return None


class _AsyncForwarder(AsyncProcess):
    """The same exchange as :class:`_SyncForwarder`, one handler call per
    message."""

    forwarded: list = []

    def on_start(self, ctx):
        self.seen = 0
        if self.input:
            ctx.send(RIGHT, (1, [1]))
            ctx.send(RIGHT, (2, 3))

    def on_message(self, ctx, port, payload):
        self.seen += 1
        if not self.input:
            if isinstance(payload[1], list):
                payload[1].extend([7, 7])
            self.forwarded.append(bit_length_reference(payload))
            ctx.send(RIGHT, payload)
        if self.seen == 2:
            ctx.halt(None)


class TestSendSizes:
    """Every engine charges each send ``bit_length`` of its payload as it
    is sent, the same number in ``stats.bits`` and in the recorded row."""

    @pytest.mark.parametrize("engine", ["sync", "async", "async-synchronized"])
    def test_each_send_is_sized_when_sent(self, engine):
        config = RingConfiguration.oriented((1, 0))
        recorder = EventRecorder()
        if engine == "sync":
            result = run_synchronous(config, _SyncSender, recorder=recorder)
        elif engine == "async":
            result = run_asynchronous(config, _AsyncSender, recorder=recorder)
        else:
            result = run_async_synchronized(config, _AsyncSender, recorder=recorder)
        sent = [e.bits for e in recorder.events if e.kind == "send" and e.proc == 0]
        assert sent == _expected_send_bits()
        others = sum(e.bits for e in recorder.events if e.kind == "send" and e.proc != 0)
        assert result.stats.bits == sum(sent) + others

    @pytest.mark.parametrize("engine", ["sync", "async", "async-synchronized"])
    def test_a_forwarded_payload_is_sized_as_forwarded(self, engine):
        """A size carried with a message never goes stale: a forward of a
        tuple whose inner list grew is sized again, and a forward of a
        tuple of ints is charged the size it carried."""
        config = RingConfiguration.oriented((1, 0))
        recorder = EventRecorder()
        factory = _SyncForwarder if engine == "sync" else _AsyncForwarder
        factory.forwarded = []
        if engine == "sync":
            result = run_synchronous(config, factory, recorder=recorder)
        elif engine == "async":
            result = run_asynchronous(config, factory, recorder=recorder)
        else:
            result = run_async_synchronized(config, factory, recorder=recorder)
        forwards = [e for e in recorder.events if e.kind == "send" and e.proc == 1]
        assert [e.bits for e in forwards] == factory.forwarded == [8, 4]
        assert [e.payload for e in forwards] == [(1, [1, 7, 7]), (2, 3)]
        assert result.stats.bits == 2 + 4 + 8 + 4


class TestEnvelope:
    def test_bits_delegates(self):
        env = Envelope(0, 1, LEFT, RIGHT, "010", 5)
        assert env.bits == 3

    def test_frozen(self):
        env = Envelope(0, 1, LEFT, RIGHT, None, 0)
        try:
            env.sender = 2  # type: ignore[misc]
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("Envelope should be immutable")
