"""Ports, envelopes, and the canonical bit-size estimate."""

from __future__ import annotations

import enum

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.asynch import AsyncProcess, run_async_synchronized, run_asynchronous
from repro.core import LEFT, RIGHT, Envelope, Port, RingConfiguration, bit_length
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
