"""The §4.2.1 unary time-encoding transform.

"If there are k different types of messages, then we replace each cycle
by k subcycles and represent a message of type i sent at cycle t by an
empty message sent at cycle k(t−1) + i."  This module implements that
transform generically: wrap any synchronous algorithm whose messages come
from a *finite, known alphabet* and every message on the wire becomes a
nil (one-bit) signal whose meaning is its subcycle index.

Message count is unchanged; bit cost drops to one per message; time
multiplies by the alphabet size.  Applied to an algorithm that already
encodes information in time (like Figure 2 with its unary-ized labels)
this is the road to the paper's Θ(n log n)-bit / exponential-time end of
the §8 trade-off; applied to a fixed-alphabet algorithm (like Figure 4)
it is a clean constant-factor trade.

The wrapper requires simultaneous start (subcycle grids must align) and a
lock-step inner algorithm — exactly the paper's setting.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence, Tuple

from ..core.errors import ConfigurationError, ProtocolError
from ..core.message import Port
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..sync.process import ABSENT, In, Out, SyncProcess, cycle_by_cycle
from ..sync.simulator import ProcessFactory, run_synchronous


class TimeEncoded(SyncProcess):
    """Run an inner synchronous process through the unary encoding.

    Args:
        inner: the wrapped process (built by the same factory everywhere).
        alphabet: every payload the inner algorithm can send, in a fixed
            order shared by all processors.  Sending a payload outside the
            alphabet raises :class:`ProtocolError`.
    """

    def __init__(
        self,
        inner: SyncProcess,
        alphabet: Sequence[Any],
        input_value: Any,
        n: int,
    ) -> None:
        super().__init__(input_value, n)
        self.inner = inner
        self.alphabet: Tuple[Any, ...] = tuple(alphabet)
        if not self.alphabet:
            raise ConfigurationError("the alphabet must be nonempty")
        self._index: Dict[Any, int] = {}
        for i, symbol in enumerate(self.alphabet):
            if symbol in self._index:
                raise ConfigurationError(f"duplicate alphabet symbol {symbol!r}")
            self._index[symbol] = i

    # ------------------------------------------------------------------
    def run(self):
        gen = cycle_by_cycle(self.inner.run())
        k = len(self.alphabet)
        try:
            out = next(gen)
        except StopIteration as stop:
            return stop.value
        while True:
            decoded: Dict[Port, Any] = {}
            for sub in range(k):
                emit = Out()
                for port, payload in out.sends():
                    if payload not in self._index:
                        raise ProtocolError(
                            f"payload {payload!r} is not in the declared alphabet"
                        )
                    if self._index[payload] == sub:
                        if port is Port.LEFT:
                            emit.left = None
                        else:
                            emit.right = None
                got = yield emit
                for port, _nil in got.items():
                    if port in decoded:
                        raise ProtocolError(
                            "two nil signals on one port in one encoded cycle"
                        )
                    decoded[port] = self.alphabet[sub]
            received = In(
                left=decoded.get(Port.LEFT, ABSENT),
                right=decoded.get(Port.RIGHT, ABSENT),
            )
            try:
                out = gen.send(received)
            except StopIteration as stop:
                return stop.value


def time_encode(
    factory: ProcessFactory, alphabet: Sequence[Any]
) -> ProcessFactory:
    """Build a factory producing time-encoded versions of ``factory``."""

    def build(input_value: Any, n: int) -> TimeEncoded:
        return TimeEncoded(factory(input_value, n), alphabet, input_value, n)

    return build


def run_time_encoded(
    config: RingConfiguration,
    factory: ProcessFactory,
    alphabet: Sequence[Any],
    max_cycles: Optional[int] = None,
) -> RunResult:
    """Run a time-encoded algorithm (simultaneous start only)."""
    return run_synchronous(
        config, time_encode(factory, alphabet), max_cycles=max_cycles
    )


#: The full message alphabet of Figure 4 (quasi-orientation): phase-1 tags,
#: phase-2 signals, and the eight final-stage tokens.
ORIENTATION_ALPHABET: Tuple[Any, ...] = (0, 1) + tuple(
    (case, origin, parity)
    for case in (0, 1)
    for origin in (0, 1)
    for parity in (0, 1)
)
