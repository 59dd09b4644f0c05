"""Synchronous processors as generator coroutines.

The paper's synchronous pseudocode (Figures 2, 4, 5) is sequential —
``wait(n−1)``, ``for i := 1 to n do forward`` — so we model a processor as
a Python generator rather than a flat state machine.  One iteration of the
generator is one clock cycle:

.. code-block:: python

    received = yield Out(left=payload_a, right=payload_b)

emits this cycle's messages and resumes with this cycle's arrivals (the
§2 model: a processor first sends, then accepts the messages its neighbors
sent the same cycle).  Returning from the generator halts the processor;
the return value is its output state.

A processor with nothing to send may wait for mail instead of spending a
resume per quiet cycle:

.. code-block:: python

    elapsed, received = yield Idle(k)

sends nothing for up to ``k`` cycles, starting with this one, and
resumes on the cycle after one in which something arrived, or after
``k`` cycles; ``elapsed`` is the number of cycles spent idle and
``received`` is the last idle cycle's arrivals (empty on a timeout).  It
behaves exactly like ``elapsed`` quiet ``yield Out()`` cycles — the
engine just does not resume the generator for them.  :meth:`SyncProcess.sleep`
idles this way.  A wrapper that drives an inner process one cycle per
yield runs it through :func:`cycle_by_cycle`, which spells every
``Idle`` out as quiet cycles.

The engines size each send as it is sent
(:func:`repro.core.message.bit_length`); a tuple of ints forwarded as it
was delivered carries the size already taken
(:func:`repro.core.message.send_size`).

Anonymity is structural: a process is built from ``(input value, ring
size)`` only and has no way to learn its index.
"""

from __future__ import annotations

from typing import Any, Generator, Iterator, List, Optional, Tuple, Union

from ..core.errors import ProtocolError
from ..core.message import Port


class _Absent:
    """Sentinel for "no message" (``None`` is a legal nil payload)."""

    _instance: Optional["_Absent"] = None

    def __new__(cls) -> "_Absent":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "ABSENT"

    def __bool__(self) -> bool:
        return False


#: No-message marker used in :class:`Out` and :class:`In` slots.
ABSENT = _Absent()


class Out:
    """Messages a processor emits in one cycle — at most one per port."""

    __slots__ = ("left", "right")

    def __init__(self, left: Any = ABSENT, right: Any = ABSENT) -> None:
        self.left = left
        self.right = right

    def via(self, port: Port) -> Any:
        """The payload emitted on ``port`` (or ``ABSENT``)."""
        return self.left if port is Port.LEFT else self.right

    def sends(self) -> Iterator[Tuple[Port, Any]]:
        """Iterate the (port, payload) pairs actually being sent."""
        if self.left is not ABSENT:
            yield (Port.LEFT, self.left)
        if self.right is not ABSENT:
            yield (Port.RIGHT, self.right)

    @staticmethod
    def on(port: Port, payload: Any) -> "Out":
        """Emit a single message on the given port."""
        return Out(left=payload) if port is Port.LEFT else Out(right=payload)

    @staticmethod
    def both(payload_left: Any, payload_right: Any) -> "Out":
        """Emit on both ports."""
        return Out(left=payload_left, right=payload_right)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Out(left={self.left!r}, right={self.right!r})"


class In:
    """Messages a processor received in one cycle — at most one per port.

    Treat instances as read-only: the engine shares one empty ``In``
    across quiet cycles, so mutating a received inbox is undefined
    behavior.
    """

    __slots__ = ("left", "right")

    def __init__(self, left: Any = ABSENT, right: Any = ABSENT) -> None:
        self.left = left
        self.right = right

    def via(self, port: Port) -> Any:
        """The payload received on ``port`` (or ``ABSENT``)."""
        return self.left if port is Port.LEFT else self.right

    def has(self, port: Port) -> bool:
        """Whether a message arrived on ``port`` this cycle."""
        return self.via(port) is not ABSENT

    def any(self) -> bool:
        """Whether any message arrived this cycle."""
        return self.left is not ABSENT or self.right is not ABSENT

    def items(self) -> List[Tuple[Port, Any]]:
        """The (port, payload) pairs received this cycle."""
        out: List[Tuple[Port, Any]] = []
        if self.left is not ABSENT:
            out.append((Port.LEFT, self.left))
        if self.right is not ABSENT:
            out.append((Port.RIGHT, self.right))
        return out

    def count(self) -> int:
        """Number of messages received this cycle (0, 1 or 2)."""
        return (self.left is not ABSENT) + (self.right is not ABSENT)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"In(left={self.left!r}, right={self.right!r})"


class Idle:
    """Send nothing for up to ``cycles`` cycles and wait for mail.

    Yielded in place of an :class:`Out`; the generator resumes with
    ``(elapsed, In)`` — see the module docstring.
    """

    __slots__ = ("cycles",)

    def __init__(self, cycles: int) -> None:
        if not isinstance(cycles, int) or cycles < 1:
            raise ProtocolError(f"Idle needs at least one cycle, got {cycles!r}")
        self.cycles = cycles

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Idle({self.cycles})"


#: Type of the generator a :meth:`SyncProcess.run` implementation returns.
ProcessGen = Generator[Union[Out, Idle], Union[In, Tuple[int, In]], Any]


def cycle_by_cycle(gen: ProcessGen) -> Generator[Out, In, Any]:
    """Drive ``gen`` one cycle per yield, spelling each ``Idle`` out.

    Every ``Idle(k)`` becomes quiet ``Out()`` cycles until something
    arrives or ``k`` cycles pass, exactly as the engine would run it, so
    a wrapper that counts cycles per yield sees the old lock-step
    protocol.  Returns ``gen``'s return value.
    """
    try:
        step = next(gen)
        while True:
            if isinstance(step, Idle):
                for elapsed in range(1, step.cycles + 1):
                    received = yield Out()
                    if received.any():
                        break
                step = gen.send((elapsed, received))
            else:
                step = gen.send((yield step))
    except StopIteration as stop:
        return stop.value


class SyncProcess:
    """Base class for anonymous synchronous processors.

    Subclasses implement :meth:`run` as a generator (see module docstring).
    Every processor of a run is built by the same factory from
    ``(input value, ring size)`` — the anonymity assumption of the paper.

    Attributes:
        input: the processor's initial input state ``I(i)``.
        n: the ring size, which Theorem 3.2 shows every anonymous-ring
            algorithm must know.
        wake_inbox: messages that arrived while the processor was idle and
            woke it (empty for a spontaneous or simultaneous start).  Only
            meaningful for algorithms run under a wake-up schedule.
        woke_spontaneously: whether the processor started on its own rather
            than because a message arrived.
    """

    def __init__(self, input_value: Any, n: int) -> None:
        self.input = input_value
        self.n = n
        self.wake_inbox: List[Tuple[Port, Any]] = []
        self.woke_spontaneously: bool = True

    def run(self) -> ProcessGen:
        """The processor's program.  Must be a generator function."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Helpers usable inside run() via ``yield from``
    # ------------------------------------------------------------------

    def sleep(
        self, cycles: int
    ) -> Generator[Idle, Tuple[int, In], List[Tuple[int, In]]]:
        """Emit nothing for ``cycles`` cycles; collect what arrives.

        Returns a list of ``(cycle offset, In)`` for the cycles in which
        something arrived.  This is the ``wait(n−1)`` of the pseudocode;
        it idles, so the engine resumes it only when mail arrives.
        """
        inbox: List[Tuple[int, In]] = []
        offset = 0
        while offset < cycles:
            elapsed, received = yield Idle(cycles - offset)
            offset += elapsed
            if received.any():
                inbox.append((offset - 1, received))
        return inbox

    def emit_then_sleep(self, out: Out, cycles: int) -> ProcessGen:
        """Emit once, then stay silent; collect arrivals over all cycles.

        The emission cycle counts as offset 0; total duration is
        ``1 + cycles`` cycles.
        """
        inbox: List[Tuple[int, In]] = []
        received = yield out
        if received.any():
            inbox.append((0, received))
        rest = yield from self.sleep(cycles)
        inbox.extend((offset + 1, got) for offset, got in rest)
        return inbox


def expect_single(received: In) -> Tuple[Port, Any]:
    """The unique message of a cycle, raising if there is not exactly one."""
    items = received.items()
    if len(items) != 1:
        raise ProtocolError(f"expected exactly one message, got {received!r}")
    return items[0]
