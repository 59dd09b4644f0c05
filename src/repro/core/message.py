"""Messages, ports, and bit accounting.

The machine model of §2 lets a processor send one message per cycle on each
of its two ports.  Ports are *local*: each processor calls one neighbor
``left`` and the other ``right``, and the two notions need not be globally
consistent (that inconsistency is exactly what the orientation problem is
about).

Payloads are arbitrary Python values.  The cost model of the paper counts
messages for lower bounds and bits for algorithm analysis; we provide both
via :func:`bit_length`, a deterministic encoder-size estimate.  The
engines size each send with :func:`send_size`, which also says whether the
size may travel with the message: a relay that forwards the tuple it was
delivered is charged the size already taken, not a second walk.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Tuple


class Port(enum.Enum):
    """A processor-local port name.

    ``LEFT`` and ``RIGHT`` are the names a processor gives its two channels;
    which physical neighbor each maps to is decided by the configuration's
    orientation bit ``D(i)`` (§2): if ``D(i) = 1`` then ``right(i) = i+1``,
    otherwise ``right(i) = i-1``.
    """

    LEFT = "left"
    RIGHT = "right"

    # Members are singletons, so identity hashing (in C) is exact; Enum's
    # own ``__hash__`` hashes the member's name in Python on every lookup
    # of a Port-keyed route.
    __hash__ = object.__hash__

    @property
    def opposite(self) -> "Port":
        """The other port; forwarding sends a message out the opposite port."""
        return Port.RIGHT if self is Port.LEFT else Port.LEFT

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Port.{self.name}"


#: Convenient aliases used throughout the algorithms.
LEFT = Port.LEFT
RIGHT = Port.RIGHT


@dataclass(frozen=True)
class Envelope:
    """A message in transit, as recorded by the transport layer.

    Attributes:
        sender: index of the sending processor (transport-level bookkeeping;
            never exposed to algorithms, which are anonymous).
        receiver: index of the receiving processor.
        out_port: the *sender's* port the message left through.
        in_port: the *receiver's* port the message arrives on.
        payload: the message content.
        send_time: cycle (sync) or sequence number (async) of the send.
    """

    sender: int
    receiver: int
    out_port: Port
    in_port: Port
    payload: Any
    send_time: int

    @property
    def bits(self) -> int:
        """Size of this message's payload under the canonical encoding."""
        return bit_length(self.payload)


def bit_length(payload: Any) -> int:
    """Deterministic bit-size estimate of a payload.

    This is the encoding the analyses in §4 assume:

    * ``None`` — a "zero content" / signal message: 1 bit (its presence).
    * ``bool`` — 1 bit.
    * ``int`` — its two's-complement width, at least 1 bit.
    * ``str`` over ``{'0','1'}`` — one bit per character; other strings cost
      8 bits per character.
    * ``bytes`` — 8 bits per byte.
    * ``tuple`` / ``list`` — sum of the parts (framing is ignored, as the
      paper's analyses do).
    * enum members — ``ceil(log2(len(type)))`` bits, at least 1.

    Anything else costs 32 bits (a conservative flat rate so that exotic
    payloads are never free).

    The walk dispatches on exact types first: an exact tuple or list is
    summed in one loop that sizes ``None``, ``bool`` and ``int`` items
    inline and recurses only for items of other types.  Every other type,
    and every subclass (an ``IntEnum`` member sizes as an ``int``), goes
    through the ``isinstance`` checks below.
    """
    kind = type(payload)
    if kind is tuple or kind is list:
        return _sum_of_items(payload)[0]
    if payload is None or kind is bool:
        return 1
    if isinstance(payload, int):
        return (payload.bit_length() + (payload < 0)) or 1
    if isinstance(payload, str):
        if payload and all(ch in "01" for ch in payload):
            return len(payload)
        return 8 * max(1, len(payload))
    if isinstance(payload, bytes):
        return 8 * max(1, len(payload))
    if isinstance(payload, (tuple, list)):
        return _sum_of_items(payload)[0]
    if isinstance(payload, enum.Enum):
        population = len(type(payload))
        width = max(1, (population - 1).bit_length())
        return width
    return 32


def send_size(payload: Any) -> Tuple[int, bool]:
    """``(bit_length(payload), carries)`` for a payload being sent.

    ``carries`` says whether the size may travel with the message, so
    that a later send of the same object reuses it instead of walking it
    again.  Only an exact ``tuple`` whose items are exact ``bool``,
    ``int`` or ``None`` carries: nothing can change its size once it is
    built.  A list, or a tuple holding one, can grow between two sends of
    the same object, so it is sized at every send.
    """
    if type(payload) is tuple:
        return _sum_of_items(payload)
    return bit_length(payload), False


def _sum_of_items(items: Any) -> Tuple[int, bool]:
    """The size of a tuple or list, and whether every item in it is an
    exact ``bool``, ``int`` or ``None``."""
    total = 0
    flat = True
    for item in items:
        kind = type(item)
        if kind is int:
            total += (item.bit_length() + (item < 0)) or 1
        elif kind is bool or item is None:
            total += 1
        else:
            total += bit_length(item)
            flat = False
    return total or 1, flat
