"""Asynchronous input distribution (§4.1) — the O(n²) universal algorithm.

Every processor initially sends, in both directions, a message carrying its
input and a one-bit tag naming the port it left through (0 = left,
1 = right).  Messages are then forwarded — out the opposite port, so they
keep travelling the same physical way around the ring — a fixed number of
hops.  FIFO links and start-before-delivery guarantee that the *j*-th
message to arrive on a port originated at physical distance *j* in that
direction, so every processor can reconstruct its whole relative view of
the ring without any processor ever being named.

Hop budgets:

* odd ``n`` — every message is forwarded ``⌊n/2⌋ − 1`` times; each
  processor hears from distances ``1 … ⌊n/2⌋`` on each side: exactly
  ``n(n−1)`` messages.
* even ``n``, ring known to be oriented — the paper's refinement: messages
  tagged "sent left" are forwarded ``n/2 − 1`` times and messages tagged
  "sent right" ``n/2 − 2`` times, which keeps the total at ``n(n−1)``
  (the antipodal processor is heard from one side only).
* even ``n``, arbitrary orientations — the tag-based budgets are no longer
  direction-consistent, so both kinds travel ``⌊n/2⌋`` hops and the
  antipodal processor is heard twice: ``n²`` messages, still ``O(n²)``.

The orientation tag also reveals relative orientation: a message arriving
on my LEFT port is travelling in my *rightward* direction, so its sender's
tag port equals my RIGHT — same orientation iff the tag is "right"; the
mirror rule holds on the other port.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from ..asynch.process import AsyncProcess, Context
from ..asynch.simulator import run_asynchronous
from ..asynch.schedulers import Scheduler
from ..core.errors import ConfigurationError, ProtocolError
from ..core.message import Port
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..core.views import RingView

#: Port tag bits used on the wire, exactly as in the paper.
TAG_LEFT = 0
TAG_RIGHT = 1


class AsyncInputDistribution(AsyncProcess):
    """One processor of the §4.1 input-distribution algorithm.

    Args:
        input_value: the processor's input ``I(i)``.
        n: ring size (required knowledge, Theorem 3.2).
        assume_oriented: enables the even-``n`` refinement, which is only
            correct when the ring is globally oriented.  Like ``n`` itself,
            this is external knowledge baked into the algorithm, not
            something a processor could discover.
    """

    #: Schedule freedom only: the algorithm decodes *distance* from arrival
    #: counts on FIFO links, so a lost message deadlocks the expected-count
    #: wait and a duplicated one shifts every later distance estimate —
    #: neither "drop" nor "dup" can be tolerated, and a crashed processor
    #: silences everything routed through it.
    fault_tolerance = frozenset({"delay"})

    def __init__(self, input_value: Any, n: int, assume_oriented: bool = False) -> None:
        super().__init__(input_value, n)
        if n < 2:
            raise ConfigurationError("input distribution needs n >= 2")
        self.assume_oriented = assume_oriented
        if n % 2 == 1 or not assume_oriented or n == 2:
            # Symmetric budgets: every message makes floor(n/2) hops.
            self.max_hops = {TAG_LEFT: n // 2, TAG_RIGHT: n // 2}
        else:
            # Paper's even-n refinement (oriented rings): left-sent messages
            # make n/2 hops, right-sent ones n/2 - 1.
            self.max_hops = {TAG_LEFT: n // 2, TAG_RIGHT: n // 2 - 1}
        self.expected = sum(self.max_hops.values())
        # Arrivals per port, in order (== physical distance order).
        self.heard: Dict[Port, List[Tuple[int, Any]]] = {Port.LEFT: [], Port.RIGHT: []}
        # Forwards already performed per (arrival port, tag).
        self.forwarded: Dict[Tuple[Port, int], int] = {}

    # ------------------------------------------------------------------
    def on_start(self, ctx: Context) -> None:
        ctx.send(Port.LEFT, (TAG_LEFT, self.input))
        ctx.send(Port.RIGHT, (TAG_RIGHT, self.input))

    def on_message(self, ctx: Context, port: Port, payload: Any) -> None:
        tag, _value = payload
        self.heard[port].append(payload)
        # The j-th arrival on this port has made j hops so far; forward it
        # unless it has exhausted its budget.  Arrivals on a port come in
        # distance order, so "count arrivals" == "count hops".
        hops_so_far = len(self.heard[port])
        if hops_so_far < self.max_hops[tag]:
            ctx.send(port.opposite, payload)
        if len(self.heard[Port.LEFT]) + len(self.heard[Port.RIGHT]) == self.expected:
            ctx.halt(self._build_view())

    # ------------------------------------------------------------------
    def _relative_orientation(self, arrival_port: Port, tag: int) -> int:
        """1 iff the sender is oriented like me (see module docstring)."""
        if arrival_port is Port.LEFT:
            return 1 if tag == TAG_RIGHT else 0
        return 1 if tag == TAG_LEFT else 0

    def _build_view(self) -> RingView:
        entries: List[Optional[Tuple[int, Any]]] = [None] * self.n
        entries[0] = (1, self.input)
        # Arrivals on my RIGHT port came from my right side: distance d
        # rightward is the d-th arrival there.
        for d, (tag, value) in enumerate(self.heard[Port.RIGHT], start=1):
            entry = (self._relative_orientation(Port.RIGHT, tag), value)
            self._place(entries, d, entry)
        # Arrivals on my LEFT port came from my left side: distance d
        # leftward is rightward distance n - d.
        for d, (tag, value) in enumerate(self.heard[Port.LEFT], start=1):
            entry = (self._relative_orientation(Port.LEFT, tag), value)
            self._place(entries, self.n - d, entry)
        if any(entry is None for entry in entries):
            raise ProtocolError("incomplete view despite full arrival count")
        return RingView(tuple(entries))  # type: ignore[arg-type]

    @staticmethod
    def _place(entries: List, index: int, entry: Tuple[int, Any]) -> None:
        existing = entries[index]
        if existing is not None and existing != entry:
            raise ProtocolError(
                f"inconsistent double report for distance {index}: "
                f"{existing!r} vs {entry!r}"
            )
        entries[index] = entry


def distribute_inputs_async(
    config: RingConfiguration,
    scheduler: Optional[Scheduler] = None,
    assume_oriented: Optional[bool] = None,
) -> RunResult:
    """Run §4.1 input distribution; outputs are per-processor :class:`RingView`.

    ``assume_oriented`` defaults to whether the configuration actually is
    oriented (the caller may force the general variant on an oriented ring
    to measure the unrefined message count).
    """
    oriented = config.is_oriented if assume_oriented is None else assume_oriented
    return run_asynchronous(
        config,
        lambda value, n: AsyncInputDistribution(value, n, assume_oriented=oriented),
        scheduler=scheduler,
    )


def compute_function_async(
    config: RingConfiguration,
    function: Callable[[RingView], Any],
    scheduler: Optional[Scheduler] = None,
) -> RunResult:
    """Compute any view-function with O(n²) messages: distribute, then evaluate.

    Input distribution is the hardest distributively solvable problem
    (§4.1): every computable function is a local function of the view.
    """
    result = distribute_inputs_async(config, scheduler=scheduler)
    outputs = tuple(function(view) for view in result.outputs)
    return RunResult(
        outputs=outputs,
        stats=result.stats,
        cycles=result.cycles,
        halt_times=result.halt_times,
    )


def expected_message_count(n: int, oriented: bool) -> int:
    """The §4.1 message count: ``n(n−1)``, or ``n²`` for even nonoriented rings.

    ``n = 2`` is degenerate (the refinement would assign a zero hop budget)
    and always uses the symmetric variant.
    """
    if n % 2 == 1 or (oriented and n > 2):
        return n * (n - 1)
    return n * n
