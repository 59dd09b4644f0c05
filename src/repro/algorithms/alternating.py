"""Input distribution on alternating rings (§4.2.2, closing remark).

Quasi-orientation can legitimately end with the ring *alternating*
(Theorem 3.5 forbids better on even rings), and the paper notes Figure 2
still applies: "one runs two computations simultaneously, one for each
direction; processors participate in one computation and forward messages
of the other computation."

On an alternating ring the two-hop neighbors of a processor share its
orientation, so each parity class forms a *consistently oriented virtual
ring* of size ``m = n/2``.  The schedule that keeps the two interleaved
computations apart needs no tags at all — cycle parity does it:

* cycle 0: everyone exchanges inputs with both physical neighbors, so
  each processor learns the input of its right neighbor and can adopt
  the *pair* ``(own, right's)`` as its virtual input — the virtual ring
  then carries every input of the full ring;
* even cycles ``2 + 2v``: every processor emits its own computation's
  virtual-cycle-``v`` messages;
* odd cycles: every processor relays (opposite port) whatever arrived on
  the even cycle — those are the *other* class's messages mid-hop.

A virtual hop is exactly two physical cycles, arrival parity says whose
message it is, and the virtual port equals the physical port because
travel direction is preserved.  Both classes run Figure 2 to its
worst-case cycle bound (the bound depends only on ``m``), so everyone
halts at the same physical cycle with a full :class:`RingView`.

Cost: two Figure 2 runs at size ``n/2`` plus the pre-exchange and
relaying — still ``O(n log n)`` messages.
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

from ..core.errors import ConfigurationError, ProtocolError
from ..core.message import Port
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..core.views import RingView
from ..sync.process import ABSENT, In, Out, SyncProcess, cycle_by_cycle
from ..sync.simulator import run_synchronous
from .sync_input_distribution import SyncInputDistribution
from .sync_input_distribution import cycle_bound as _fig2_cycle_bound


class AlternatingInputDistribution(SyncProcess):
    """One processor of the interleaved alternating-ring algorithm.

    Assumes the ring is perfectly alternating (the §4.2.2 quasi-orientation
    outcome on even rings).  Output: the processor's full :class:`RingView`.
    """

    def __init__(self, input_value: Any, n: int) -> None:
        super().__init__(input_value, n)
        if n < 2 or n % 2 == 1:
            raise ConfigurationError("alternating rings have even size >= 2")

    # ------------------------------------------------------------------
    def run(self):
        n = self.n

        # --- cycle 0: exchange inputs with both physical neighbors ------
        got = yield Out(left=self.input, right=self.input)
        right_input = got.via(Port.RIGHT)
        if right_input is ABSENT:
            raise ProtocolError("no input heard from the right neighbor")

        if n == 2:
            # Degenerate: the pre-exchange already revealed the whole ring.
            return RingView(((1, self.input), (0, right_input)))

        # --- virtual Figure 2 over the parity class ---------------------
        m = n // 2
        inner = SyncInputDistribution((self.input, right_input), m)
        gen = cycle_by_cycle(inner.run())
        view: Optional[RingView] = None
        try:
            own_out = next(gen)
        except StopIteration as stop:  # pragma: no cover - m >= 2 never instant
            view = stop.value
            own_out = Out()

        yield Out()  # cycle 1: nothing is in flight yet
        virtual_deadline = int(math.ceil(_fig2_cycle_bound(m))) + 2
        for _v in range(virtual_deadline):
            # Even cycle 2+2v: emit my own virtual-cycle-v messages; the
            # arrivals are the other class's emissions, mid-hop.
            got_even = yield (own_out if view is None else Out())
            relay = Out()
            for port, payload in got_even.items():
                if port is Port.LEFT:
                    relay.right = payload
                else:
                    relay.left = payload
            # Odd cycle 3+2v: relay them onward; the arrivals are my own
            # class's relayed messages — my virtual In for cycle v.
            got_odd = yield relay
            if view is None:
                try:
                    own_out = gen.send(got_odd)
                except StopIteration as stop:
                    view = stop.value
        if view is None:
            raise ProtocolError("virtual Figure 2 exceeded its cycle bound")
        return self._expand(view)

    # ------------------------------------------------------------------
    def _expand(self, virtual: RingView) -> RingView:
        """Unfold the virtual pair-view into the full alternating view."""
        entries = []
        for j in range(virtual.n):
            rel, pair = virtual.entries[j]
            if rel != 1:
                raise ProtocolError("virtual ring should look oriented")
            own, right = pair
            entries.append((1, own))  # even physical distance: my class
            entries.append((0, right))  # odd distance: the other class
        return RingView(tuple(entries))


def distribute_inputs_alternating(
    config: RingConfiguration, max_cycles: Optional[int] = None
) -> RunResult:
    """Run the interleaved algorithm on an alternating ring."""
    if not config.is_alternating:
        raise ConfigurationError("this algorithm requires an alternating ring")
    return run_synchronous(
        config, AlternatingInputDistribution, max_cycles=max_cycles
    )


def message_bound(n: int) -> float:
    """Pre-exchange + two virtual Figure 2 runs with doubled hop cost."""
    from .sync_input_distribution import message_bound as fig2

    m = n // 2
    return 2 * n + 2 * 2 * fig2(max(2, m))
