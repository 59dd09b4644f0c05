"""Synchronous input distribution in O(n log n) messages (§4.2.1, Figure 2).

Leader election without labels: labels are *created* during the run.  The
label of an active processor is the string of inputs of the segment
between it and the previous active processor on its left.  Rounds have two
n-cycle phases:

* **elimination** — actives send their label both ways (passives forward);
  an active survives iff its label is ≥ both labels it hears and > at
  least one.  A winner implies a losing neighbor, so at least a third of
  the actives die per round: at most ``log₁.₅ n`` rounds.

* **label creation** — each winner launches an empty accumulator to its
  right; everyone that relays it appends its own input and goes (or
  stays) passive; the next winner absorbs it as its new label.

Symmetric inputs can starve the election: if all active labels tie, nobody
wins and phase 2 falls silent.  Synchrony turns that silence into
information — every processor notices an empty phase and concludes the
ring is *periodic* with the common label as period, which (knowing ``n``)
determines the entire ring.  A final broadcast rotates the period around
the ring so each processor holds it relative to its own position.

Message cost: exactly ``2n`` per elimination phase, ``n`` per creation
phase with winners, ``n`` for the broadcast — at most
``n(3·log₁.₅ n + 3)`` total, matching the paper's ``O(n log n)``.

The algorithm is written for clockwise-oriented rings, like Figure 2; use
:mod:`repro.algorithms.combined` for arbitrary odd rings (quasi-orient
first, §4.2.2).
"""

from __future__ import annotations

import math
from typing import Any, Optional, Tuple

from ..core.errors import ConfigurationError, ProtocolError
from ..core.message import Port
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..core.views import RingView
from ..sync.process import Idle, In, Out, SyncProcess
from ..sync.simulator import run_synchronous


class SyncInputDistribution(SyncProcess):
    """One processor of the Figure 2 algorithm (clockwise-oriented rings).

    Inputs must be mutually comparable (the election compares label tuples
    lexicographically).
    """

    def __init__(self, input_value: Any, n: int) -> None:
        super().__init__(input_value, n)
        if n < 2:
            raise ConfigurationError("input distribution needs n >= 2")

    # ------------------------------------------------------------------
    def run(self):
        n = self.n
        active = True
        label: Tuple[Any, ...] = (self.input,)

        while True:
            # ---------------- phase 1: elimination (n cycles) ----------
            if active:
                inbox = yield from self.emit_then_sleep(
                    Out(left=label, right=label), n - 1
                )
                heard = [payload for _, got in inbox for _, payload in got.items()]
                if len(heard) != 2:
                    raise ProtocolError(
                        f"active processor heard {len(heard)} labels, expected 2"
                    )
                winner = all(label >= other for other in heard) and any(
                    label > other for other in heard
                )
            else:
                yield from self._forward_both_ways(n)
                winner = False

            # ---------------- phase 2: label creation (n cycles) -------
            if active and winner:
                inbox = yield from self.emit_then_sleep(Out(right=()), n - 1)
                arrivals = [payload for _, got in inbox for _, payload in got.items()]
                if len(arrivals) != 1:
                    raise ProtocolError(
                        f"winner received {len(arrivals)} accumulators, expected 1"
                    )
                label = tuple(arrivals[0]) + (self.input,)
            else:
                # Relay accumulators for n cycles, idling between them.
                quiet = True
                pending: Optional[Tuple[Any, ...]] = None
                remaining = n
                while remaining:
                    if pending is None:
                        elapsed, got = yield Idle(remaining)
                    else:
                        got = yield Out(right=pending)
                        pending = None
                        elapsed = 1
                    remaining -= elapsed
                    if got.any():
                        quiet = False
                        active = False
                        port, payload = got.items()[0]
                        if port is not Port.LEFT or got.count() != 1:
                            raise ProtocolError(
                                f"unexpected accumulator arrival: {got!r}"
                            )
                        pending = tuple(payload) + (self.input,)
                if pending is not None:
                    raise ProtocolError("accumulator still pending at phase end")
                if quiet:
                    # Deadlock detected: the ring is periodic with period
                    # `label` (actives) / the election is over (passives).
                    break

        # ---------------- broadcast (≤ n+1 cycles) ---------------------
        if active:
            yield Out(right=label)
            return self._view_from_period(label)
        _elapsed, got = yield Idle(n + 1)
        if not got.any():
            raise ProtocolError("no broadcast message arrived")
        port, payload = got.items()[0]
        if port is not Port.LEFT or got.count() != 1:
            raise ProtocolError(f"unexpected broadcast arrival: {got!r}")
        label = tuple(payload[1:]) + (payload[0],)  # cyclic_shift
        yield Out(right=label)
        return self._view_from_period(label)

    # ------------------------------------------------------------------
    def _forward_both_ways(self, cycles: int):
        """Relay messages for ``cycles`` cycles (opposite-port forwarding).

        Idles between arrivals: a relay is resumed only when a message
        reaches it, and forwards it on the next cycle.
        """
        pending: Optional[Out] = None
        remaining = cycles
        while remaining:
            if pending is None:
                elapsed, got = yield Idle(remaining)
            else:
                got = yield pending
                elapsed = 1
            remaining -= elapsed
            pending = Out(left=got.right, right=got.left) if got.any() else None
        if pending is not None:
            raise ProtocolError("relay still pending at phase end")

    def _view_from_period(self, label: Tuple[Any, ...]) -> RingView:
        """Reconstruct the full relative view from a period ending at me.

        ``label`` holds the inputs of positions ``me−p+1 … me``; the ring
        is its periodic extension, so the input at distance ``d`` to my
        right is ``label[(p−1+d) mod p]``.
        """
        p = len(label)
        if p == 0 or self.n % p != 0:
            raise ProtocolError(f"period {p} does not divide ring size {self.n}")
        if label[-1] != self.input:
            raise ProtocolError("period does not end at own input")
        entries = tuple((1, label[(p - 1 + d) % p]) for d in range(self.n))
        return RingView(entries)


def distribute_inputs_sync(
    config: RingConfiguration, max_cycles: Optional[int] = None
) -> RunResult:
    """Run Figure 2 on a clockwise-oriented ring; outputs are :class:`RingView`."""
    if not config.is_oriented:
        raise ConfigurationError(
            "Figure 2 assumes a consistently oriented ring; "
            "use repro.algorithms.combined for general rings"
        )
    return run_synchronous(config, SyncInputDistribution, max_cycles=max_cycles)


def message_bound(n: int) -> float:
    """Our implementation's message bound, ``n(3·log₁.₅ n + 3)``.

    The paper states ``n(3·log₁.₅ n + 1)`` for Figure 2; our accounting
    includes the final broadcast pass and the silent-round detection, worth
    two extra linear terms.
    """
    return n * (3 * math.log(n, 1.5) + 3)


def cycle_bound(n: int) -> float:
    """Cycle bound ``n(2·log₁.₅ n + 3)`` (paper: ``n(2·log₁.₅ n + 1)``)."""
    return n * (2 * math.log(n, 1.5) + 3)
