"""Orient, then distribute: the universal O(n log n) algorithm for any ring.

§4.2.2 closes the synchronous story: Figure 4 quasi-orients any ring in
``O(n log n)`` messages; the outcome is either consistent orientation —
then Figure 2 applies through relabeled ports — or, on even rings, a
perfect alternation — then the interleaved two-computation variant
(:mod:`repro.algorithms.alternating`) applies.  Every processor learns
which case occurred from the orientation tokens themselves, so the branch
costs nothing, and the composition is a genuine distributed algorithm:
each stage idles to a barrier cycle computable from ``n`` alone
(synchrony makes barriers free), then proceeds through its own ports,
relabeled by its own switch bit.

``distribute_inputs_general`` therefore serves *every* ring of size ≥ 3
with ``O(n log n)`` messages — the paper's headline synchronous upper
bound — while even-nonoriented rings also keep the ``O(n²)``
asynchronous route.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from ..core.errors import ConfigurationError, ProtocolError
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..sync.process import In, Out, SyncProcess, cycle_by_cycle
from ..sync.simulator import run_synchronous
from . import orientation as _orientation
from .alternating import AlternatingInputDistribution
from .orientation import QuasiOrientation
from .sync_input_distribution import SyncInputDistribution


def _swap_out(out: Out) -> Out:
    return Out(left=out.right, right=out.left)


def _swap_in(received: In) -> In:
    return In(left=received.right, right=received.left)


def barrier_cycle(n: int) -> int:
    """First cycle by which every processor has finished orientation.

    Computable from ``n`` alone (Figure 4's running time is bounded
    input-independently), so all processors agree on it silently.
    """
    return int(math.ceil(_orientation.cycle_bound(n))) + 2


class UniversalInputDistribution(SyncProcess):
    """Quasi-orient, barrier, then distribute — on any ring of size ≥ 3.

    Output: ``(switch bit, RingView)``.  The view is relative to the
    processor's *post-switch* orientation; applying all switch bits to
    the ring makes every view match the ground truth of the resulting
    (oriented or alternating) configuration.
    """

    def __init__(self, input_value: Any, n: int) -> None:
        super().__init__(input_value, n)
        if n < 3:
            raise ConfigurationError("need n >= 3")

    def run(self):
        cycles = 0

        # ---- stage 1: quasi-orientation --------------------------------
        orient = QuasiOrientation(self.input, self.n)
        stage = cycle_by_cycle(orient.run())
        out = next(stage)
        switch: Optional[int] = None
        while True:
            received = yield out
            cycles += 1
            try:
                out = stage.send(received)
            except StopIteration as stop:
                switch = stop.value
                break
        if orient.final_case is None:
            raise ProtocolError("orientation finished without reporting its case")
        alternating = orient.final_case == 1

        # ---- barrier: idle, dropping stray tokens -----------------------
        target = barrier_cycle(self.n)
        while cycles < target:
            yield Out()
            cycles += 1

        # ---- stage 2: distribution through relabeled ports --------------
        if alternating:
            inner: SyncProcess = AlternatingInputDistribution(self.input, self.n)
        else:
            inner = SyncInputDistribution(self.input, self.n)
        stage = cycle_by_cycle(inner.run())
        swap = switch == 1
        out = next(stage)
        while True:
            received = yield (_swap_out(out) if swap else out)
            try:
                out = stage.send(_swap_in(received) if swap else received)
            except StopIteration as stop:
                return (switch, stop.value)


#: Backwards-compatible name: the universal process (originally odd-only).
OrientedInputDistribution = UniversalInputDistribution


def distribute_inputs_general(
    config: RingConfiguration, max_cycles: Optional[int] = None
) -> RunResult:
    """Run the universal pipeline on an arbitrary ring of size ≥ 3.

    Outputs are ``(switch, view)`` pairs; applying the switches
    quasi-orients the ring and each view matches the ground truth of the
    switched configuration.
    """
    return run_synchronous(
        config, UniversalInputDistribution, max_cycles=max_cycles
    )


def message_bound(n: int) -> float:
    """Sum of the stages' bounds (orientation + the costlier branch)."""
    from .alternating import message_bound as alt_bound
    from .sync_input_distribution import message_bound as fig2_bound

    return _orientation.message_bound(n) + max(
        fig2_bound(n), alt_bound(n) if n % 2 == 0 else 0.0
    )
