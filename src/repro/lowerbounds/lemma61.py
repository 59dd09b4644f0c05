"""Empirical Lemma 3.1 / 6.1: equal neighborhoods force equal behavior.

The lemmas behind every bound in the paper say: two processors with the
same k-neighborhood are in the same state after k (active) cycles.  State
is internal, but *behavior* is observable — a processor's emissions, in
its own port terms, are a function of its state.  So the lemma has a
trace-level consequence this module checks on real runs:

    processors sharing a k-neighborhood emit identical (left, right)
    payload sequences through the first k active cycles.

``verify_lemma_61`` runs an algorithm on one or two configurations,
extracts per-processor self-relative emission traces from the run's
recorded ``send`` events, groups processors by k-neighborhood, and
reports any group whose members diverge too early — which would falsify
the simulator, the algorithm's anonymity, or the lemma itself.  (None
do.)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..core.ring import Neighborhood, RingConfiguration
from ..core.tracing import RunResult
from ..obs.events import CLOCK_CYCLE, Event, EventRecorder
from ..sync.simulator import ProcessFactory, run_synchronous

#: One processor's emissions at one cycle, in its own port terms.
_Emission = Tuple[Any, Any]  # (left payload or None-marker, right ...)
_NOTHING = ("<no-send>",)


@dataclass(frozen=True)
class Lemma61Violation:
    """A pair of same-neighborhood processors that behaved differently."""

    config_index_a: int
    processor_a: int
    config_index_b: int
    processor_b: int
    radius: int
    active_cycle: int


@dataclass(frozen=True)
class Lemma61Report:
    """Outcome of a Lemma 6.1 trace check."""

    radius: int
    active_cycles_checked: int
    groups: int
    violations: Tuple[Lemma61Violation, ...]

    @property
    def holds(self) -> bool:
        return not self.violations


def _emissions(n: int, events: Sequence[Event]) -> List[Dict[int, _Emission]]:
    """Per-processor, per-cycle self-relative emissions from ``send`` events."""
    traces: List[Dict[int, List[Any]]] = [dict() for _ in range(n)]
    for event in events:
        if event.kind != "send":
            continue
        cycle_map = traces[event.proc].setdefault(event.etime, [_NOTHING, _NOTHING])
        cycle_map[0 if event.port == "left" else 1] = event.payload
    return [
        {cycle: (pair[0], pair[1]) for cycle, pair in per_proc.items()}
        for per_proc in traces
    ]


def emission_traces(
    config: RingConfiguration,
    factory: ProcessFactory,
    max_cycles: Optional[int] = None,
) -> Tuple[RunResult, List[Dict[int, _Emission]]]:
    """Per-processor, per-cycle self-relative emissions of one run."""
    recorder = EventRecorder(clock=CLOCK_CYCLE)
    result = run_synchronous(config, factory, max_cycles=max_cycles, recorder=recorder)
    return result, _emissions(config.n, recorder.events)


def emission_traces_async(
    config: RingConfiguration,
    factory: Callable,
    max_cycles: Optional[int] = None,
) -> Tuple[RunResult, List[Dict[int, _Emission]]]:
    """Per-processor emissions of an async run under the Theorem 5.1
    adversary (whose per-cycle structure makes Lemma 3.1 applicable)."""
    from ..asynch.simulator import run_async_synchronized

    recorder = EventRecorder(clock=CLOCK_CYCLE)
    result = run_async_synchronized(
        config, factory, max_cycles=max_cycles, recorder=recorder
    )
    return result, _emissions(config.n, recorder.events)


def verify_lemma_61(
    configs: Sequence[RingConfiguration],
    factory: ProcessFactory,
    radius: int,
    max_cycles: Optional[int] = None,
) -> Lemma61Report:
    """Check the lemma across one or more configurations of equal size.

    Groups every processor of every run by its ``radius``-neighborhood and
    compares emission traces within each group through the first
    ``radius`` *active* cycles (cycles in which any run sent a message).
    """
    if not configs:
        raise ValueError("need at least one configuration")
    n = configs[0].n
    if any(config.n != n for config in configs):
        raise ValueError("configurations must share a size")

    runs = [emission_traces(config, factory, max_cycles) for config in configs]

    # Active cycles: union over all runs, in order.
    active: List[int] = sorted(
        {
            cycle
            for _result, traces in runs
            for per_proc in traces
            for cycle in per_proc
        }
    )
    window = active[:radius]

    groups: Dict[Neighborhood, List[Tuple[int, int]]] = {}
    for config_index, config in enumerate(configs):
        for processor in range(n):
            key = config.neighborhood(processor, radius)
            groups.setdefault(key, []).append((config_index, processor))

    violations: List[Lemma61Violation] = []
    for members in groups.values():
        if len(members) < 2:
            continue
        leader_cfg, leader_proc = members[0]
        leader_trace = runs[leader_cfg][1][leader_proc]
        for config_index, processor in members[1:]:
            trace = runs[config_index][1][processor]
            for position, cycle in enumerate(window):
                if leader_trace.get(cycle, (_NOTHING, _NOTHING)) != trace.get(
                    cycle, (_NOTHING, _NOTHING)
                ):
                    violations.append(
                        Lemma61Violation(
                            config_index_a=leader_cfg,
                            processor_a=leader_proc,
                            config_index_b=config_index,
                            processor_b=processor,
                            radius=radius,
                            active_cycle=position,
                        )
                    )
                    break
    return Lemma61Report(
        radius=radius,
        active_cycles_checked=len(window),
        groups=len(groups),
        violations=tuple(violations),
    )
