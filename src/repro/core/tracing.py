"""Message and bit accounting.

Every bound in the paper is a statement about the number of messages (lower
bounds) or bits (algorithm analyses) sent in the worst case.  To make those
bounds checkable, counting lives in the transport layer — an algorithm
cannot send a message the trace does not see.

:class:`TraceStats` accumulates totals plus a per-cycle histogram; the
per-cycle view distinguishes *active cycles* (cycles in which some message
is sent), the quantity Lemma 6.1 is stated over.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from .errors import OutputDisagreement
from .message import Envelope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import EventLog


@dataclass
class TraceStats:
    """Accumulated transport statistics for one simulation run.

    Attributes:
        messages: total messages sent.
        bits: total payload bits sent (see :func:`repro.core.message.bit_length`).
        per_cycle: messages sent at each cycle index (sync runs; async runs
            under the synchronizing adversary also populate this).
        delivered: messages actually handed to a live processor's handler
            (asynchronous engines).
        dropped: delivery attempts that went nowhere — the receiver had
            halted or crashed, or a fault adversary lost the message.
        duplicated: extra copies manufactured by a duplication adversary.
        log: full message log, kept only when ``keep_log`` is true.

    For a completed (quiescent) asynchronous run the counters satisfy the
    conservation law ``messages + duplicated == delivered + dropped``:
    every send or duplicate eventually reaches exactly one delivery or
    drop.  The fuzz harness checks this invariant on every run.
    """

    messages: int = 0
    bits: int = 0
    per_cycle: Dict[int, int] = field(default_factory=dict)
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    keep_log: bool = False
    log: List[Envelope] = field(default_factory=list)

    def record(self, envelope: Envelope) -> None:
        """Account for one sent message (and log it under ``keep_log``).

        Delegates the counter updates to :meth:`record_send` — the
        accounting lives in exactly one place, so a logged run and an
        unlogged run of the same schedule accumulate identical
        ``messages`` / ``bits`` / ``per_cycle`` counters by construction.
        """
        self.record_send(envelope.bits, envelope.send_time)
        if self.keep_log:
            self.log.append(envelope)

    def record_send(self, bits: int, cycle: int) -> None:
        """Account for one sent message from pre-extracted fields.

        The engines call this directly with each send's size (taken
        once per send) and append to :attr:`log` themselves under
        ``keep_log``; :meth:`record` funnels through it too.
        """
        self.messages += 1
        self.bits += bits
        self.per_cycle[cycle] = self.per_cycle.get(cycle, 0) + 1

    @property
    def active_cycles(self) -> int:
        """Number of cycles in which at least one message was sent (§6.1)."""
        return len(self.per_cycle)

    def messages_at(self, cycle: int) -> int:
        """Messages sent at a specific cycle."""
        return self.per_cycle.get(cycle, 0)

    def merge(self, other: "TraceStats") -> "TraceStats":
        """Combine two traces (e.g. the two runs of a fooling-pair experiment).

        The merged trace keeps a log only when *both* operands kept theirs
        (this side's envelopes first); if either side dropped its log there
        is nothing faithful to concatenate.
        """
        keep = self.keep_log and other.keep_log
        merged = TraceStats(keep_log=keep)
        merged.messages = self.messages + other.messages
        merged.bits = self.bits + other.bits
        merged.delivered = self.delivered + other.delivered
        merged.dropped = self.dropped + other.dropped
        merged.duplicated = self.duplicated + other.duplicated
        for source in (self.per_cycle, other.per_cycle):
            for cycle, count in source.items():
                merged.per_cycle[cycle] = merged.per_cycle.get(cycle, 0) + count
        if keep:
            merged.log = list(self.log) + list(other.log)
        return merged


@dataclass(frozen=True)
class RunResult:
    """Outcome of one simulation run.

    Attributes:
        outputs: per-processor output states, indexed by transport position.
        stats: the transport trace.
        cycles: total cycles (sync) or adversary rounds (async synchronized
            schedules); ``None`` for event-driven async schedules where
            "cycle" has no meaning.
        halt_times: cycle at which each processor halted (sync runs).
        events: the recorded stream when the run was executed with
            recording on (``RunSpec.record``) — a
            :class:`repro.obs.events.EventLog`, a read-only sequence of
            :class:`~repro.obs.events.Event` records stored as int32
            columns; ``None`` otherwise.
    """

    outputs: Tuple[Any, ...]
    stats: TraceStats
    cycles: Optional[int] = None
    halt_times: Optional[Tuple[int, ...]] = None
    events: Optional["EventLog"] = None

    @property
    def n(self) -> int:
        """Number of processors."""
        return len(self.outputs)

    def unanimous_output(self) -> Any:
        """The common output of all processors.

        Raises:
            OutputDisagreement: some pair of processors disagrees.  (A
                dedicated error rather than ``assert`` so the check
                survives ``python -O`` and carries the outputs tuple.)
        """
        first = self.outputs[0]
        if any(out != first for out in self.outputs[1:]):
            raise OutputDisagreement(self.outputs)
        return first
