"""Round-synchronized Chang–Roberts leader election (labeled baseline).

The asynchronous baselines in :mod:`repro.algorithms.leader_election`
are what the paper's anonymous algorithms are measured against; this is
the same unidirectional max-election recast for the synchronous engine,
so labeled-election sweeps can ride the lockstep clock (and the
vectorized batch engine — see :class:`repro.batch.election.\
ChangRobertsSyncBatch`).

One cycle is one hop.  Every processor launches its label rightward at
cycle 0; a relay forwards only candidacies larger than its own label and
swallows the rest; a processor that sees its own label return has
circumnavigated unbeaten and announces leadership, and the announcement
makes one final trip around the ring halting everyone with the winner's
label.  Labels decreasing along the travel direction still cost
``O(n²)`` messages — worst/best cases are the async module's
``worst_case_labels`` / ``best_case_labels`` — but time is always
``≤ 2n + 1`` cycles, the synchrony dividend.

Labels must be distinct for a unique leader; equal maxima are tolerated
deterministically (each maximal processor adopts the first maximal
candidacy that reaches it, which on a ring yields a consistent, if
plural, announcement wave — both engines agree byte-for-byte, which is
all the equivalence contract asks).
"""

from __future__ import annotations

from typing import Any

from ..core.errors import ConfigurationError, ProtocolError
from ..core.message import Port
from ..sync.process import Out, SyncProcess

#: Message tags (the wire format is ``(tag, label)``).
_CAND = 0
_ANNOUNCE = 1


class ChangRobertsSync(SyncProcess):
    """One processor of the synchronous Chang–Roberts election.

    Labels are nonnegative ints below ``2**30`` (the bound keeps the
    batch engine's packed ``(label << 1) | tag`` encoding inside int32;
    any real label sweep is far below it).
    """

    def __init__(self, input_value: Any, n: int) -> None:
        super().__init__(input_value, n)
        if n < 2:
            raise ConfigurationError("chang-roberts-sync needs n >= 2")
        if not isinstance(input_value, int) or isinstance(input_value, bool):
            raise ConfigurationError(
                f"chang-roberts-sync labels must be integers, got {input_value!r}"
            )
        if not 0 <= input_value < 2**30:
            raise ConfigurationError(
                f"chang-roberts-sync labels must be in [0, 2**30), "
                f"got {input_value!r}"
            )

    def run(self):
        label = self.input
        pending = Out(right=(_CAND, label))
        # A candidacy takes ≤ n hops to return, the announcement ≤ n more
        # to halt the farthest relay; one hop per cycle.
        for _cycle in range(2 * self.n + 1):
            got = yield pending
            pending = Out()
            if not got.any():
                continue
            port, payload = got.items()[0]
            if port is not Port.LEFT or got.count() != 1:
                raise ProtocolError(f"unexpected arrival: {got!r}")
            tag, value = payload
            if tag == _ANNOUNCE:
                yield Out(right=payload)
                return value
            if value == label:
                # Own candidacy survived the full circle: announce.
                yield Out(right=(_ANNOUNCE, label))
                return label
            if value > label:
                pending.right = payload
            # smaller labels are swallowed
        raise ProtocolError("no leader emerged")


def message_bound(n: int) -> int:
    """Worst-case message bound ``n(n+1)/2 + 2n`` (candidacies + announce)."""
    return n * (n + 1) // 2 + 2 * n
