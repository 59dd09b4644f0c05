"""History-tree counting in anonymous dynamic networks (ROADMAP item 3).

A reproduction, at reduced constants, of the Di Luna–Viglietta program
(arXiv:2204.02128): anonymous processors on an adversarially rewired
1-interval-connected network — here the dynamic rings and paths of
:mod:`repro.topology.dynamic` — count themselves in a linear number of
rounds, anchored by a single distinguished *leader* (input truthy; every
other input falsy).

Every round each processor broadcasts its **history tree** on both ports.
A node's class at level ``t`` is the anonymity type of its ``t``-round
history: two nodes share it iff level ``t − 1`` classes and the multisets
of neighbor classes they observed at round ``t`` coincide.  The tree a
node carries is the union of everything it has heard — by 1-interval
connectivity a class reaches every node within ``n − 1`` rounds of being
created, so the leader's tree is complete at any level ``n − 1`` rounds
old.

Counting is solving for class cardinalities.  Writing ``x_A`` for the
number of nodes in class ``A``, three families of integer equations hold:

* *anchor* — the leader's own chain has ``x = 1`` at every level;
* *partition* — a class is the disjoint union of its children:
  ``x_X = Σ x_A`` over the children ``A`` of ``X``;
* *red edges* — messages are conserved: for classes ``X ≠ Y`` at level
  ``t − 1``, the ``X``-nodes heard exactly as many ``Y``-messages at
  round ``t`` as ``Y``-nodes heard ``X``-messages, i.e.
  ``Σ_{A: parent=X} x_A·m_A[Y] = Σ_{B: parent=Y} x_B·m_B[X]`` where
  ``m_A[Y]`` is ``A``'s observation multiplicity of ``Y``.

These equations are exact only on *complete* levels, and the leader
cannot tell a complete level from the count it is trying to learn: the
``n − 1``-rounds-old rule needs ``n``.  So each round the leader first
proves a level complete.  It derives upper bounds on class sizes that
hold however much of the tree it is still missing (the leader chain has
one member; a class holds at most its parent's members; with two ports
per processor, a class hears at most twice its sender class's members);
where the bounds of level ``ℓ``'s classes sum to ``H`` and the current
round is at least ``ℓ + H``, level ``ℓ`` is complete (see
:func:`_try_accept`).  The equations of levels ``<= ℓ`` are then solved
by propagation (every equation left with a single unknown), and when
they pin down level ``ℓ`` its total is ``n``.  The leader floods a
termination token ``(n, t_end)`` with ``t_end = now + n``: relays reach
everyone within ``n − 1`` rounds, and *all* processors halt at round
``t_end`` outputting ``n``.

Where Di Luna–Viglietta prove termination in ``3n − 2`` rounds on any
1-interval-connected network, this implementation relies on the two
ports of the ring model for its completeness proof; measured rounds stay
within ``3n`` on the dynamic rings and paths (asserted by
``BENCH_dynamic.json``), the message size polynomial.
The algorithm never reads ``self.n`` — the ring size is genuinely
computed, not assumed.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError, ProtocolError
from ..sync.process import Out, SyncProcess

#: Ports per processor: each round a processor hears at most this many
#: messages, which bounds how many members of one class a class can hear.
_PORTS = 2


class _Store:
    """A process's interned history tree.

    Classes are stored once each and addressed by small local ids;
    identity is structural — ``(level, parent id, observation multiset)``
    — so decoding a peer's tree into this store unifies shared history
    automatically.  The wire format indexes classes positionally per
    level, which keeps payloads self-contained and intern order (and
    with it the whole run) independent of ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self.defs: List[Tuple[Any, ...]] = []  # id -> (level, parent, obs) | (0, tag)
        self.levels: List[List[int]] = []  # level -> ids, discovery order
        self.slot: List[int] = []  # id -> index within its level
        self._index: Dict[Tuple[Any, ...], int] = {}

    def _add(self, level: int, key: Tuple[Any, ...]) -> int:
        cid = self._index.get(key)
        if cid is not None:
            return cid
        cid = len(self.defs)
        self.defs.append(key)
        self._index[key] = cid
        if level == len(self.levels):
            self.levels.append([])
        self.slot.append(len(self.levels[level]))
        self.levels[level].append(cid)
        return cid

    def intern0(self, tag: Any) -> int:
        """The level-0 class of a node labeled ``tag`` (leader flag)."""
        return self._add(0, (0, tag))

    def intern(self, level: int, parent: int, obs: Tuple[Tuple[int, int], ...]) -> int:
        """The class at ``level`` with the given parent and observations."""
        return self._add(level, (level, parent, obs))

    def encode(self) -> Tuple[Tuple[Any, ...], ...]:
        """The whole tree, one tuple per level, classes as slot indices."""
        out = []
        for level, ids in enumerate(self.levels):
            if level == 0:
                out.append(tuple(self.defs[cid][1] for cid in ids))
                continue
            row = []
            for cid in ids:
                _, parent, obs = self.defs[cid]
                row.append(
                    (
                        self.slot[parent],
                        tuple((self.slot[c], m) for c, m in obs),
                    )
                )
            out.append(tuple(row))
        return tuple(out)

    def decode(self, payload: Tuple[Tuple[Any, ...], ...]) -> List[List[int]]:
        """Merge a peer's encoded tree; returns its slot→id map per level."""
        maps: List[List[int]] = []
        for level, row in enumerate(payload):
            if level == 0:
                maps.append([self.intern0(tag) for tag in row])
                continue
            prev = maps[level - 1]
            ids = []
            for parent_slot, obs in row:
                mapped = sorted((prev[c], m) for c, m in obs)
                ids.append(self.intern(level, prev[parent_slot], tuple(mapped)))
            maps.append(ids)
        return maps


def _children(store: _Store, top: int) -> Dict[int, List[int]]:
    """Known children of every class, over levels ``<= top``."""
    kids: Dict[int, List[int]] = {}
    for level in range(1, min(top, len(store.levels) - 1) + 1):
        for cid in store.levels[level]:
            kids.setdefault(store.defs[cid][1], []).append(cid)
    return kids


def _propagate(
    store: _Store, chain: List[int], max_level: int
) -> Optional[Dict[int, int]]:
    """Pin class sizes by constraint propagation over levels ``<= max_level``.

    Solves, to a fixpoint, every anchor/partition/red-edge equation that
    is down to a single unknown.  Only sound on complete levels, where
    the equations are exact; any inconsistency — a non-positive,
    non-integer, or contradictory deduction — returns ``None``.
    """
    # Equations as ((coef, var), ...) asserting sum(coef * x_var) == 0,
    # built fresh each attempt so no stale deduction survives.
    equations: List[List[Tuple[int, int]]] = []
    pair_terms: Dict[Tuple[int, int], List[Tuple[int, int]]] = {}
    for level in range(1, min(max_level, len(store.levels) - 1) + 1):
        for cid in store.levels[level]:
            _, parent, obs = store.defs[cid]
            for other, mult in obs:
                if other == parent:
                    continue
                key = (parent, other) if parent < other else (other, parent)
                sign = 1 if parent < other else -1
                pair_terms.setdefault(key, []).append((sign * mult, cid))
    for parent, kids in _children(store, max_level).items():
        equations.append([(-1, parent)] + [(1, kid) for kid in kids])
    equations.extend(pair_terms.values())

    sizes: Dict[int, int] = {}
    for level, cid in enumerate(chain):
        if level > max_level:
            break
        sizes[cid] = 1

    progress = True
    while progress:
        progress = False
        for eq in equations:
            total = 0
            unknown: Optional[Tuple[int, int]] = None
            dead = False
            for coef, var in eq:
                value = sizes.get(var)
                if value is None:
                    if unknown is not None:
                        dead = True
                        break
                    unknown = (coef, var)
                else:
                    total += coef * value
            if dead:
                continue
            if unknown is None:
                if total != 0:
                    return None
                continue
            coef, var = unknown
            if total % coef != 0 or -total // coef < 1:
                return None
            sizes[var] = -total // coef
            progress = True
    return sizes


def _upper_bounds(store: _Store, chain: List[int], top: int) -> Dict[int, int]:
    """Certified upper bounds on class sizes, sound on an incomplete view.

    Unlike :func:`_propagate`, every deduction here holds for the true
    sizes whatever classes the view is still missing:

    * a leader-chain class has exactly one member;
    * a class holds at most its parent's members, less a known lower
      bound on each known sibling;
    * with two ports per processor, the ``X``-members heard ``Y`` at
      most ``2·hi(X)`` times in a round, less the ports of certain
      members of known ``X``-children that heard something else; the
      ``Y``-members heard ``X`` exactly as often (a red edge,
      ``X ≠ Y``), so a known ``Y``-child that heard ``X`` holds at most
      that many, less what its known siblings certainly heard from ``X``,
      divided by its own multiplicity.

    Lower bounds are one per class and, for a parent, the sum over its
    known children.  Classes without a bound are absent from the result.
    """
    kids = _children(store, top)
    # Lower bounds depend only on the levels above, upper bounds only on
    # the level below and on lower bounds: one pass each way suffices.
    lo: Dict[int, int] = {}
    for level in range(top, -1, -1):
        for cid in store.levels[level]:
            lo[cid] = max(1, sum(lo[kid] for kid in kids.get(cid, ())))
    hi: Dict[int, int] = {cid: 1 for cid in chain[: top + 1]}
    for level in range(1, top + 1):
        for cid in store.levels[level]:
            _, parent, obs = store.defs[cid]
            siblings = [kid for kid in kids[parent] if kid != cid]
            bounds = [hi[cid]] if cid in hi else []
            if parent in hi:
                bounds.append(hi[parent] - sum(lo[kid] for kid in siblings))
            for other, mult in obs:
                if other == parent or other not in hi:
                    continue
                sent = _PORTS * hi[other] - sum(
                    lo[kid] * (_PORTS - _heard(store, kid, parent))
                    for kid in kids.get(other, ())
                )
                sent -= sum(lo[kid] * _heard(store, kid, other) for kid in siblings)
                bounds.append(sent // mult)
            if bounds:
                hi[cid] = min(bounds)
    return hi


def _heard(store: _Store, cid: int, other: int) -> int:
    """How many messages each member of class ``cid`` heard from ``other``."""
    for observed, mult in store.defs[cid][2]:
        if observed == other:
            return mult
    return 0


def _try_accept(store: _Store, chain: List[int], top: int) -> Optional[int]:
    """The leader's acceptance test at round ``top``; the count or ``None``.

    Every class at level ``ℓ`` that the leader knows stands for all its
    members, so the view covers ``m(ℓ)`` processors there, and
    ``m(ℓ − 1) > m(ℓ)`` while level ``ℓ`` still misses someone (each
    round's graph is connected, so a covered processor heard an uncovered
    one, whose previous class it recorded).  The leader's own class
    covers it at level ``top``, hence an incomplete level ``ℓ`` has
    ``m(ℓ) ≥ top − ℓ + 1``.  If the certified upper bounds of level
    ``ℓ``'s classes sum to ``H`` with ``top ≥ ℓ + H``, then
    ``m(ℓ) ≤ H < top − ℓ + 1`` and level ``ℓ`` is complete: its
    equations are exact, and the sizes they pin down add up to ``n``.
    No candidate is trusted before its level is proven complete, so no
    count below ``n`` can be accepted.
    """
    hi = _upper_bounds(store, chain, top)
    for level in range(top, -1, -1):
        ids = store.levels[level]
        if any(cid not in hi for cid in ids):
            continue
        if top < level + sum(hi[cid] for cid in ids):
            continue
        sizes = _propagate(store, chain, level)
        if sizes is not None and all(cid in sizes for cid in ids):
            return sum(sizes[cid] for cid in ids)
    return None


class DynamicCounting(SyncProcess):
    """One processor of the history-tree counting algorithm.

    Requires exactly one leader (truthy input) and a simultaneous start;
    runs on any of this repo's topologies — the adversarial dynamic
    ring/path is the intended one, the static ring a special case.
    """

    def __init__(self, input_value: Any, n: int) -> None:
        super().__init__(input_value, n)
        if n < 1:
            raise ConfigurationError("counting needs n >= 1")

    def run(self):
        store = _Store()
        chain = [store.intern0(1 if self.input else 0)]
        leader = bool(self.input)
        done: Optional[Tuple[int, int]] = None  # (count, halt round)
        cycle = 0
        while True:
            if done is not None:
                count, t_end = done
                if cycle >= t_end:
                    return count
                payload: Any = ("D", count, t_end)
            else:
                payload = ("T", store.encode(), tuple(store.slot[c] for c in chain))
            received = yield Out(left=payload, right=payload)
            cycle += 1
            tops: List[int] = []
            for _port, message in received.items():
                if message[0] == "D":
                    if done is None:
                        done = (message[1], message[2])
                elif done is None:
                    maps = store.decode(message[1])
                    their_chain = message[2]
                    if len(their_chain) != len(chain):
                        raise ProtocolError(
                            "history chains out of step; dynamic counting "
                            "needs a simultaneous start"
                        )
                    tops.append(maps[len(their_chain) - 1][their_chain[-1]])
            if done is not None:
                if cycle >= done[1]:
                    return done[0]
                continue
            counts: Dict[int, int] = {}
            for top_id in tops:
                counts[top_id] = counts.get(top_id, 0) + 1
            obs = tuple(sorted(counts.items()))
            chain.append(store.intern(len(chain), chain[-1], obs))
            if leader:
                accepted = _try_accept(store, chain, len(chain) - 1)
                if accepted is not None:
                    done = (accepted, cycle + accepted)
