"""Ring views — what a processor knows after input distribution.

The input-distribution problem (§4.1) asks each processor to learn the
input value and orientation of every processor *relative to its own
position and orientation*.  A :class:`RingView` is that knowledge: entry
``d`` describes the processor at distance ``d`` in the viewer's own
*right* direction, as a pair ``(relative orientation, input)`` where
relative orientation 1 means "oriented the same way as me".

Views are the universal output type: Theorem 3.4 says a function is
computable iff it is determined by such a view (invariance under rotation,
and under reflection for nonoriented rings), so every computable problem
reduces to "build your view, then evaluate locally".

Pairs are shared canonical tuples.  Input distribution returns n views of
n pairs, but a binary ring has only a few distinct pairs, so the
constructor swaps each pair whose input is a bool or a small int for one
module-level tuple of the same types and values.  Pickle's memo follows
identity, so a result then pickles each distinct pair once, and which
pairs share depends only on the values: equal results pickle to equal
bytes whatever the process built before them.  Pair identity is not API,
and input types are preserved: ``(1, True)``, ``(1, 1)`` and ``(1, 1.0)``
stay three pairs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Tuple

from .errors import ConfigurationError
from .ring import RingConfiguration

#: Every pair of an int orientation and a bool or an int input in
#: CPython's small-int range (528 pairs), keyed by the type and the value
#: of both elements: a value key would merge ``(1, True)`` into
#: ``(1, 1)``.  Fixed at import, so any other pair stays as given.
_SHARED_PAIRS = {
    (type(rel), rel, type(value), value): (rel, value)
    for rel in (0, 1)
    for value in (*range(-5, 257), False, True)
}


@dataclass(frozen=True)
class RingView:
    """One processor's complete relative picture of the ring.

    Attributes:
        entries: ``entries[d]`` for ``d = 0 … n−1`` is
            ``(relative orientation, input)`` of the processor at distance
            ``d`` in the viewer's right direction.  ``entries[0]`` is the
            viewer itself, with relative orientation 1 by definition.
    """

    entries: Tuple[Tuple[int, Any], ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ConfigurationError("a view needs at least the viewer itself")
        if self.entries[0][0] != 1:
            raise ConfigurationError("the viewer is oriented like itself")
        # One pass validates each orientation and swaps in the shared pair.
        shared = _SHARED_PAIRS.get
        entries = []
        append = entries.append
        for pair in self.entries:
            rel, value = pair
            if rel != 0 and rel != 1:
                raise ConfigurationError("relative orientations must be 0 or 1")
            append(shared((type(rel), rel, type(value), value), pair))
        object.__setattr__(self, "entries", tuple(entries))

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Ring size."""
        return len(self.entries)

    @property
    def own_input(self) -> Any:
        """The viewer's own input value."""
        return self.entries[0][1]

    def input_at(self, d: int) -> Any:
        """Input of the processor ``d`` steps to the viewer's right."""
        return self.entries[d % self.n][1]

    def relative_orientation_at(self, d: int) -> int:
        """1 if the processor ``d`` steps right is oriented like the viewer."""
        return self.entries[d % self.n][0]

    def inputs_rightward(self) -> Tuple[Any, ...]:
        """All inputs starting at the viewer, going in its right direction."""
        return tuple(inp for _, inp in self.entries)

    def inputs_leftward(self) -> Tuple[Any, ...]:
        """All inputs starting at the viewer, going in its left direction."""
        rightward = self.inputs_rightward()
        return (rightward[0],) + tuple(reversed(rightward[1:]))

    # ------------------------------------------------------------------
    @staticmethod
    def from_configuration(config: RingConfiguration, i: int) -> "RingView":
        """Ground-truth view of processor ``i`` — the oracle an algorithm must match."""
        n = config.n
        i %= n
        own = config.orientations[i]
        step = +1 if own == 1 else -1  # physical direction of i's "right"
        entries = []
        for d in range(n):
            j = (i + step * d) % n
            rel = 1 if config.orientations[j] == own else 0
            entries.append((rel, config.inputs[j]))
        return RingView(tuple(entries))

    def as_configuration(self) -> RingConfiguration:
        """The ring as a configuration in the viewer's frame.

        The viewer becomes processor 0 with ``D(0) = 1`` (its right is the
        +1 direction by construction), and every other processor's
        orientation bit is its orientation relative to the viewer's.
        """
        return RingConfiguration(
            tuple(inp for _, inp in self.entries),
            tuple(rel for rel, _ in self.entries),
        )

    def rotated_to(self, d: int) -> "RingView":
        """The view the processor at distance ``d`` (viewer's right) would have,
        assuming it were oriented like the viewer.

        Used by consistency checks: real views of same-oriented processors
        are exact rotations of each other.
        """
        n = self.n
        shifted = tuple(self.entries[(d + j) % n] for j in range(n))
        return RingView(shifted)

    def consistent_with(self, other: "RingView") -> bool:
        """Whether two views can describe the same ring.

        True iff ``other`` equals some rotation of this view or of its
        mirror image (the two frames may disagree on handedness).
        """
        if self.n != other.n:
            return False
        candidates = {self._frame_key(d) for d in range(self.n)}
        candidates |= {self._mirror_frame_key(d) for d in range(self.n)}
        return other.entries in candidates

    def _frame_key(self, d: int) -> Tuple[Tuple[int, Any], ...]:
        n = self.n
        rel_d = self.entries[d][0]
        if rel_d == 1:
            return tuple(self.entries[(d + j) % n] for j in range(n))
        return self._mirror_entries(d)

    def _mirror_frame_key(self, d: int) -> Tuple[Tuple[int, Any], ...]:
        rel_d = self.entries[d][0]
        if rel_d == 0:
            return self._mirror_entries(d)
        n = self.n
        return tuple(self.entries[(d + j) % n] for j in range(n))

    def _mirror_entries(self, d: int) -> Tuple[Tuple[int, Any], ...]:
        """The view from position ``d`` for a processor oriented opposite the viewer."""
        n = self.n
        out = []
        for j in range(n):
            rel, inp = self.entries[(d - j) % n]
            out.append((1 - rel, inp))
        return tuple(out)
