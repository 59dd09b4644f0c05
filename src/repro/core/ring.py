"""Ring configurations: the §2 machine model's static part.

A :class:`RingConfiguration` captures everything the paper calls the
*initial ring configuration* ``R``: the ring size ``n``, the input value
``I(i)`` of each processor, and the orientation bit ``D(i)`` saying which
physical neighbor processor ``i`` calls *right* (``D(i) = 1`` means
``right(i) = i+1``; indices are always modulo ``n``).

Processor indices exist only at this transport/bookkeeping level.  The
algorithms in :mod:`repro.algorithms` never see them — that is what makes
the ring *anonymous*.
"""

from __future__ import annotations

import random as _random
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, Sequence, Tuple

from .errors import ConfigurationError
from .message import Port
from .strings import parse_binary, to_binary

#: A k-neighborhood: ``2k+1`` pairs ``(relative orientation bit, input)``
#: read in the processor's own left-to-right order (§2).
Neighborhood = Tuple[Tuple[int, Any], ...]


@dataclass(frozen=True)
class RingConfiguration:
    """An initial ring configuration ``R = ⟨D(0), I(0), …, D(n−1), I(n−1)⟩``.

    Immutable; all "modifications" return new configurations.

    Attributes:
        inputs: ``I(i)`` for each processor, any hashable values.
        orientations: ``D(i) ∈ {0, 1}`` for each processor, as the ints
            ``0`` and ``1``: ``True`` or ``1.0`` would build a ring equal
            to its int twin whose JSON wire form, and so whose run-spec
            digest, differs.
    """

    inputs: Tuple[Any, ...]
    orientations: Tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.orientations):
            raise ConfigurationError(
                f"{len(self.inputs)} inputs but {len(self.orientations)} orientations"
            )
        if not self.inputs:
            raise ConfigurationError("a ring needs at least one processor")
        for bit in self.orientations:
            if type(bit) is not int or bit not in (0, 1):
                raise ConfigurationError(
                    f"orientation bits must be the ints 0 or 1, got {bit!r}"
                )

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @staticmethod
    def oriented(inputs: Sequence[Any]) -> "RingConfiguration":
        """A clockwise-oriented ring: every processor has ``right(i) = i+1``."""
        inputs = tuple(inputs)
        return RingConfiguration(inputs, (1,) * len(inputs))

    @staticmethod
    def counterclockwise(inputs: Sequence[Any]) -> "RingConfiguration":
        """A counterclockwise-oriented ring: ``right(i) = i−1`` everywhere."""
        inputs = tuple(inputs)
        return RingConfiguration(inputs, (0,) * len(inputs))

    @staticmethod
    def alternating(inputs: Sequence[Any], first: int = 1) -> "RingConfiguration":
        """A ring whose orientation alternates processor by processor.

        Only sensible for even ``n`` (an odd alternating ring is inconsistent
        as a *global* pattern but still a legal configuration).  Alternating
        orientation is the second legal outcome of quasi-orientation
        (§4.2.2).
        """
        inputs = tuple(inputs)
        bits = tuple((first + i) % 2 for i in range(len(inputs)))
        return RingConfiguration(inputs, bits)

    @staticmethod
    def from_string(
        input_bits: str, orientation_bits: Optional[str] = None
    ) -> "RingConfiguration":
        """Build from binary strings, e.g. ``from_string("1101", "1111")``.

        With no orientation string the ring is clockwise oriented.
        """
        inputs = parse_binary(input_bits)
        if orientation_bits is None:
            return RingConfiguration.oriented(inputs)
        if len(orientation_bits) != len(input_bits):
            raise ConfigurationError("input and orientation strings differ in length")
        return RingConfiguration(inputs, parse_binary(orientation_bits))

    @staticmethod
    def two_half_rings(half: int, inputs: Optional[Sequence[Any]] = None) -> "RingConfiguration":
        """The Figure 1 configuration: two oppositely oriented half rings.

        ``2·half`` processors; the first ``half`` are clockwise oriented and
        the remaining ``half`` counterclockwise.  This is the configuration
        behind Theorem 3.5 (even rings cannot be oriented): processor ``i``
        and processor ``2·half − 1 − i`` have identical neighborhoods but
        opposite orientations.
        """
        if half < 1:
            raise ConfigurationError("half must be at least 1")
        n = 2 * half
        if inputs is None:
            inputs = (0,) * n
        inputs = tuple(inputs)
        if len(inputs) != n:
            raise ConfigurationError(f"expected {n} inputs, got {len(inputs)}")
        bits = (1,) * half + (0,) * half
        return RingConfiguration(inputs, bits)

    @staticmethod
    def half_reversed(n: int, inputs: Optional[Sequence[Any]] = None) -> "RingConfiguration":
        """The Figure 6 configuration on odd ``n = 2m+1``.

        Processors ``0 … m−1`` are clockwise oriented; processors
        ``m … 2m`` are reversed.  Together with the fully clockwise ring it
        forms the fooling pair of Theorem 5.3 (asynchronous orientation
        needs ``Ω(n²)`` messages).
        """
        if n < 3 or n % 2 == 0:
            raise ConfigurationError("half_reversed needs odd n >= 3")
        m = n // 2
        if inputs is None:
            inputs = (0,) * n
        inputs = tuple(inputs)
        if len(inputs) != n:
            raise ConfigurationError(f"expected {n} inputs, got {len(inputs)}")
        bits = (1,) * m + (0,) * (n - m)
        return RingConfiguration(inputs, bits)

    @staticmethod
    def random(
        n: int,
        rng: Optional[_random.Random] = None,
        oriented: bool = False,
        input_values: Sequence[Any] = (0, 1),
    ) -> "RingConfiguration":
        """A uniformly random configuration, for randomized testing."""
        if n < 1:
            raise ConfigurationError("n must be positive")
        rng = rng or _random.Random()
        inputs = tuple(rng.choice(tuple(input_values)) for _ in range(n))
        if oriented:
            return RingConfiguration.oriented(inputs)
        bits = tuple(rng.randrange(2) for _ in range(n))
        return RingConfiguration(inputs, bits)

    # ------------------------------------------------------------------
    # Basic geometry
    # ------------------------------------------------------------------

    @property
    def n(self) -> int:
        """Ring size."""
        return len(self.inputs)

    def __len__(self) -> int:
        return len(self.inputs)

    def input_of(self, i: int) -> Any:
        """``I(i)`` with the index taken modulo ``n``."""
        return self.inputs[i % self.n]

    def orientation_of(self, i: int) -> int:
        """``D(i)`` with the index taken modulo ``n``."""
        return self.orientations[i % self.n]

    def right_of(self, i: int) -> int:
        """Physical index of the processor ``i`` calls its *right* neighbor."""
        i %= self.n
        return (i + 1) % self.n if self.orientations[i] == 1 else (i - 1) % self.n

    def left_of(self, i: int) -> int:
        """Physical index of the processor ``i`` calls its *left* neighbor."""
        i %= self.n
        return (i - 1) % self.n if self.orientations[i] == 1 else (i + 1) % self.n

    def neighbor(self, i: int, port: Port) -> int:
        """The physical neighbor out the given port of processor ``i``."""
        return self.right_of(i) if port is Port.RIGHT else self.left_of(i)

    def route(self, sender: int, out_port: Port) -> Tuple[int, Port, int]:
        """Full routing of a send: ``(receiver, receiver's port, physical step)``.

        The physical step is +1 when the message travels in increasing-index
        direction.  With ``n == 2`` each processor has both neighbors equal;
        the two channels are still distinct and are disambiguated by the
        physical direction the sender's port maps to.
        """
        sender %= self.n
        # Physical direction of travel: the sender's RIGHT port faces +1
        # iff D(sender) == 1.
        step = +1 if (out_port is Port.RIGHT) == (self.orientations[sender] == 1) else -1
        receiver = (sender + step) % self.n
        # The receiver's port facing physical direction -step (back at the
        # sender): its RIGHT port faces +1 iff D(receiver) == 1.
        faces_plus = Port.RIGHT if self.orientations[receiver] == 1 else Port.LEFT
        in_port = faces_plus.opposite if step == +1 else faces_plus
        return receiver, in_port, step

    def arrival_port(self, sender: int, out_port: Port) -> Tuple[int, Port]:
        """Where a message sent by ``sender`` out ``out_port`` lands.

        Returns ``(receiver index, receiver's port)``; see :meth:`route`.
        """
        receiver, in_port, _ = self.route(sender, out_port)
        return receiver, in_port

    # ------------------------------------------------------------------
    # Predicates
    # ------------------------------------------------------------------

    @property
    def is_clockwise(self) -> bool:
        """All processors oriented with ``right(i) = i+1``."""
        return all(bit == 1 for bit in self.orientations)

    @property
    def is_counterclockwise(self) -> bool:
        """All processors oriented with ``right(i) = i−1``."""
        return all(bit == 0 for bit in self.orientations)

    @property
    def is_oriented(self) -> bool:
        """Ring-wide consistent orientation (clockwise or counterclockwise)."""
        return self.is_clockwise or self.is_counterclockwise

    @property
    def is_alternating(self) -> bool:
        """Successive processors have opposite orientations (needs even n)."""
        if self.n % 2 == 1:
            return False
        return all(
            self.orientations[i] != self.orientations[(i + 1) % self.n]
            for i in range(self.n)
        )

    @property
    def is_quasi_oriented(self) -> bool:
        """Oriented or alternating — the §4.2.2 target."""
        return self.is_oriented or self.is_alternating

    # ------------------------------------------------------------------
    # Neighborhoods (§2)
    # ------------------------------------------------------------------

    def neighborhood(self, i: int, k: int) -> Neighborhood:
        """The k-neighborhood of processor ``i``.

        ``2k+1`` pairs ``(relative orientation, input)`` read in processor
        ``i``'s own left-to-right order.  If ``D(i) = 1`` this is
        ``(D(i−k), I(i−k)), …, (D(i+k), I(i+k))``; if ``D(i) = 0`` the pairs
        are read in the reverse index order with complemented orientation
        bits, exactly as defined in §2.  Two processors behave identically
        for ``k`` synchronous cycles iff their k-neighborhoods are equal
        (Lemma 3.1).
        """
        if k < 0:
            raise ValueError("k must be nonnegative")
        i %= self.n
        if self.orientations[i] == 1:
            span = range(i - k, i + k + 1)
            return tuple(
                (self.orientations[j % self.n], self.inputs[j % self.n]) for j in span
            )
        span = range(i + k, i - k - 1, -1)
        return tuple(
            (1 - self.orientations[j % self.n], self.inputs[j % self.n]) for j in span
        )

    def neighborhoods(self, k: int) -> Iterator[Neighborhood]:
        """The k-neighborhood of every processor, in index order."""
        for i in range(self.n):
            yield self.neighborhood(i, k)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------

    def rotated(self, shift: int) -> "RingConfiguration":
        """The same ring with processor names shifted by ``shift``.

        Processor ``i`` of the result is processor ``i + shift`` of the
        original.  A computable function must produce the same output ring
        up to the matching renaming (Theorem 3.4(i)).
        """
        shift %= self.n
        return RingConfiguration(
            self.inputs[shift:] + self.inputs[:shift],
            self.orientations[shift:] + self.orientations[:shift],
        )

    def reflected(self) -> "RingConfiguration":
        """The mirror image of the ring.

        Reverses processor order and flips every orientation bit: a physical
        reflection swaps the +1 and −1 directions, so a processor whose
        right pointed at ``i+1`` now has it pointing at ``i−1``.
        Theorem 3.4(ii): on nonoriented rings computable functions must be
        invariant under this too.
        """
        return RingConfiguration(
            self.inputs[::-1],
            tuple(1 - bit for bit in self.orientations[::-1]),
        )

    def with_inputs(self, inputs: Sequence[Any]) -> "RingConfiguration":
        """Same orientations, new inputs."""
        inputs = tuple(inputs)
        if len(inputs) != self.n:
            raise ConfigurationError(f"expected {self.n} inputs, got {len(inputs)}")
        return RingConfiguration(inputs, self.orientations)

    def with_orientations(self, orientations: Sequence[int]) -> "RingConfiguration":
        """Same inputs, new orientations."""
        orientations = tuple(orientations)
        if len(orientations) != self.n:
            raise ConfigurationError(
                f"expected {self.n} orientation bits, got {len(orientations)}"
            )
        return RingConfiguration(self.inputs, orientations)

    def apply_switches(self, switches: Sequence[int]) -> "RingConfiguration":
        """Flip the orientation of every processor whose switch bit is 1.

        This is how an orientation algorithm's output acts on the ring: the
        problem (§2) asks for Boolean outputs such that switching the
        flagged processors leaves the ring oriented.
        """
        switches = tuple(switches)
        if len(switches) != self.n:
            raise ConfigurationError(f"expected {self.n} switch bits, got {len(switches)}")
        if any(bit not in (0, 1) for bit in switches):
            raise ConfigurationError("switch bits must be 0 or 1")
        new_bits = tuple(
            d ^ s for d, s in zip(self.orientations, switches)
        )
        return RingConfiguration(self.inputs, new_bits)

    # ------------------------------------------------------------------
    # String views (binary rings)
    # ------------------------------------------------------------------

    def input_string(self) -> str:
        """Inputs as a binary string (requires 0/1 inputs)."""
        return to_binary(self.inputs)

    def orientation_string(self) -> str:
        """Orientation bits as a binary string."""
        return to_binary(self.orientations)

    def describe(self) -> str:
        """Human-readable one-line description."""
        try:
            body = f"I={self.input_string()} D={self.orientation_string()}"
        except ValueError:
            body = f"I={self.inputs!r} D={self.orientation_string()}"
        return f"Ring(n={self.n}, {body})"


def make_ring(
    n: int,
    input_fn: Callable[[int], Any],
    orientation_fn: Optional[Callable[[int], int]] = None,
) -> RingConfiguration:
    """Functional constructor: ``I(i) = input_fn(i)``, ``D(i) = orientation_fn(i)``.

    With no orientation function the ring is clockwise oriented.
    """
    inputs = tuple(input_fn(i) for i in range(n))
    if orientation_fn is None:
        return RingConfiguration.oriented(inputs)
    return RingConfiguration(inputs, tuple(orientation_fn(i) for i in range(n)))
