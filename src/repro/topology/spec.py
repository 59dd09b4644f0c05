"""``TopologySpec`` — the plain-data description of a dynamic topology.

A :class:`~repro.runtime.spec.RunSpec` stays pure data, so the topology
knob it carries must be pure data too: a frozen, hashable dataclass whose
JSON round trip is exact (it rides the gateway wire format, which the
spec digest hashes).  The
behavioral object — :class:`repro.topology.dynamic.DynamicTopology` — is
built from this description at execution time by :func:`build_topology`.

``topology=None`` on a spec means the static ring of the paper; that case
never reaches this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from ..core.errors import ConfigurationError

#: Topology kinds resolvable by :func:`build_topology`.
TOPOLOGY_KINDS = ("dynamic-ring",)


@dataclass(frozen=True)
class TopologySpec:
    """Seeded per-round churn over 1-interval-connected 2-port graphs.

    Attributes:
        kind: only ``"dynamic-ring"`` for now — each round the adversary
            arranges the ``n`` processors on a fresh Hamiltonian cycle
            (or path, see ``path_rate``) with fresh per-round port
            orientations.
        seed: the adversary's seed.  The whole round sequence is a pure
            function of ``(seed, round)``, so runs replay identically in
            any process (the determinism contract of ``docs/runtime.md``).
        churn: probability, per round, that the adversary redraws the
            arrangement; with probability ``1 - churn`` it keeps the
            previous round's graph.  ``1.0`` (the default) is the fully
            adversarial regime of Di Luna–Viglietta.
        path_rate: probability that a redrawn round is a Hamiltonian
            *path* instead of a cycle — one ring edge is cut, leaving the
            two endpoint processors with a dangling port for the round.
            Still 1-interval-connected.
    """

    kind: str
    seed: int
    churn: float = 1.0
    path_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in TOPOLOGY_KINDS:
            raise ConfigurationError(
                f"unknown topology kind {self.kind!r}; choose from {TOPOLOGY_KINDS}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError(
                f"topology seed must be an int, got {self.seed!r} (specs must "
                "be replayable)"
            )
        # Stored as floats: ``churn=1`` and ``churn=1.0`` build equal
        # specs, and equal specs must write one wire form, one digest.
        for name in ("churn", "path_rate"):
            value = getattr(self, name)
            if type(value) not in (int, float):
                raise ConfigurationError(
                    f"topology {name} must be a number, got {value!r}"
                )
            object.__setattr__(self, name, float(value))
        if not 0.0 < self.churn <= 1.0:
            raise ConfigurationError(
                f"topology churn must be in (0, 1], got {self.churn!r} "
                "(churn=0 would be a static graph; use topology=None for "
                "the static ring)"
            )
        if not 0.0 <= self.path_rate <= 1.0:
            raise ConfigurationError(
                f"topology path_rate must be in [0, 1], got {self.path_rate!r}"
            )

    def to_json_dict(self) -> Dict[str, Any]:
        """This topology as plain JSON-able data (gateway wire format)."""
        return {
            "kind": self.kind,
            "seed": self.seed,
            "churn": self.churn,
            "path_rate": self.path_rate,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        """Rebuild a topology from :meth:`to_json_dict` output."""
        if not isinstance(data, Mapping):
            raise ConfigurationError(
                f"spec 'topology' must be a JSON object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"kind", "seed", "churn", "path_rate"})
        if unknown:
            raise ConfigurationError(f"unknown TopologySpec fields {unknown}")
        for required in ("kind", "seed"):
            if required not in data:
                raise ConfigurationError(
                    f"topology is missing the {required!r} field"
                )
        return cls(
            kind=str(data["kind"]),
            seed=data["seed"],
            churn=data.get("churn", 1.0),
            path_rate=data.get("path_rate", 0.0),
        )


def build_topology(n: int, spec: TopologySpec) -> Any:
    """Instantiate the behavioral topology for ``n`` processors."""
    from .dynamic import DynamicTopology, TopologyAdversary

    return DynamicTopology(
        TopologyAdversary(
            n, spec.seed, churn=spec.churn, path_rate=spec.path_rate
        )
    )
