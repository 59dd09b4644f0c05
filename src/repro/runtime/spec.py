"""``RunSpec`` — one declarative, hashable description of a single run.

Every harness in the repo boils down to "run this ring under this engine
with this algorithm and these knobs".  A :class:`RunSpec` captures all of
those knobs as plain data: the engine kind, the
:class:`~repro.core.ring.RingConfiguration`, the algorithm *name* (a
:mod:`repro.runtime.registry` key — never a factory object), scheduler
and fault-adversary coordinates, wake-up schedule, budget, and whether to
keep a full message log.  :func:`execute` is the single dispatcher both
engines sit behind.

Because a spec is frozen, hashable, and picklable, the same object can be
handed to a ``multiprocessing`` worker, replayed later in a process that
never built it, or fingerprinted by :meth:`RunSpec.digest` to key the
on-disk result cache.  The digest is a pure function of the spec's fields
plus the package's code version — it contains no timestamps, hostnames,
or other volatile metadata, so two runs of the same spec on the same code
always share a cache slot (see ``docs/runtime.md`` for the determinism
contract).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Mapping, Optional, Tuple

from ..core.errors import ConfigurationError
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..topology.spec import TopologySpec, build_topology
from .cache import code_version
from .registry import ASYNC, SYNC, algorithm

#: The engine entry points a spec can name.  ``sync-batch`` is the
#: vectorized struct-of-arrays engine (:mod:`repro.batch`): semantically
#: identical to ``sync`` — byte-identical results on every supported
#: algorithm — but runnable many specs at a time.
ENGINES = ("sync", "sync-batch", "async", "async-synchronized")

#: Engines driven by synchronous (generator-coroutine) algorithms.
SYNC_ENGINES = ("sync", "sync-batch")

#: Scheduler names resolvable by :func:`build_scheduler` (async engine).
SCHEDULERS = ("round-robin", "random", "greedy", "bounded-delay")

#: Message modes: ``"plain"`` carries payloads; ``"oblivious"`` strips
#: them at the delivery boundary — only presence (a beep, one bit)
#: crosses the wire (Chalopin et al., content-oblivious computation).
MESSAGE_MODES = ("plain", "oblivious")

#: Fields added after the seed corpus was digested, omitted from
#: :meth:`RunSpec.canonical` at their defaults: every pre-existing
#: static-ring spec keeps its canonical form — and its cache slot.
_OMIT_AT_DEFAULT = {"topology": None, "message_mode": "plain"}


@dataclass(frozen=True)
class RunSpec:
    """Everything needed to reproduce one simulation run, as plain data.

    Attributes:
        engine: ``"sync"``, ``"sync-batch"``, ``"async"``, or
            ``"async-synchronized"``.
        ring: the initial configuration (frozen, hashable).
        algorithm: a :mod:`repro.runtime.registry` entry name whose kind
            must match the engine family.
        params: algorithm parameters as a sorted tuple of ``(key, value)``
            pairs (use :meth:`make` to pass a dict).
        scheduler: async engine only — one of :data:`SCHEDULERS`
            (``None`` means the engine default, round-robin).
        scheduler_seed: seed for the random/bounded-delay schedulers.
            Required when one of those schedulers is named: an omitted
            seed would be drawn from ambient randomness, and ambient
            randomness has no place in a replayable spec.
        delay_bound: fairness bound for ``bounded-delay``.
        fault_profile: async engine only — a
            :data:`repro.asynch.adversary.FAULT_PROFILES` name, or
            ``None`` for a fault-free run.
        fault_seed: seed for the fault injector (required with a profile).
        fault_horizon: event horizon for planting crash times (required
            with a crashing profile; the fuzzer derives it from a
            reference run).
        wakeup: sync engine only — spontaneous wake-up cycles, or
            ``None`` for a simultaneous start.
        budget: cycle budget (sync / async-synchronized) or event budget
            (async); ``None`` means the engine default.
        keep_log: retain the full message log on the result's stats.
        record: attach the typed :mod:`repro.obs` event stream to the
            result (``RunResult.events``) — cycle-stamped for the
            synchronous engines, Lamport-stamped for the general
            asynchronous engine.  Off by default: recording is the one
            spec knob that changes no outputs or counters, only the
            attached stream.
        topology: a :class:`~repro.topology.TopologySpec` for a
            dynamically rewired substrate (engine ``"sync"`` only), or
            ``None`` — the default — for the paper's static ring.  The
            ring still supplies the inputs; a dynamic adversary redraws
            arrangement and port orientations every round.
        message_mode: ``"plain"`` (default) or ``"oblivious"`` —
            content-oblivious delivery, where payloads are stripped at
            the delivery boundary and each message costs one bit (a
            beep).  Any engine but ``sync-batch``.
    """

    engine: str
    ring: RingConfiguration
    algorithm: str
    params: Tuple[Tuple[str, Any], ...] = ()
    scheduler: Optional[str] = None
    scheduler_seed: Optional[int] = None
    delay_bound: int = 8
    fault_profile: Optional[str] = None
    fault_seed: Optional[int] = None
    fault_horizon: Optional[int] = None
    wakeup: Optional[Tuple[int, ...]] = None
    budget: Optional[int] = None
    keep_log: bool = False
    record: bool = False
    topology: Optional[TopologySpec] = None
    message_mode: str = "plain"

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise ConfigurationError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.scheduler is not None:
            if self.engine != "async":
                raise ConfigurationError(
                    f"scheduler {self.scheduler!r} only applies to the async "
                    f"engine, not {self.engine!r}"
                )
            if self.scheduler not in SCHEDULERS:
                raise ConfigurationError(
                    f"unknown scheduler {self.scheduler!r}; choose from {SCHEDULERS}"
                )
            if self.scheduler in ("random", "bounded-delay") and self.scheduler_seed is None:
                raise ConfigurationError(
                    f"scheduler {self.scheduler!r} needs an explicit "
                    "scheduler_seed (specs must be replayable)"
                )
        # Digest canonicality: a knob that cannot influence the run must
        # not be set, or behaviorally identical specs would hash into
        # different cache slots (see docs/runtime.md).
        if self.scheduler_seed is not None and self.scheduler not in (
            "random",
            "bounded-delay",
        ):
            raise ConfigurationError(
                f"scheduler_seed is inert with scheduler {self.scheduler!r} "
                "(only random/bounded-delay draw from it); leave it None"
            )
        if self.delay_bound != 8 and self.scheduler != "bounded-delay":
            raise ConfigurationError(
                f"delay_bound={self.delay_bound} is inert with scheduler "
                f"{self.scheduler!r} (only bounded-delay reads it); leave it "
                "at the default"
            )
        if self.fault_profile is not None:
            if self.engine != "async":
                raise ConfigurationError("fault injection needs the async engine")
            if self.fault_seed is None:
                raise ConfigurationError(
                    "fault_profile needs an explicit fault_seed (specs must "
                    "be replayable)"
                )
        if self.fault_horizon is not None and self.fault_profile is None:
            raise ConfigurationError(
                "fault_horizon is inert without a fault_profile; leave it None"
            )
        if self.wakeup is not None and self.engine not in SYNC_ENGINES:
            raise ConfigurationError(
                "wakeup schedules only apply to the sync engines"
            )
        if self.engine == "sync-batch" and (self.keep_log or self.record):
            raise ConfigurationError(
                "the sync-batch engine supports neither keep_log nor record; "
                "use engine='sync' for logged or recorded runs"
            )
        if self.topology is not None:
            if not isinstance(self.topology, TopologySpec):
                raise ConfigurationError(
                    f"topology must be a TopologySpec, got {self.topology!r}"
                )
            if self.engine != "sync":
                raise ConfigurationError(
                    "dynamic topologies run on the generator engine only "
                    f"(engine='sync'), not {self.engine!r}"
                )
        if self.message_mode not in MESSAGE_MODES:
            raise ConfigurationError(
                f"unknown message_mode {self.message_mode!r}; choose from "
                f"{MESSAGE_MODES}"
            )
        if self.message_mode != "plain" and self.engine == "sync-batch":
            raise ConfigurationError(
                "the sync-batch engine is plain-payload only; run "
                "content-oblivious specs on engine='sync'"
            )
        params = tuple(sorted(self.params))
        keys = [key for key, _ in params]
        if len(set(keys)) != len(keys):
            duplicates = sorted({key for key in keys if keys.count(key) > 1})
            raise ConfigurationError(
                f"duplicate params keys {duplicates}: the digest would "
                "distinguish specs that params_dict collapses to one run"
            )
        object.__setattr__(self, "params", params)

    @classmethod
    def make(
        cls,
        engine: str,
        ring: RingConfiguration,
        algorithm: str,
        params: Optional[Mapping[str, Any]] = None,
        **kwargs: Any,
    ) -> "RunSpec":
        """Convenience constructor accepting ``params`` as a mapping."""
        pairs = tuple(sorted((params or {}).items()))
        return cls(engine=engine, ring=ring, algorithm=algorithm, params=pairs, **kwargs)

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)

    def with_(self, **changes: Any) -> "RunSpec":
        """A copy with some fields replaced (``dataclasses.replace``)."""
        return replace(self, **changes)

    def canonical(self) -> Tuple[Tuple[str, str], ...]:
        """A stable, fully stringified view of every field.

        ``repr`` of the field values is the serialization: inputs are
        ints/strings/tuples whose reprs are stable across processes and
        ``PYTHONHASHSEED`` values.  Volatile context (timestamps, host,
        git state) is deliberately absent — it has no field to live in.
        """
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            # Fields added after the original corpus was digested are
            # omitted at their defaults, so pre-existing specs keep
            # their canonical form — and their cache slots.
            if f.name in _OMIT_AT_DEFAULT and value == _OMIT_AT_DEFAULT[f.name]:
                continue
            if isinstance(value, RingConfiguration):
                value = (value.inputs, value.orientations)
            out.append((f.name, repr(value)))
        return tuple(out)

    def structural_digest(self) -> str:
        """Content address of the spec's fields alone.

        Unlike :meth:`digest` this does not mix in the package's
        :func:`~repro.runtime.cache.code_version`, so it is stable
        across source edits — the invariant the golden-digest regression
        test pins: a refactor that changes any structural digest would
        silently invalidate every cache entry.
        """
        hasher = hashlib.sha256()
        for name, value in self.canonical():
            hasher.update(name.encode())
            hasher.update(b"=")
            hasher.update(value.encode())
            hasher.update(b"\n")
        return hasher.hexdigest()

    def digest(self) -> str:
        """Content address of this spec under the current code version."""
        hasher = hashlib.sha256()
        hasher.update(code_version().encode())
        hasher.update(self.structural_digest().encode())
        return hasher.hexdigest()

    def to_json_dict(self) -> Dict[str, Any]:
        """This spec as plain JSON-able data (the gateway wire format).

        The inverse of :meth:`from_json_dict`: the round trip preserves
        equality and therefore :meth:`digest`.  Ring inputs and params
        values go through a strict tagged encoding (JSON scalars pass
        through, tuples become ``{"__t__": "tuple", "v": [...]}``);
        anything that would not survive the round trip bit-for-bit is
        rejected rather than silently degraded — a spec that decodes to
        a different digest would poison the shared cache.
        """
        return {
            "engine": self.engine,
            "ring": {
                "inputs": [_encode_json(value) for value in self.ring.inputs],
                "orientations": list(self.ring.orientations),
            },
            "algorithm": self.algorithm,
            "params": [[key, _encode_json(value)] for key, value in self.params],
            "scheduler": self.scheduler,
            "scheduler_seed": self.scheduler_seed,
            "delay_bound": self.delay_bound,
            "fault_profile": self.fault_profile,
            "fault_seed": self.fault_seed,
            "fault_horizon": self.fault_horizon,
            "wakeup": list(self.wakeup) if self.wakeup is not None else None,
            "budget": self.budget,
            "keep_log": self.keep_log,
            "record": self.record,
            "topology": (
                self.topology.to_json_dict() if self.topology is not None else None
            ),
            "message_mode": self.message_mode,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping[str, Any]) -> "RunSpec":
        """Rebuild a spec from :meth:`to_json_dict` output.

        Validates eagerly (unknown keys, malformed rings, non-decodable
        values all raise :class:`~repro.core.errors.ConfigurationError`)
        so a gateway can turn a bad submission into a 400 instead of a
        worker crash.
        """
        if not isinstance(data, Mapping):
            raise ConfigurationError(f"spec must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigurationError(f"unknown RunSpec fields {unknown}")
        for required in ("engine", "ring", "algorithm"):
            if required not in data:
                raise ConfigurationError(f"spec is missing the {required!r} field")
        ring_data = data["ring"]
        if (
            not isinstance(ring_data, Mapping)
            or "inputs" not in ring_data
            or "orientations" not in ring_data
            or set(ring_data) - {"inputs", "orientations"}
        ):
            raise ConfigurationError(
                "spec 'ring' must be an object with exactly "
                "'inputs' and 'orientations'"
            )
        ring = RingConfiguration(
            tuple(_decode_json(value) for value in ring_data["inputs"]),
            tuple(int(bit) for bit in ring_data["orientations"]),
        )
        raw_params = data.get("params") or ()
        try:
            params = tuple((str(key), _decode_json(value)) for key, value in raw_params)
        except (TypeError, ValueError):
            raise ConfigurationError(
                "spec 'params' must be a list of [key, value] pairs"
            ) from None
        wakeup = data.get("wakeup")
        topology_data = data.get("topology")
        topology = (
            TopologySpec.from_json_dict(topology_data)
            if topology_data is not None
            else None
        )
        return cls(
            engine=str(data["engine"]),
            ring=ring,
            algorithm=str(data["algorithm"]),
            params=params,
            scheduler=data.get("scheduler"),
            scheduler_seed=data.get("scheduler_seed"),
            delay_bound=data.get("delay_bound", 8),
            fault_profile=data.get("fault_profile"),
            fault_seed=data.get("fault_seed"),
            fault_horizon=data.get("fault_horizon"),
            wakeup=tuple(int(cycle) for cycle in wakeup) if wakeup is not None else None,
            budget=data.get("budget"),
            keep_log=bool(data.get("keep_log", False)),
            record=bool(data.get("record", False)),
            topology=topology,
            message_mode=str(data.get("message_mode", "plain")),
        )


def _encode_json(value: Any) -> Any:
    """Strictly encode a ring input / param value for JSON transport."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, tuple):
        return {"__t__": "tuple", "v": [_encode_json(item) for item in value]}
    raise ConfigurationError(
        f"value {value!r} ({type(value).__name__}) is not JSON-transportable; "
        "spec inputs/params must be scalars or (nested) tuples of scalars"
    )


def _decode_json(value: Any) -> Any:
    """Invert :func:`_encode_json`; reject shapes it never produces."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Mapping):
        if value.get("__t__") == "tuple" and isinstance(value.get("v"), list):
            return tuple(_decode_json(item) for item in value["v"])
        raise ConfigurationError(f"undecodable tagged value {value!r}")
    raise ConfigurationError(
        f"undecodable value {value!r}; tuples must use the "
        '{"__t__": "tuple", "v": [...]} tagging'
    )


def build_scheduler(spec: RunSpec) -> Any:
    """Instantiate the spec's scheduler (async engine only)."""
    from ..asynch.schedulers import (
        BoundedDelayScheduler,
        GreedyChannelScheduler,
        RandomScheduler,
        RoundRobinScheduler,
    )

    name = spec.scheduler or "round-robin"
    if name == "round-robin":
        return RoundRobinScheduler()
    if name == "random":
        return RandomScheduler(seed=spec.scheduler_seed)
    if name == "greedy":
        return GreedyChannelScheduler()
    return BoundedDelayScheduler(spec.delay_bound, seed=spec.scheduler_seed)


def build_adversary(spec: RunSpec) -> Optional[Any]:
    """Instantiate the spec's fault adversary, or ``None`` when fault-free."""
    if spec.fault_profile is None:
        return None
    from ..asynch.adversary import FAULT_PROFILES, FaultInjector

    try:
        fault_spec = FAULT_PROFILES[spec.fault_profile]
    except KeyError:
        raise ConfigurationError(
            f"unknown fault profile {spec.fault_profile!r}; choose from "
            f"{sorted(FAULT_PROFILES)}"
        ) from None
    horizon = spec.fault_horizon
    if horizon is None:
        if fault_spec.crashes:
            raise ConfigurationError(
                f"fault profile {spec.fault_profile!r} plants crashes and "
                "needs an explicit fault_horizon"
            )
        horizon = 1
    assert spec.fault_seed is not None  # enforced by __post_init__
    return FaultInjector(fault_spec, spec.ring.n, horizon, spec.fault_seed)


def build_recorder(spec: RunSpec) -> Optional[Any]:
    """Instantiate the spec's event recorder, or ``None`` when off.

    The general asynchronous engine gets a Lamport clock (there is no
    global time to stamp with); the two cycle-driven engines stamp with
    the cycle index directly.
    """
    if not spec.record:
        return None
    from ..obs.events import CLOCK_CYCLE, CLOCK_LAMPORT, EventRecorder

    clock = CLOCK_LAMPORT if spec.engine == "async" else CLOCK_CYCLE
    return EventRecorder(clock=clock)


def execute(spec: RunSpec) -> RunResult:
    """Run one spec to completion — the single engine dispatcher.

    Every field of the result is a deterministic function of the spec:
    re-executing the same spec (in any process, on any worker of a pool)
    produces identical outputs, counters, and logs.  With ``record`` on,
    the recorder's :class:`~repro.obs.events.EventLog` is attached as
    ``result.events`` (itself deterministic — it is a pure function of the
    schedule).
    """
    entry = algorithm(spec.algorithm)
    expected_kind = SYNC if spec.engine in SYNC_ENGINES else ASYNC
    if entry.kind != expected_kind:
        raise ConfigurationError(
            f"algorithm {spec.algorithm!r} is a {entry.kind} algorithm; "
            f"the {spec.engine!r} engine needs {expected_kind}"
        )
    if spec.engine == "sync-batch":
        from ..batch.engine import run_batch

        return run_batch([spec])[0]
    factory = entry.factory(**spec.params_dict)
    recorder = build_recorder(spec)

    oblivious = spec.message_mode == "oblivious"
    if spec.engine == "sync":
        from ..sync.simulator import run_synchronous
        from ..sync.wakeup import WakeupSchedule

        wakeup = WakeupSchedule(spec.wakeup) if spec.wakeup is not None else None
        topology = (
            build_topology(spec.ring.n, spec.topology)
            if spec.topology is not None
            else None
        )
        result = run_synchronous(
            spec.ring,
            factory,
            wakeup=wakeup,
            max_cycles=spec.budget,
            keep_log=spec.keep_log,
            recorder=recorder,
            topology=topology,
            oblivious=oblivious,
        )
    elif spec.engine == "async-synchronized":
        from ..asynch.simulator import run_async_synchronized

        result = run_async_synchronized(
            spec.ring,
            factory,
            max_cycles=spec.budget,
            keep_log=spec.keep_log,
            recorder=recorder,
            oblivious=oblivious,
        )
    else:
        from ..asynch.simulator import run_asynchronous

        result = run_asynchronous(
            spec.ring,
            factory,
            scheduler=build_scheduler(spec),
            max_events=spec.budget,
            keep_log=spec.keep_log,
            adversary=build_adversary(spec),
            recorder=recorder,
            oblivious=oblivious,
        )
    if recorder is not None:
        result = replace(result, events=recorder.events)
    return result
