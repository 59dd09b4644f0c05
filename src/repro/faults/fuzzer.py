"""The schedule-fuzzing harness: sweep, check, shrink, replay.

One fuzz **case** drives a single algorithm on a seeded random ring
through a seeded random schedule (optionally with fault injection),
records the full decision trace, and checks invariants:

* **wrong output** — the run's outputs differ from a reference run under
  the deterministic round-robin schedule (§2's ∀-schedule correctness:
  any two schedules must agree);
* **disagreement / deadlock / budget** — clean-failure modes that are
  violations whenever the exercised faults are within the algorithm's
  declared tolerance;
* **accounting** — the transport conservation law
  ``messages + duplicated == delivered + dropped`` must hold at
  quiescence whatever happens;
* **harness errors** — any non-:class:`~repro.core.errors.ReproError`
  exception is always a violation.

Faults outside the declared tolerance relax the output and termination
checks (the algorithm never promised to survive), but the engine must
still fail *cleanly* and account exactly.

On a violation the harness delta-debugs the recorded trace down to a
minimal failing prefix: replaying ``trace[:L]`` (round-robin + benign
delivery beyond the prefix) is a complete deterministic run, so a binary
search over ``L`` followed by a linear polish finds a locally minimal
prefix that still reproduces the same violation kind.  The minimized
witness is then replayed twice more to certify byte-identical
reproduction from ``(seed, trace)``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from ..asynch.adversary import (
    FAULT_PROFILES,
    Adversary,
    FaultInjector,
    FaultSpec,
    ReplayAdversary,
)
from ..asynch.schedulers import (
    BoundedDelayScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    Scheduler,
)
from ..asynch.simulator import run_asynchronous
from ..core.errors import (
    ConfigurationError,
    NonTerminationError,
    OutputDisagreement,
    ReproError,
    SimulationError,
)
from ..core.ring import RingConfiguration
from ..core.tracing import RunResult
from ..runtime.runner import Runner, TaskCall, derive_seed, task_digest
from ..runtime.spec import RunSpec
from ..topology import TopologySpec
from .registry import (
    FuzzTarget,
    SyncFuzzTarget,
    default_sync_targets,
    default_targets,
    target_by_name,
)
from .trace import RecordingScheduler, ReplayScheduler, ScheduleTrace

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..obs.events import Recorder

_SEED_SPAN = 2**63


@dataclass(frozen=True)
class FuzzCase:
    """Coordinates of one fuzz run (everything needed to regenerate it)."""

    target: str
    n: int
    case_seed: int
    profile: str


@dataclass(frozen=True)
class Violation:
    """One invariant violation, with enough detail to act on."""

    kind: str
    detail: str


# ----------------------------------------------------------------------
# Single-run execution and classification
# ----------------------------------------------------------------------


def _execute(
    config: RingConfiguration,
    target: FuzzTarget,
    scheduler: Scheduler,
    adversary: Optional[Adversary],
    keep_log: bool = False,
    recorder: Optional["Recorder"] = None,
) -> Tuple[Optional[RunResult], Optional[BaseException]]:
    try:
        result = run_asynchronous(
            config,
            target.factory,
            scheduler=scheduler,
            keep_log=keep_log,
            adversary=adversary,
            recorder=recorder,
        )
        return result, None
    except Exception as error:  # noqa: BLE001 - classification happens below
        return None, error


def _classify(
    result: Optional[RunResult],
    error: Optional[BaseException],
    reference: RunResult,
    strict: bool,
) -> Optional[Violation]:
    """Map one run's outcome to a violation (or ``None`` if acceptable)."""
    if error is not None:
        if not isinstance(error, ReproError):
            return Violation("harness-error", f"{type(error).__name__}: {error}")
        if not strict:
            return None  # clean failure under untolerated faults
        if isinstance(error, NonTerminationError):
            return Violation("budget", str(error))
        if isinstance(error, OutputDisagreement):
            return Violation("disagreement", str(error))
        if isinstance(error, SimulationError) and "deadlock" in str(error):
            return Violation("deadlock", str(error))
        return Violation("error", f"{type(error).__name__}: {error}")
    assert result is not None
    stats = result.stats
    if stats.messages + stats.duplicated != stats.delivered + stats.dropped:
        return Violation(
            "accounting",
            f"messages({stats.messages}) + duplicated({stats.duplicated}) != "
            f"delivered({stats.delivered}) + dropped({stats.dropped})",
        )
    if strict and result.outputs != reference.outputs:
        return Violation(
            "wrong-output",
            f"outputs {result.outputs!r} != round-robin reference "
            f"{reference.outputs!r}",
        )
    return None


# ----------------------------------------------------------------------
# Replay and shrinking
# ----------------------------------------------------------------------


def _replay(
    config: RingConfiguration,
    target: FuzzTarget,
    trace: ScheduleTrace,
    keep_log: bool = False,
    recorder: Optional["Recorder"] = None,
) -> Tuple[Optional[RunResult], Optional[BaseException]]:
    """Re-run a recorded (possibly truncated) trace deterministically."""
    scheduler = ReplayScheduler(trace.choices)
    adversary = ReplayAdversary(trace.actions, trace.crashes)
    return _execute(
        config, target, scheduler, adversary, keep_log=keep_log, recorder=recorder
    )


def _witness_events(
    config: RingConfiguration, target: FuzzTarget, trace: ScheduleTrace
) -> List[Dict[str, Any]]:
    """The minimized witness's :mod:`repro.obs` event stream, as JSON rows.

    Replays the witness once more with an :class:`EventRecorder` attached
    so the violation record carries a message-level account of the
    failure (what was sent, dropped, duplicated, delivered — and in what
    order) ready for ``repro.obs.export`` tooling.  A replay that dies
    mid-run still yields the prefix recorded up to the failure.
    """
    from ..obs.events import CLOCK_LAMPORT, EventRecorder
    from ..obs.export import event_to_json

    recorder = EventRecorder(clock=CLOCK_LAMPORT)
    _replay(config, target, trace, recorder=recorder)
    return [event_to_json(event) for event in recorder.events]


def shrink_trace(
    config: RingConfiguration,
    target: FuzzTarget,
    trace: ScheduleTrace,
    reference: RunResult,
    strict: bool,
    kind: str,
) -> Tuple[ScheduleTrace, bool]:
    """Delta-debug ``trace`` to a minimal failing prefix.

    Returns ``(minimized trace, reproduced)`` where ``reproduced`` says
    whether even the *full* trace replayed to the same violation kind —
    if it did not, the original failure was not schedule-determined and
    the full trace is returned unshrunk.

    The search is a binary descent over prefix length followed by a
    linear polish, so the result is locally minimal: dropping one more
    recorded event loses the failure.
    """

    def fails(length: int) -> bool:
        result, error = _replay(config, target, trace.truncated(length))
        violation = _classify(result, error, reference, strict)
        return violation is not None and violation.kind == kind

    if not fails(len(trace)):
        return trace, False
    lo, hi = 0, len(trace)
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(mid):
            hi = mid
        else:
            lo = mid + 1
    while hi > 0 and fails(hi - 1):  # polish: binary descent can overshoot
        hi -= 1
    return trace.truncated(hi), True


def _certify_replay(
    config: RingConfiguration,
    target: FuzzTarget,
    trace: ScheduleTrace,
    reference: RunResult,
    strict: bool,
    kind: str,
) -> bool:
    """Replay the minimized witness twice; both runs must match exactly."""
    first = _replay(config, target, trace, keep_log=True)
    second = _replay(config, target, trace, keep_log=True)
    for result, error in (first, second):
        violation = _classify(result, error, reference, strict)
        if violation is None or violation.kind != kind:
            return False
    a, b = first[0], second[0]
    if (a is None) != (b is None):
        return False
    if a is None or b is None:
        return repr(first[1]) == repr(second[1])
    return (
        a.outputs == b.outputs
        and a.stats.messages == b.stats.messages
        and a.stats.bits == b.stats.bits
        and a.stats.per_cycle == b.stats.per_cycle
        and a.stats.delivered == b.stats.delivered
        and a.stats.dropped == b.stats.dropped
        and a.stats.duplicated == b.stats.duplicated
        and a.stats.log == b.stats.log
    )


# ----------------------------------------------------------------------
# Case and campaign drivers
# ----------------------------------------------------------------------


def run_case(target: FuzzTarget, case: FuzzCase) -> Dict[str, Any]:
    """Run one fuzz case end to end; returns a JSON-able case record."""
    spec: FaultSpec = FAULT_PROFILES[case.profile]
    rng = random.Random(case.case_seed)
    config = target.make_config(case.n, rng)
    schedule_seed = rng.randrange(_SEED_SPAN)
    fault_seed = rng.randrange(_SEED_SPAN)

    reference, ref_error = _execute(config, target, RoundRobinScheduler(), None)
    record: Dict[str, Any] = {
        "target": case.target,
        "n": case.n,
        "case_seed": case.case_seed,
        "profile": case.profile,
    }
    if ref_error is not None:
        record["status"] = "violation"
        record["violation"] = {
            "kind": "reference-failure",
            "detail": f"{type(ref_error).__name__}: {ref_error}",
            "config": _describe_config(config),
        }
        return record
    assert reference is not None

    if spec.delay_bound:
        base: Scheduler = BoundedDelayScheduler(spec.delay_bound, seed=schedule_seed)
    else:
        base = RandomScheduler(seed=schedule_seed)
    scheduler = RecordingScheduler(base)
    injector: Optional[FaultInjector] = None
    if spec.kinds() - {"delay"}:
        horizon = max(1, reference.stats.delivered)
        injector = FaultInjector(spec, config.n, horizon, fault_seed)

    strict = spec.kinds() <= target.tolerates
    result, error = _execute(config, target, scheduler, injector)
    trace = ScheduleTrace(
        choices=tuple(scheduler.choices),
        actions=tuple(injector.actions) if injector else (),
        crashes=injector.crashes if injector else (),
    )
    violation = _classify(result, error, reference, strict)

    if violation is None:
        if error is not None:
            record["status"] = "tolerated-failure"
            record["failure"] = type(error).__name__
        else:
            record["status"] = "ok"
        return record

    minimized, reproduced = shrink_trace(
        config, target, trace, reference, strict, violation.kind
    )
    deterministic = reproduced and _certify_replay(
        config, target, minimized, reference, strict, violation.kind
    )
    record["status"] = "violation"
    record["violation"] = {
        "kind": violation.kind,
        "detail": violation.detail,
        "config": _describe_config(config),
        "strict": strict,
        "scheduler": type(base).__name__,
        "scheduler_seed": base.seed,
        "fault_seed": fault_seed if injector else None,
        "trace": trace.to_json(),
        "minimized": {
            "trace": minimized.to_json(),
            "events": len(minimized),
            "reproduced": reproduced,
            "replay_deterministic": deterministic,
        },
        "events": _witness_events(config, target, minimized) if reproduced else [],
    }
    return record


def _describe_config(config: RingConfiguration) -> Dict[str, Any]:
    return {
        "inputs": list(config.inputs),
        "orientations": list(config.orientations),
    }


def _case_seed(master_seed: int, target: str, n: int, profile: str, index: int) -> int:
    """A stable per-case seed: a pure function of the coordinates.

    Delegates to :func:`repro.runtime.runner.derive_seed` (string-keyed
    :class:`random.Random`, not ``hash()``), so the same coordinates
    yield the same seed in every process, on every worker of a pool,
    for every ``PYTHONHASHSEED``.
    """
    return derive_seed(master_seed, target, n, profile, index)


def run_named_case(target_name: str, case: FuzzCase) -> Dict[str, Any]:
    """Run one case of a *default-registry* target, resolved by name.

    This is the pool-worker entry point for parallel fuzzing: only the
    target's name and the case coordinates travel to the worker, which
    resolves the factory from :mod:`repro.runtime.registry` locally.
    """
    return run_case(target_by_name(target_name), case)


def _case_calls(
    targets: Tuple[FuzzTarget, ...], flat: List[Tuple[FuzzTarget, FuzzCase]]
) -> List[TaskCall]:
    """One TaskCall per case; default targets travel by name, others by value.

    A custom target (e.g. a test's planted-bug target) is shipped
    pickled, which requires its factory and config maker to be
    module-level — the same rule any multiprocessing payload obeys.
    """
    named = {t.name: t for t in default_targets()}
    calls = []
    for target, case in flat:
        key = task_digest("fuzz-case", target.name, case.n, case.case_seed, case.profile)
        if named.get(target.name) == target:
            calls.append(
                TaskCall("repro.faults.fuzzer:run_named_case", (target.name, case), key)
            )
        else:
            calls.append(TaskCall("repro.faults.fuzzer:run_case", (target, case), key))
    return calls


def _sync_case(
    target: SyncFuzzTarget, n: int, case_seed: int, engine: str
) -> Tuple[RingConfiguration, RunSpec]:
    """Regenerate one sync case's ring and spec from its coordinates.

    ``engine="auto"`` selects the vectorized engine whenever the batch
    program supports the spec (the default path); ``engine="sync"``
    forces the generator engine.  The two must produce byte-identical
    reports — the CI smoke asserts exactly that.
    """
    rng = random.Random(case_seed)
    config = target.make_config(n, rng)
    kwargs: Dict[str, Any] = {}
    if target.wakeups:
        raw = [rng.randint(0, 2 * n) for _ in range(n)]
        base = min(raw)  # schedules are normalized: min wake time is 0
        kwargs["wakeup"] = tuple(value - base for value in raw)
    if target.topologies or target.oblivious:
        # Dynamic topologies and oblivious delivery are generator-engine
        # only, so these cases never consult the batch program; both
        # ``engine`` values build the very same spec, which is what keeps
        # the auto-vs-sync parity check byte-identical.
        if target.topologies:
            kwargs["topology"] = TopologySpec(
                kind="dynamic-ring",
                seed=rng.randint(0, 2**31 - 1),
                path_rate=0.3,
            )
        if target.oblivious:
            kwargs["message_mode"] = "oblivious"
        return config, RunSpec.make(
            engine="sync", ring=config, algorithm=target.name, **kwargs
        )
    spec = RunSpec.make(
        engine="sync-batch", ring=config, algorithm=target.name, **kwargs
    )
    if engine == "sync" or not _supports_batch(spec):
        spec = spec.with_(engine="sync")
    return config, spec


def _supports_batch(spec: RunSpec) -> bool:
    from ..batch.engine import supports_batch

    return supports_batch(spec)


def run_sync_corpus(
    seed: int,
    targets: Optional[Tuple[SyncFuzzTarget, ...]] = None,
    cases_per_campaign: int = 4,
    runner: Optional[Runner] = None,
    engine: str = "auto",
) -> Dict[str, Any]:
    """Sweep the fault-free synchronous corpus; returns the report section.

    The synchronous engines are deterministic, so there is no schedule
    to fuzz: each case is a seeded random ring (plus a seeded wake-up
    schedule where the target takes one) whose result is checked against
    the target's semantic invariant.  All cases execute as one spec
    batch through :meth:`Runner.run_specs` — with ``engine="auto"``
    every supported spec takes the vectorized ``sync-batch`` path, and
    the report is byte-identical to the forced generator path
    (``engine="sync"``) by the batch engine's correctness contract.
    The ``engine`` knob is deliberately absent from the report.
    """
    if engine not in ("auto", "sync"):
        raise ConfigurationError(
            f"sync corpus engine must be 'auto' or 'sync', got {engine!r}"
        )
    targets = targets if targets is not None else default_sync_targets()
    runner = runner if runner is not None else Runner()

    coords: List[Tuple[SyncFuzzTarget, int]] = []
    cases: List[Tuple[RingConfiguration, int]] = []
    specs: List[RunSpec] = []
    for target in targets:
        for n in target.sizes:
            coords.append((target, n))
            for index in range(cases_per_campaign):
                case_seed = derive_seed(seed, "sync", target.name, n, index)
                config, spec = _sync_case(target, n, case_seed, engine)
                cases.append((config, case_seed))
                specs.append(spec)
    results = runner.run_specs(specs)

    campaigns: List[Dict[str, Any]] = []
    total_cases = 0
    total_violations = 0
    cursor = 0
    for target, n in coords:
        records: List[Dict[str, Any]] = []
        violations = 0
        for (config, case_seed), result in zip(
            cases[cursor : cursor + cases_per_campaign],
            results[cursor : cursor + cases_per_campaign],
        ):
            record: Dict[str, Any] = {
                "target": target.name,
                "n": n,
                "case_seed": case_seed,
                "messages": result.stats.messages,
                "bits": result.stats.bits,
                "cycles": result.cycles,
            }
            detail = target.check(config, result)
            if detail is None:
                record["status"] = "ok"
            else:
                record["status"] = "violation"
                record["violation"] = {
                    "kind": "invariant",
                    "detail": detail,
                    "config": _describe_config(config),
                }
                violations += 1
            records.append(record)
        cursor += cases_per_campaign
        total_cases += len(records)
        total_violations += violations
        campaigns.append(
            {
                "target": target.name,
                "n": n,
                "cases": records,
                "ok": sum(1 for r in records if r["status"] == "ok"),
                "violations": violations,
            }
        )
    return {
        "targets": {
            target.name: {
                "description": target.description,
                "sizes": list(target.sizes),
            }
            for target in targets
        },
        "campaigns": campaigns,
        "cases": total_cases,
        "violations": total_violations,
    }


def run_fuzz(
    seed: int,
    targets: Optional[Tuple[FuzzTarget, ...]] = None,
    sizes: Optional[Tuple[int, ...]] = None,
    profiles: Tuple[str, ...] = ("none", "drop", "dup", "crash", "delay", "mixed"),
    cases_per_campaign: int = 8,
    jobs: int = 1,
    runner: Optional[Runner] = None,
    sync_targets: Optional[Tuple[SyncFuzzTarget, ...]] = None,
    sync_cases_per_campaign: int = 4,
    sync_engine: str = "auto",
) -> Dict[str, Any]:
    """Sweep the registry; returns the full JSON-able fuzz report.

    The report is a pure function of the arguments: same seed, same
    byte-identical report (no timestamps, no ambient randomness), for
    every ``jobs`` value — each case is an independent task fanned over
    the runner's pool and reassembled in campaign order.

    Alongside the asynchronous schedule-fuzzing campaigns the report
    carries the fault-free synchronous corpus (:func:`run_sync_corpus`),
    executed as one spec batch through the runner.  ``sync_engine`` is
    an unserialized execution knob: ``"auto"`` (the default) routes
    supported specs through the vectorized batch engine, ``"sync"``
    forces the generator engine, and the report bytes are identical
    either way.
    """
    if runner is None:
        with Runner(jobs=jobs) as owned:
            return run_fuzz(
                seed, targets, sizes, profiles, cases_per_campaign, runner=owned,
                sync_targets=sync_targets,
                sync_cases_per_campaign=sync_cases_per_campaign,
                sync_engine=sync_engine,
            )
    targets = targets if targets is not None else default_targets()
    sync_section = run_sync_corpus(
        seed,
        targets=sync_targets,
        cases_per_campaign=sync_cases_per_campaign,
        runner=runner,
        engine=sync_engine,
    )

    # Enumerate every campaign's cases up front (order is the report
    # order), fan the flat case list over the runner, then reassemble.
    campaign_coords: List[Tuple[FuzzTarget, int, str]] = []
    flat: List[Tuple[FuzzTarget, FuzzCase]] = []
    for target in targets:
        target_sizes = sizes if sizes is not None else target.sizes
        for n in target_sizes:
            if target.name == "orientation" and n % 2 == 0:
                continue  # shape constraint: the majority vote needs odd n
            for profile in profiles:
                campaign_coords.append((target, n, profile))
                for index in range(cases_per_campaign):
                    case = FuzzCase(
                        target=target.name,
                        n=n,
                        case_seed=_case_seed(seed, target.name, n, profile, index),
                        profile=profile,
                    )
                    flat.append((target, case))
    flat_records = runner.map(_case_calls(targets, flat))

    campaigns: List[Dict[str, Any]] = []
    total_cases = 0
    total_violations = 0
    cursor = 0
    for target, n, profile in campaign_coords:
        records = flat_records[cursor : cursor + cases_per_campaign]
        cursor += cases_per_campaign
        violations = [r["violation"] | {"case_seed": r["case_seed"]}
                      for r in records if r["status"] == "violation"]
        tolerated = sum(1 for r in records if r["status"] == "tolerated-failure")
        total_cases += len(records)
        total_violations += len(violations)
        campaigns.append(
            {
                "target": target.name,
                "n": n,
                "profile": profile,
                "strict": FAULT_PROFILES[profile].kinds() <= target.tolerates,
                "cases": len(records),
                "ok": sum(1 for r in records if r["status"] == "ok"),
                "tolerated_failures": tolerated,
                "violations": violations,
            }
        )
    return {
        "schema": 1,
        "tool": "python -m repro fuzz",
        "seed": seed,
        "profiles": {
            name: {
                "drop_rate": FAULT_PROFILES[name].drop_rate,
                "dup_rate": FAULT_PROFILES[name].dup_rate,
                "crashes": FAULT_PROFILES[name].crashes,
                "delay_bound": FAULT_PROFILES[name].delay_bound,
            }
            for name in profiles
        },
        "targets": {
            target.name: {
                "description": target.description,
                "tolerates": sorted(target.tolerates),
                "sizes": list(sizes if sizes is not None else target.sizes),
            }
            for target in targets
        },
        "campaigns": campaigns,
        "sync_targets": sync_section["targets"],
        "sync_campaigns": sync_section["campaigns"],
        "totals": {
            "campaigns": len(campaigns),
            "cases": total_cases,
            "violations": total_violations,
            "sync_cases": sync_section["cases"],
            "sync_violations": sync_section["violations"],
        },
    }
