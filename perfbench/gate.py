"""The correctness gate: every output the benchmark timed is checked.

* Serve outcomes must be pickle-equal to a local ``execute(spec)``.  The
  client reduces each decoded result to a :func:`fingerprint` right
  after timing it, so a long run does not hold every result in memory;
  the local side is computed after the timed phase, untimed.
* A ``report`` sweep must reproduce the committed EXPERIMENTS.md byte
  for byte; :func:`report_failures` counts the experiments that differ.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import pickle
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.runtime import RunSpec, execute

#: Processes that recompute a large cold set locally after the run.
CHECK_JOBS = 2


def fingerprint(result: Any) -> bytes:
    """A short hash of the result's pickle: equal iff pickle-equal."""
    return hashlib.blake2b(pickle.dumps(result), digest_size=16).digest()


@dataclass
class Outcome:
    """One served spec, reduced to what the gate compares."""

    digest: str
    status: str
    fingerprint: Optional[bytes] = None
    events: int = 0
    error: Optional[str] = None


@dataclass
class Request:
    """One timed request: its specs, latency, and reduced outcomes.

    ``error`` is set when the request as a whole failed (transport
    error, 429 refusal, broken stream); ``latency`` is then ``None``.
    """

    index: int
    specs: List[RunSpec]
    latency: Optional[float] = None
    outcomes: List[Outcome] = field(default_factory=list)
    error: Optional[str] = None
    refused: bool = False


def local_fingerprint(spec: RunSpec) -> Tuple[bytes, int]:
    """``(fingerprint, event count)`` of a local run (pool entry point)."""
    result = execute(spec)
    return fingerprint(result), len(getattr(result, "events", None) or ())


def local_fingerprints(specs: Sequence[RunSpec]) -> Dict[str, Tuple[bytes, int]]:
    """Local fingerprints keyed by spec digest, one run per distinct spec.

    Large cold sets fan out over :data:`CHECK_JOBS` forked processes so
    the check does not dominate a run; small sets stay in-process.  The
    fork context starts no resource-tracker process, which would outlive
    the benchmark.
    """
    unique: Dict[str, RunSpec] = {}
    for spec in specs:
        unique.setdefault(spec.digest(), spec)
    todo = list(unique.values())
    if len(todo) > 64:
        with multiprocessing.get_context("fork").Pool(CHECK_JOBS) as pool:
            values = pool.map(local_fingerprint, todo, chunksize=16)
    else:
        values = [local_fingerprint(spec) for spec in todo]
    return dict(zip(unique, values))


def serve_failures(
    requests: Sequence[Request], local: Dict[str, Tuple[bytes, int]]
) -> Tuple[int, List[str]]:
    """Failed specs across ``requests`` and the first few reasons.

    A spec fails when its request failed or was refused, when its
    outcome is an error, when the served digest is not the spec's, or
    when the result or its streamed event count differs from the local
    run.
    """
    failed = 0
    reasons: List[str] = []

    def fail(count: int, reason: str) -> None:
        nonlocal failed
        failed += count
        if len(reasons) < 5:
            reasons.append(reason)

    for request in requests:
        if request.error is not None:
            fail(len(request.specs), f"request {request.index}: {request.error}")
            continue
        if len(request.outcomes) != len(request.specs):
            fail(len(request.specs), f"request {request.index}: wrong outcome count")
            continue
        for position, (spec, outcome) in enumerate(zip(request.specs, request.outcomes)):
            where = f"request {request.index} spec {position}"
            digest = spec.digest()
            if outcome.error is not None or outcome.fingerprint is None:
                fail(1, f"{where}: {outcome.status} {outcome.error}")
            elif outcome.digest != digest:
                fail(1, f"{where}: served digest {outcome.digest[:12]} != {digest[:12]}")
            elif (outcome.fingerprint, outcome.events) != local[digest]:
                fail(1, f"{where}: result differs from local execute")
    return failed, reasons


_SECTION = re.compile(r"^### (E\d+) ", re.MULTILINE)


def _sections(text: str) -> Dict[str, str]:
    """EXPERIMENTS.md split into ``{"E1": ..., ...}`` plus a ``""`` rest."""
    parts: Dict[str, str] = {}
    starts = [(match.start(), match.group(1)) for match in _SECTION.finditer(text)]
    head = starts[0][0] if starts else len(text)
    parts[""] = text[:head]
    for (start, name), (end, _) in zip(starts, starts[1:] + [(len(text), "")]):
        parts[name] = text[start:end]
    return parts


def experiment_ids(text: str) -> List[str]:
    """The experiment ids of an EXPERIMENTS.md, in file order."""
    return _SECTION.findall(text)


def report_failures(expected: str, actual: str) -> int:
    """Experiments whose section differs, and at least one for any byte
    difference, so a changed preamble or footer also fails the gate."""
    if expected == actual:
        return 0
    want, got = _sections(expected), _sections(actual)
    names = [name for name in want if name]
    failed = sum(1 for name in names if want[name] != got.get(name))
    return max(1, failed)
