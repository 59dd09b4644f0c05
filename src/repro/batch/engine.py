"""The struct-of-arrays synchronous engine: many runs, one array program.

One :func:`run_batch` call executes a whole batch of synchronous specs —
an n-sweep, a seed-sweep, a fuzz corpus — as a single numpy program.
Every piece of engine state is a ``(batch, n_max)`` array: halt flags,
wake times, the two per-port inboxes, the two per-port emission buffers.
Rings of different sizes share the array by padding: cells ``i >= n[b]``
are never alive, never emit, and are never routed to (routing is
precomputed per run from the ring's orientation bits, modulo its own
``n``).

Each cycle mirrors :func:`repro.sync.simulator.run_synchronous` exactly:

1. budget check (a run entering cycle ``budget`` raises, per run);
2. emission half-step — the algorithm's :class:`~repro.batch.programs.\
BatchProgram` advances every awake processor of every run at once,
   emitting at most one message per port or halting with an output;
3. delivery half-step — sends are counted (drops at halted receivers
   included, exactly like the generator engine), routed by the
   precomputed orientation tables, and either delivered to next cycle's
   inbox, stashed in a wake inbox (waking the idle receiver at
   ``cycle + 1``), or dropped.

Delivery is a dense *gather*, not a scatter: because each (receiver,
port) pair has exactly one (sender, port) that can reach it — one
physical link per side, one port per direction — the routing tables are
inverted once at startup into ``src`` index arrays, and delivering a
cycle is four flat ``take`` operations plus boolean masks.  No
``nonzero`` scans, no scatter conflicts, no per-message Python.

A run leaves the batch when all its processors halt (its rows freeze) or
when its budget is exhausted (it yields a ``NonTerminationError`` whose
message is byte-identical to the generator engine's).  Finished results
are assembled per run with ``per_cycle`` histograms inserted in
ascending cycle order, so pickles compare equal to ``run_synchronous``'s.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.errors import ConfigurationError, NonTerminationError, SimulationError
from ..core.tracing import RunResult, TraceStats
from ..runtime.registry import SYNC, algorithm
from ..sync.simulator import default_cycle_budget
from ..sync.wakeup import WakeupSchedule
from ..topology.arrays import batch_gather_indices

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.spec import RunSpec
    from .programs import BatchProgram

#: Outcome of one run in a batch: a result, or the error it raised.
Outcome = Union[RunResult, BaseException]

#: Wake time assigned to padding cells (never reached).
_NEVER = np.int32(2**31 - 1)


def supports_batch(spec: "RunSpec") -> bool:
    """Whether a spec can run on the batch engine (without raising)."""
    try:
        _validate(spec)
    except Exception:  # noqa: BLE001 - predicate form of _validate
        return False
    return True


def _validate(spec: "RunSpec") -> Any:
    """Check one spec against the batch engine; return its program class.

    Raises the same errors the generator path would: unknown algorithm
    and kind mismatches from the registry, ``ConfigurationError`` from
    the algorithm's own input validation, wake-schedule errors from
    :class:`WakeupSchedule`, and a length-mismatch ``SimulationError``
    identical to ``run_synchronous``'s.
    """
    if spec.engine not in ("sync", "sync-batch"):
        raise ConfigurationError(
            f"the batch engine runs synchronous specs, not engine={spec.engine!r}"
        )
    if spec.record:
        raise ConfigurationError(
            "the sync-batch engine does not record; use engine='sync' for "
            "recorded runs"
        )
    if spec.topology is not None or spec.message_mode != "plain":
        raise ConfigurationError(
            "the batch engine is static-ring, plain-payload only; dynamic "
            "topologies and content-oblivious delivery run on engine='sync'"
        )
    entry = algorithm(spec.algorithm)
    if entry.kind != SYNC:
        raise ConfigurationError(
            f"algorithm {spec.algorithm!r} is a {entry.kind} algorithm; "
            f"the {spec.engine!r} engine needs {SYNC}"
        )
    if entry.batch_program is None:
        raise ConfigurationError(
            f"algorithm {spec.algorithm!r} has no batch program; it runs "
            "only on engine='sync' (see docs/batch.md for what qualifies)"
        )
    entry.factory(**spec.params_dict)  # same unknown-parameter rejection
    n = spec.ring.n
    if spec.wakeup is not None:
        wakeup = WakeupSchedule(spec.wakeup)
        if wakeup.n != n:
            raise SimulationError(
                f"schedule covers {wakeup.n} processors, ring has {n}"
            )
    program = entry.batch_program()
    program.validate(spec)
    return program


def run_batch_outcomes(specs: Sequence["RunSpec"]) -> List[Outcome]:
    """Run a batch, returning one outcome (result or error) per spec.

    Specs are grouped by algorithm; each group is stepped as one array
    program.  A spec that fails validation, or a run that exhausts its
    cycle budget, contributes its exception as the outcome in place —
    other runs of the batch are unaffected.
    """
    outcomes: List[Optional[Outcome]] = [None] * len(specs)
    groups: Dict[str, List[int]] = {}
    programs: Dict[str, Any] = {}
    for index, spec in enumerate(specs):
        try:
            programs.setdefault(spec.algorithm, _validate(spec))
        except Exception as error:  # noqa: BLE001 - per-run outcome
            outcomes[index] = error
            continue
        groups.setdefault(spec.algorithm, []).append(index)
    for name, indices in groups.items():
        results = _Batch([specs[i] for i in indices], programs[name]).run()
        for index, result in zip(indices, results):
            outcomes[index] = result
    return outcomes  # type: ignore[return-value]


def run_batch(specs: Sequence["RunSpec"]) -> List[RunResult]:
    """Run a batch of specs; raise the earliest error, if any.

    This is the strict counterpart of :func:`run_batch_outcomes`: the
    per-spec path (``execute`` on each spec) would raise on the first
    failing spec, so the grouped path does too — the earliest submitted
    error wins, whatever group it ran in.
    """
    outcomes = run_batch_outcomes(specs)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return outcomes  # type: ignore[return-value]


class _Batch:
    """One group of same-algorithm runs stepped together.

    Public attributes are the engine arrays a
    :class:`~repro.batch.programs.BatchProgram` reads and writes in
    :meth:`BatchProgram.step`; see :mod:`repro.batch.programs`.  The
    emission buffers ``emitL_*`` / ``emitR_*`` are views into one
    ``(2, B, N)`` array so delivery can address both ports with a single
    flat index.
    """

    def __init__(self, specs: Sequence["RunSpec"], program: Any) -> None:
        self.specs = list(specs)
        self.rings = [spec.ring for spec in self.specs]
        B = len(self.specs)
        self.B = B
        self.n = np.array([ring.n for ring in self.rings], dtype=np.int64)
        N = int(self.n.max()) if B else 0
        self.N = N

        self.alive = np.zeros((B, N), dtype=bool)
        self.wake = np.full((B, N), _NEVER, dtype=np.int32)
        self.budget = np.empty(B, dtype=np.int64)
        for b, spec in enumerate(self.specs):
            n = int(self.n[b])
            self.alive[b, :n] = True
            if spec.wakeup is not None:
                self.wake[b, :n] = np.fromiter(
                    spec.wakeup, dtype=np.int32, count=n
                )
            else:
                self.wake[b, :n] = 0
            self.budget[b] = (
                spec.budget if spec.budget is not None else default_cycle_budget(n)
            )

        shape = (B, N)
        self.halted = np.zeros(shape, dtype=bool)
        self.started = np.zeros(shape, dtype=bool)
        self.halt_time = np.zeros(shape, dtype=np.int32)
        self.out_val = np.zeros(shape, dtype=np.int32)
        self.halt_now = np.zeros(shape, dtype=bool)
        # Inboxes: what arrived last cycle (consumed by this cycle's step).
        # ``*_val`` cells without a matching ``*_has`` hold stale garbage —
        # programs must mask every read, which they need to do anyway.
        self.inL_has = np.zeros(shape, dtype=bool)
        self.inL_val = np.zeros(shape, dtype=np.int32)
        self.inR_has = np.zeros(shape, dtype=bool)
        self.inR_val = np.zeros(shape, dtype=np.int32)
        # Wake inboxes: what arrived while the processor was still idle.
        self.wkL_has = np.zeros(shape, dtype=bool)
        self.wkL_val = np.zeros(shape, dtype=np.int32)
        self.wkR_has = np.zeros(shape, dtype=bool)
        self.wkR_val = np.zeros(shape, dtype=np.int32)
        # Emission buffers, rewritten by the program every cycle; axis 0
        # is the out-port (0 = LEFT, 1 = RIGHT).
        self.emit_has = np.zeros((2, B, N), dtype=bool)
        self.emit_val = np.zeros((2, B, N), dtype=np.int32)
        self.emitL_has = self.emit_has[0]
        self.emitR_has = self.emit_has[1]
        self.emitL_val = self.emit_val[0]
        self.emitR_val = self.emit_val[1]

        self._build_routing()

        #: ``alive & ~halted`` — the processors that can still take steps.
        self.can_step = self.alive.copy()
        #: Alive processors that have not yet taken their first step.
        self.unstarted = int(self.alive.sum())
        #: Refreshed lazily, on budget boundaries only (see :meth:`run`).
        self.done = np.zeros(B, dtype=bool)
        self.errors: List[Optional[BaseException]] = [None] * B
        self.msgs_total = np.zeros(B, dtype=np.int64)
        self.bits_total = np.zeros(B, dtype=np.int64)
        #: ``(cycle, per-run message counts)`` for cycles with any send,
        #: appended in ascending cycle order — per_cycle insertion order.
        self.history: List[Tuple[int, np.ndarray]] = []
        self._active = np.empty(shape, dtype=bool)

        #: The program instance owns the algorithm's own state arrays.
        self.program: "BatchProgram" = program(self)

    def _build_routing(self) -> None:
        """Invert the static-ring routing into gather tables.

        ``srcL[b, r]`` is the flat index into the ``(2, B, N)`` emission
        buffers of the one (sender, out-port) whose message lands on
        ``r``'s LEFT port; ``srcR`` likewise for RIGHT.  The math lives
        in the topology layer (:func:`repro.topology.arrays.\
batch_gather_indices`) — the vectorized sibling of the scalar
        :func:`repro.topology.base.static_arrival_table` the generator
        engine uses.  Padding cells index their own (never set) slot.
        """
        self.srcL, self.srcR = batch_gather_indices(self.rings, self.n, self.alive)

    # ------------------------------------------------------------------

    def run(self) -> List[Outcome]:
        cycle = 0
        errored = np.zeros(self.B, dtype=bool)
        while True:
            # Budget check.  ``done`` is refreshed lazily — only on
            # cycles where some not-yet-resolved run reaches its budget —
            # because a finished run's ``can_step`` row is already empty,
            # so stale ``done`` flags cannot change what executes.
            due = ~self.done & ~errored & (cycle >= self.budget)
            if due.any():
                laggard_rows = self.can_step.any(axis=1)
                self.done |= ~laggard_rows & ~errored
                over = due & laggard_rows
                for b in np.nonzero(over)[0]:
                    laggards = [
                        i for i in range(int(self.n[b])) if not self.halted[b, i]
                    ]
                    self.errors[b] = NonTerminationError(
                        f"cycle budget {int(self.budget[b])} exhausted; "
                        f"still running: {laggards}"
                    )
                    self.can_step[b] = False  # freeze the run
                errored |= over
            if not self.can_step.any():
                break

            # --- half-step 1: emissions (program-defined) -------------
            first: Optional[np.ndarray] = None
            if self.unstarted:
                np.logical_and(
                    self.can_step, self.wake <= cycle, out=self._active
                )
                active = self._active
                candidate = active & ~self.started
                if candidate.any():
                    first = candidate
            else:
                active = self.can_step
            self.halt_now[...] = False
            self.emit_has[...] = False

            self.program.step(self, active, first, cycle)

            if first is not None:
                self.started |= first
                self.unstarted -= int(first.sum())
                # Wake inboxes were consumed by the first step.
                np.copyto(self.wkL_has, False, where=first)
                np.copyto(self.wkR_has, False, where=first)
            if self.halt_now.any():
                # Halting lanes were steppable, so ``^=`` is ``&= ~``.
                self.halted |= self.halt_now
                self.can_step ^= self.halt_now
                np.copyto(self.halt_time, np.int32(cycle), where=self.halt_now)

            # --- half-step 2: delivery --------------------------------
            msg_count = np.count_nonzero(self.emit_has, axis=2).sum(
                axis=0, dtype=np.int64
            )
            if msg_count.any():
                self._deliver(cycle)
                self.msgs_total += msg_count
                if self.program.unit_bits:
                    self.bits_total += msg_count
                else:
                    self.bits_total += np.sum(
                        self.program.bits(self.emit_val),
                        axis=(0, 2),
                        where=self.emit_has,
                    )
                self.history.append((cycle, msg_count))
            else:
                self.inL_has[...] = False
                self.inR_has[...] = False

            cycle += 1

        return [self._result(b) for b in range(self.B)]

    def _deliver(self, cycle: int) -> None:
        """Gather this cycle's emissions into next cycle's inboxes.

        Sends were already counted per sender; a send whose receiver has
        halted simply gathers into a masked-off lane — counted then
        dropped, the generator engine's accounting exactly (``dropped``
        stays 0 for synchronous runs).
        """
        emit_has = self.emit_has.reshape(-1)
        candL = emit_has[self.srcL]
        candR = emit_has[self.srcR]
        if self.program.carries_values:
            emit_val = self.emit_val.reshape(-1)
            self.inL_val[...] = emit_val[self.srcL]
            self.inR_val[...] = emit_val[self.srcR]
        if self.unstarted:
            idle = ~self.started & (self.wake > cycle)
            for cand, in_has, wk_has, wk_val, in_val in (
                (candL, self.inL_has, self.wkL_has, self.wkL_val, self.inL_val),
                (candR, self.inR_has, self.wkR_has, self.wkR_val, self.inR_val),
            ):
                waking = cand & idle & self.alive
                if waking.any():
                    wk_has |= waking
                    if self.program.carries_values:
                        np.copyto(wk_val, in_val, where=waking)
                    np.copyto(self.wake, np.int32(cycle + 1), where=waking)
                    cand &= ~idle
                np.logical_and(cand, self.can_step, out=in_has)
        else:
            np.logical_and(candL, self.can_step, out=self.inL_has)
            np.logical_and(candR, self.can_step, out=self.inR_has)

    def _result(self, b: int) -> Outcome:
        if self.errors[b] is not None:
            return self.errors[b]
        n = int(self.n[b])
        stats = TraceStats()
        stats.messages = int(self.msgs_total[b])
        stats.bits = int(self.bits_total[b])
        for cycle, counts in self.history:
            count = int(counts[b])
            if count:
                stats.per_cycle[cycle] = count
        halt_times = tuple(self.halt_time[b, :n].tolist())
        return RunResult(
            outputs=self.program.outputs(self, b),
            stats=stats,
            cycles=max(halt_times) if halt_times else 0,
            halt_times=halt_times,
        )
