"""Exception hierarchy for the anonymous-ring reproduction library.

All library-specific errors derive from :class:`ReproError`, so callers can
catch a single base class.  Errors are split along three lines: model
violations (an algorithm trying to do something the §2 machine model
forbids), configuration problems (malformed rings), and simulation
failures (disagreeing outputs, runs that never halt).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """A ring configuration is malformed (bad size, bad orientation vector)."""


class ModelViolationError(ReproError):
    """An algorithm violated the machine model of §2.

    Examples: sending on a nonexistent port, sending after halting, or a
    processor attempting to read its own index (anonymity breach).
    """


class SimulationError(ReproError):
    """The simulator detected an inconsistent internal state."""


class OutputDisagreement(SimulationError):
    """Processors that must agree produced different outputs.

    Raised by :meth:`repro.core.tracing.RunResult.unanimous_output` (and by
    the fuzz harness) instead of a bare ``AssertionError``, so the failure
    survives ``python -O`` and is distinguishable from harness bugs.  The
    full per-processor output tuple rides along in :attr:`outputs`.
    """

    def __init__(self, outputs: tuple) -> None:
        super().__init__(f"outputs disagree: {outputs!r}")
        self.outputs = outputs


class NonTerminationError(SimulationError):
    """A simulation exceeded its cycle or event budget without halting.

    Deterministic anonymous-ring algorithms in this library all have known
    worst-case running times; exceeding a generous multiple of that budget
    indicates a bug (usually a deadlock the algorithm failed to detect).
    """


class ProtocolError(ModelViolationError):
    """A processor produced output that violates its algorithm's protocol."""
