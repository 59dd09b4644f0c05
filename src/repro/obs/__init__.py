"""``repro.obs`` — structured event tracing, metrics, and run profiling.

The observability layer for both ring engines and the runtime:

* :mod:`repro.obs.events` — the typed :class:`Event` record, the
  :class:`Recorder` hook protocol the engines call, and
  :class:`EventRecorder`, which stamps every event with a cycle index
  (synchronous engines) or a per-processor Lamport clock (general
  asynchronous engine) so causality is reconstructible, appending one
  row per event to a columnar :class:`EventLog`;
* :mod:`repro.obs.metrics` — :func:`reconcile`, the field-for-field
  proof that a recorded stream agrees with the run's
  :class:`~repro.core.tracing.TraceStats`, and :func:`run_metrics`, the
  per-run metrics snapshot (latency histogram, queue depth, per-processor
  sends, time to quiescence);
* :mod:`repro.obs.export` — JSONL and Chrome trace-event (Perfetto)
  exporters, the template renderer of an :class:`EventLog`'s wire texts,
  the trace-event schema validator, and reconstruction of the
  per-message envelope view and the space–time diagram's inputs from
  events alone.

Recording is opt-in everywhere: :class:`repro.runtime.spec.RunSpec` has
a ``record`` flag, every engine takes ``recorder=None``, and the engine
hot paths do no observability work at all when it is off (held to < 5 %
by ``python -m repro bench --suite obs``).  See ``docs/observability.md``.
"""

from .events import (
    CLOCK_CYCLE,
    CLOCK_LAMPORT,
    EVENT_KINDS,
    Event,
    EventLog,
    EventRecorder,
    Recorder,
)
from .export import (
    OpaquePayload,
    chrome_trace,
    decode_value,
    encode_value,
    envelopes_from_events,
    event_from_json,
    event_to_json,
    events_to_jsonl,
    read_events_jsonl,
    result_from_events,
    validate_chrome_trace,
    write_chrome_trace,
    write_events_jsonl,
)
from .metrics import ReconciliationError, assert_reconciled, reconcile, run_metrics

__all__ = [
    "CLOCK_CYCLE",
    "CLOCK_LAMPORT",
    "EVENT_KINDS",
    "Event",
    "EventLog",
    "EventRecorder",
    "OpaquePayload",
    "ReconciliationError",
    "Recorder",
    "assert_reconciled",
    "chrome_trace",
    "decode_value",
    "encode_value",
    "envelopes_from_events",
    "event_from_json",
    "event_to_json",
    "events_to_jsonl",
    "read_events_jsonl",
    "reconcile",
    "result_from_events",
    "run_metrics",
    "validate_chrome_trace",
    "write_chrome_trace",
    "write_events_jsonl",
]
