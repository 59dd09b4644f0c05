"""NDJSON line schemas, and the encoded run the run lines are built from.

Every line of a ``POST /runs`` response is one JSON object with a
``type`` field:

* ``{"type": "accepted", "runs": N, "cached": C, "queued": Q}`` — the
  batch was admitted; exactly one, first.
* ``{"type": "run", "index": i, "digest": d, "status": s, ...}`` — one
  per submitted spec, in completion order (warm entries first).
  ``status`` is ``"cached"`` / ``"done"`` / ``"error"``; successful
  lines carry ``result_pickle`` (base64 of the result's pickle — the
  *same bytes contract* as local execution: unpickling yields a result
  pickle-equal to ``Runner.run_specs``) plus a small JSON ``summary``;
  error lines carry ``error``.  A ``record=True`` run's :mod:`repro.obs`
  events travel inside its result, as the result's
  :class:`~repro.obs.events.EventLog`.
* ``{"type": "done", "runs": N, "failed": F}`` — exactly one, last.

A successful run is encoded once, by :func:`encode_run`, into an
:class:`EncodedRun`: the result's pickle bytes and its summary.  Cold
runs are encoded in the pool worker that ran them
(:mod:`repro.serve.worker`), so the gateway caches and streams those
bytes without unpickling the result; warm hits are encoded from the
cached result.  :func:`run_lines` renders one run's ``run`` line; every
line is byte for byte the ``json.dumps`` of its object.
"""

from __future__ import annotations

import base64
import json
import pickle
from typing import Any, Dict, NamedTuple


class EncodedRun(NamedTuple):
    """A successful run in wire form (see module docstring).

    Attributes:
        pickled: ``pickle.dumps(result, HIGHEST_PROTOCOL)``; a recorded
            result's event log pickles as its int32 column bytes and
            tables.
        summary: the run line's ``summary`` object.
    """

    pickled: bytes
    summary: Dict[str, Any]


def _summary(value: Any) -> Dict[str, Any]:
    """A small JSON-able glance at a result (the full result is the pickle)."""
    stats = getattr(value, "stats", None)
    return {
        "n": getattr(value, "n", None),
        "messages": getattr(stats, "messages", None),
        "bits": getattr(stats, "bits", None),
        "cycles": getattr(value, "cycles", None),
    }


def encode_run(result: Any) -> EncodedRun:
    """The result's wire form: pickle bytes and summary."""
    return EncodedRun(
        pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL), _summary(result)
    )


def decode_result(data: str) -> Any:
    """The result of a run line's ``result_pickle``."""
    return pickle.loads(base64.b64decode(data.encode("ascii")))


def ndjson(payload: Any) -> bytes:
    """One JSON value as one NDJSON line."""
    return (json.dumps(payload) + "\n").encode()


def run_lines(index: int, digest: str, status: str, run: EncodedRun) -> bytes:
    """A successful run's ``run`` line."""
    return ndjson({
        "type": "run",
        "index": index,
        "digest": digest,
        "status": status,
        "result_pickle": base64.b64encode(run.pickled).decode("ascii"),
        "summary": run.summary,
    })


def error_line(index: int, digest: str, message: str) -> Dict[str, Any]:
    """A failed run's ``run`` line."""
    return {
        "type": "run",
        "index": index,
        "digest": digest,
        "status": "error",
        "error": message,
    }


def done_line(runs: int, failed: int) -> Dict[str, Any]:
    return {"type": "done", "runs": runs, "failed": failed}
