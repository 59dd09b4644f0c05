"""Pool-worker entry point for the gateway.

The gateway cannot let a failing spec raise out of
:meth:`~repro.runtime.runner.Runner.map` — one bad spec must not abort
the rest of its batch, and an error
must never be stored in the shared result cache under a spec digest.
So gateway tasks return *outcomes*: ``("ok", run)`` or ``("err",
message)`` tuples that always pickle back cleanly, and the gateway
decides per job what to cache and what to report.

``run`` is the result already in wire form
(:func:`repro.serve.protocol.encode_run`: its pickle bytes and summary),
built here next to the engine that produced it, so
the gateway caches and streams those bytes and never unpickles or
re-pickles a cold result.  A result that fails to encode is that run's
error.
"""

from __future__ import annotations

from typing import Any, Tuple

from ..runtime.spec import RunSpec, execute
from .protocol import encode_run

#: Outcome tags.
OK = "ok"
ERR = "err"


def execute_outcome(spec: RunSpec) -> Tuple[str, Any]:
    """Run and encode one spec, capturing failure as data instead of raising."""
    try:
        return (OK, encode_run(execute(spec)))
    except Exception as exc:  # noqa: BLE001 - per-job outcome by design
        return (ERR, f"{type(exc).__name__}: {exc}")
