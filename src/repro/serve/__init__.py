"""Ring-as-a-service: an asyncio HTTP gateway over the runtime layer.

``python -m repro serve`` turns the repo's execution stack —
:class:`~repro.runtime.spec.RunSpec` digests,
:class:`~repro.runtime.runner.Runner` worker pools, and a shared
:class:`~repro.runtime.cache.ResultCache` — into a many-tenant
service: JSON-encoded spec batches come in over HTTP, warm digests are
answered straight from the cache without executing anything, cold specs
(bounded in flight, backpressure: ``429 Retry-After``) run on the
runner's long-lived worker pool, and per-run status plus the pickled
result go back as newline-delimited JSON, one line per run.  Results on
the wire are the *same bytes* local execution produces: pickle-equal to
``Runner.run_specs`` on the same specs, a ``record=True`` run's
:mod:`repro.obs` event log included.

Layers (each its own module, no third-party dependencies anywhere):

* :mod:`repro.serve.gateway` — admission, backpressure, dispatch, cache policy;
* :mod:`repro.serve.http`    — minimal asyncio HTTP/1.1 + NDJSON streaming;
* :mod:`repro.serve.protocol` — the encoded run and the wire-format line schemas;
* :mod:`repro.serve.worker`  — the pool-side run, encoded once where it ran;
* :mod:`repro.serve.client`  — blocking stdlib client (CLI, tests, CI);
* :mod:`repro.serve.app`     — assembly: event loop, server thread, CLI.

See ``docs/serve.md`` for the API and semantics.
"""

from .app import ServerThread, run_server
from .client import (
    RunOutcome,
    ServeClientError,
    ServerQueueFull,
    check_health,
    fetch_stats,
    submit_specs,
)
from .gateway import Gateway, QueueFull, RunError
from .http import HttpServer

__all__ = [
    "Gateway",
    "HttpServer",
    "QueueFull",
    "RunError",
    "RunOutcome",
    "ServeClientError",
    "ServerQueueFull",
    "ServerThread",
    "check_health",
    "fetch_stats",
    "run_server",
    "submit_specs",
]
