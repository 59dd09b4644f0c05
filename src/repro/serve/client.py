"""Blocking HTTP client for the gateway — stdlib ``http.client`` only.

Used by ``python -m repro submit``, the test suite, and the CI smoke:
:func:`submit_specs` posts a spec batch and consumes the NDJSON stream
into per-run :class:`RunOutcome` objects whose ``result`` is the
unpickled :class:`~repro.core.tracing.RunResult` — pickle-equal to what
a local :meth:`~repro.runtime.runner.Runner.run_specs` returns for the
same specs.
"""

from __future__ import annotations

import http.client
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence
from urllib.parse import urlsplit

from ..runtime.spec import RunSpec
from .protocol import decode_result


class ServeClientError(RuntimeError):
    """The gateway answered with a non-streaming error status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status


class ServerQueueFull(ServeClientError):
    """429: the bounded job queue rejected the batch (backpressure)."""

    def __init__(self, message: str, retry_after: Optional[int]) -> None:
        super().__init__(429, message)
        self.retry_after = retry_after


@dataclass
class RunOutcome:
    """One spec's outcome as reported by the stream.

    ``status`` is ``"cached"``, ``"done"``, or ``"error"``; ``events``
    collects the run's streamed obs-event lines (raw JSON dicts in the
    JSONL export format).
    """

    index: int
    digest: str
    status: str
    result: Any = None
    error: Optional[str] = None
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.status in ("cached", "done")


#: Bytes asked for per read of a streamed response body.
READ_BLOCK = 1 << 16


def _messages(response: http.client.HTTPResponse) -> Iterator[Dict[str, Any]]:
    """The body's NDJSON objects, block by block as they arrive.

    ``read1`` returns what one read of the socket gives (http.client
    undoes the chunked framing).  The complete lines of each block are
    parsed together as one JSON array: one ``json.loads`` per block
    rather than a ``readline`` and a ``json.loads`` per line.  A last
    line without its newline is dropped, as only a cut stream ends so.
    """
    pieces: List[bytes] = []
    while True:
        block = response.read1(READ_BLOCK)
        if not block:
            break
        cut = block.rfind(b"\n")
        if cut < 0:
            pieces.append(block)
            continue
        pieces.append(block[:cut])
        lines = [line for line in b"".join(pieces).split(b"\n") if line.strip()]
        pieces = [block[cut + 1:]]
        if lines:
            yield from json.loads(b"[" + b",".join(lines) + b"]")


def _connect(url: str, timeout: float) -> http.client.HTTPConnection:
    parts = urlsplit(url)
    if parts.scheme != "http" or parts.hostname is None:
        raise ValueError(f"gateway url must look like http://host:port, got {url!r}")
    return http.client.HTTPConnection(parts.hostname, parts.port or 80, timeout=timeout)


def _request_json(url: str, method: str, path: str, timeout: float) -> Any:
    conn = _connect(url, timeout)
    try:
        conn.request(method, path)
        response = conn.getresponse()
        body = response.read()
        if response.status != 200:
            raise ServeClientError(response.status, body.decode(errors="replace"))
        return json.loads(body)
    finally:
        conn.close()


def check_health(url: str, timeout: float = 10.0) -> bool:
    """``True`` iff ``GET /healthz`` answers ok."""
    try:
        return bool(_request_json(url, "GET", "/healthz", timeout).get("ok"))
    except (OSError, ValueError, ServeClientError):
        return False


def fetch_stats(url: str, timeout: float = 10.0) -> Dict[str, Any]:
    """The gateway's ``GET /stats`` payload."""
    return _request_json(url, "GET", "/stats", timeout)


def submit_specs(
    url: str, specs: Sequence[RunSpec], timeout: float = 600.0
) -> List[RunOutcome]:
    """Submit a batch, stream the response, return outcomes in spec order.

    Raises :class:`ServerQueueFull` on backpressure (429) and
    :class:`ServeClientError` on any other non-200; per-run failures are
    *not* exceptions — they come back as ``status="error"`` outcomes so
    one bad spec never hides its batchmates' results.
    """
    specs = list(specs)
    body = json.dumps({"specs": [spec.to_json_dict() for spec in specs]})
    conn = _connect(url, timeout)
    try:
        conn.request(
            "POST", "/runs", body, {"Content-Type": "application/json"}
        )
        response = conn.getresponse()
        if response.status == 429:
            retry_header = response.getheader("Retry-After")
            raise ServerQueueFull(
                response.read().decode(errors="replace"),
                int(retry_header) if retry_header else None,
            )
        if response.status != 200:
            raise ServeClientError(
                response.status, response.read().decode(errors="replace")
            )
        outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
        done = False
        for data in _messages(response):
            kind = data.get("type")
            if kind == "run":
                index = data["index"]
                outcome = RunOutcome(
                    index=index,
                    digest=data["digest"],
                    status=data["status"],
                    error=data.get("error"),
                )
                if "result_pickle" in data:
                    outcome.result = decode_result(data["result_pickle"])
                outcomes[index] = outcome
            elif kind == "event":
                target = outcomes[data["index"]]
                if target is not None:
                    target.events.append(data["event"])
            elif kind == "done":
                done = True
                break
        if not done:
            raise ServeClientError(200, "stream ended before the done line")
        missing = [i for i, outcome in enumerate(outcomes) if outcome is None]
        if missing:
            raise ServeClientError(200, f"stream never reported runs {missing}")
        return [outcome for outcome in outcomes if outcome is not None]
    finally:
        conn.close()
