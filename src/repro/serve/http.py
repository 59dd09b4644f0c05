"""Minimal asyncio HTTP/1.1 layer for the gateway — stdlib only.

Just enough HTTP to serve three endpoints over ``asyncio.start_server``
streams (no aiohttp, no threads per connection, one request per
connection):

* ``GET /healthz`` — liveness: ``{"ok": true}``.
* ``GET /stats`` — queue depth, counters, cache stats, runner telemetry.
* ``POST /runs`` — submit a JSON batch ``{"specs": [...]}`` (each spec
  in the :meth:`~repro.runtime.spec.RunSpec.to_json_dict` format).
  Responds ``429`` + ``Retry-After`` when the bounded queue is full,
  ``400`` on malformed specs, and otherwise streams newline-delimited
  JSON (chunked transfer): one ``accepted`` line, then one ``run`` line
  per spec in completion order — warm entries first, each carrying the
  pickle-encoded result (with its recorded :mod:`repro.obs` event log
  for ``record=True`` specs) — closed by a ``done`` line.  Each line
  goes out as one chunk.  See ``docs/serve.md`` for the exact line
  schemas.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, List, Optional, Tuple

from ..core.errors import ConfigurationError
from ..runtime.spec import RunSpec
from .gateway import Gateway, QueueFull, RunEntry, RunError
from .protocol import done_line, encode_run, error_line, ndjson, run_lines

#: Largest accepted request body (a million-spec batch is a misuse).
MAX_BODY_BYTES = 64 * 1024 * 1024

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
}


class _BadRequest(Exception):
    """Maps straight to a 400 with its message as the body."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one request: ``(method, path, headers, body)``."""
    line = await reader.readline()
    if not line:
        raise ConnectionError("empty request")
    try:
        method, target, _version = line.decode("ascii").split(None, 2)
    except ValueError:
        raise _BadRequest("malformed request line") from None
    headers: Dict[str, str] = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n", b""):
            break
        name, sep, value = raw.decode("latin-1").partition(":")
        if sep:
            headers[name.strip().lower()] = value.strip()
    raw_length = headers.get("content-length", "0") or "0"
    if not (raw_length.isascii() and raw_length.isdigit()):
        raise _BadRequest(f"malformed Content-Length {raw_length!r}")
    length = int(raw_length)
    if length > MAX_BODY_BYTES:
        raise _BadRequest(f"body of {length} bytes exceeds {MAX_BODY_BYTES}")
    body = await reader.readexactly(length) if length else b""
    return method, target.split("?", 1)[0], headers, body


def _response_bytes(
    status: int, body: bytes, content_type: str, extra: Optional[Dict[str, str]] = None
) -> bytes:
    head = [f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}"]
    head.append(f"Content-Type: {content_type}")
    head.append(f"Content-Length: {len(body)}")
    head.append("Connection: close")
    for name, value in (extra or {}).items():
        head.append(f"{name}: {value}")
    return ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body


def _json_response(
    status: int, payload: Any, extra: Optional[Dict[str, str]] = None
) -> bytes:
    return _response_bytes(status, ndjson(payload), "application/json", extra)


class HttpServer:
    """The gateway's HTTP front end (see module docstring)."""

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1", port: int = 0) -> None:
        self.gateway = gateway
        self.host = host
        self.port = port  # replaced by the bound port after start()
        self._server: Optional[asyncio.AbstractServer] = None

    async def start(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        self.port = self._server.sockets[0].getsockname()[1]

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            try:
                method, path, _headers, body = await _read_request(reader)
            except _BadRequest as exc:
                writer.write(_json_response(400, {"error": str(exc)}))
                await writer.drain()
                return
            except (ConnectionError, asyncio.IncompleteReadError):
                return
            if path == "/healthz" and method == "GET":
                writer.write(_json_response(200, {"ok": True}))
            elif path == "/stats" and method == "GET":
                writer.write(_json_response(200, self.gateway.stats()))
            elif path == "/runs" and method == "POST":
                await self._handle_runs(writer, body)
            elif path in ("/healthz", "/stats", "/runs"):
                writer.write(_json_response(405, {"error": f"{method} not allowed"}))
            else:
                writer.write(_json_response(404, {"error": f"no route {path}"}))
            await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            try:
                writer.write(_json_response(500, {"error": f"{type(exc).__name__}: {exc}"}))
                await writer.drain()
            except OSError:
                pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _handle_runs(self, writer: asyncio.StreamWriter, body: bytes) -> None:
        try:
            specs = self._parse_specs(body)
        except _BadRequest as exc:
            writer.write(_json_response(400, {"error": str(exc)}))
            return
        try:
            entries = self.gateway.submit(specs)
        except QueueFull as exc:
            writer.write(
                _json_response(
                    429,
                    {
                        "error": "queue full",
                        "pending": exc.pending,
                        "limit": exc.limit,
                        "retry_after": exc.retry_after,
                    },
                    extra={"Retry-After": str(exc.retry_after)},
                )
            )
            return
        await self._stream_entries(writer, entries)

    def _parse_specs(self, body: bytes) -> List[RunSpec]:
        try:
            payload = json.loads(body)
        except ValueError:
            raise _BadRequest("body is not valid JSON") from None
        if not isinstance(payload, dict) or not isinstance(payload.get("specs"), list):
            raise _BadRequest('body must be {"specs": [...]}')
        if not payload["specs"]:
            raise _BadRequest("empty spec batch")
        specs = []
        for position, data in enumerate(payload["specs"]):
            try:
                specs.append(RunSpec.from_json_dict(data))
            except ConfigurationError as exc:
                raise _BadRequest(f"spec {position}: {exc}") from None
        return specs

    async def _stream_entries(
        self, writer: asyncio.StreamWriter, entries: List[RunEntry]
    ) -> None:
        """The NDJSON chunked response: one chunk per run, as runs complete."""
        cached = [entry for entry in entries if entry.status == "cached"]
        queued = [entry for entry in entries if entry.status == "queued"]
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Transfer-Encoding: chunked\r\n"
            b"Connection: close\r\n\r\n"
        )
        await self._chunk(writer, ndjson(
            {"type": "accepted", "runs": len(entries), "cached": len(cached),
             "queued": len(queued)},
        ))
        failures = 0
        for entry in cached:  # warm answers flow immediately
            # Encoded one by one as they go out, so the client decodes a
            # run while the next one is encoded.
            run = encode_run(entry.result)
            await self._chunk(writer, run_lines(entry.index, entry.digest, "cached", run))
        by_future: Dict["asyncio.Future[Any]", List[RunEntry]] = {}
        for entry in queued:
            assert entry.future is not None
            by_future.setdefault(entry.future, []).append(entry)
        outstanding = set(by_future)
        while outstanding:
            done, outstanding = await asyncio.wait(
                outstanding, return_when=asyncio.FIRST_COMPLETED
            )
            for future in done:
                error = future.exception()
                for entry in by_future[future]:
                    if error is None:
                        data = run_lines(entry.index, entry.digest, "done", future.result())
                    else:
                        failures += 1
                        message = str(error) if isinstance(error, RunError) else repr(error)
                        data = ndjson(error_line(entry.index, entry.digest, message))
                    await self._chunk(writer, data)
        await self._chunk(writer, ndjson(done_line(runs=len(entries), failed=failures)))
        writer.write(b"0\r\n\r\n")

    async def _chunk(self, writer: asyncio.StreamWriter, data: bytes) -> None:
        """One chunk of the chunked body, flushed."""
        writer.write(f"{len(data):X}\r\n".encode("ascii") + data + b"\r\n")
        await writer.drain()
