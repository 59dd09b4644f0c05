"""Assembly: run a gateway + HTTP server in a loop, a thread, or the CLI.

* :func:`run_server` — the one coroutine that wires a
  :class:`~repro.serve.gateway.Gateway` to an
  :class:`~repro.serve.http.HttpServer`, announces readiness, and keeps
  serving until cancelled or a stop event fires.
* :class:`ServerThread` — the same stack on a daemon thread with its own
  event loop; context-manager style for tests and the CI smoke
  (``with ServerThread(cache=...) as server: submit_specs(server.url, …)``).
* :func:`main` — the ``python -m repro serve`` entry point.
"""

from __future__ import annotations

import asyncio
import threading
from typing import Any, Callable, Optional

from ..runtime.cache import ResultCache
from .gateway import Gateway
from .http import HttpServer


async def run_server(
    host: str = "127.0.0.1",
    port: int = 0,
    jobs: int = 1,
    queue_limit: int = 256,
    cache: Optional[ResultCache] = None,
    on_ready: Optional[Callable[[HttpServer, Gateway], None]] = None,
    stop: Optional["asyncio.Event"] = None,
) -> None:
    """Serve until ``stop`` fires (or forever); always shuts down cleanly.

    Clean shutdown means: the HTTP listener closes first (no new
    submissions), then the gateway finishes every job in flight before
    the worker pool is released — a stopping service never abandons
    admitted work.
    """
    gateway = Gateway(cache=cache, jobs=jobs, queue_limit=queue_limit)
    server = HttpServer(gateway, host=host, port=port)
    await server.start()
    if on_ready is not None:
        on_ready(server, gateway)
    try:
        if stop is None:
            await asyncio.Event().wait()  # serve forever
        else:
            await stop.wait()
    finally:
        await server.close()
        await gateway.close()


class ServerThread:
    """A live gateway on a background thread (tests, CI, notebooks).

    ``start()`` blocks until the port is bound; ``url`` then points at
    the listening server.  ``stop()`` (or leaving the ``with`` block)
    performs the same finish-then-release shutdown as the CLI.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        jobs: int = 1,
        queue_limit: int = 256,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._kwargs = dict(
            cache=cache, jobs=jobs, queue_limit=queue_limit, host=host, port=port
        )
        self.url: Optional[str] = None
        self.gateway: Optional[Gateway] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional["asyncio.Event"] = None
        self._thread: Optional[threading.Thread] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._run, name="repro-serve", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout=30):
            raise RuntimeError("gateway did not come up within 30s")
        if self._error is not None:
            raise RuntimeError(f"gateway failed to start: {self._error!r}")
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join(timeout=60)

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        self.stop()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced via start()
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def ready(server: HttpServer, gateway: Gateway) -> None:
            self.url = server.url
            self.gateway = gateway
            self._ready.set()

        await run_server(on_ready=ready, stop=self._stop, **self._kwargs)
