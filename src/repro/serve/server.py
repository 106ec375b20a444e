"""The asyncio HTTP shell around :class:`SimulationService`.

Stdlib-only by design (the repo bakes in no third-party runtime deps):
a minimal HTTP/1.1 implementation over ``asyncio.start_server`` —
request line, headers, ``Content-Length`` body, keep-alive — which is
all four endpoints need:

* ``POST /v1/simulate`` — declare a grid cell, long-poll its report;
* ``GET /v1/cell/<digest>`` — store lookup only (404 on a cold cell);
* ``GET /metrics`` — Prometheus text exposition of the registry;
* ``GET /healthz`` / ``GET /v1/stats`` — liveness / resolution stats.

Every request is measured into the ``serve_latency_seconds`` histogram
(labelled by its resolution source) and mirrored as a
``serve_response`` event, so the same observability pillars that watch
the simulator watch the service.

:class:`ServerThread` runs the whole stack on a background thread with
its own event loop — the tests and the CI smoke check drive a real
socket through it.
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import JobError, ServeError, StoreError
from repro.obs import MetricsRegistry, Observer
from repro.serve.protocol import (
    error_payload,
    request_from_json,
    response_payload,
)
from repro.serve.service import SimulationService
from repro.store import ResultStore

#: Hard cap on request body size (a cell declaration is ~1 KiB).
MAX_BODY_BYTES = 1 << 20
#: Hard cap on one header line / the request line.
_MAX_LINE = 16 * 1024
#: Hard cap on header count per request.
_MAX_HEADERS = 100

#: Latency histogram buckets, seconds: sub-millisecond warm hits up
#: through multi-second cold simulations.
LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
                   0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    500: "Internal Server Error", 502: "Bad Gateway",
}


class _HttpError(Exception):
    """Protocol-level failure mapped straight to a status code."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


@dataclass
class _HttpRequest:
    method: str
    path: str
    headers: Dict[str, str]
    body: bytes

    @property
    def keep_alive(self) -> bool:
        return self.headers.get("connection", "").lower() != "close"


async def _read_request(reader: asyncio.StreamReader) -> Optional[_HttpRequest]:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, "truncated request line") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(400, "request line too long") from None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/"):
        raise _HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: Dict[str, str] = {}
    for _ in range(_MAX_HEADERS):
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError, asyncio.LimitOverrunError):
            raise _HttpError(400, "truncated headers") from None
        if len(raw) > _MAX_LINE:
            raise _HttpError(400, "header line too long")
        text = raw.decode("latin-1").strip()
        if not text:
            break
        name, sep, value = text.partition(":")
        if not sep:
            raise _HttpError(400, f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()
    else:
        raise _HttpError(400, "too many headers")
    body = b""
    length_text = headers.get("content-length")
    if length_text is not None:
        try:
            length = int(length_text)
        except ValueError:
            raise _HttpError(400, "malformed Content-Length") from None
        if length < 0:
            raise _HttpError(400, "malformed Content-Length")
        if length > MAX_BODY_BYTES:
            raise _HttpError(413, f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError:
            raise _HttpError(400, "truncated body") from None
    return _HttpRequest(method, target, headers, body)


class GridServer:
    """Serve :class:`SimulationService` over a TCP socket."""

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 8765,
        observer: Optional[Observer] = None,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.obs = observer if observer is not None else service.obs
        self._server: Optional[asyncio.AbstractServer] = None

    # -- lifecycle -------------------------------------------------------
    async def start(self) -> None:
        """Start the service and bind the socket.

        Raises ``OSError`` when the port is taken — callers (the CLI)
        turn that into a one-line startup error.
        """
        await self.service.start()
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.host, self.port
            )
        except BaseException:
            await self.service.close()
            raise
        self.port = self._server.sockets[0].getsockname()[1]
        self.obs.event("serve_started", 0, host=self.host, port=self.port,
                       store=self.service.store.root)

    async def serve_forever(self) -> None:
        if self._server is None:
            raise ServeError("server not started")
        await self._server.serve_forever()

    async def close(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.close()
        self.obs.event("serve_stopped", 0, host=self.host, port=self.port)

    # -- connection handling ---------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _HttpError as exc:
                    await self._respond(
                        writer, exc.status,
                        _json_body(error_payload(str(exc))),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                keep_alive = await self._dispatch(request, writer)
                if not keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(
        self, request: _HttpRequest, writer: asyncio.StreamWriter
    ) -> bool:
        started = time.perf_counter()
        source = "-"
        try:
            status, body, content_type, source = await self._route(request)
        except ServeError as exc:
            status, content_type = 400, "application/json"
            body = _json_body(error_payload(str(exc)))
            source = "error"
        except JobError as exc:
            # The cell itself failed terminally (retries exhausted,
            # timeout): the request was valid, the backend was not.
            status, content_type = 502, "application/json"
            body = _json_body(error_payload(str(exc)))
            source = "error"
        except StoreError as exc:
            status, content_type = 400, "application/json"
            body = _json_body(error_payload(str(exc)))
            source = "error"
        except Exception as exc:  # pragma: no cover - defensive
            status, content_type = 500, "application/json"
            body = _json_body(error_payload(
                f"internal error: {type(exc).__name__}: {exc}"))
            source = "error"
        latency = time.perf_counter() - started
        if self.obs.metrics is not None:
            self.obs.metrics.counter(
                "serve_requests_total",
                "HTTP requests by method/path/status.",
                labelnames=("method", "path", "status"),
            ).inc(method=request.method, path=_metric_path(request.path),
                  status=status)
            self.obs.metrics.histogram(
                "serve_latency_seconds",
                "Request latency by resolution source.",
                labelnames=("source",),
                buckets=LATENCY_BUCKETS,
            ).observe(latency, source=source)
        self.obs.event("serve_response", 0, method=request.method,
                       path=request.path, status=status, source=source,
                       latency_ms=round(latency * 1000, 3))
        keep_alive = request.keep_alive and status < 500
        await self._respond(writer, status, body, keep_alive=keep_alive,
                            content_type=content_type)
        return keep_alive

    async def _route(
        self, request: _HttpRequest
    ) -> Tuple[int, bytes, str, str]:
        """Returns ``(status, body, content_type, source)``."""
        method, path = request.method, request.path.split("?", 1)[0]
        if path == "/v1/simulate":
            if method != "POST":
                return _method_not_allowed("POST")
            cell = request_from_json(request.body)
            started = time.perf_counter()
            report, source, digest = await self.service.resolve(cell)
            elapsed_ms = (time.perf_counter() - started) * 1000
            payload = response_payload(cell, digest, report, source,
                                       elapsed_ms)
            return 200, _json_body(payload), "application/json", source
        if path.startswith("/v1/cell/"):
            if method != "GET":
                return _method_not_allowed("GET")
            digest = path[len("/v1/cell/"):]
            payload = await asyncio.to_thread(
                self.service.store.get_digest, digest
            )
            if payload is None:
                return (404, _json_body(error_payload(
                    f"no stored cell under digest {digest[:12]}...")),
                    "application/json", "miss")
            return 200, _json_body(payload), "application/json", "store"
        if path == "/metrics":
            if method != "GET":
                return _method_not_allowed("GET")
            registry = self.obs.metrics
            text = registry.to_prometheus() if registry is not None else ""
            return (200, text.encode("utf-8"),
                    "text/plain; version=0.0.4; charset=utf-8", "metrics")
        if path == "/healthz":
            if method != "GET":
                return _method_not_allowed("GET")
            payload = {"status": "ok", "inflight": self.service.inflight}
            return 200, _json_body(payload), "application/json", "health"
        if path == "/v1/stats":
            if method != "GET":
                return _method_not_allowed("GET")
            payload = {
                "status": "ok",
                "service": self.service.stats.as_dict(),
                "store": self.service.store.stats.as_dict(),
                "inflight": self.service.inflight,
            }
            return 200, _json_body(payload), "application/json", "stats"
        return (404, _json_body(error_payload(f"no route for {path!r}")),
                "application/json", "miss")

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        body: bytes,
        keep_alive: bool,
        content_type: str = "application/json",
    ) -> None:
        reason = _STATUS_TEXT.get(status, "Unknown")
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n"
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()


def _json_body(payload: object) -> bytes:
    return json.dumps(payload).encode("utf-8")


def _method_not_allowed(allowed: str) -> Tuple[int, bytes, str, str]:
    return (405, _json_body(error_payload(f"use {allowed}")),
            "application/json", "error")


def _metric_path(path: str) -> str:
    """Collapse per-digest paths so metric cardinality stays bounded."""
    path = path.split("?", 1)[0]
    if path.startswith("/v1/cell/"):
        return "/v1/cell/:digest"
    return path


class ServerThread:
    """A real server on a background thread (tests, bench, smoke, CLI-free
    embedding).

    Starts the event loop, service and socket on a daemon thread and
    blocks until the port is bound (or re-raises the startup error in
    the caller).  ``stop()`` shuts the stack down and joins the thread.
    Usable as a context manager.
    """

    def __init__(
        self,
        store_root: str,
        host: str = "127.0.0.1",
        port: int = 0,
        observer: Optional[Observer] = None,
        store_max_bytes: Optional[int] = None,
        shard_width: int = 2,
        **service_kwargs,
    ) -> None:
        self._store_root = store_root
        self._host = host
        self._requested_port = port
        self._observer = observer
        self._store_max_bytes = store_max_bytes
        self._shard_width = shard_width
        self._service_kwargs = service_kwargs
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self.server: Optional[GridServer] = None
        self.service: Optional[SimulationService] = None
        self.port: Optional[int] = None

    def start(self) -> "ServerThread":
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-serve", daemon=True
        )
        self._thread.start()
        self._ready.wait()
        if self._error is not None:
            self._thread.join()
            raise self._error
        return self

    def stop(self) -> None:
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        if self._thread is not None:
            self._thread.join()
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    @property
    def address(self) -> str:
        return f"http://{self._host}:{self.port}"

    def _thread_main(self) -> None:
        asyncio.run(self._main())

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        observer = self._observer
        if observer is None:
            observer = Observer(metrics=MetricsRegistry())
        try:
            store = ResultStore(self._store_root, observer=observer,
                                shard_width=self._shard_width,
                                max_bytes=self._store_max_bytes)
            self.service = SimulationService(store, observer=observer,
                                             **self._service_kwargs)
            self.server = GridServer(self.service, host=self._host,
                                     port=self._requested_port,
                                     observer=observer)
            await self.server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.port = self.server.port
        self._ready.set()
        try:
            await self._stop.wait()
        finally:
            await self.server.close()
