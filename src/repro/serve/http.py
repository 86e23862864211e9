"""Asyncio-native HTTP/JSON front-end over a :class:`ServeGateway`.

Pure stdlib (``asyncio`` streams + ``json``) — no web framework.  The
wire contract is the versioned envelope schema from
:mod:`repro.serve.envelope`:

* ``POST /v1/serve`` — body is a ``repro.serve.request.v1`` JSON
  object; the reply is always a ``repro.serve.response.v1`` object,
  whatever happened.  HTTP status mirrors the outcome taxonomy:
  answered (``ok`` / ``degraded`` / ``budget-exhausted``) → 200,
  ``shed`` → 429 (back off and retry), ``failed`` → 400 for request
  errors (``invalid-request`` / ``parse-error``), 500 otherwise.
* ``GET /v1/stats`` — gateway counters + per-tenant admission state.
* ``GET /healthz`` — liveness probe.

Concurrency model: admission runs *inline* on the event-loop thread
(one clock read, never blocks), so floods are shed at loop speed;
admitted requests are offloaded to the :class:`AsyncioRuntime` worker
pool via ``arun`` and awaited, keeping the loop free to shed, answer
probes, and accept connections while bouquet work runs.  Connections
are keep-alive HTTP/1.1, one in-flight request per connection.

:class:`AsyncServeClient` is the matching stdlib client
(``examples/async_service.py``, the ledger's loopback pass, the tests).
"""

from __future__ import annotations

import asyncio
import functools
import json
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, Optional, Set, Tuple

from ..exceptions import BouquetError, ReproError
from .envelope import RESPONSE_FORMAT, ServeRequest, ServeResponse
from .front import ServeGateway

__all__ = [
    "AsyncServeClient",
    "AsyncioRuntime",
    "BouquetFrontEnd",
    "http_status_for",
]

_MAX_BODY = 1 << 20  # 1 MiB — a serve request is a few hundred bytes

#: failed-status error codes that are the client's fault, not ours.
_CLIENT_FAULTS = frozenset({"invalid-request", "parse-error"})


class AsyncioRuntime:
    """The front-end's clock and its bounded worker pool.

    The bouquet pipeline is CPU-bound synchronous Python, so it never
    runs on the loop thread: handlers await :meth:`arun`, which bridges
    ``loop.run_in_executor`` over the pool.  Admission sheds before work
    reaches the pool, so its queue cannot grow silently.  Passed to a
    :class:`ServeGateway` as ``runtime=``, it is the gateway's clock too,
    and the front-end built over that gateway runs on its pool.
    """

    def __init__(self, max_workers: int = 8):
        if max_workers < 1:
            raise ReproError("asyncio runtime needs at least one worker")
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="bouquet-serve"
        )

    def now(self) -> float:
        return time.monotonic()

    async def arun(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Await ``fn(*args, **kwargs)`` executed on the worker pool."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(
            self._pool, functools.partial(fn, *args, **kwargs)
        )

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "AsyncioRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def http_status_for(response: ServeResponse) -> int:
    """Map the envelope outcome taxonomy onto HTTP status codes."""
    if response.status in ("ok", "degraded", "budget-exhausted"):
        return 200
    if response.status == "shed":
        return 429
    if response.error_code in _CLIENT_FAULTS:
        return 400
    return 500


def _invalid(message: str) -> ServeResponse:
    return ServeResponse(
        status="failed", error=message, error_code="invalid-request"
    )


class BouquetFrontEnd:
    """An asyncio TCP server speaking the v1 serve protocol.

    It runs on the gateway's :class:`AsyncioRuntime` when the gateway
    was given one, and on a pool of its own otherwise; either way
    ``runtime.shutdown()`` releases it.
    """

    def __init__(
        self,
        gateway: ServeGateway,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ):
        self.gateway = gateway
        runtime = gateway.runtime
        self.runtime = (
            runtime if isinstance(runtime, AsyncioRuntime) else AsyncioRuntime()
        )
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._connections: Set[asyncio.Task] = set()

    # -- lifecycle -----------------------------------------------------

    async def start(self) -> Tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``
        (useful with ``port=0``)."""
        if self._server is not None:
            raise BouquetError("front-end already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        sockname = self._server.sockets[0].getsockname()
        self.host, self.port = sockname[0], sockname[1]
        return self.host, self.port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            # Drain live connection handlers before the loop goes away,
            # so shutdown never logs stray CancelledErrors.
            for task in list(self._connections):
                task.cancel()
            if self._connections:
                await asyncio.gather(
                    *self._connections, return_exceptions=True
                )
            await self._server.wait_closed()
            self._server = None

    async def __aenter__(self) -> "BouquetFrontEnd":
        await self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- protocol ------------------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:
                parsed = await _read_http_request(reader)
                if parsed is None:
                    break
                method, path, headers, body = parsed
                keep_alive = headers.get("connection", "keep-alive") != "close"
                status, payload = await self._dispatch(method, path, body)
                _write_http_response(writer, status, payload, keep_alive)
                await writer.drain()
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError):
            pass  # client hung up mid-request
        except asyncio.CancelledError:
            pass  # stop() draining us — close the transport and finish
        finally:
            if task is not None:
                self._connections.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, asyncio.CancelledError):
                pass

    async def _dispatch(
        self, method: str, path: str, body: bytes
    ) -> Tuple[int, Dict[str, object]]:
        if method == "GET" and path == "/healthz":
            return 200, {"ok": True}
        if method == "GET" and path == "/v1/stats":
            return 200, self.gateway.stats()
        if method == "POST" and path == "/v1/serve":
            return await self._serve(body)
        return 404, {"error": f"no route for {method} {path}"}

    async def _serve(self, body: bytes) -> Tuple[int, Dict[str, object]]:
        try:
            payload = json.loads(body.decode("utf-8"))
            request = ServeRequest.from_dict(payload)
        except (ValueError, ReproError) as exc:
            response = _invalid(f"bad serve payload: {exc}")
            return http_status_for(response), response.to_dict()
        # Admission inline on the loop thread: shedding a flood must not
        # wait behind the worker pool the flood is trying to fill.  It is
        # also where the request's fields are validated, once.
        ticket, response = self.gateway.admit(request)
        if response is None:
            assert ticket is not None
            response = await self.runtime.arun(self.gateway.process, ticket)
        return http_status_for(response), response.to_dict()


async def _read_http_request(
    reader: asyncio.StreamReader,
) -> Optional[Tuple[str, str, Dict[str, str], bytes]]:
    request_line = await reader.readline()
    if not request_line:
        return None
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3:
        raise asyncio.IncompleteReadError(request_line, None)
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0") or "0")
    if length > _MAX_BODY:
        raise asyncio.IncompleteReadError(b"", None)
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


def _write_http_response(
    writer: asyncio.StreamWriter,
    status: int,
    payload: Dict[str, object],
    keep_alive: bool,
) -> None:
    body = json.dumps(payload).encode("utf-8")
    reason = {200: "OK", 400: "Bad Request", 404: "Not Found",
              429: "Too Many Requests", 500: "Internal Server Error"}
    head = (
        f"HTTP/1.1 {status} {reason.get(status, 'Unknown')}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
        f"\r\n"
    )
    writer.write(head.encode("latin-1") + body)


class AsyncServeClient:
    """A keep-alive asyncio client for the v1 serve protocol."""

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def _connect(self) -> None:
        if self._writer is None or self._writer.is_closing():
            self._reader, self._writer = await asyncio.open_connection(
                self.host, self.port
            )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except ConnectionError:
                pass
            self._reader = self._writer = None

    async def __aenter__(self) -> "AsyncServeClient":
        await self._connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def _round_trip(
        self, method: str, path: str, payload: Optional[dict] = None
    ) -> Tuple[int, dict]:
        await self._connect()
        assert self._reader is not None and self._writer is not None
        body = json.dumps(payload).encode("utf-8") if payload is not None else b""
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}:{self.port}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n"
            f"\r\n"
        )
        self._writer.write(head.encode("latin-1") + body)
        await self._writer.drain()
        status_line = await self._reader.readline()
        if not status_line:
            raise BouquetError("serve client: connection closed by server")
        status = int(status_line.split()[1])
        headers: Dict[str, str] = {}
        while True:
            line = await self._reader.readline()
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", "0") or "0")
        data = await self._reader.readexactly(length) if length else b""
        return status, json.loads(data.decode("utf-8")) if data else {}

    async def serve(self, request: ServeRequest) -> ServeResponse:
        """POST one envelope; returns the typed response envelope."""
        _, payload = await self._round_trip(
            "POST", "/v1/serve", request.to_dict()
        )
        if payload.get("format") != RESPONSE_FORMAT:
            raise BouquetError(
                f"serve client: unexpected reply format {payload.get('format')!r}"
            )
        return ServeResponse.from_dict(payload)

    async def stats(self) -> dict:
        _, payload = await self._round_trip("GET", "/v1/stats")
        return payload

    async def health(self) -> bool:
        status, payload = await self._round_trip("GET", "/healthz")
        return status == 200 and bool(payload.get("ok"))
