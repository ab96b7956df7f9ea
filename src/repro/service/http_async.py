"""Asyncio HTTP/1.1 front-end for :class:`~repro.service.api.SolverService`.

One event loop (``asyncio.start_server`` plus a small hand-rolled HTTP/1.1
parser; no third-party web stack, per the repository's stdlib+NumPy
dependency rule) serves every route, so an idle ``wait=true`` client costs
one coroutine instead of one OS thread — the shape of the paper's
many-concurrent-searches workload.

Endpoints
---------
``POST /solve``
    Body ``{"order": 18, "kind": "costas", "priority": 0, "max_time": 60,
    "solver": "tabu", "model_options": {}, "wait": false}``; the fields
    :func:`~repro.service.api.submit_kwargs` reads, plus ``wait``.
    ``kind`` selects any family of the :mod:`repro.problems` registry;
    ``solver`` any strategy of the :mod:`repro.solvers` registry, an inline
    (``"adaptive+tabu"``) or named (``"mixed"``) portfolio, a spec object or
    a list of them.  Returns ``200`` with the full result when it resolved
    immediately (store / construction tier, or ``wait=true``), else ``202``
    with ``{"request_id": ..., "status": "pending"}``.  A malformed field,
    an unknown solver or kind, or a chunked body (only ``Content-Length``
    bodies are supported) answers ``400``; a saturated queue, a shed
    request, degraded mode or an open breaker ``503``; an exhausted tenant
    quota ``429``; an expired ``deadline`` ``504`` — all three with
    ``Retry-After`` and ``"retry": true``.  With QoS lanes enabled, optional
    ``lane`` / ``tenant`` body fields (or the ``X-Repro-Tenant`` header)
    classify the request.
``POST /solve-batch``
    Body ``{"items": [{...}, ...], "wait": false, "priority": 0}`` where each
    item takes the same fields as ``POST /solve``.  The whole batch is
    admitted in **one scheduler pass**
    (:meth:`~repro.service.api.SolverService.submit_batch`); the response is
    a single ``{"count": N, "results": [...]}`` JSON document whose slots are
    aligned with the items: a resolved result (``{"status": "done", ...}``),
    a pending ticket (``{"status": "pending", "request_id": ...}``), or a
    **per-item** error (``{"status": "error", "code": 400|429|503|504, ...}``
    — a malformed item or a saturated queue never fails its neighbours).
    An empty item list, a non-list ``items`` or more than
    ``ServiceConfig.max_batch_items`` items is a whole-batch 400.
``GET /result/<request_id>``
    ``200`` with the result, ``202`` while pending, ``404`` for unknown ids,
    ``409`` for cancelled requests.
``POST /cancel/<request_id>``
    ``200`` on success, ``404`` for unknown ids, ``409`` for requests that
    already settled.
``GET /events/<request_id>``
    ``text/event-stream`` of the request's life: a ``status`` snapshot,
    throttled ``progress`` samples from the search walks (the strategy
    harness's callback plumbing, crossing the worker boundary over each
    worker's pipe to the pool), and exactly one terminal ``done`` /
    ``failed`` / ``cancelled`` event, after which the stream closes.  A disconnecting
    client is detected promptly (half-close or failed write) and its
    subscription is released — no leaked callbacks.
``GET /problems``, ``GET /stats``, ``GET /healthz``
    The registered problem families; the combined store / scheduler / pool
    counters; the ``ok`` / ``degraded`` / ``failing`` health report
    (``failing`` answers ``503`` with the retry contract).

Blocking service-core calls (submits, store-touching reads) cross the
boundary via ``loop.run_in_executor``; waiting on request futures uses
``asyncio.wrap_future``, which costs no thread at all.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import threading
from concurrent.futures import CancelledError
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from http import HTTPStatus
from typing import Any, Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.problems import list_families
from repro.service.api import (
    ServiceConfig,
    ServiceRequest,
    SolverService,
    submit_kwargs,
)
from repro.service.faults import (
    CircuitOpenError,
    DeadlineExceededError,
    ServiceDegradedError,
)
from repro.service.scheduler import (
    RequestSheddedError,
    SchedulerQuotaError,
    SchedulerSaturatedError,
)

__all__ = ["AsyncServiceHTTPServer"]

#: Hard caps of the HTTP/1.1 parser (one misbehaving client must not be able
#: to balloon the server's memory).
_MAX_LINE = 16 * 1024
_MAX_HEADERS = 64
_MAX_BODY = 8 * 1024 * 1024

#: Comment line sent down idle SSE streams so dead peers are noticed even
#: when no progress is flowing.
_SSE_KEEPALIVE = 10.0

#: SSE event names that end the stream.
_SSE_TERMINAL = frozenset({"done", "failed", "cancelled"})

#: Upper bound on ``wait=true`` blocking, so a client cannot hold its
#: connection open forever.
_MAX_WAIT_SECONDS = 600.0


class _BadRequest(Exception):
    """Parse-level problem answered with a 400 and a closed connection."""


class _ConnectionClosed(Exception):
    """The peer went away mid-request; nothing further to send."""


class _HTTPRequest:
    """One parsed request: method, path, headers (lower-cased), JSON body."""

    __slots__ = ("method", "path", "version", "headers", "body", "close")

    def __init__(
        self,
        method: str,
        path: str,
        version: str,
        headers: Dict[str, str],
        body: bytes,
    ) -> None:
        self.method = method
        self.path = path
        self.version = version
        self.headers = headers
        self.body = body
        connection = headers.get("connection", "").lower()
        if version == "HTTP/1.0":
            self.close = connection != "keep-alive"
        else:
            self.close = connection == "close"

    def json(self) -> Optional[Dict[str, Any]]:
        """The body as a JSON object, ``None`` when malformed."""
        try:
            payload = json.loads(self.body.decode("utf-8") or "{}")
        except (ValueError, UnicodeDecodeError):
            return None
        return payload if isinstance(payload, dict) else None


class AsyncServiceHTTPServer:
    """Event-loop HTTP server owning (or borrowing) a :class:`SolverService`.

    The socket is bound synchronously in the constructor (so :attr:`port` is
    immediately valid); the event loop runs either on a background daemon
    thread (:meth:`start_background` — tests, embedded use) or on the
    calling thread (:meth:`serve_forever` — the CLI).
    """

    def __init__(
        self,
        address: Tuple[str, int],
        service: Optional[SolverService] = None,
        *,
        config: Optional[ServiceConfig] = None,
        verbose: bool = False,
        backlog: int = 2048,
    ) -> None:
        self._owns_service = service is None
        self.service = service if service is not None else SolverService(config)
        self.verbose = verbose
        self.service.start()
        # A large accept backlog is part of the design: a burst of hundreds
        # of simultaneous connects must queue in the kernel instead of being
        # dropped into SYN retransmits.
        self._sock = socket.create_server(address, backlog=backlog)
        self._sock.setblocking(False)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._shutdown: Optional[asyncio.Future] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._stop_requested = threading.Event()
        self._stopped = False
        self._drain = True
        self._conn_tasks: "set[asyncio.Task]" = set()
        # Blocking service-core calls (submit, store reads, stats) run here;
        # waiting on futures does not, so the pool stays small no matter how
        # many clients are parked on wait=true.
        self._executor = ThreadPoolExecutor(
            max_workers=min(32, 4 * (os.cpu_count() or 1)),
            thread_name_prefix="repro-http-async",
        )

    # ------------------------------------------------------------------ lifecycle
    @property
    def port(self) -> int:
        return self._sock.getsockname()[1]

    def start_background(self) -> None:
        """Serve on a daemon thread (tests and embedded use)."""
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-http-async", daemon=True
        )
        self._thread.start()
        self._started.wait(timeout=10.0)

    def serve_forever(self) -> None:
        """Run the event loop on the calling thread until :meth:`stop`."""
        asyncio.run(self._serve())

    async def _serve(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._shutdown = self._loop.create_future()
        server = await asyncio.start_server(
            self._handle_client, sock=self._sock, limit=_MAX_LINE
        )
        try:
            # When serving on the main thread (the CLI), catch SIGTERM/SIGINT
            # inside the loop so shutdown runs the graceful path below instead
            # of unwinding through KeyboardInterrupt mid-write.
            self._loop.add_signal_handler(signal.SIGTERM, self._signal_stop)
            self._loop.add_signal_handler(signal.SIGINT, self._signal_stop)
        except (ValueError, NotImplementedError, RuntimeError):
            pass  # background-thread mode: signals stay with the embedding app
        self._started.set()
        try:
            await self._shutdown
        finally:
            # Graceful teardown, in order: stop accepting; close the owned
            # service *while the loop still runs* so failed pending futures
            # deliver their terminal SSE events to open /events streams; then
            # give in-flight connections a bounded drain before cancelling.
            server.close()
            await server.wait_closed()
            if self._owns_service:
                drain = self._drain
                timeout = self.service.config.drain_timeout if drain else 0.0
                await self._loop.run_in_executor(
                    self._executor,
                    lambda: self.service.close(drain=drain, timeout=timeout),
                )
            if self._conn_tasks:
                _, leftover = await asyncio.wait(
                    set(self._conn_tasks),
                    timeout=self.service.config.drain_timeout,
                )
                for task in leftover:
                    task.cancel()
                if leftover:
                    await asyncio.gather(*leftover, return_exceptions=True)

    def _signal_stop(self) -> None:
        """Signal-handler body: resolve the shutdown future (idempotent)."""
        if self._shutdown is not None and not self._shutdown.done():
            self._shutdown.set_result(None)

    def stop(self, *, drain: bool = True) -> None:
        """Stop serving; shut the service down when this server created it."""
        if self._stopped:
            return
        self._stopped = True
        self._drain = drain
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._signal_stop)
            except RuntimeError:  # pragma: no cover - loop already closed
                pass
        if self._thread is not None:
            self._thread.join(
                timeout=self.service.config.drain_timeout + 15.0
            )
            self._thread = None
        try:
            self._sock.close()
        except OSError:  # pragma: no cover - already closed by the loop
            pass
        self._executor.shutdown(wait=False)
        if self._owns_service:
            # Idempotent: the loop's teardown normally closed it already; this
            # covers servers whose loop never ran.
            self.service.close(
                drain=drain,
                timeout=self.service.config.drain_timeout if drain else 0.0,
            )

    # -------------------------------------------------------------------- parsing
    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> Optional[_HTTPRequest]:
        """Parse one HTTP/1.1 request; ``None`` on a clean EOF between
        requests; :class:`_BadRequest` on anything malformed."""
        try:
            line = await reader.readline()
        except (asyncio.LimitOverrunError, ValueError) as exc:
            raise _BadRequest("request line too long") from exc
        if not line:
            return None
        try:
            method, path, version = line.decode("latin-1").split()
        except ValueError as exc:
            raise _BadRequest("malformed request line") from exc
        headers: Dict[str, str] = {}
        while True:
            try:
                header = await reader.readline()
            except (asyncio.LimitOverrunError, ValueError) as exc:
                raise _BadRequest("header line too long") from exc
            if header in (b"\r\n", b"\n", b""):
                break
            if len(headers) >= _MAX_HEADERS:
                raise _BadRequest("too many headers")
            name, sep, value = header.decode("latin-1").partition(":")
            if not sep:
                raise _BadRequest(f"malformed header {name.strip()!r}")
            headers[name.strip().lower()] = value.strip()
        if headers.get("transfer-encoding") is not None:
            # A chunked body has no Content-Length, and silently treating it
            # as empty would solve with default parameters; reject loudly and
            # close (the unread body would desync a reused connection).
            raise _BadRequest(
                "unsupported Transfer-Encoding "
                f"{headers['transfer-encoding']!r}; "
                "send a Content-Length JSON body"
            )
        body = b""
        try:
            length = int(headers.get("content-length", "0") or "0")
        except ValueError as exc:
            raise _BadRequest("malformed Content-Length") from exc
        if length < 0 or length > _MAX_BODY:
            raise _BadRequest(f"unacceptable Content-Length {length}")
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise _ConnectionClosed() from exc
        return _HTTPRequest(method, path, version, headers, body)

    # ------------------------------------------------------------------ responses
    @staticmethod
    def _json_bytes(
        status: int,
        payload: Dict[str, Any],
        *,
        close: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> bytes:
        body = json.dumps(payload).encode("utf-8")
        reason = HTTPStatus(status).phrase if status in HTTPStatus._value2member_map_ else ""
        head = (
            f"HTTP/1.1 {status} {reason}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
        )
        for name, value in (headers or {}).items():
            head += f"{name}: {value}\r\n"
        if close:
            head += "Connection: close\r\n"
        head += "\r\n"
        return head.encode("latin-1") + body

    @staticmethod
    def _reject(
        exc: BaseException, retry_after: float, status: int = 503
    ) -> Tuple[Any, ...]:
        """One shape for every backpressure/degraded/breaker rejection.

        Quota rejections reuse the body shape under a 429 status so clients
        can tell "the server is full" (503) from "you are over your quota"
        (429) without learning a second schema.
        """
        seconds = max(1, int(round(retry_after)))
        return (
            status,
            {"error": str(exc), "retry": True, "retry_after": seconds},
            False,
            {"Retry-After": str(seconds)},
        )

    @staticmethod
    def _deadline_response(
        exc: BaseException, request_id: Optional[str] = None
    ) -> Tuple[Any, ...]:
        """Deadline expiry: retrying with a fresh deadline is legitimate, so
        the 504 carries the same retry contract as the 503/429 rejections."""
        body: Dict[str, Any] = {
            "error": str(exc),
            "status": "deadline",
            "retry": True,
            "retry_after": 1,
        }
        if request_id is not None:
            body["request_id"] = request_id
        return 504, body, False, {"Retry-After": "1"}

    def _log(self, request: _HTTPRequest, status: int) -> None:
        if self.verbose:  # pragma: no cover - logging only
            print(f'async-http "{request.method} {request.path}" {status}')

    # ----------------------------------------------------------------- connection
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            while True:
                try:
                    request = await self._read_request(reader)
                except _BadRequest as exc:
                    writer.write(self._json_bytes(400, {"error": str(exc)}, close=True))
                    await writer.drain()
                    break
                except _ConnectionClosed:
                    break
                if request is None:
                    break
                if request.method == "GET" and request.path.startswith("/events/"):
                    await self._handle_events(
                        reader, writer, request.path[len("/events/") :]
                    )
                    break  # SSE streams are Connection: close by design
                reply = await self._dispatch(request)
                status, payload, close = reply[0], reply[1], reply[2]
                headers = reply[3] if len(reply) > 3 else None
                self._log(request, status)
                close = close or request.close
                # repro-lint: ignore[async-blocking] -- fires() is a pure
                # in-memory Bernoulli draw; an executor hop per response
                # would cost far more than the call it protects.
                if self.service.http_faults.fires("http.drop"):
                    # Injected connection drop: hang up instead of answering,
                    # so clients exercise their dropped-response handling.
                    break
                writer.write(
                    self._json_bytes(status, payload, close=close, headers=headers)
                )
                await writer.drain()
                if close:
                    break
        except (ConnectionError, TimeoutError, asyncio.CancelledError):
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError, asyncio.CancelledError):
                # Loop teardown cancels the close handshake; the connection
                # is gone either way.
                pass

    # ------------------------------------------------------------------- routing
    async def _dispatch(self, request: _HTTPRequest) -> Tuple[Any, ...]:
        """Route one request; returns ``(status, json payload, close?)`` plus
        an optional fourth element of extra response headers."""
        method, path = request.method, request.path
        if method == "GET":
            if path == "/healthz":
                return await self._get_healthz()
            if path == "/stats":
                stats = await self._call(self.service.stats)
                return 200, stats, False
            if path == "/problems":
                problems = [family.describe() for family in list_families()]
                return 200, {"problems": problems}, False
            if path.startswith("/result/"):
                return await self._respond_with_result(
                    path[len("/result/") :], wait=False
                )
            return 404, {"error": f"unknown path {path!r}"}, False
        if method == "POST":
            if path == "/solve":
                return await self._post_solve(request)
            if path == "/solve-batch":
                return await self._post_solve_batch(request)
            if path.startswith("/cancel/"):
                return await self._post_cancel(path[len("/cancel/") :])
            return 404, {"error": f"unknown path {path!r}"}, False
        return (
            501,
            {"error": f"unsupported method {method!r}"},
            True,
        )

    async def _call(self, fn: Any, *args: Any) -> Any:
        """Run a blocking service-core call on the executor."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, *args)

    async def _get_healthz(self) -> Tuple[Any, ...]:
        health = await self._call(self.service.health)
        if health["status"] == "failing":
            health["retry"] = True
            health["retry_after"] = 5
            return 503, health, False, {"Retry-After": "5"}
        # "degraded" still answers 200: the immediate tiers serve, so load
        # balancers should keep routing; the body says why.
        return 200, health, False

    # ------------------------------------------------------------------ /solve
    async def _post_solve(
        self, request: _HTTPRequest
    ) -> Tuple[int, Dict[str, Any], bool]:
        payload = request.json()
        if payload is None:
            return 400, {"error": "body must be a JSON object"}, False
        wait = bool(payload.get("wait", False))
        tenant = request.headers.get("x-repro-tenant")
        try:
            service_request: ServiceRequest = await self._call(
                lambda: self.service.submit(**submit_kwargs(payload, tenant=tenant))
            )
        except SchedulerQuotaError as exc:
            return self._reject(exc, exc.retry_after, status=429)
        except SchedulerSaturatedError as exc:
            return self._reject(exc, getattr(exc, "retry_after", 1.0))
        except (CircuitOpenError, ServiceDegradedError) as exc:
            return self._reject(exc, exc.retry_after)
        except DeadlineExceededError as exc:
            return self._deadline_response(exc)
        except ReproError as exc:
            return 400, {"error": str(exc)}, False
        # Answer from the request submit returned: looking it up again by id
        # would cost a second executor hop on every /solve.
        return await self._respond_with_request(service_request, wait=wait)

    async def _respond_with_result(
        self, request_id: str, *, wait: bool
    ) -> Tuple[int, Dict[str, Any], bool]:
        """``GET /result/<id>``: look the id up, then answer as for /solve."""
        service_request = await self._call(self.service.request, request_id)
        if service_request is None:
            return 404, {"error": f"unknown request id {request_id!r}"}, False
        return await self._respond_with_request(service_request, wait=wait)

    async def _respond_with_request(
        self, service_request: ServiceRequest, *, wait: bool
    ) -> Tuple[int, Dict[str, Any], bool]:
        request_id = service_request.request_id
        if not wait and not service_request.done():
            return 202, {"request_id": request_id, "status": "pending"}, False
        try:
            response = await self._await_request(service_request, wait=wait)
        except CancelledError:
            return 409, {"request_id": request_id, "status": "cancelled"}, False
        except FutureTimeoutError:
            return 202, {"request_id": request_id, "status": "pending"}, False
        except DeadlineExceededError as exc:
            return self._deadline_response(exc, request_id=request_id)
        except RequestSheddedError as exc:
            return self._reject(exc, exc.retry_after)
        except ReproError as exc:
            return 500, {"request_id": request_id, "error": str(exc)}, False
        return 200, {"status": "done", **response.as_dict()}, False

    @staticmethod
    async def _await_request(service_request: ServiceRequest, *, wait: bool) -> Any:
        """Await the request future **without** cancelling it on timeout.

        ``asyncio.wait_for`` cancels its awaitable on timeout, and a wrapped
        future propagates that cancellation to the service request itself —
        which a merely impatient reader must never do.  ``asyncio.wait``
        leaves the future untouched.
        """
        future = service_request.future
        if future.done():
            # repro-lint: ignore[async-blocking] -- guarded by done(): the
            # future is already settled, so result() returns immediately.
            return future.result()
        if not wait:
            raise FutureTimeoutError()
        wrapped = asyncio.wrap_future(future)
        done, _ = await asyncio.wait([wrapped], timeout=_MAX_WAIT_SECONDS)
        if not done:
            # Keep the wrapper's eventual outcome observed so a later failure
            # does not log an unretrieved-exception warning.
            wrapped.add_done_callback(
                lambda f: None if f.cancelled() else f.exception()
            )
            raise FutureTimeoutError()
        # repro-lint: ignore[async-blocking] -- asyncio.wait just reported
        # the wrapper done; result() is a settled-future read.
        return wrapped.result()

    # ------------------------------------------------------------------- /cancel
    async def _post_cancel(self, request_id: str) -> Tuple[int, Dict[str, Any], bool]:
        if await self._call(self.service.request, request_id) is None:
            # "No such request" is not the same condition as "too late to
            # cancel": unknown ids are a 404, settled ones a 409.
            return 404, {"error": f"unknown request id {request_id!r}"}, False
        ok = await self._call(self.service.cancel, request_id)
        return (
            200 if ok else 409,
            {"request_id": request_id, "cancelled": ok},
            False,
        )

    # -------------------------------------------------------------- /solve-batch
    async def _post_solve_batch(
        self, request: _HTTPRequest
    ) -> Tuple[int, Dict[str, Any], bool]:
        payload = request.json()
        if payload is None:
            return 400, {"error": 'body must be JSON with an "items" list'}, False
        items = payload.get("items")
        if not isinstance(items, list):
            return 400, {"error": '"items" must be a list of solve objects'}, False
        if not items:
            return 400, {"error": "batch is empty; send at least one item"}, False
        max_items = self.service.config.max_batch_items
        if len(items) > max_items:
            return (
                400,
                {
                    "error": f"batch of {len(items)} items exceeds the "
                    f"server limit of {max_items}"
                },
                False,
            )
        wait = bool(payload.get("wait", False))
        try:
            priority = int(payload.get("priority", 0))
        except (TypeError, ValueError):
            return 400, {"error": "priority must be numeric"}, False
        batch_tenant = payload.get("tenant") or request.headers.get(
            "x-repro-tenant"
        )
        try:
            outcomes = await self._call(
                lambda: self.service.submit_batch(
                    items,
                    priority=priority,
                    tenant=str(batch_tenant) if batch_tenant is not None else None,
                )
            )
        except ReproError as exc:
            return 400, {"error": str(exc)}, False
        if wait:
            pending = [
                asyncio.wrap_future(outcome.future)
                for outcome in outcomes
                if isinstance(outcome, ServiceRequest) and not outcome.done()
            ]
            if pending:
                done, not_done = await asyncio.wait(
                    pending, timeout=_MAX_WAIT_SECONDS
                )
                # Observe every wrapper's outcome (the response is built from
                # the underlying concurrent futures), or failed items would
                # log "exception was never retrieved" on collection.
                for wrapper in done:
                    if not wrapper.cancelled():
                        wrapper.exception()
                for leftover in not_done:
                    leftover.add_done_callback(
                        lambda f: None if f.cancelled() else f.exception()
                    )
        results = [self._batch_item_result(outcome) for outcome in outcomes]
        return 200, {"count": len(results), "results": results}, False

    @staticmethod
    def _batch_item_result(outcome: Any) -> Dict[str, Any]:
        """One slot of the batch response, mirroring /solve's shapes."""
        if isinstance(
            outcome,
            (
                SchedulerSaturatedError,
                RequestSheddedError,
                CircuitOpenError,
                ServiceDegradedError,
            ),
        ):
            seconds = max(1, int(round(getattr(outcome, "retry_after", 1.0))))
            return {
                "status": "error",
                "code": 503,
                "error": str(outcome),
                "retry": True,
                "retry_after": seconds,
            }
        if isinstance(outcome, SchedulerQuotaError):
            seconds = max(1, int(round(outcome.retry_after)))
            return {
                "status": "error",
                "code": 429,
                "error": str(outcome),
                "retry": True,
                "retry_after": seconds,
            }
        if isinstance(outcome, DeadlineExceededError):
            return {
                "status": "error",
                "code": 504,
                "error": str(outcome),
                "retry": True,
                "retry_after": 1,
            }
        if isinstance(outcome, ReproError):
            return {"status": "error", "code": 400, "error": str(outcome)}
        service_request: ServiceRequest = outcome
        if not service_request.done():
            return {"request_id": service_request.request_id, "status": "pending"}
        future = service_request.future
        if future.cancelled():
            return {
                "request_id": service_request.request_id,
                "status": "cancelled",
            }
        exc = future.exception()
        if exc is not None:
            return {
                "request_id": service_request.request_id,
                "status": "deadline"
                if isinstance(exc, DeadlineExceededError)
                else "failed",
                "error": str(exc),
            }
        return {"status": "done", **future.result().as_dict()}

    # ------------------------------------------------------------------- /events
    async def _handle_events(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        request_id: str,
    ) -> None:
        """Stream one request's progress as server-sent events."""
        loop = asyncio.get_running_loop()
        events: "asyncio.Queue[Dict[str, Any]]" = asyncio.Queue()
        subscription = await self._call(
            self.service.subscribe,
            request_id,
            lambda event: loop.call_soon_threadsafe(events.put_nowait, event),
        )
        if subscription is None:
            writer.write(
                self._json_bytes(
                    404, {"error": f"unknown request id {request_id!r}"}, close=True
                )
            )
            await writer.drain()
            return
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: text/event-stream\r\n"
            b"Cache-Control: no-cache\r\n"
            b"Connection: close\r\n\r\n"
        )
        # SSE clients send nothing after the request: a read completing means
        # the peer closed (or broke) the connection — stop streaming at once
        # rather than at the next failed write.
        disconnect = asyncio.ensure_future(reader.read(1))
        try:
            await writer.drain()
            while True:
                getter = asyncio.ensure_future(events.get())
                done, _ = await asyncio.wait(
                    {getter, disconnect},
                    timeout=_SSE_KEEPALIVE,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                if disconnect in done:
                    getter.cancel()
                    break
                if not done:  # idle: prove the stream is alive
                    getter.cancel()
                    writer.write(b": keep-alive\r\n\r\n")
                    await writer.drain()
                    continue
                # repro-lint: ignore[async-blocking] -- getter is in the
                # done set from asyncio.wait; result() is a settled read.
                event = getter.result()
                name = event.get("event", "message")
                data = json.dumps(event)
                writer.write(f"event: {name}\ndata: {data}\n\n".encode("utf-8"))
                await writer.drain()
                if name in _SSE_TERMINAL:
                    break
        except (ConnectionError, TimeoutError):
            pass
        finally:
            disconnect.cancel()
            # Shielded: if teardown cancels this coroutine mid-await, the
            # executor job still completes and the subscription is not leaked.
            await asyncio.shield(
                self._call(self.service.unsubscribe, subscription)
            )

