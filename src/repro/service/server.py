"""Asynchronous JSON-lines front door: ``repro serve``.

The wire protocol is unchanged from the original threaded server — one
JSON object per line, one response line per request, trivially
scriptable (``nc``, a four-line Python client, a CI smoke job) and
identical to the batch-runner job file format — but the loop is now
**asyncio**, built to keep a multi-process worker pool saturated under
thousands of concurrent connections:

* **non-blocking accept loop** — one reader/writer task per
  connection; a slow client costs one coroutine, not one thread;
* **bounded admission with backpressure** — past ``high_water`` queued
  requests, new work is answered immediately with a structured
  ``Overloaded`` error carrying ``retry_after_seconds`` (estimated
  from the observed mean latency) instead of buffering without bound;
* **per-tenant fair scheduling** — requests carry an optional
  ``"tenant"`` field; a weighted round-robin queue feeds the pool, so
  one hot client cannot starve everyone else (weights via the
  ``tenant_weights`` option, default 1 per tenant);
* **singleflight coalescing** — concurrent requests with the same
  fingerprint (the compile cache's content address; see
  :func:`~repro.service.jobs.request_fingerprint`) share one in-flight
  pool job: one leader pays, every waiter receives a copy of the same
  response marked ``"coalesced": true``.  The in-flight entry is
  dropped on completion, so a *failed* leader is never cached — every
  waiter sees the error, and the next same-key request retries;
* **hardened protocol** — request lines past ``max_line_bytes`` get a
  structured ``RequestTooLarge`` error (the overlong bytes are skimmed
  through the terminating newline, so later pipelined requests on the
  same connection survive), malformed JSON gets ``BadRequest``, and a
  connection silent for ``idle_timeout`` seconds is answered with
  ``IdleTimeout`` and closed;
* **graceful drain** — shutdown (the ``{"op": "shutdown"}`` request,
  or :meth:`ReproServer.stop`) stops accepting, refuses new work with
  ``ShuttingDown``, waits for queued and in-flight jobs to answer
  their clients (bounded by ``drain_timeout``), then exits.

Besides the job ops (:mod:`repro.service.jobs`), the server answers:

* ``{"op": "stats"}`` (alias ``"metrics"``) — metrics snapshot
  (coalescing, per-tenant counts, admission queue peak, per-pass wall
  time) + cache stats + pool + live server state;
* ``{"op": "cache", "action": "stats"|"ls"|"purge"}`` — administer
  the unified artifact store the workers share (purge replaces the
  old ad-hoc version-marker wipe as the operational path);
* ``{"op": "batch", "requests": [...]}`` — fan a list through
  admission/coalescing/pool in one round trip (responses in order,
  under ``"results"``; an envelope-level ``tenant`` applies to every
  sub-request that doesn't name its own);
* ``{"op": "shutdown"}`` — acknowledge, drain, then stop the server.

Jobs reach the multi-process pool through awaitable
:meth:`~repro.service.pool.WorkerPool.submit` handles, so the pool's
crash-isolation, per-job timeout, and retry semantics apply unchanged
under the async front door.
"""

from __future__ import annotations

import asyncio
import collections
import json
import socket
import sys
import threading
import time

from .jobs import request_fingerprint
from .metrics import ServiceMetrics
from .pool import WorkerPool

_MAX_LINE_BYTES = 8 * 1024 * 1024
_IDLE_TIMEOUT = 300.0
_HIGH_WATER = 512
_DRAIN_TIMEOUT = 30.0
_READ_CHUNK = 1 << 16


class _Singleflight:
    """Coalesce concurrent equal-key work onto one in-flight task."""

    def __init__(self) -> None:
        self.inflight: dict[str, asyncio.Task] = {}

    async def run(self, key: str | None, supplier):
        """``(response, coalesced)`` — coalesced marks a waiter share.

        ``supplier()`` returns an awaitable producing the response.
        The in-flight entry lives exactly as long as the task runs:
        a completed task (success *or* failure) is never joined, so
        failures are retried by the next request, not replayed.
        """
        if key is None:
            return await supplier(), False
        task = self.inflight.get(key)
        if task is not None and not task.done():
            # Shield: a waiter whose client disconnects must not
            # cancel the shared work out from under the other waiters.
            return await asyncio.shield(task), True
        task = asyncio.ensure_future(supplier())
        self.inflight[key] = task
        task.add_done_callback(
            lambda t: self.inflight.pop(key, None)
            if self.inflight.get(key) is t else None)
        return await asyncio.shield(task), False


class _TenantScheduler:
    """Weighted round-robin admission queue feeding the worker pool.

    Each tenant owns a FIFO; the dispatcher serves up to ``weight``
    requests per tenant per rotation and keeps at most ``max_inflight``
    jobs in the pool at once — the rest wait *here*, where fairness
    applies, instead of in the pool's own first-come queue where a hot
    tenant's backlog would bury everyone else.
    """

    def __init__(self, pool: WorkerPool, metrics: ServiceMetrics,
                 weights: dict[str, int] | None = None,
                 max_inflight: int | None = None) -> None:
        self.pool = pool
        self.metrics = metrics
        self.weights = dict(weights or {})
        self.max_inflight = max_inflight or max(2, pool.workers * 2)
        self._queues: dict[str, collections.deque] = {}
        self._ring: collections.deque[str] = collections.deque()
        self._served: dict[str, int] = {}
        self._inflight = 0
        self._work = asyncio.Event()
        self._slots = asyncio.Semaphore(self.max_inflight)
        self._idle = asyncio.Event()
        self._idle.set()

    @property
    def depth(self) -> int:
        """Requests queued (excludes jobs already in the pool)."""
        return sum(len(q) for q in self._queues.values())

    @property
    def inflight(self) -> int:
        return self._inflight

    def submit(self, tenant: str, request: dict,
               affinity: str | None = None) -> asyncio.Future:
        """Enqueue under ``tenant``; resolves to the response dict."""
        future = asyncio.get_running_loop().create_future()
        queue = self._queues.get(tenant)
        if queue is None:
            queue = self._queues[tenant] = collections.deque()
            self._ring.append(tenant)
        queue.append((request, affinity, future))
        self.metrics.note_queue_depth(self.depth)
        self._idle.clear()
        self._work.set()
        return future

    def _weight(self, tenant: str) -> int:
        try:
            return max(1, int(self.weights.get(tenant, 1)))
        except (TypeError, ValueError):
            return 1

    def _pop_next(self):
        while self._ring:
            tenant = self._ring[0]
            queue = self._queues[tenant]
            if not queue:
                # Tenant drained: drop it from the rotation entirely
                # (a returning tenant re-registers with fresh credit).
                self._ring.popleft()
                del self._queues[tenant]
                self._served.pop(tenant, None)
                continue
            served = self._served.get(tenant, 0)
            if served >= self._weight(tenant):
                self._served[tenant] = 0
                self._ring.rotate(-1)
                continue
            self._served[tenant] = served + 1
            request, affinity, future = queue.popleft()
            return tenant, request, affinity, future
        return None

    async def dispatch_forever(self) -> None:
        while True:
            item = self._pop_next()
            if item is None:
                self._work.clear()
                if self._inflight == 0:
                    self._idle.set()
                await self._work.wait()
                continue
            _tenant, request, affinity, future = item
            if future.cancelled():
                continue  # the client gave up while queued
            await self._slots.acquire()
            self._inflight += 1
            asyncio.ensure_future(self._run_one(request, affinity, future))

    async def _run_one(self, request: dict, affinity: str | None,
                       future: asyncio.Future) -> None:
        try:
            response = await asyncio.wrap_future(
                self.pool.submit(request, affinity=affinity))
        except asyncio.CancelledError:
            response = None  # abandoned waiter cancelled the job
        except Exception as exc:
            response = {"op": request.get("op"), "ok": False,
                        "error": {"type": type(exc).__name__,
                                  "message": str(exc)}}
        finally:
            self._inflight -= 1
            self._slots.release()
            if self._inflight == 0 and self.depth == 0:
                self._idle.set()
        if response is not None and not future.done():
            future.set_result(response)

    async def drain(self, timeout: float) -> bool:
        """Wait for queue + in-flight to empty; False if timed out."""
        try:
            await asyncio.wait_for(self._idle.wait(), timeout)
            return True
        except asyncio.TimeoutError:
            return False


class ReproServer:
    """An asyncio JSON-lines compile-and-run service on one socket.

    The public surface matches the old threaded server — construct,
    ``start()`` (background thread) or ``serve_forever()`` (current
    thread), ``address``, ``stop()`` — so embedders and tests are
    unaffected by the asyncio rebuild.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 0,
                 pool: WorkerPool | None = None, *,
                 max_line_bytes: int = _MAX_LINE_BYTES,
                 idle_timeout: float | None = _IDLE_TIMEOUT,
                 high_water: int = _HIGH_WATER,
                 tenant_weights: dict[str, int] | None = None,
                 max_inflight: int | None = None,
                 drain_timeout: float = _DRAIN_TIMEOUT) -> None:
        self.pool = pool or WorkerPool(0, cache=True)
        self.metrics: ServiceMetrics = self.pool.metrics
        self.max_line_bytes = int(max_line_bytes)
        self.idle_timeout = idle_timeout
        self.high_water = int(high_water)
        self.tenant_weights = tenant_weights
        self.max_inflight = max_inflight
        self.drain_timeout = drain_timeout
        self.singleflight = _Singleflight()
        self._sock = socket.create_server((host, port), backlog=256)
        self._address = self._sock.getsockname()[:2]
        self._loop: asyncio.AbstractEventLoop | None = None
        self._scheduler: _TenantScheduler | None = None
        self._shutdown: asyncio.Event | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._busy = 0
        self._quiet: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._ready = threading.Event()
        self._done = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — port is concrete even when 0 was
        requested."""
        return self._address

    # -- the event loop -------------------------------------------------

    async def serve_async(self) -> None:
        loop = asyncio.get_running_loop()
        self._loop = loop
        self._shutdown = asyncio.Event()
        self._quiet = asyncio.Event()
        self._quiet.set()
        self._scheduler = _TenantScheduler(
            self.pool, self.metrics, weights=self.tenant_weights,
            max_inflight=self.max_inflight)
        server = await asyncio.start_server(self._client_connected,
                                            sock=self._sock)
        dispatcher = asyncio.ensure_future(
            self._scheduler.dispatch_forever())
        self._ready.set()
        try:
            await self._shutdown.wait()
            server.close()          # stop accepting; drain what's in
            await server.wait_closed()
            await self._drain()
        finally:
            dispatcher.cancel()
            for task in list(self._conn_tasks):
                task.cancel()
            await asyncio.gather(dispatcher, *list(self._conn_tasks),
                                 return_exceptions=True)

    async def _drain(self) -> None:
        """Graceful drain: queued and in-flight work answers its
        clients before the loop exits (bounded by ``drain_timeout``)."""
        deadline = time.monotonic() + self.drain_timeout
        await self._scheduler.drain(self.drain_timeout)
        # The scheduler going idle resolves the futures; wait for the
        # connection tasks to finish *writing* those responses too.
        while self._busy > 0:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return
            self._quiet.clear()
            if self._busy == 0:
                return
            try:
                await asyncio.wait_for(self._quiet.wait(), remaining)
            except asyncio.TimeoutError:
                return

    # -- connections ----------------------------------------------------

    async def _client_connected(self, reader: asyncio.StreamReader,
                                writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        self._conn_tasks.add(task)
        try:
            await self._serve_client(reader, writer)
        except asyncio.CancelledError:
            pass
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # client went away mid-write: nothing to answer
        finally:
            self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:
                pass

    async def _serve_client(self, reader, writer) -> None:
        buffer = bytearray()
        while True:
            try:
                line, truncated = await asyncio.wait_for(
                    self._next_line(reader, buffer), self.idle_timeout)
            except asyncio.TimeoutError:
                await self._send(writer, {
                    "ok": False, "op": None,
                    "error": {"type": "IdleTimeout",
                              "message": f"no request in "
                                         f"{self.idle_timeout:.0f}s; "
                                         f"closing connection"}})
                return
            if line is None:
                return  # client EOF
            if truncated:
                await self._send(writer, {
                    "ok": False, "op": None,
                    "error": {"type": "RequestTooLarge",
                              "message": f"request line exceeds "
                                         f"{self.max_line_bytes} bytes"}})
                continue
            text = line.decode("utf-8", errors="replace").strip()
            if not text:
                continue
            self._busy += 1
            try:
                response = await self.handle_request(text)
                await self._send(writer, response)
            finally:
                self._busy -= 1
                if self._busy == 0:
                    self._quiet.set()
            if response.get("op") == "shutdown" and response.get("ok"):
                self._shutdown.set()
                return

    async def _next_line(self, reader, buffer: bytearray):
        """One newline-terminated request line, size-capped.

        Returns ``(line, truncated)``; ``line`` is None at EOF.  An
        overlong line is discarded through its terminating newline and
        reported as ``truncated`` — pipelined requests after it on the
        same connection are preserved intact.
        """
        dropped = False
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                line = bytes(buffer[:newline])
                del buffer[:newline + 1]
                if dropped or len(line) > self.max_line_bytes:
                    return b"", True
                return line, False
            if len(buffer) > self.max_line_bytes:
                dropped = True
                buffer.clear()
            chunk = await reader.read(_READ_CHUNK)
            if not chunk:  # EOF; honor a trailing unterminated line
                line = bytes(buffer)
                buffer.clear()
                if dropped:
                    return b"", True
                if line:
                    return line, False
                return None, False
            buffer.extend(chunk)

    async def _send(self, writer, response: dict) -> None:
        writer.write((json.dumps(response, sort_keys=True)
                      + "\n").encode())
        await writer.drain()

    # -- request handling ------------------------------------------------

    async def handle_request(self, line: str) -> dict:
        try:
            request = json.loads(line)
            if not isinstance(request, dict):
                raise ValueError("request must be a JSON object")
        except ValueError as exc:
            return {"ok": False, "op": None,
                    "error": {"type": "BadRequest", "message": str(exc)}}
        op = request.get("op")
        if op in ("stats", "metrics"):
            return {
                "ok": True, "op": op,
                "metrics": self.metrics.snapshot(),
                "cache": (self.pool.cache.exe_stats()
                          if self.pool.cache else None),
                "pool": self.pool.info(),
                "server": {
                    "queue_depth": self._scheduler.depth,
                    "inflight": self._scheduler.inflight,
                    "high_water": self.high_water,
                    "singleflight_inflight":
                        len(self.singleflight.inflight),
                },
            }
        if op == "cache":
            # Store administration runs in the parent against the
            # pool's cache: the entry listing and purge act on the
            # on-disk store every worker shares; counters are this
            # process's view.
            if self.pool.cache is None:
                return {"ok": False, "op": "cache",
                        "error": {"type": "NoCache",
                                  "message": "server has no compile "
                                             "cache configured"}}
            try:
                payload = self.pool.cache.admin(
                    request.get("action", "stats"), kind=request.get("kind"))
            except ValueError as exc:
                return {"ok": False, "op": "cache",
                        "error": {"type": "BadRequest",
                                  "message": str(exc)}}
            return {"ok": True, "op": "cache", **payload}
        if op == "shutdown":
            return {"ok": True, "op": "shutdown"}
        if op == "batch":
            requests = request.get("requests")
            if not isinstance(requests, list):
                return {"ok": False, "op": "batch",
                        "error": {"type": "BadRequest",
                                  "message": "'requests' must be a list"}}
            tenant = request.get("tenant")
            subs = [r if tenant is None or not isinstance(r, dict)
                    or "tenant" in r else {**r, "tenant": tenant}
                    for r in requests]
            results = await asyncio.gather(
                *(self._admit(r) if isinstance(r, dict) else
                  self._bad_sub(r) for r in subs))
            return {"ok": True, "op": "batch", "results": list(results)}
        return await self._admit(request)

    async def _bad_sub(self, req) -> dict:
        return {"ok": False, "op": None,
                "error": {"type": "BadRequest",
                          "message": "batch entries must be JSON objects"}}

    async def _admit(self, request: dict) -> dict:
        tenant = str(request.get("tenant") or "default")
        self.metrics.count_tenant(tenant)
        if self._shutdown.is_set():
            return self._refusal(request, "ShuttingDown",
                                 "server is draining for shutdown")
        if self._scheduler.depth >= self.high_water:
            self.metrics.count_rejected()
            retry = self._retry_after()
            response = self._refusal(
                request, "Overloaded",
                f"admission queue at high-water mark "
                f"({self.high_water}); retry in {retry:.1f}s")
            response["error"]["retry_after_seconds"] = retry
            return response
        key = request_fingerprint(request)

        def work():
            return self._scheduler.submit(tenant, request, affinity=key)

        response, coalesced = await self.singleflight.run(key, work)
        if key is not None:
            self.metrics.count_coalesced(hit=coalesced)
        if coalesced:
            # Waiters share the leader's payload but not its envelope:
            # each gets its own id echo and a coalesced marker.
            response = dict(response)
            response.pop("id", None)
            if "id" in request:
                response["id"] = request["id"]
            response["coalesced"] = True
        return response

    def _refusal(self, request: dict, kind: str, message: str) -> dict:
        response = {"op": request.get("op"), "ok": False,
                    "error": {"type": kind, "message": message}}
        if "id" in request:
            response["id"] = request["id"]
        return response

    def _retry_after(self) -> float:
        """Backpressure hint: roughly one queue-drain's worth of time."""
        mean = self.metrics.mean_latency("total") or 0.05
        estimate = self._scheduler.depth * mean / max(1, self.pool.workers)
        return max(0.1, min(30.0, estimate))

    # -- embedding helpers (threads, tests, the CLI) ---------------------

    def serve_forever(self) -> None:
        """Run the event loop in the current thread until shutdown."""
        try:
            asyncio.run(self.serve_async())
        finally:
            self._done.set()

    def start(self) -> threading.Thread:
        """Run the server on a background thread; returns the thread."""
        thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread = thread
        thread.start()
        self._ready.wait(timeout=10.0)
        return thread

    def stop(self) -> None:
        """Request shutdown (with drain) and wait for the loop to exit."""
        loop = self._loop
        if loop is not None and not self._done.is_set():
            try:
                loop.call_soon_threadsafe(self._shutdown.set)
            except RuntimeError:
                pass  # loop already closed
        if self._thread is not None:
            self._thread.join(timeout=self.drain_timeout + 10.0)
        self.server_close()

    def server_close(self) -> None:
        """Close the listening socket (idempotent; compat shim)."""
        try:
            self._sock.close()
        except OSError:
            pass

    def __enter__(self) -> "ReproServer":
        return self

    def __exit__(self, *exc) -> None:
        self.server_close()


def send_request(address: tuple[str, int], request: dict,
                 timeout: float = 30.0) -> dict:
    """One-shot client: connect, send one request line, read the reply."""
    with socket.create_connection(address, timeout=timeout) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        reader = sock.makefile("rb")
        line = reader.readline()
    if not line:
        raise ConnectionError("server closed the connection")
    return json.loads(line)


def serve(host: str, port: int, pool: WorkerPool,
          out=sys.stderr, **server_options) -> int:
    """Run the server until shutdown; print the metrics summary."""
    with ReproServer(host, port, pool=pool, **server_options) as server:
        bound_host, bound_port = server.address
        print(f"repro serve: listening on {bound_host}:{bound_port} "
              f"({pool.mode} mode, {pool.workers} worker(s), "
              f"asyncio front door)",
              file=out, flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            pass
    pool.close()
    print("repro serve: shutdown summary", file=out)
    print(server.metrics.summary(), file=out)
    return 0
