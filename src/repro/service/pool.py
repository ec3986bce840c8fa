"""Multi-process worker pool for compile/run jobs.

The pool fans requests out over ``multiprocessing`` workers.  The
parent owns all scheduling state: each worker has its *own* pair of
pipes (one for tasks, one for results) and the parent assigns one job
at a time to an idle worker, so it always knows exactly which job a
worker holds — even if that worker dies without managing to send
anything back (a shared task queue would lose that attribution, and
with it the job).  Private pipes also mean *no shared locks*: a
``multiprocessing.Queue`` guards its pipe with a cross-process
semaphore, and a worker that dies inside that critical section (its
feeder thread mid-``put`` when the process is killed) leaves the
semaphore acquired forever, wedging every other worker's sends.  With
one single-writer pipe per worker, a dying worker can corrupt only its
own channel, which the parent drains and replaces at respawn.

Scheduling runs on one persistent **dispatcher thread** with a
submission inbox, so any number of caller threads (and the asyncio
server's event loop) can :meth:`WorkerPool.submit` jobs concurrently
and all of them fan out across the workers together — the old design
serialized whole ``map()`` calls behind a lock, so two connections
could never use two workers at once.  The dispatcher:

* enforces a **per-job timeout** — the worker is terminated and
  replaced, the job answered with a ``JobTimeout`` error, everything
  else unaffected;
* **retries once on crash** — a worker that dies mid-job (OOM, hard
  fault, ``os._exit``) is respawned and the job reassigned; a second
  crash returns a ``WorkerCrash`` error instead of looping;
* prefers **cache-warm workers** — a job submitted with an affinity
  key is routed to an idle worker that recently ran the same key, so
  its in-process memo tier (not just the shared disk store) is warm;
* falls back **gracefully to threads** — with ``workers <= 1``, under
  ``REPRO_SERVICE_INPROC=1``, or when process creation fails, jobs run
  on an in-process thread executor through the exact same request path
  (timeouts are then advisory only).

``workers=0`` (or ``None``) sizes the pool from ``os.cpu_count()``,
and workers warm-start: they import the whole compiler pipeline before
accepting their first job, so a cold pool doesn't pay import latency
inside the first request's measured window.

Workers coordinate through the on-disk artifact store, not through
memory: each opens an :class:`~repro.service.store.ArtifactStore` on
the same root, so a source compiled by one worker is a pickle-load for
every other — and for every later serving run.

A miss replies before it writes: the worker sends ``("done", serial,
worker, response, keys)``, ``keys`` naming the ``exe`` entries it still
has to write, writes them, then sends ``("idle", ...)`` (a hit sends no
keys and is idle at once).  While a write is in flight the dispatcher
holds back each pending job that could read it — an inline
``compile``/``run`` (keyed at submit) only behind a write of its key,
any other job behind every write — so a request sent after a response
arrived finds that response's entry.  A worker that dies, or outlives
the per-job timeout, between its reply and its write loses only that
entry.
"""

from __future__ import annotations

import collections
import concurrent.futures
import itertools
import multiprocessing
import multiprocessing.connection
import os
import socket
import threading
import time

from .jobs import execute_request, request_cache_key
from .metrics import ServiceMetrics
from .store import ArtifactStore, default_store

#: Idle wait between dispatcher sweeps when nothing is due sooner.
#: Results, submissions, and worker deaths all wake the dispatcher
#: immediately (pipe readability / the wake socket), so this only
#: bounds how late a stale ``is_alive`` sweep can run.
_MAX_WAIT = 0.5

#: Per-worker affinity memory: how many recent job keys each worker is
#: considered "warm" for when routing new submissions.
_AFFINITY_ENTRIES = 32


def _worker_main(worker_id: int, task_r, result_w,
                 cache_root: str | None) -> None:
    """One worker process: pull jobs until the ``None`` sentinel."""
    try:
        # Warm start: pay the compiler-pipeline imports before the
        # first job is assigned (a no-op under the fork start method,
        # the whole point under spawn).
        from ..driver import compiler as _compiler  # noqa: F401
    except Exception:
        pass
    cache = ArtifactStore(cache_root) if cache_root else None
    while True:
        try:
            item = task_r.recv()
        except (EOFError, OSError):
            return  # parent closed the pipe (or died): shut down
        if item is None:
            return
        serial, request = item
        writes: list = []
        response = execute_request(request, cache, writes)
        keys = tuple(key for key, _exe in writes)
        try:
            result_w.send(("done", serial, worker_id, response, keys))
            if keys:
                for key, exe in writes:
                    cache.put_exe(key, exe)
                result_w.send(("idle", serial, worker_id, None, ()))
        except (EOFError, OSError):
            return


class _Job:
    __slots__ = ("serial", "request", "affinity", "key", "future",
                 "first_submit", "start", "worker", "attempts")

    def __init__(self, serial: int, request: dict, affinity: str | None,
                 key: str | None, now: float) -> None:
        self.serial = serial
        self.request = request
        self.affinity = affinity
        self.key = key            # the exe entry it reads, if known
        self.future: concurrent.futures.Future = concurrent.futures.Future()
        self.first_submit = now
        self.start: float | None = None   # last assignment time
        self.worker: int | None = None
        self.attempts = 0


def _resolve(future: concurrent.futures.Future, response: dict) -> None:
    """Complete a job future; tolerate abandoned (cancelled) waiters."""
    try:
        future.set_result(response)
    except concurrent.futures.InvalidStateError:
        pass


class WorkerPool:
    """Schedules service requests over worker processes (or threads)."""

    def __init__(self, workers: int | None = None, *,
                 timeout: float | None = None,
                 retries: int = 1,
                 cache: ArtifactStore | str | bool | None = None,
                 metrics: ServiceMetrics | None = None) -> None:
        self.timeout = timeout
        self.retries = retries
        self.metrics = metrics or ServiceMetrics()
        if cache is True:
            cache = default_store()
        elif isinstance(cache, str):
            cache = ArtifactStore(cache)
        self.cache: ArtifactStore | None = cache or None
        if workers is None or int(workers) <= 0:
            workers = os.cpu_count() or 1
        self.workers = max(1, int(workers))
        self.jobs_dispatched = 0
        self.affinity_hits = 0
        self._serial = itertools.count()
        self._inbox: collections.deque[_Job] = collections.deque()
        self._inbox_lock = threading.Lock()
        self._closing = False
        self._inline_executor: concurrent.futures.ThreadPoolExecutor | \
            None = None
        self._procs: list = []
        self.mode = "inline"
        if (self.workers > 1
                and os.environ.get("REPRO_SERVICE_INPROC") != "1"):
            self._start_pool()

    # -- lifecycle ------------------------------------------------------

    def _start_pool(self) -> None:
        try:
            try:
                self._ctx = multiprocessing.get_context("fork")
            except ValueError:
                self._ctx = multiprocessing.get_context("spawn")
            self._task_ws: list = [None] * self.workers
            self._result_rs: list = [None] * self.workers
            self._procs = [None] * self.workers
            for i in range(self.workers):
                self._procs[i] = self._spawn(i)
            self._wake_r, self._wake_w = socket.socketpair()
            self._wake_r.setblocking(False)
            self._wake_w.setblocking(False)
            self._dispatcher = threading.Thread(
                target=self._dispatch_loop, daemon=True,
                name="repro-pool-dispatcher")
            self._dispatcher.start()
            self.mode = "pool"
        except Exception:
            # No fork/spawn available (restricted sandbox): run inline.
            self._procs = []
            self.mode = "inline"

    def _spawn(self, worker_id: int):
        """Start worker ``worker_id`` on a fresh pair of private pipes."""
        task_r, task_w = self._ctx.Pipe(duplex=False)
        result_r, result_w = self._ctx.Pipe(duplex=False)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(worker_id, task_r, result_w,
                  self.cache.root if self.cache else None),
            daemon=True)
        proc.start()
        # Drop the parent's copies of the worker-side ends so a dead
        # worker reads as EOF instead of a silent hang.
        task_r.close()
        result_w.close()
        self._task_ws[worker_id] = task_w
        self._result_rs[worker_id] = result_r
        return proc

    def _respawn(self, worker_id: int) -> None:
        proc = self._procs[worker_id]
        if proc is not None:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=2.0)
        for conn in (self._task_ws[worker_id], self._result_rs[worker_id]):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        self._procs[worker_id] = self._spawn(worker_id)

    def _drain_results(self, worker_id: int) -> list:
        """Salvage complete responses a dead worker left in its pipe."""
        conn = self._result_rs[worker_id]
        messages = []
        while True:
            try:
                if conn is None or not conn.poll(0):
                    break
                messages.append(conn.recv())
            except (EOFError, OSError):
                break  # truncated by the crash: discard the rest
        return messages

    def close(self) -> None:
        """Stop every worker; the pool cannot be used afterwards."""
        if self.mode != "pool":
            if self._inline_executor is not None:
                self._inline_executor.shutdown(wait=True)
                self._inline_executor = None
            self.mode = "closed"
            return
        with self._inbox_lock:
            self._closing = True
        self._wake()
        self._dispatcher.join(timeout=5.0)
        for task_w, proc in zip(self._task_ws, self._procs):
            if proc.is_alive():
                try:
                    task_w.send(None)
                except (EOFError, OSError):
                    pass
        for proc in self._procs:
            proc.join(timeout=2.0)
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=1.0)
        for conn in (*self._task_ws, *self._result_rs):
            if conn is not None:
                try:
                    conn.close()
                except OSError:
                    pass
        for sock in (self._wake_r, self._wake_w):
            try:
                sock.close()
            except OSError:
                pass
        self.mode = "closed"

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- submission -----------------------------------------------------

    def submit(self, request: dict, *,
               affinity: str | None = None) -> concurrent.futures.Future:
        """Enqueue one request; the future resolves to its response.

        Thread-safe and non-blocking: submissions from any number of
        threads interleave across the workers.  ``affinity`` is an
        opaque key — identical keys are routed to the same worker when
        one is idle, so its in-process cache-memo tier stays warm.
        """
        if self.mode == "closed":
            raise RuntimeError("pool is closed")
        if self.mode == "inline":
            return self._inline_submit(request)
        key = request_cache_key(request) if self.cache else None
        job = _Job(next(self._serial), request, affinity, key,
                   time.monotonic())
        with self._inbox_lock:
            if self._closing:
                raise RuntimeError("pool is closed")
            self._inbox.append(job)
        self._wake()
        return job.future

    def _wake(self) -> None:
        try:
            self._wake_w.send(b"\0")
        except (BlockingIOError, OSError):
            pass  # wake already pending (or pool torn down)

    def _inline_submit(self, request: dict) -> concurrent.futures.Future:
        with self._inbox_lock:
            if self._inline_executor is None:
                self._inline_executor = \
                    concurrent.futures.ThreadPoolExecutor(
                        max_workers=self.workers,
                        thread_name_prefix="repro-pool-inline")
            executor = self._inline_executor
        return executor.submit(self._run_inline, request)

    def execute(self, request: dict) -> dict:
        return self.map([request])[0]

    def map(self, requests: list[dict]) -> list[dict]:
        """Run every request; responses in request order.

        Thread-safe; jobs from concurrent ``map`` calls (and ``submit``
        callers) all fan out across the workers together.
        """
        if self.mode == "closed":
            raise RuntimeError("pool is closed")
        if self.mode == "inline":
            return [self._run_inline(r) for r in requests]
        futures = [self.submit(r, affinity=self._affinity_of(r))
                   for r in requests]
        return [f.result() for f in futures]

    def _affinity_of(self, request: dict) -> str | None:
        if self.cache is None:
            return None
        from .jobs import request_fingerprint

        return request_fingerprint(request)

    def _run_inline(self, request: dict) -> dict:
        t0 = time.monotonic()
        response = execute_request(request, self.cache)
        total = time.monotonic() - t0
        self.jobs_dispatched += 1
        response["pool"] = {"mode": "inline", "attempts": 1,
                            "queue_wait_seconds": 0.0,
                            "total_seconds": total}
        self.metrics.observe(response, queue_wait=0.0, total=total)
        return response

    def info(self) -> dict:
        """The pool block of the ``stats`` response."""
        return {"mode": self.mode, "workers": self.workers,
                "timeout": self.timeout,
                "jobs_dispatched": self.jobs_dispatched,
                "affinity_hits": self.affinity_hits}

    # -- the dispatcher thread -----------------------------------------

    def _dispatch_loop(self) -> None:
        pending: collections.deque[_Job] = collections.deque()
        assigned: dict[int, _Job] = {}     # worker id -> job
        # worker id -> (exe keys, since) of the write it runs after its
        # reply; such a worker is neither assigned nor idle.
        writing: dict[int, tuple[tuple, float]] = {}
        idle = set(range(self.workers))
        recent: list[collections.OrderedDict] = [
            collections.OrderedDict() for _ in range(self.workers)]

        def finish(job: _Job, response: dict) -> None:
            total = time.monotonic() - job.first_submit
            wait = ((job.start - job.first_submit)
                    if job.start is not None else total)
            response["pool"] = {
                "mode": "pool", "worker": job.worker,
                "attempts": job.attempts + 1,
                "queue_wait_seconds": wait, "total_seconds": total,
            }
            self.metrics.observe(response, queue_wait=wait, total=total)
            _resolve(job.future, response)

        def deliver(msg) -> None:
            kind, serial, worker_id, response, keys = msg
            if kind == "idle":
                if writing.pop(worker_id, None) is not None:
                    idle.add(worker_id)
                return
            job = assigned.get(worker_id)
            # A stale answer (job already timed out, worker already
            # replaced) no longer matches the assignment: drop it.
            if job is not None and job.serial == serial:
                del assigned[worker_id]
                if keys:
                    writing[worker_id] = (keys, time.monotonic())
                else:
                    idle.add(worker_id)
                finish(job, response)

        def held(job: _Job) -> bool:
            """Could ``job`` read an entry some worker is still writing?"""
            return job.key is None or any(
                job.key in keys for keys, _ in writing.values())

        def pick_worker(job: _Job) -> int:
            if job.affinity is not None:
                for worker_id in idle:
                    if job.affinity in recent[worker_id]:
                        self.affinity_hits += 1
                        idle.discard(worker_id)
                        return worker_id
            return idle.pop()

        while True:
            with self._inbox_lock:
                while self._inbox:
                    pending.append(self._inbox.popleft())
                closing = self._closing
            if closing:
                for job in pending:
                    job.future.set_exception(RuntimeError("pool is closed"))
                for job in assigned.values():
                    job.future.set_exception(RuntimeError("pool is closed"))
                return
            waiting: list[_Job] = []
            while pending and idle:
                job = pending.popleft()
                if job.future.cancelled():
                    continue  # the waiter gave up while queued
                if writing and held(job):
                    waiting.append(job)
                    continue
                worker_id = pick_worker(job)
                job.start = time.monotonic()
                job.worker = worker_id
                try:
                    self._task_ws[worker_id].send((job.serial, job.request))
                except (EOFError, OSError):
                    # Worker died while idle: requeue (no attempt
                    # burnt); the crash sweep respawns the worker.
                    pending.appendleft(job)
                    job.start = None
                    job.worker = None
                    continue
                assigned[worker_id] = job
                self.jobs_dispatched += 1
                if job.affinity is not None:
                    memory = recent[worker_id]
                    memory[job.affinity] = True
                    memory.move_to_end(job.affinity)
                    while len(memory) > _AFFINITY_ENTRIES:
                        memory.popitem(last=False)
            pending.extendleft(reversed(waiting))
            conns = [c for c in self._result_rs if c is not None]
            conns.append(self._wake_r)
            try:
                ready = multiprocessing.connection.wait(
                    conns, timeout=self._wait_timeout(assigned, writing))
            except OSError:
                ready = []
            for conn in ready:
                if conn is self._wake_r:
                    try:
                        while self._wake_r.recv(4096):
                            pass
                    except (BlockingIOError, OSError):
                        pass
                    continue
                try:
                    msg = conn.recv()
                except (EOFError, OSError):
                    continue  # dead worker: the crash sweep handles it
                deliver(msg)
            self._reap_timeouts(assigned, writing, idle, finish)
            self._reap_crashes(pending, assigned, writing, idle, deliver,
                               finish)

    def _wait_timeout(self, assigned: dict[int, _Job],
                      writing: dict[int, tuple]) -> float:
        if not self.timeout or not (assigned or writing):
            return _MAX_WAIT
        now = time.monotonic()
        deadline = min([job.start for job in assigned.values()]
                       + [since for _, since in writing.values()]) \
            + self.timeout
        return max(0.0, min(_MAX_WAIT, deadline - now))

    def _reap_timeouts(self, assigned, writing, idle, finish) -> None:
        if not self.timeout:
            return
        now = time.monotonic()
        for worker_id, (_, since) in list(writing.items()):
            if now - since > self.timeout:
                # Its reply went out already: only the entry is lost.
                self._respawn(worker_id)
                del writing[worker_id]
                idle.add(worker_id)
        for worker_id, job in list(assigned.items()):
            if now - job.start <= self.timeout:
                continue
            # The job gets a timeout answer, not a retry (it would just
            # time out again); its worker is replaced immediately so
            # the crash sweep never sees the deliberate kill.
            self._respawn(worker_id)
            del assigned[worker_id]
            idle.add(worker_id)
            finish(job, {
                "op": job.request.get("op"), "ok": False,
                "error": {"type": "JobTimeout",
                          "message": f"job exceeded {self.timeout:.1f}s "
                                     f"(attempt {job.attempts + 1})"}})

    def _reap_crashes(self, pending, assigned, writing, idle, deliver,
                      finish) -> None:
        for worker_id, proc in enumerate(self._procs):
            if proc.is_alive():
                continue
            # A worker that finished its job and then died left the
            # response in its pipe: deliver it rather than re-running.
            for msg in self._drain_results(worker_id):
                deliver(msg)
            job = assigned.pop(worker_id, None)
            writing.pop(worker_id, None)  # died mid-write: entry lost
            self._respawn(worker_id)
            idle.add(worker_id)
            if job is None:
                continue  # died idle: just replace it
            job.attempts += 1
            if job.attempts <= self.retries:
                self.metrics.count_retry()
                job.start = None
                job.worker = None
                pending.append(job)
            else:
                finish(job, {
                    "op": job.request.get("op"), "ok": False,
                    "error": {"type": "WorkerCrash",
                              "message": f"worker died {job.attempts} "
                                         f"times running this job (exit "
                                         f"{proc.exitcode})"}})
