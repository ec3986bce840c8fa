"""Async load generator for the serving stack: ``repro loadgen``.

Drives a running :class:`~repro.service.server.ReproServer` (or spins
one up in-process) with N concurrent asyncio clients issuing a mixed,
multi-tenant compile/run workload, and reports the numbers that matter
for capacity planning:

* client-observed latency percentiles (p50/p95/p99/max) and jobs/sec;
* the server's queue-wait distribution over the same window;
* singleflight coalescing hits/leaders (the generator opens with a
  *coalesce wave* — every client fires the same fresh compile at the
  same instant — so the exactly-one-pool-job property is exercised on
  every run, not just under accidental contention);
* admission-control rejections and the queue high-water mark;
* per-tenant request counts (clients are spread round-robin over
  ``tenants`` tenant names, so fairness shows up in the rollup).

``repro loadgen --json PATH`` writes the dict :func:`run_loadgen`
returns.
"""

from __future__ import annotations

import asyncio
import json
import time

from .metrics import percentile
from .pool import WorkerPool
from .server import ReproServer

#: StreamReader line limit for responses (compile payloads can be
#: hundreds of KB once pipeline traces are attached).
_CLIENT_LIMIT = 16 * 1024 * 1024


def _program(index: int, nonce: str) -> str:
    """A small distinct Fortran-90 program per workload slot.

    The nonce comment makes every loadgen run's sources fresh, so the
    first compile of each slot is a real pool job (not a warm disk
    cache hit from the previous run) and coalescing has work to share.
    """
    n = 6 + 2 * (index % 4)
    return (f"program load{index}\n"
            f"! loadgen nonce {nonce}\n"
            f"integer, parameter :: n = {n}\n"
            f"double precision, array(n,n) :: a, b\n"
            f"a = {1 + index % 3}.5d0\n"
            f"b = cshift(a, 1, 1) + a * 2.0d0\n"
            f"print *, sum(b)\n"
            f"end program load{index}\n")


def build_workload(client: int, count: int, *, tenants: int,
                   distinct: int, nonce: str) -> list[dict]:
    """The request sequence for one client: mixed ops, shared sources.

    Slots repeat across clients (``distinct`` programs total), so
    concurrent clients naturally contend on the same cache keys —
    first as singleflight waiters, later as cache hits.
    """
    tenant = f"tenant-{client % max(1, tenants)}"
    requests = []
    for i in range(count):
        slot = (client + i) % max(1, distinct)
        source = _program(slot, nonce)
        if (client + i) % 3 == 0:
            request = {"op": "compile", "source": source}
        else:
            request = {"op": "run", "source": source, "pes": 64}
        request["tenant"] = tenant
        request["id"] = f"c{client}-{i}"
        requests.append(request)
    return requests


async def _client_session(address, requests: list[dict],
                          start: asyncio.Event,
                          latencies: list[float],
                          failures: list[dict]) -> int:
    reader, writer = await asyncio.open_connection(
        address[0], address[1], limit=_CLIENT_LIMIT)
    try:
        await start.wait()
        done = 0
        for request in requests:
            t0 = time.perf_counter()
            writer.write((json.dumps(request) + "\n").encode())
            await writer.drain()
            line = await reader.readline()
            if not line:
                failures.append({"id": request.get("id"),
                                 "error": "connection closed"})
                break
            latencies.append(time.perf_counter() - t0)
            response = json.loads(line)
            if not response.get("ok"):
                failures.append({"id": request.get("id"),
                                 "error": response.get("error")})
            done += 1
        return done
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, OSError):
            pass


async def _drive(address, workloads: list[list[dict]], nonce: str):
    """Connect every client, fire the coalesce wave, run the mix."""
    start = asyncio.Event()
    latencies: list[float] = []
    failures: list[dict] = []
    # The coalesce wave: one identical fresh compile from every client,
    # released simultaneously — N requests, exactly one pool job.
    wave = {"op": "compile", "source": _program(9000, nonce),
            "coalesce_key": f"wave-{nonce}"}
    sessions = [
        _client_session(address, [dict(wave, id=f"wave-{i}")] + workload,
                        start, latencies, failures)
        for i, workload in enumerate(workloads)]
    tasks = [asyncio.ensure_future(s) for s in sessions]
    await asyncio.sleep(0.05)  # let every client connect and park
    t0 = time.perf_counter()
    start.set()
    completed = sum(await asyncio.gather(*tasks))
    wall = time.perf_counter() - t0
    return completed, wall, latencies, failures


def _latency_block(samples: list[float]) -> dict:
    if not samples:
        return {"count": 0}
    return {
        "count": len(samples),
        "mean": sum(samples) / len(samples),
        "p50": percentile(samples, 50),
        "p95": percentile(samples, 95),
        "p99": percentile(samples, 99),
        "max": max(samples),
    }


def _metrics_delta(before: dict, after: dict) -> dict:
    """Server-side counters over the loadgen window."""
    def diff(*path):
        b, a = before, after
        for key in path:
            b = (b or {}).get(key)
            a = (a or {}).get(key)
        return (a or 0) - (b or 0)

    hits = diff("singleflight", "hits")
    leaders = diff("singleflight", "leaders")
    flights = hits + leaders
    return {
        "pool_jobs": diff("requests"),
        "errors": diff("errors"),
        "singleflight": {
            "hits": hits,
            "leaders": leaders,
            "hit_rate": (hits / flights) if flights else None,
        },
        "admission": {
            "rejected": diff("admission", "rejected"),
            "queue_peak": (after.get("admission") or {})
            .get("queue_peak", 0),
        },
        "per_tenant": (after.get("per_tenant") or {}),
    }


def run_loadgen(address=None, *, clients: int = 16, requests: int = 96,
                tenants: int = 2, distinct: int = 8,
                workers: int = 0, nonce: str | None = None) -> dict:
    """Run the load generator; returns the report dict.

    With ``address=None`` an in-process server (and pool sized by
    ``workers``; 0 = one per CPU) is started for the duration.  With an
    address, an already-running ``repro serve`` is driven instead and
    server-side counters come from its ``metrics`` op.
    """
    nonce = nonce or f"{time.time_ns():x}"
    per_client = max(1, requests // max(1, clients))
    workloads = [build_workload(c, per_client, tenants=tenants,
                                distinct=distinct, nonce=nonce)
                 for c in range(clients)]

    own_server = None
    own_pool = None
    if address is None:
        own_pool = WorkerPool(workers, cache=True)
        own_server = ReproServer(port=0, pool=own_pool)
        own_server.start()
        address = own_server.address

    from .server import send_request

    try:
        before = send_request(address, {"op": "metrics"})["metrics"]
        completed, wall, latencies, failures = asyncio.run(
            _drive(address, workloads, nonce))
        stats = send_request(address, {"op": "stats"})
        after = stats["metrics"]
    finally:
        if own_server is not None:
            own_server.stop()
        if own_pool is not None:
            own_pool.close()

    total_sent = clients + sum(len(w) for w in workloads)  # + wave
    result = {
        "clients": clients,
        "requests_sent": total_sent,
        "requests_completed": completed,
        "tenants": tenants,
        "distinct_programs": distinct,
        "wall_seconds": wall,
        "jobs_per_second": (completed / wall) if wall > 0 else 0.0,
        "latency_seconds": _latency_block(latencies),
        "queue_wait_seconds": (after.get("latency_seconds") or {})
        .get("queue_wait", {"count": 0}),
        "server": _metrics_delta(before, after),
        "pool": stats.get("pool"),
        "failures": failures[:10],
        "failure_count": len(failures),
    }
    return result


def loadgen_main(address, *, clients: int, requests: int, tenants: int,
                 workers: int, json_path: str | None, out) -> int:
    """CLI driver: run, print the human summary, optionally dump JSON."""
    result = run_loadgen(address, clients=clients, requests=requests,
                         tenants=tenants, workers=workers)
    latency = result["latency_seconds"]
    flight = result["server"]["singleflight"]
    print(f"repro loadgen: {result['requests_completed']} responses "
          f"from {result['clients']} client(s) in "
          f"{result['wall_seconds']:.2f}s "
          f"({result['jobs_per_second']:.1f} jobs/sec)", file=out)
    if latency.get("count"):
        print(f"latency   p50 {latency['p50'] * 1e3:.1f}ms  "
              f"p95 {latency['p95'] * 1e3:.1f}ms  "
              f"p99 {latency['p99'] * 1e3:.1f}ms  "
              f"max {latency['max'] * 1e3:.1f}ms", file=out)
    print(f"coalesce  {flight['hits']} hits / {flight['leaders']} "
          f"leaders  pool jobs {result['server']['pool_jobs']}",
          file=out)
    if result["failure_count"]:
        print(f"failures  {result['failure_count']} "
              f"(first: {result['failures'][:1]})", file=out)
    if json_path:
        with open(json_path, "w") as f:
            json.dump(result, f, indent=2, sort_keys=True)
        print(f"wrote {json_path}", file=out)
    return 1 if result["failure_count"] else 0
