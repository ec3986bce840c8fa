"""The asyncio serving stack: protocol hardening, admission control,
tenant fairness, singleflight coalescing, graceful drain, and the
awaitable pool-submission API underneath it all.

Everything here drives the server over real TCP sockets (the same path
production clients use); concurrency comes from plain threads so the
tests exercise the cross-thread ``send_request`` contract too.
"""

from __future__ import annotations

import json
import socket
import threading
import time

from repro.service.loadgen import build_workload, run_loadgen
from repro.service.pool import WorkerPool
from repro.service.server import ReproServer, send_request

PROGRAM = """
program tiny
integer, parameter :: n = 8
double precision, array(n,n) :: a, b
a = 1.5d0
b = cshift(a, 1, 1) + a
print *, sum(b)
end program tiny
"""


def _server(tmp_path, **options):
    pool = WorkerPool(1, cache=str(tmp_path))
    server = ReproServer(port=0, pool=pool, **options)
    server.start()
    return server, pool


def _fanout(address, requests):
    """Fire all requests concurrently; responses in request order."""
    responses = [None] * len(requests)

    def one(i, request):
        responses[i] = send_request(address, request, timeout=30.0)

    threads = [threading.Thread(target=one, args=(i, r))
               for i, r in enumerate(requests)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return responses


# -- protocol hardening ------------------------------------------------------


def test_oversized_request_line_gets_structured_error(tmp_path):
    server, pool = _server(tmp_path, max_line_bytes=1024)
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            # An oversized line and a valid request pipelined behind it
            # in one write: the junk must be skimmed through its
            # newline so the ping still gets answered.
            sock.sendall(b"x" * 5000 + b"\n"
                         + json.dumps({"op": "ping"}).encode() + b"\n")
            reader = sock.makefile("rb")
            first = json.loads(reader.readline())
            second = json.loads(reader.readline())
        assert not first["ok"]
        assert first["error"]["type"] == "RequestTooLarge"
        assert second["ok"]
    finally:
        server.stop()
        pool.close()


def test_malformed_json_gets_structured_error(tmp_path):
    server, pool = _server(tmp_path)
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"this is not json\n"
                         + json.dumps({"op": "ping"}).encode() + b"\n")
            reader = sock.makefile("rb")
            first = json.loads(reader.readline())
            second = json.loads(reader.readline())
        assert not first["ok"]
        assert first["error"]["type"] == "BadRequest"
        assert second["ok"]
        # A JSON scalar is equally malformed: requests are objects.
        bad = send_request(server.address, 42)  # type: ignore[arg-type]
        assert bad["error"]["type"] == "BadRequest"
    finally:
        server.stop()
        pool.close()


def test_idle_connection_times_out_with_notice(tmp_path):
    server, pool = _server(tmp_path, idle_timeout=0.3)
    try:
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.settimeout(10)
            reader = sock.makefile("rb")
            t0 = time.monotonic()
            notice = json.loads(reader.readline())
            assert time.monotonic() - t0 >= 0.25
            assert notice["error"]["type"] == "IdleTimeout"
            assert reader.readline() == b""  # then the server hangs up
    finally:
        server.stop()
        pool.close()


def test_client_disconnect_mid_request_leaves_server_healthy(tmp_path):
    server, pool = _server(tmp_path)
    try:
        # Half a request line, then a hard close.
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(b'{"op": "pi')
        sock.close()
        # A disconnect right after submitting real work: the response
        # has nowhere to go, but the server must not care.
        sock = socket.create_connection(server.address, timeout=10)
        sock.sendall(json.dumps(
            {"op": "_sleep", "seconds": 0.3}).encode() + b"\n")
        sock.close()
        assert send_request(server.address, {"op": "ping"})["ok"]
        time.sleep(0.4)  # let the abandoned job finish resolving
        assert send_request(server.address, {"op": "ping"})["ok"]
    finally:
        server.stop()
        pool.close()


# -- admission control -------------------------------------------------------


def test_backpressure_rejects_past_high_water(tmp_path):
    server, pool = _server(tmp_path, high_water=1, max_inflight=1)
    try:
        requests = [{"op": "_sleep", "seconds": 0.4, "id": f"r{i}"}
                    for i in range(5)]
        responses = _fanout(server.address, requests)
        rejected = [r for r in responses
                    if not r["ok"]
                    and r["error"]["type"] == "Overloaded"]
        accepted = [r for r in responses if r["ok"]]
        assert rejected and accepted
        assert all(r["error"]["retry_after_seconds"] > 0
                   for r in rejected)
        assert all(r["id"] for r in rejected)  # id echoed on refusals
        snap = send_request(server.address, {"op": "stats"})
        assert snap["metrics"]["admission"]["rejected"] == len(rejected)
        assert snap["server"]["high_water"] == 1
    finally:
        server.stop()
        pool.close()


def test_tenant_fairness_cold_tenant_is_not_starved(tmp_path):
    """One hog floods the queue; a second tenant's single request must
    be served within roughly one job's time, not after the whole
    backlog (weighted round-robin, one slot in flight)."""
    server, pool = _server(tmp_path, max_inflight=1, high_water=64)
    try:
        hog = [{"op": "_sleep", "seconds": 0.15, "id": f"hog{i}",
                "tenant": "hog"} for i in range(6)]
        done = {}

        def fire(request):
            send_request(server.address, request, timeout=30.0)
            done[request["id"]] = time.monotonic()

        threads = [threading.Thread(target=fire, args=(r,)) for r in hog]
        t0 = time.monotonic()
        for t in threads:
            t.start()
        time.sleep(0.1)  # the hog's backlog is queued now
        small = send_request(server.address,
                             {"op": "_sleep", "seconds": 0.15,
                              "tenant": "small"}, timeout=30.0)
        small_done = time.monotonic() - t0
        for t in threads:
            t.join()
        hog_done = max(done.values()) - t0
        assert small["ok"]
        # FIFO would put the small tenant behind ~6 x 0.15s of backlog;
        # WRR serves it after at most a couple of hog jobs.
        assert small_done < 0.75
        assert hog_done > small_done
        snap = send_request(server.address, {"op": "stats"})
        assert snap["metrics"]["per_tenant"]["hog"] == 6
        assert snap["metrics"]["per_tenant"]["small"] == 1
    finally:
        server.stop()
        pool.close()


# -- singleflight coalescing -------------------------------------------------


def test_singleflight_coalesces_to_one_pool_job(tmp_path):
    server, pool = _server(tmp_path)
    try:
        before = send_request(server.address,
                              {"op": "metrics"})["metrics"]
        requests = [{"op": "_sleep", "seconds": 0.5,
                     "coalesce_key": "same", "id": f"w{i}"}
                    for i in range(6)]
        responses = _fanout(server.address, requests)
        after = send_request(server.address, {"op": "metrics"})["metrics"]
        assert all(r["ok"] for r in responses)
        # Six requests, exactly one pool job.
        assert after["requests"] - before["requests"] == 1
        assert after["singleflight"]["hits"] == 5
        assert after["singleflight"]["leaders"] == 1
        waiters = [r for r in responses if r.get("coalesced")]
        assert len(waiters) == 5
        # Every waiter's envelope carries its *own* id, not the
        # leader's.
        ids = {r["id"] for r in responses}
        assert ids == {f"w{i}" for i in range(6)}
    finally:
        server.stop()
        pool.close()


def test_coalesced_leader_failure_reaches_every_waiter_uncached(
        tmp_path):
    server, pool = _server(tmp_path)
    try:
        requests = [{"op": "_sleep", "seconds": 0.4, "fail": True,
                     "coalesce_key": "boom", "id": f"w{i}"}
                    for i in range(4)]
        responses = _fanout(server.address, requests)
        # Every waiter sees the leader's error...
        assert all(not r["ok"] for r in responses)
        assert all(r["error"]["type"] == "RuntimeError"
                   for r in responses)
        snap = send_request(server.address, {"op": "metrics"})["metrics"]
        assert snap["singleflight"]["leaders"] == 1
        assert snap["singleflight"]["hits"] == 3
        # ...and the failure is not cached: the next same-key request
        # elects a fresh leader (a second real pool job).
        retry = send_request(server.address,
                             {"op": "_sleep", "seconds": 0.0,
                              "fail": True, "coalesce_key": "boom"})
        assert not retry["ok"] and not retry.get("coalesced")
        snap = send_request(server.address, {"op": "metrics"})["metrics"]
        assert snap["singleflight"]["leaders"] == 2
    finally:
        server.stop()
        pool.close()


def test_concurrent_identical_compiles_coalesce(tmp_path):
    """The content-addressed fingerprint coalesces real compiles with
    no explicit key — and distinct sources never share a flight."""
    server, pool = _server(tmp_path)
    try:
        same = [{"op": "compile", "source": PROGRAM, "id": f"s{i}"}
                for i in range(4)]
        other = {"op": "compile",
                 "source": PROGRAM.replace("1.5d0", "2.5d0"),
                 "id": "other"}
        responses = _fanout(server.address, same + [other])
        assert all(r["ok"] for r in responses)
        assert not responses[-1].get("coalesced")
        snap = send_request(server.address, {"op": "metrics"})["metrics"]
        hits = snap["singleflight"]["hits"]
        leaders = snap["singleflight"]["leaders"]
        assert hits + leaders == 5
        assert leaders >= 2  # the distinct source was its own flight
    finally:
        server.stop()
        pool.close()


def test_identical_real_compiles_cost_one_pool_job(tmp_path):
    """Eight identical fresh compiles released at once cost exactly one
    pool job.  A loaded machine can let a leader finish before the last
    waiter arrives, so a wave that splits is retried with a fresh
    source, at most five times; a success is unambiguous."""
    waiters = 8
    server, pool = _server(tmp_path)
    attempts = []
    try:
        for attempt in range(5):
            source = PROGRAM.replace(
                "program tiny\n",
                f"program tiny\n! nonce {attempt}-{time.time_ns():x}\n")
            before = send_request(server.address,
                                  {"op": "metrics"})["metrics"]
            barrier = threading.Barrier(waiters)
            responses = [None] * waiters

            def fire(i, src=source, b=barrier, out=responses):
                b.wait(timeout=60)
                out[i] = send_request(
                    server.address,
                    {"op": "compile", "source": src}, timeout=60.0)

            threads = [threading.Thread(target=fire, args=(i,))
                       for i in range(waiters)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in threads)
            after = send_request(server.address,
                                 {"op": "metrics"})["metrics"]
            assert all(r["ok"] for r in responses)
            attempts.append(
                (after["requests"] - before["requests"],
                 sum(1 for r in responses if r.get("coalesced"))))
            if attempts[-1][0] == 1:
                break
        assert attempts[-1] == (1, waiters - 1), attempts
    finally:
        server.stop()
        pool.close()


# -- graceful drain ----------------------------------------------------------


def test_shutdown_drains_inflight_work(tmp_path):
    pool = WorkerPool(1, cache=str(tmp_path))
    server = ReproServer(port=0, pool=pool)
    thread = server.start()
    # A slow job in flight on one connection...
    sock = socket.create_connection(server.address, timeout=10)
    sock.sendall(json.dumps(
        {"op": "_sleep", "seconds": 0.5}).encode() + b"\n")
    time.sleep(0.1)
    # ...then shutdown from another: the ack comes back immediately,
    # and the in-flight job still gets its answer during the drain.
    ack = send_request(server.address, {"op": "shutdown"})
    assert ack["ok"]
    reader = sock.makefile("rb")
    sock.settimeout(10)
    response = json.loads(reader.readline())
    assert response["ok"] and response["slept"] == 0.5
    sock.close()
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    server.server_close()
    pool.close()


def test_new_work_refused_while_draining(tmp_path):
    server, pool = _server(tmp_path, drain_timeout=5.0)
    try:
        fired = threading.Thread(
            target=send_request,
            args=(server.address, {"op": "_sleep", "seconds": 0.4}))
        fired.start()
        time.sleep(0.1)
        stopper = threading.Thread(target=server.stop)
        stopper.start()
        time.sleep(0.1)
        # The listening socket may already refuse; if a connection
        # does get through, the answer is a structured refusal.
        try:
            late = send_request(server.address, {"op": "ping"},
                                timeout=2.0)
            assert late["error"]["type"] == "ShuttingDown"
        except (ConnectionError, OSError):
            pass
        fired.join(timeout=10.0)
        stopper.join(timeout=10.0)
        assert not stopper.is_alive()
    finally:
        pool.close()


# -- the pool's awaitable submission API -------------------------------------


def test_pool_sizes_from_cpu_count(monkeypatch):
    from repro.service import pool as pool_mod

    monkeypatch.setenv("REPRO_SERVICE_INPROC", "1")
    monkeypatch.setattr(pool_mod.os, "cpu_count", lambda: 7)
    for workers in (0, None):
        pool = WorkerPool(workers)
        assert pool.workers == 7
        pool.close()
    # An explicit size is always honored verbatim.
    pool = WorkerPool(3)
    assert pool.workers == 3
    pool.close()


def test_pool_submit_returns_concurrent_futures(tmp_path):
    with WorkerPool(2, cache=str(tmp_path)) as pool:
        assert pool.mode == "pool"
        futures = [pool.submit({"op": "ping", "id": f"f{i}"})
                   for i in range(4)]
        responses = [f.result(timeout=30) for f in futures]
        assert all(r["ok"] for r in responses)
        assert [r["id"] for r in responses] == [f"f{i}" for i in range(4)]
        assert all(r["pool"]["mode"] == "pool" for r in responses)
        assert pool.info()["jobs_dispatched"] >= 4


def test_pool_affinity_routes_repeat_keys_to_warm_worker():
    with WorkerPool(2) as pool:
        assert pool.mode == "pool"
        for _ in range(3):
            pool.submit({"op": "ping"}, affinity="hot-key").result(30)
        assert pool.info()["affinity_hits"] >= 1


def test_pool_warm_start_serves_first_compile(tmp_path):
    """A fresh pool's very first compile works (workers import the
    compiler pipeline before accepting jobs)."""
    with WorkerPool(2, cache=str(tmp_path)) as pool:
        response = pool.submit(
            {"op": "compile", "source": PROGRAM}).result(60)
        assert response["ok"] and response["cache"] == "miss"


# -- loadgen -----------------------------------------------------------------


def test_build_workload_is_mixed_and_tenanted():
    workload = build_workload(1, 12, tenants=3, distinct=4, nonce="t")
    assert len(workload) == 12
    assert {r["tenant"] for r in workload} == {"tenant-1"}
    assert {r["op"] for r in workload} == {"compile", "run"}
    other = build_workload(2, 12, tenants=3, distinct=4, nonce="t")
    assert {r["tenant"] for r in other} == {"tenant-2"}
    # Slots repeat across clients: shared sources are what coalesce.
    assert ({r["source"] for r in workload}
            & {r["source"] for r in other})


def test_run_loadgen_in_process_smoke(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    result = run_loadgen(clients=4, requests=12, tenants=2, workers=1)
    assert result["failure_count"] == 0
    # 4 clients x (1 wave + 3 workload requests) all answered.
    assert result["requests_completed"] == result["requests_sent"] == 16
    assert result["jobs_per_second"] > 0
    assert result["latency_seconds"]["count"] == 16
    assert result["latency_seconds"]["p99"] >= \
        result["latency_seconds"]["p50"]
    # The coalesce wave guarantees singleflight activity every run.
    assert result["server"]["singleflight"]["hits"] >= 1
    assert result["server"]["pool_jobs"] < result["requests_completed"]
    assert set(result["server"]["per_tenant"]) >= \
        {"tenant-0", "tenant-1"}
