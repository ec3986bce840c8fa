"""Write-behind in the worker pool: a miss replies, then writes.

A pool worker sends a miss's response first and writes the executable
to the store afterwards, before it takes its next job.  These tests pin
what that may and may not change:

* a worker killed between its reply and its write loses only that
  entry — the response was delivered, the next identical request is a
  counted miss with the same output, and the pool keeps serving;
* a write stuck longer than the per-job timeout is cut off the same way;
* read-your-writes: a request sent after a response arrived finds that
  response's entry, inline or file-based, with no barrier in between;
* the dispatcher holds back only the jobs that could read an entry still
  being written: another key starts at once, a request whose key it
  cannot compute waits for every write.

Patches to ``ArtifactStore.put_exe`` are made before the pool forks, so the
workers inherit them.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.programs.kernels import heat_source
from repro.service.pool import WorkerPool
from repro.service.store import ArtifactStore, cache_key

#: How long a patched write sleeps; far above a tiny compile's latency.
SLOW = 1.5


def program(i: int) -> str:
    return heat_source(n=8 + 2 * i, steps=1)


def run_request(source: str) -> dict:
    return {"op": "run", "source": source, "pes": 64}


def pool_of(tmp_path, **kw) -> WorkerPool:
    pool = WorkerPool(2, cache=str(tmp_path / "cache"), **kw)
    if pool.mode != "pool":
        pool.close()
        pytest.skip("no process pool on this platform")
    return pool


def entry_path(pool: WorkerPool, source: str) -> str:
    return pool.cache._path("exe", cache_key(source))


def test_kill_after_reply_loses_only_the_entry(tmp_path, monkeypatch):
    marker = str(tmp_path / "died")
    real_put = ArtifactStore.put_exe

    def dying_put(self, key, exe):
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("died\n")
            os._exit(17)
        real_put(self, key, exe)

    monkeypatch.setattr(ArtifactStore, "put_exe", dying_put)
    source = program(0)
    with pool_of(tmp_path) as pool:
        first = pool.execute(run_request(source))
        assert first["ok"] and first["cache"] == "miss"
        # A ping waits for every write in flight, so once it answers the
        # dead writer has been noticed and replaced.
        assert pool.execute({"op": "ping"})["ok"]
        assert os.path.exists(marker)
        assert not os.path.exists(entry_path(pool, source))
        second = pool.execute(run_request(source))
        assert second["ok"] and second["cache"] == "miss"
        assert second["output"] == first["output"]
        third = pool.execute(run_request(source))
        assert third["ok"] and third["cache"] == "hit"
        assert pool.execute(run_request(program(1)))["ok"]
    snap = pool.metrics.snapshot()
    assert snap["cache"]["misses"] == 3 and snap["cache"]["hits"] == 1
    assert pool.metrics.retries == 0  # the job itself had finished


def test_write_past_the_timeout_is_cut_off(tmp_path, monkeypatch):
    marker = str(tmp_path / "stuck")
    real_put = ArtifactStore.put_exe

    def stuck_put(self, key, exe):
        if not os.path.exists(marker):
            with open(marker, "w") as f:
                f.write("stuck\n")
            time.sleep(60)
        real_put(self, key, exe)

    monkeypatch.setattr(ArtifactStore, "put_exe", stuck_put)
    source = program(0)
    with pool_of(tmp_path, timeout=2.0) as pool:
        first = pool.execute(run_request(source))
        assert first["ok"] and first["cache"] == "miss"
        t0 = time.monotonic()
        assert pool.execute({"op": "ping"})["ok"]
        assert time.monotonic() - t0 < 20
        assert not os.path.exists(entry_path(pool, source))
        again = pool.execute(run_request(source))
        assert again["ok"] and again["cache"] == "miss"


@pytest.fixture
def slow_disk(monkeypatch):
    """Every write takes a while, so the last replies' writes are still
    in flight when the second pass starts."""
    real_put = ArtifactStore.put_exe

    def slow_put(self, key, exe):
        time.sleep(SLOW / 5)
        real_put(self, key, exe)

    monkeypatch.setattr(ArtifactStore, "put_exe", slow_put)


def assert_second_pass_hits(pool, requests) -> None:
    first = pool.map(requests)
    assert [r["cache"] for r in first] == ["miss"] * len(requests)
    # Newest first: the entries still being written are asked for
    # before any other job could make their writers idle.
    second = pool.map(requests[::-1])
    assert [r["cache"] for r in second] == ["hit"] * len(requests)
    assert [r["output"] for r in second[::-1]] \
        == [r["output"] for r in first]


def test_read_your_writes_inline(tmp_path, slow_disk):
    with pool_of(tmp_path) as pool:
        assert_second_pass_hits(
            pool, [run_request(program(i)) for i in range(6)])


def test_read_your_writes_file_based(tmp_path, slow_disk):
    requests = []
    for i in range(6):
        path = tmp_path / f"p{i}.f90"
        path.write_text(program(i))
        requests.append({"op": "run", "file": str(path), "pes": 64})
    with pool_of(tmp_path) as pool:
        assert_second_pass_hits(pool, requests)


def test_only_jobs_that_could_read_the_entry_are_held(tmp_path,
                                                      monkeypatch):
    slow, other, unknown = program(0), program(1), program(2)
    slow_key = cache_key(slow)
    real_put = ArtifactStore.put_exe

    def slow_put(self, key, exe):
        if key == slow_key:
            time.sleep(SLOW)
        real_put(self, key, exe)

    monkeypatch.setattr(ArtifactStore, "put_exe", slow_put)
    path = tmp_path / "unknown.f90"
    path.write_text(unknown)
    with pool_of(tmp_path) as pool:
        first = pool.execute({"op": "compile", "source": slow})
        assert first["ok"] and first["cache"] == "miss"
        # The write of `slow` is now in flight on the replying worker.
        from_file = pool.submit({"op": "compile", "file": str(path)})
        same = pool.submit({"op": "compile", "source": slow})
        started = pool.submit({"op": "compile", "source": other}).result()
        assert started["ok"] and started["cache"] == "miss"
        assert started["pool"]["queue_wait_seconds"] < SLOW / 3
        assert not from_file.done() and not same.done()
        same = same.result()
        assert same["cache"] == "hit"
        assert same["pool"]["queue_wait_seconds"] > SLOW / 3
        from_file = from_file.result()
        assert from_file["ok"]
        assert from_file["pool"]["queue_wait_seconds"] > SLOW / 3
