"""The serving stack: compile cache, worker pool, server, batch, CLI.

Covers the cache's content addressing, versioned invalidation, LRU cap
and corruption recovery; the pool's fan-out, crash-retry, per-job
timeout, and single-process fallback; the JSON-lines server round trip;
the metrics rollup; and the CLI integration (``repro batch``,
``compare`` pipeline/exec flags, ``REPRO_DEBUG``).  The cache's
correctness contract — bit-identical results cached vs uncached — is
property-tested over generated programs.
"""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.driver.cli import main
from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import Machine, slicewise_model
from repro.programs.kernels import heat_source
from repro.service import store as store_mod
from repro.service.batch import batch_main, read_jobs
from repro.service.store import ArtifactStore, cache_key
from repro.service.jobs import build_options, execute_request, speedup_str
from repro.service.metrics import LatencyStat, ServiceMetrics, percentile
from repro.service.pool import WorkerPool
from repro.service.server import ReproServer, send_request

from .test_dispatch_pins import COUNTERS

TINY = """
program tiny
integer, parameter :: n = 8
double precision, array(n,n) :: a, b
a = 1.5d0
b = cshift(a, 1, 1) + a
print *, sum(b)
end program tiny
"""

EMPTY = "program p\nend program p\n"


def run_counted(exe):
    """Array bytes, ``RunStats`` and the order-independent
    ``fusion_summary()`` counters of one run."""
    result = exe.run(Machine(slicewise_model(n_pes=64)))
    summary = result.machine.fusion_summary()
    return ({name: arr.tobytes() for name, arr in result.arrays.items()},
            result.stats.to_dict(),
            {key: summary[key] for key in COUNTERS if key in summary})


def run_arrays(exe):
    return run_counted(exe)[:2]


# -- cache keys -------------------------------------------------------------


def test_cache_key_is_deterministic_and_option_sensitive():
    k1 = cache_key(TINY)
    assert k1 == cache_key(TINY)
    assert k1 != cache_key(TINY + "\n! trailing comment")
    assert k1 != cache_key(TINY, CompilerOptions.naive())
    assert k1 != cache_key(TINY, CompilerOptions.neighborhood())
    assert k1 != cache_key(TINY, machine={"pes": 64})
    import dataclasses

    cm5 = dataclasses.replace(CompilerOptions(), target="cm5")
    assert k1 != cache_key(TINY, cm5)


def test_cache_key_includes_pipeline_identity():
    """Reordering, disabling, or reconfiguring a pass changes the key."""
    from repro.transform import Options, pipeline_identity

    ident = pipeline_identity(Options())
    k1 = cache_key(TINY)
    # The default key already embeds the resolved identity.
    assert k1 == cache_key(TINY, pipeline=ident)
    # Reordering two passes invalidates.
    reordered = list(ident)
    reordered[0], reordered[1] = reordered[1], reordered[0]
    assert cache_key(TINY, pipeline=reordered) != k1
    # Dropping (disabling) a pass invalidates.
    dropped = [e for e in ident if e["name"] != "pad_masks"]
    assert cache_key(TINY, pipeline=dropped) != k1
    # Reconfiguring a pass invalidates.
    import copy

    reconfigured = copy.deepcopy(ident)
    for entry in reconfigured:
        if entry["name"] == "block":
            entry["config"]["fuse"] = False
    assert cache_key(TINY, pipeline=reconfigured) != k1


def test_cache_key_tracks_disabled_passes_through_options():
    import dataclasses

    from repro.transform import Options

    no_pad = dataclasses.replace(
        CompilerOptions(), transform=Options(pad_masks=False))
    assert cache_key(TINY) != cache_key(TINY, no_pad)


# -- hit/miss, persistence, warm plans --------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = ArtifactStore(str(tmp_path))
    exe, hit = cache.compile(TINY)
    assert not hit
    exe2, hit = cache.compile(TINY)
    assert hit
    assert exe2 is exe  # in-process memo: no second unpickle
    s = cache.exe_stats()
    assert s["hits"] == 1 and s["misses"] == 1 and s["entries"] == 1
    assert s["memo_hits"] == 1
    # A second cache on the same root sees the same entry (persistence)
    # but starts with an empty memo: the hit is a fresh unpickle.
    other = ArtifactStore(str(tmp_path))
    exe3, hit = other.compile(TINY)
    assert hit
    assert exe3 is not exe
    assert other.exe_stats()["memo_hits"] == 0


def test_cache_memo_distrusts_changed_disk_entries(tmp_path):
    cache = ArtifactStore(str(tmp_path))
    key = cache_key(TINY)
    exe, _ = cache.compile(TINY)
    # Another process rewrites the entry: the stat signature changes,
    # so the memo is dropped and the entry re-read from disk.
    other = ArtifactStore(str(tmp_path))
    other.put_exe(key, other.compile(TINY)[0])
    reloaded = cache.get_exe(key)
    assert reloaded is not None and reloaded is not exe
    # Deleting the file invalidates the memo outright.
    os.unlink(cache._path("exe", key))
    assert cache.get_exe(key) is None


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([4, 6, 8, 12]),
       num=st.integers(-40, 40),
       shift=st.integers(-3, 3))
def test_cached_results_bit_identical(n, num, shift):
    """Property: a pickle round trip through the cache changes nothing
    about execution — arrays byte-for-byte equal, RunStats equal — and
    an executable stored after it ran still loads as a cold compile:
    the same kernel, launch and trip counters."""
    value = num / 8.0
    source = f"""
program gen
integer, parameter :: n = {n}
double precision, array(n,n) :: a, b, c
a = {value:.6f}d0
b = cshift(a, {shift}, 1) * 2.0d0 + a
c = b / (a * a + 1.0d0)
print *, sum(c)
end program gen
"""
    fresh, fresh_stats = run_arrays(compile_source(source, cache=False))
    with tempfile.TemporaryDirectory() as root:
        ArtifactStore(root).compile(source)    # populate (miss)
        # A fresh instance has no memo: this hit is a true pickle
        # round trip through the disk store.
        cached_exe, hit = ArtifactStore(root).compile(source)
        assert hit
        cached, cached_stats = run_arrays(cached_exe)
        # Stored again once it ran, as a worker's executable is: a
        # load still starts cold, first trips on the oracle.
        ArtifactStore(root).put_exe(cache_key(source), cached_exe)
        loaded, hit = ArtifactStore(root).compile(source)
        assert hit and loaded is not cached_exe
        assert run_counted(loaded) == run_counted(
            compile_source(source, cache=False))
    assert fresh == cached
    assert fresh_stats == cached_stats


# -- invalidation, corruption, LRU ------------------------------------------


def test_cache_version_skew_purges_store(tmp_path, monkeypatch):
    # Schema 9 routines pickled their bodies as lists; one written then
    # is purged.
    assert store_mod.SCHEMA_VERSION == 10
    with monkeypatch.context() as patch:
        patch.setattr(store_mod, "SCHEMA_VERSION", 9)
        cache = ArtifactStore(str(tmp_path))
        cache.compile(TINY)
        assert cache.exe_stats()["entries"] == 1
    fresh = ArtifactStore(str(tmp_path))
    assert fresh.exe_stats()["entries"] == 0
    _, hit = fresh.compile(TINY)
    assert not hit
    monkeypatch.setattr(store_mod, "SCHEMA_VERSION", 999)
    skewed = ArtifactStore(str(tmp_path))
    assert skewed.exe_stats()["entries"] == 0
    _, hit = skewed.compile(TINY)
    assert not hit


def test_cache_corrupt_entry_is_a_miss_and_removed(tmp_path):
    cache = ArtifactStore(str(tmp_path))
    key = cache_key(TINY)
    cache.compile(TINY)
    path = cache._path("exe", key)
    with open(path, "wb") as f:
        f.write(b"not a pickle at all")
    assert cache.get_exe(key) is None
    assert not os.path.exists(path)
    assert cache.exe_stats()["errors"] == 1


@pytest.mark.parametrize("payload", ["an exe", {"plans": {}}, None])
def test_cache_misshaped_entry_is_a_miss_and_removed(tmp_path, payload):
    cache = ArtifactStore(str(tmp_path))
    key = cache_key(TINY)
    assert cache.put("exe", key, payload)
    assert cache.get_exe(key) is None
    assert not os.path.exists(cache._path("exe", key))
    assert cache.exe_stats()["hits"] == 0


def test_cache_lru_eviction_respects_size_cap(tmp_path):
    cache = ArtifactStore(str(tmp_path))
    cache.compile(TINY)
    entry_bytes = cache.exe_stats()["bytes"]
    cache.purge()
    # Room for roughly two entries; insert four distinct programs.
    cache.max_bytes = int(entry_bytes * 2.5)
    sources = [heat_source(n=8 + 2 * i, steps=1) for i in range(4)]
    for source in sources:
        cache.compile(source)
    stats = cache.exe_stats()
    assert stats["evictions"] >= 1
    assert stats["bytes"] <= cache.max_bytes
    # The newest entry always survives the sweep that its own put runs.
    assert cache.get_exe(cache_key(sources[-1])) is not None


# -- compile_source integration ---------------------------------------------


def test_compile_source_cache_argument(tmp_path):
    cache = ArtifactStore(str(tmp_path))
    compile_source(TINY, cache=cache)
    assert cache.exe_stats()["misses"] == 1
    compile_source(TINY, cache=cache)
    assert cache.exe_stats()["hits"] == 1


# -- jobs -------------------------------------------------------------------


def test_build_options_mirrors_cli_presets():
    assert build_options(None) == CompilerOptions()
    assert build_options({"naive": True}) == CompilerOptions.naive()
    assert build_options({"neighborhood": True}) \
        == CompilerOptions.neighborhood()
    assert build_options({"target": "cm5"}).target == "cm5"


def test_execute_request_run_payload(tmp_path):
    cache = ArtifactStore(str(tmp_path))
    response = execute_request(
        {"op": "run", "source": TINY, "pes": 64, "id": "job-1"}, cache)
    assert response["ok"] and response["id"] == "job-1"
    assert response["cache"] == "miss"
    assert response["output"] == ["192.0"]
    assert response["stats"]["total_cycles"] > 0
    assert {"compile_seconds", "run_seconds"} <= set(response["timings"])
    # The miss persisted its executable: the same request now hits.
    response = execute_request({"op": "run", "source": TINY, "pes": 64},
                               cache)
    assert response["cache"] == "hit"


@pytest.mark.parametrize("op", ["compile", "run"])
def test_miss_writes_its_executable_once(tmp_path, monkeypatch, op):
    """Plans never pickle, so a run leaves nothing new to persist: a
    ``run`` miss writes one ``exe`` entry, as a ``compile`` miss does."""
    from repro.service.store import ArtifactStore

    kinds = []
    real_put = ArtifactStore.put

    def counting_put(self, kind, key, obj, **kw):
        kinds.append(kind)
        return real_put(self, kind, key, obj, **kw)

    monkeypatch.setattr(ArtifactStore, "put", counting_put)
    cache = ArtifactStore(str(tmp_path))
    response = execute_request({"op": op, "source": TINY, "pes": 64}, cache)
    assert response["ok"] and response["cache"] == "miss"
    assert kinds == ["exe"]


def test_execute_request_errors_become_responses():
    response = execute_request({"op": "run", "source": "not fortran !!"},
                               None)
    assert not response["ok"]
    assert response["error"]["type"]
    response = execute_request({"op": "no-such-op"}, None)
    assert not response["ok"]
    assert "no-such-op" in response["error"]["message"]


def test_execute_request_compare_guards_zero_cycle_base():
    response = execute_request({"op": "compare", "source": EMPTY,
                                "pes": 64}, None)
    assert response["ok"]
    assert all(s["speedup"] == "n/a (zero-cycle base)"
               for s in response["speedups"])


def test_speedup_str_guard():
    assert speedup_str(100, 0) == "n/a (zero-cycle base)"
    assert speedup_str(150, 100) == "1.50x"


# -- worker pool ------------------------------------------------------------


def test_pool_inline_fallback(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_SERVICE_INPROC", "1")
    pool = WorkerPool(4, cache=str(tmp_path))
    assert pool.mode == "inline"
    response = pool.execute({"op": "run", "source": TINY, "pes": 64})
    assert response["ok"] and response["pool"]["mode"] == "inline"
    pool.close()


def test_pool_fans_out_and_shares_cache(tmp_path):
    requests = [{"op": "run", "source": heat_source(n=8 + 2 * i, steps=1),
                 "pes": 64} for i in range(4)]
    with WorkerPool(2, cache=str(tmp_path)) as pool:
        assert pool.mode == "pool"
        first = pool.map(requests)
        assert all(r["ok"] for r in first)
        assert {r["cache"] for r in first} == {"miss"}
        assert {r["pool"]["worker"] for r in first} == {0, 1}
        second = pool.map(requests)
        assert all(r["cache"] == "hit" for r in second)
    snap = pool.metrics.snapshot()
    assert snap["requests"] == 8
    assert snap["cache"]["hits"] == 4 and snap["cache"]["misses"] == 4


def test_pool_retries_crashed_worker_once(tmp_path):
    marker = str(tmp_path / "crashed-once")
    with WorkerPool(2) as pool:
        responses = pool.map([{"op": "_crash", "once": marker},
                              {"op": "ping"}])
        assert responses[0]["ok"] and responses[0]["survived"]
        assert responses[0]["pool"]["attempts"] == 2
        assert responses[1]["ok"]
        assert pool.metrics.retries == 1
        # A job that crashes every attempt errors out instead of looping.
        response = pool.execute({"op": "_crash"})
        assert not response["ok"]
        assert response["error"]["type"] == "WorkerCrash"
        # The pool stays serviceable afterwards.
        assert pool.execute({"op": "ping"})["ok"]


def test_pool_per_job_timeout(tmp_path):
    with WorkerPool(2, timeout=1.0) as pool:
        responses = pool.map([{"op": "_sleep", "seconds": 60},
                              {"op": "ping"}])
        assert not responses[0]["ok"]
        assert responses[0]["error"]["type"] == "JobTimeout"
        assert responses[1]["ok"]
        assert pool.metrics.timeouts == 1
        assert pool.execute({"op": "ping"})["ok"]


# -- metrics ----------------------------------------------------------------


def test_percentiles():
    samples = [float(i) for i in range(0, 101)]  # 0..100, 101 samples
    assert percentile(samples, 50) == 50.0
    assert percentile(samples, 95) == 95.0
    assert percentile(samples, 0) == 0.0
    assert percentile(samples, 100) == 100.0
    assert percentile([3.0], 95) == 3.0


def test_latency_stat_reservoir_caps():
    stat = LatencyStat(cap=16)
    for i in range(100):
        stat.add(float(i))
    snap = stat.snapshot()
    assert snap["count"] == 100
    assert len(stat.samples) == 16
    assert snap["max"] == 99.0


def test_metrics_rollup_and_summary():
    metrics = ServiceMetrics()
    metrics.observe({"op": "run", "ok": True, "cache": "hit",
                     "timings": {"compile_seconds": 0.01,
                                 "run_seconds": 0.02}},
                    queue_wait=0.001, total=0.05)
    metrics.observe({"op": "run", "ok": False, "cache": "miss",
                     "error": {"type": "JobTimeout", "message": "x"}},
                    queue_wait=0.002, total=2.0)
    snap = metrics.snapshot()
    assert snap["requests"] == 2 and snap["errors"] == 1
    assert snap["timeouts"] == 1
    assert snap["cache"]["hit_rate"] == 0.5
    assert snap["latency_seconds"]["total"]["count"] == 2
    summary = metrics.summary()
    assert "hit rate 50.0%" in summary and "p95" in summary


def test_metrics_fold_per_pass_timings():
    """Compile responses feed the per-pass rollup; cache hits do not
    double-count (their trace replays the original compile)."""
    metrics = ServiceMetrics()
    trace = {"passes": [
        {"name": "normalize", "enabled": True, "seconds": 0.004},
        {"name": "block", "enabled": True, "seconds": 0.002},
        {"name": "pad_masks", "enabled": False, "seconds": 0.0},
    ]}
    metrics.observe({"op": "compile", "ok": True, "cache": "miss",
                     "pipeline": trace,
                     "timings": {"compile_seconds": 0.01}})
    metrics.observe({"op": "compile", "ok": True, "cache": "hit",
                     "pipeline": trace,
                     "timings": {"compile_seconds": 0.0001}})
    snap = metrics.snapshot()
    assert snap["passes"]["normalize"]["count"] == 1
    assert snap["passes"]["block"]["count"] == 1
    assert "pad_masks" not in snap["passes"]
    assert "pass normalize" in metrics.summary()


def test_server_metrics_op_reports_passes(tmp_path):
    pool = WorkerPool(1, cache=str(tmp_path))
    server = ReproServer(port=0, pool=pool)
    server.start()
    try:
        addr = server.address
        assert send_request(addr, {"op": "compile", "source": TINY})["ok"]
        snap = send_request(addr, {"op": "metrics"})
        assert snap["ok"] and snap["op"] == "metrics"
        passes = snap["metrics"]["passes"]
        assert passes["normalize"]["count"] == 1
        assert passes["block"]["mean"] >= 0.0
    finally:
        server.stop()
        pool.close()


# -- server -----------------------------------------------------------------


def test_server_round_trip(tmp_path):
    pool = WorkerPool(1, cache=str(tmp_path))
    server = ReproServer(port=0, pool=pool)
    server.start()
    try:
        addr = server.address
        assert send_request(addr, {"op": "ping"})["ok"]
        response = send_request(
            addr, {"op": "run", "source": TINY, "pes": 64})
        assert response["ok"] and response["output"] == ["192.0"]
        batch = send_request(
            addr, {"op": "batch",
                   "requests": [{"op": "run", "source": TINY, "pes": 64},
                                {"op": "compile", "source": TINY}]})
        assert batch["ok"]
        assert [r["cache"] for r in batch["results"]] == ["hit", "hit"]
        stats = send_request(addr, {"op": "stats"})
        assert stats["metrics"]["requests"] == 4
        assert stats["cache"]["entries"] == 1
        assert stats["pool"]["workers"] == 1
        bad = send_request(addr, {"op": 42})
        assert not bad["ok"]
        garbage = send_request(addr, {"op": "batch", "requests": "nope"})
        assert garbage["error"]["type"] == "BadRequest"
    finally:
        server.stop()
        pool.close()


def test_server_shutdown_request(tmp_path):
    pool = WorkerPool(1, cache=str(tmp_path))
    server = ReproServer(port=0, pool=pool)
    thread = server.start()
    response = send_request(server.address, {"op": "shutdown"})
    assert response["ok"]
    thread.join(timeout=5.0)
    assert not thread.is_alive()
    server.server_close()
    pool.close()


# -- batch runner -----------------------------------------------------------


def test_read_jobs_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "jobs.jsonl"
    path.write_text('# header\n\n{"op": "ping"}\n{"op": "compile", '
                    '"source": "program p\\nend program p"}\n')
    jobs = read_jobs(str(path))
    assert [j["op"] for j in jobs] == ["ping", "compile"]
    path.write_text('{"op": "ping"}\nnot json\n')
    with pytest.raises(ValueError, match="bad JSON"):
        read_jobs(str(path))


def test_batch_main_writes_results(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(json.dumps({"op": "run", "source": TINY, "pes": 64})
                    + "\n" + json.dumps({"op": "ping"}) + "\n")
    out = tmp_path / "results.jsonl"
    pool = WorkerPool(1, cache=str(tmp_path / "cache"))
    rc = batch_main(str(jobs), pool, out_path=str(out))
    assert rc == 0
    lines = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(lines) == 2 and all(r["ok"] for r in lines)
    assert "2 job(s), 0 failed" in capsys.readouterr().err


def test_batch_main_reports_failures(tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text('{"op": "no-such-op"}\n')
    rc = batch_main(str(jobs), WorkerPool(1))
    assert rc == 1
    assert "1 failed" in capsys.readouterr().err


# -- CLI --------------------------------------------------------------------


@pytest.fixture
def tiny_file(tmp_path):
    path = tmp_path / "tiny.f90"
    path.write_text(TINY)
    return str(path)


def test_cli_compare_accepts_pipeline_and_exec_flags(tiny_file, capsys):
    rc = main(["compare", tiny_file, "--pes", "64", "--exec", "interp",
               "--naive"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Fortran-90-Y" in out and "speedup over" in out


def test_cli_compare_zero_cycle_base(tmp_path, capsys):
    path = tmp_path / "empty.f90"
    path.write_text(EMPTY)
    rc = main(["compare", str(path), "--pes", "64"])
    assert rc == 0
    assert "n/a (zero-cycle base)" in capsys.readouterr().out


def test_cli_batch_command(tiny_file, tmp_path, capsys):
    jobs = tmp_path / "jobs.jsonl"
    jobs.write_text(json.dumps({"op": "run", "file": tiny_file,
                                "pes": 64}) + "\n")
    rc = main(["batch", str(jobs), "--cache-dir",
               str(tmp_path / "cache")])
    assert rc == 0
    captured = capsys.readouterr()
    assert "192.0" in captured.out
    assert "1 job(s), 0 failed" in captured.err


def test_cli_run_cache_flag(tiny_file, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "clicache"))
    assert main(["run", tiny_file, "--pes", "64", "--cache"]) == 0
    store = store_mod.default_store()
    assert store.exe_stats()["entries"] == 1
    capsys.readouterr()


def test_cli_debug_reraises(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_DEBUG", "1")
    with pytest.raises(FileNotFoundError):
        main(["run", str(tmp_path / "missing.f90")])
    monkeypatch.delenv("REPRO_DEBUG")
    assert main(["run", str(tmp_path / "missing.f90")]) == 2


def test_cli_debug_traceback_in_worker_response():
    response = execute_request({"op": "run", "source": "oops"}, None)
    assert "traceback" not in response["error"]
    os.environ["REPRO_DEBUG"] = "1"
    try:
        response = execute_request({"op": "run", "source": "oops"}, None)
        assert "traceback" in response["error"]
    finally:
        del os.environ["REPRO_DEBUG"]
