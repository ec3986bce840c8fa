"""Service layer: compile-cache latency and worker-pool throughput.

Two experiments, both landing in ``BENCH_service.json`` at the repo
root:

* **cold vs warm compile** — the SWE example compiled through a fresh
  :class:`~repro.service.store.ArtifactStore` (parse + compile + pickle
  + write) versus served from it.  Warm is measured at both tiers:
  ``warm`` is the in-process memo hit (what a long-running ``repro
  serve`` pays per request after the first) and ``warm_disk`` is a
  fresh process's first hit (stat + read + unpickle).
  The asserted floor applies to the memo tier.
* **incremental recompile** — the SWE example compiled cold versus
  recompiled through the content-addressed artifact store
  (:mod:`repro.service.store`) after a *tail edit* (a pipeline-tail
  config change): each round warms a fresh store with the base
  configuration and times the edited compile, which reuses the front
  and prefix-pass artifacts and recompiles only the tail.  The
  asserted floor is ``REPRO_SERVICE_MIN_INCR_SPEEDUP`` (default 5x).
* **batch throughput** — the same job file pushed through a
  :class:`~repro.service.pool.WorkerPool` with one and with two
  workers, uncached so every job is compute-bound.  On a multi-core
  host the two-worker pool must actually scale (floor 1.5x); on a
  single core the pool can only tie, so the scaling floor is asserted
  only when ``os.cpu_count() >= 2`` and real worker processes are
  available — the payload records ``cpus``, ``scaling_asserted``, and
  a human ``skip_reason`` either way.

Knobs: ``REPRO_SWE_N`` (grid, default 512), ``REPRO_SERVICE_ROUNDS``
(timed rounds per cache state, default 5),
``REPRO_SERVICE_MIN_WARM_SPEEDUP`` (cold/warm floor, default 10),
``REPRO_SERVICE_MIN_INCR_SPEEDUP`` (cold/incremental floor, default 5),
``REPRO_SERVICE_JOBS`` (batch size, default 6),
``REPRO_SERVICE_MIN_POOL_SCALING`` (two-worker throughput floor on
multi-core hosts, default 1.5).
"""

from __future__ import annotations

import json
import os
import statistics
import time

from repro.programs.kernels import heat_source
from repro.programs.swe import swe_source
from repro.service.pool import WorkerPool
from repro.service.store import ArtifactStore, cache_key

from .conftest import SWE_N

ROUNDS = int(os.environ.get("REPRO_SERVICE_ROUNDS", "5"))
MIN_WARM_SPEEDUP = float(
    os.environ.get("REPRO_SERVICE_MIN_WARM_SPEEDUP", "10"))
JOBS = int(os.environ.get("REPRO_SERVICE_JOBS", "6"))
MIN_INCR_SPEEDUP = float(
    os.environ.get("REPRO_SERVICE_MIN_INCR_SPEEDUP", "5"))
MIN_POOL_SCALING = float(
    os.environ.get("REPRO_SERVICE_MIN_POOL_SCALING", "1.5"))

_OUT = os.path.join(os.path.dirname(__file__), "..", "BENCH_service.json")


def _merge_payload(section: str, data: dict) -> None:
    """Fold one experiment's results into the shared JSON file."""
    payload = {}
    try:
        with open(_OUT) as f:
            payload = json.load(f)
    except (OSError, ValueError):
        pass
    payload["benchmark"] = "service"
    payload[section] = data
    with open(_OUT, "w") as f:
        json.dump(payload, f, indent=2)
        f.write("\n")


def test_compile_cache_cold_vs_warm(tmp_path):
    source = swe_source(n=SWE_N, itmax=2)
    root = str(tmp_path / "cache")
    cache = ArtifactStore(root)

    cold, warm, warm_disk = [], [], []
    for _ in range(ROUNDS):
        cache.purge()
        t0 = time.perf_counter()
        _, hit = cache.compile(source)
        cold.append(time.perf_counter() - t0)
        assert not hit
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        _, hit = cache.compile(source)
        warm.append(time.perf_counter() - t0)
        assert hit
    assert cache.memo_hits == ROUNDS
    for _ in range(ROUNDS):
        fresh = ArtifactStore(root)  # empty memo: pays the unpickle
        t0 = time.perf_counter()
        _, hit = fresh.compile(source)
        warm_disk.append(time.perf_counter() - t0)
        assert hit and fresh.memo_hits == 0

    cold_med = statistics.median(cold)
    warm_med = statistics.median(warm)
    disk_med = statistics.median(warm_disk)
    speedup = cold_med / warm_med
    data = {
        "grid": f"{SWE_N}x{SWE_N}",
        "rounds": ROUNDS,
        "cold": {"seconds": cold, "median": cold_med, "min": min(cold)},
        "warm": {"seconds": warm, "median": warm_med, "min": min(warm)},
        "warm_disk": {"seconds": warm_disk, "median": disk_med,
                      "min": min(warm_disk)},
        "speedup": speedup,
        "speedup_disk": cold_med / disk_med,
        "entry_bytes": os.path.getsize(cache._path("exe", cache_key(source))),
    }
    _merge_payload("compile_cache", data)

    print()
    print(f"    cold       median {cold_med * 1000:8.2f}ms  "
          f"min {min(cold) * 1000:8.2f}ms")
    print(f"    warm memo  median {warm_med * 1000:8.2f}ms  "
          f"min {min(warm) * 1000:8.2f}ms")
    print(f"    warm disk  median {disk_med * 1000:8.2f}ms  "
          f"min {min(warm_disk) * 1000:8.2f}ms")
    print(f"    warm speedup {speedup:.1f}x (memo), "
          f"{data['speedup_disk']:.1f}x (disk)")
    assert speedup >= MIN_WARM_SPEEDUP, (
        f"warm-cache compile only {speedup:.1f}x faster than cold "
        f"(floor {MIN_WARM_SPEEDUP:.1f}x): {data}")


def test_incremental_recompile_beats_cold(tmp_path):
    """Cold compile vs incremental recompile after a tail-only edit."""
    import dataclasses

    from repro.driver.compiler import CompilerOptions, compile_source
    from repro.service.store import ArtifactStore
    from repro.transform import Options as TransformOptions

    source = swe_source(n=SWE_N, itmax=2)
    base = CompilerOptions()
    # The tail edit: disable the late recheck pass.  Only the pipeline
    # tail changes, so the front, the prefix passes, and (through
    # content chaining) even the backend artifact stay reusable.
    edited = dataclasses.replace(
        base, transform=TransformOptions(recheck=False))

    cold, incr = [], []
    for round_no in range(ROUNDS):
        t0 = time.perf_counter()
        compile_source(source, edited, cache=False, incremental=False)
        cold.append(time.perf_counter() - t0)

        store = ArtifactStore(str(tmp_path / f"store{round_no}"))
        compile_source(source, base, cache=False, incremental=True,
                       store=store)  # warm: the pre-edit compile
        t0 = time.perf_counter()
        exe = compile_source(source, edited, cache=False,
                             incremental=True, store=store)
        incr.append(time.perf_counter() - t0)
        arts = exe.transformed.trace.artifacts
        assert arts["front"] == "hit"
        assert arts["passes"]["hits"] > 0

    cold_med = statistics.median(cold)
    incr_med = statistics.median(incr)
    speedup = cold_med / incr_med
    data = {
        "grid": f"{SWE_N}x{SWE_N}",
        "rounds": ROUNDS,
        "edit": "transform.recheck: true -> false",
        "cold": {"seconds": cold, "median": cold_med, "min": min(cold)},
        "incremental": {"seconds": incr, "median": incr_med,
                        "min": min(incr)},
        "speedup": speedup,
        "speedup_floor": MIN_INCR_SPEEDUP,
    }
    _merge_payload("incremental_recompile", data)

    print()
    print(f"    cold        median {cold_med * 1000:8.2f}ms  "
          f"min {min(cold) * 1000:8.2f}ms")
    print(f"    incremental median {incr_med * 1000:8.2f}ms  "
          f"min {min(incr) * 1000:8.2f}ms")
    print(f"    tail-edit recompile speedup {speedup:.1f}x")
    assert speedup >= MIN_INCR_SPEEDUP, (
        f"incremental tail-edit recompile only {speedup:.1f}x faster "
        f"than cold (floor {MIN_INCR_SPEEDUP:.1f}x): {data}")


def test_batch_throughput_scales_with_workers():
    # Distinct sources defeat any incidental caching; uncached pools
    # (cache=None) keep every job compute-bound.
    requests = [{"op": "run",
                 "source": heat_source(n=40 + 4 * i, steps=16),
                 "pes": 256}
                for i in range(JOBS)]

    results = {}
    modes = {}
    for workers in (1, 2):
        pool = WorkerPool(workers, cache=None)
        try:
            pool.map(requests[:1])  # warm up: fork + import cost
            t0 = time.perf_counter()
            responses = pool.map(requests)
            elapsed = time.perf_counter() - t0
        finally:
            modes[workers] = pool.mode
            pool.close()
        assert all(r["ok"] for r in responses)
        results[workers] = {"seconds": elapsed,
                            "jobs_per_second": len(requests) / elapsed,
                            "mode": modes[workers]}

    cpus = os.cpu_count() or 1
    scaling = (results[2]["jobs_per_second"]
               / results[1]["jobs_per_second"])
    multicore = cpus >= 2 and modes[2] == "pool"
    if multicore:
        skip_reason = None
    elif cpus < 2:
        skip_reason = f"single CPU (os.cpu_count() == {cpus}): two " \
                      f"workers can only tie"
    else:
        skip_reason = f"pool mode unavailable (fell back to " \
                      f"{modes[2]!r} mode)"
    data = {
        "jobs": len(requests),
        "cpus": cpus,
        "workers_1": results[1],
        "workers_2": results[2],
        "scaling": scaling,
        "scaling_asserted": multicore,
        "scaling_floor": MIN_POOL_SCALING,
        "skip_reason": skip_reason,
    }
    _merge_payload("batch_throughput", data)

    print()
    for w in (1, 2):
        print(f"    {w} worker(s): {results[w]['seconds']:.3f}s  "
              f"{results[w]['jobs_per_second']:.1f} jobs/s "
              f"({results[w]['mode']} mode)")
    print(f"    scaling {scaling:.2f}x on {cpus} cpu(s)")
    if multicore:
        assert scaling >= MIN_POOL_SCALING, (
            f"2-worker throughput only {scaling:.2f}x of 1-worker "
            f"(floor {MIN_POOL_SCALING:.1f}x): {data}")
    else:
        # One core (or no fork): two workers can only tie; just make
        # sure the pool machinery is not pathologically slower.
        assert scaling >= 0.5, f"pool overhead pathological: {data}"
