"""The serving stack: persistent artifact store, worker pool, server.

The paper's whole point is cheap recompilation — NIR programs are
re-lowered and re-targeted over and over during compiler prototyping —
so the driver should never redo work it has already done.  This package
turns the one-shot CLI into a serving stack:

* :mod:`repro.service.store`   -- the content-addressed on-disk
  artifact store: every pipeline stage and whole
  :class:`~repro.driver.compiler.Executable`\\ s (with an in-process
  memo of loaded ones), versioned invalidation and an LRU size cap;
* :mod:`repro.service.jobs`    -- the request vocabulary
  (``compile``/``run``/``compare``) shared by every entry point;
* :mod:`repro.service.pool`    -- a multi-process worker pool (sized
  from ``os.cpu_count()`` by default) with a persistent dispatcher,
  awaitable ``submit()`` handles, cache-warm worker affinity, per-job
  timeouts, retry-once-on-crash, and a graceful single-process
  fallback;
* :mod:`repro.service.metrics` -- per-request counters and latency
  percentiles (cache hit/miss, queue wait, coalescing, per-tenant,
  compile vs execute time);
* :mod:`repro.service.server`  -- the asyncio JSON-lines request
  server (``repro serve``): bounded admission with backpressure,
  weighted round-robin tenant fairness, singleflight coalescing of
  identical in-flight requests, and graceful drain on shutdown;
* :mod:`repro.service.loadgen` -- the concurrent-client load
  benchmark (``repro loadgen``);
* :mod:`repro.service.batch`   -- the job-file batch runner
  (``repro batch``).
"""

from .jobs import execute_request
from .metrics import ServiceMetrics
from .pool import WorkerPool
from .store import ArtifactStore, cache_key, default_store

__all__ = [
    "ArtifactStore",
    "ServiceMetrics",
    "WorkerPool",
    "cache_key",
    "default_store",
    "execute_request",
]
