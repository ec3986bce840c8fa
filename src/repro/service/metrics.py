"""Per-request service metrics: counters and latency percentiles.

Workers run in separate processes, so metrics live in the *parent*:
every response carries its own compile/run wall-clock timings (see
:mod:`repro.service.jobs`), the pool stamps queue-wait and total
latency, and :meth:`ServiceMetrics.observe` folds each response in.
``snapshot()`` is the ``stats`` request payload; ``summary()`` is the
shutdown report.
"""

from __future__ import annotations

import threading


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty list."""
    ordered = sorted(samples)
    rank = max(0, min(len(ordered) - 1,
                      round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


class LatencyStat:
    """A bounded reservoir of latency samples (seconds).

    Past ``cap`` samples, new observations overwrite the reservoir
    round-robin — deterministic, allocation-free, and good enough for
    p50/p95 over a serving window.  Totals keep exact count/sum.
    """

    def __init__(self, cap: int = 4096) -> None:
        self.cap = cap
        self.samples: list[float] = []
        self.count = 0
        self.total = 0.0
        self.peak = 0.0

    def add(self, seconds: float) -> None:
        if len(self.samples) < self.cap:
            self.samples.append(seconds)
        else:
            self.samples[self.count % self.cap] = seconds
        self.count += 1
        self.total += seconds
        self.peak = max(self.peak, seconds)

    def snapshot(self) -> dict:
        if not self.samples:
            return {"count": 0}
        return {
            "count": self.count,
            "mean": self.total / self.count,
            "p50": percentile(self.samples, 50),
            "p95": percentile(self.samples, 95),
            "p99": percentile(self.samples, 99),
            "max": self.peak,
        }


class ServiceMetrics:
    """Thread-safe rollup of everything a serving run did."""

    STATS = ("queue_wait", "compile", "run", "total")

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.requests = 0
        self.errors = 0
        self.timeouts = 0
        self.verify_failures = 0
        self.retries = 0
        self.cache_hits = 0
        self.cache_misses = 0
        #: Singleflight coalescing: a *hit* is a request served as a
        #: waiter on another request's in-flight work; a *leader* paid
        #: for the work itself (only coalescable requests are counted).
        self.coalesced_hits = 0
        self.coalesced_leaders = 0
        #: Admission control: requests bounced with an ``Overloaded``
        #: error, and the deepest the admission queue ever got.
        self.rejected = 0
        self.queue_peak = 0
        self.per_op: dict[str, int] = {}
        self.per_tenant: dict[str, int] = {}
        self.latency = {name: LatencyStat() for name in self.STATS}
        #: Per-compiler-pass wall time, folded from each response's
        #: ``pipeline`` trace (cache hits replay the original compile's
        #: trace and are skipped, so these measure real pass work;
        #: artifact-store hits are skipped too — a cached pass ran
        #: nothing).
        self.pass_latency: dict[str, LatencyStat] = {}
        #: Artifact-store reuse, folded from incremental compiles'
        #: ``pipeline.artifacts`` blocks (whole-source cache hits are
        #: skipped: they replay the original compile's accounting).
        #: ``prefix_hits`` totals every reused prefix artifact — the CI
        #: incremental gate reads it from the ``metrics`` snapshot.
        self.artifacts = {
            "front_hits": 0, "front_misses": 0,
            "pass_hits": 0, "pass_misses": 0,
            "backend_hits": 0, "backend_misses": 0,
        }

    # ------------------------------------------------------------------

    def observe(self, response: dict, queue_wait: float | None = None,
                total: float | None = None) -> None:
        """Fold one response (plus pool-side timings) into the rollup."""
        with self._lock:
            self.requests += 1
            op = str(response.get("op"))
            self.per_op[op] = self.per_op.get(op, 0) + 1
            if not response.get("ok", False):
                self.errors += 1
                error = response.get("error") or {}
                if error.get("type") == "JobTimeout":
                    self.timeouts += 1
                if error.get("type") == "VerifyError":
                    self.verify_failures += 1
            cache = response.get("cache")
            if cache == "hit":
                self.cache_hits += 1
            elif cache == "miss":
                self.cache_misses += 1
            timings = response.get("timings") or {}
            if "compile_seconds" in timings:
                self.latency["compile"].add(timings["compile_seconds"])
            if "run_seconds" in timings:
                self.latency["run"].add(timings["run_seconds"])
            if queue_wait is not None:
                self.latency["queue_wait"].add(queue_wait)
            if total is not None:
                self.latency["total"].add(total)
            pipeline = response.get("pipeline") or {}
            if cache != "hit":
                for entry in pipeline.get("passes", ()):
                    if not entry.get("enabled", True) \
                            or entry.get("cached"):
                        continue
                    stat = self.pass_latency.setdefault(
                        entry["name"], LatencyStat())
                    stat.add(entry.get("seconds", 0.0))
                self._fold_artifacts(pipeline.get("artifacts") or {})

    def _fold_artifacts(self, artifacts: dict) -> None:
        """Fold one incremental compile's store accounting (lock held)."""
        if not artifacts:
            return
        for stage in ("front", "backend"):
            state = artifacts.get(stage)
            if state in ("hit", "miss"):
                self.artifacts[f"{stage}_{state}es"
                               if state == "miss"
                               else f"{stage}_hits"] += 1
        block = artifacts.get("passes") or {}
        self.artifacts["pass_hits"] += int(block.get("hits", 0))
        self.artifacts["pass_misses"] += int(block.get("misses", 0))

    def count_retry(self) -> None:
        with self._lock:
            self.retries += 1

    def count_coalesced(self, hit: bool) -> None:
        with self._lock:
            if hit:
                self.coalesced_hits += 1
            else:
                self.coalesced_leaders += 1

    def count_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def count_tenant(self, tenant: str) -> None:
        with self._lock:
            self.per_tenant[tenant] = self.per_tenant.get(tenant, 0) + 1

    def note_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.queue_peak:
                self.queue_peak = depth

    def mean_latency(self, name: str = "total") -> float | None:
        """O(1) mean of a latency series (retry-after estimation)."""
        with self._lock:
            stat = self.latency[name]
            return (stat.total / stat.count) if stat.count else None

    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        with self._lock:
            lookups = self.cache_hits + self.cache_misses
            flights = self.coalesced_hits + self.coalesced_leaders
            return {
                "requests": self.requests,
                "errors": self.errors,
                "timeouts": self.timeouts,
                "verify_failures": self.verify_failures,
                "retries": self.retries,
                "per_op": dict(self.per_op),
                "per_tenant": dict(self.per_tenant),
                "cache": {
                    "hits": self.cache_hits,
                    "misses": self.cache_misses,
                    "hit_rate": (self.cache_hits / lookups) if lookups
                                else None,
                },
                "singleflight": {
                    "hits": self.coalesced_hits,
                    "leaders": self.coalesced_leaders,
                    "hit_rate": (self.coalesced_hits / flights) if flights
                                else None,
                },
                "admission": {
                    "rejected": self.rejected,
                    "queue_peak": self.queue_peak,
                },
                "latency_seconds": {name: stat.snapshot()
                                    for name, stat in self.latency.items()},
                "passes": {name: stat.snapshot()
                           for name, stat in self.pass_latency.items()},
                "artifacts": {
                    **self.artifacts,
                    # Prefix artifacts reused across incremental
                    # compiles (the CI tail-edit gate's counter).
                    "prefix_hits": (self.artifacts["front_hits"]
                                    + self.artifacts["pass_hits"]),
                },
            }

    def summary(self) -> str:
        """The human shutdown report."""
        snap = self.snapshot()
        cache = snap["cache"]
        rate = (f"{cache['hit_rate']:.1%}"
                if cache["hit_rate"] is not None else "n/a")
        lines = [
            f"requests {snap['requests']}  errors {snap['errors']}  "
            f"timeouts {snap['timeouts']}  "
            f"verify failures {snap['verify_failures']}  "
            f"retries {snap['retries']}",
            f"cache    {cache['hits']} hits / {cache['misses']} misses "
            f"(hit rate {rate})",
        ]
        flight = snap["singleflight"]
        if flight["hits"] or flight["leaders"]:
            lines.append(
                f"coalesce {flight['hits']} hits / "
                f"{flight['leaders']} leaders "
                f"(hit rate {flight['hit_rate']:.1%})")
        arts = snap["artifacts"]
        if arts["prefix_hits"] or arts["pass_misses"] \
                or arts["backend_hits"]:
            lines.append(
                f"store    front {arts['front_hits']}/"
                f"{arts['front_hits'] + arts['front_misses']}  "
                f"passes {arts['pass_hits']}/"
                f"{arts['pass_hits'] + arts['pass_misses']}  "
                f"backend {arts['backend_hits']}/"
                f"{arts['backend_hits'] + arts['backend_misses']} "
                f"(artifact hits/lookups)")
        admission = snap["admission"]
        if admission["rejected"] or admission["queue_peak"]:
            lines.append(
                f"admission {admission['rejected']} rejected, "
                f"queue peak {admission['queue_peak']}")
        if snap["per_tenant"]:
            tenants = "  ".join(f"{name}={count}" for name, count
                                in sorted(snap["per_tenant"].items()))
            lines.append(f"tenants  {tenants}")
        for name in self.STATS:
            stat = snap["latency_seconds"][name]
            if stat["count"]:
                lines.append(
                    f"{name:<10} p50 {stat['p50'] * 1e3:8.1f}ms  "
                    f"p95 {stat['p95'] * 1e3:8.1f}ms  "
                    f"max {stat['max'] * 1e3:8.1f}ms  "
                    f"({stat['count']} samples)")
        for name, stat in snap["passes"].items():
            lines.append(
                f"pass {name:<12} p50 {stat['p50'] * 1e3:6.1f}ms  "
                f"mean {stat['mean'] * 1e3:6.1f}ms  "
                f"({stat['count']} compiles)")
        return "\n".join(lines)
