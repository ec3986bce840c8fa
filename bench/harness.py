"""Shared plumbing: isolation, statistics, spans, provenance.

Nothing here imports ``repro``; ``isolate()`` must run before the first
``repro`` import so the private cache directory and the unset ``REPRO_*``
switches are what the compiler sees.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, "bench", "out")


class BenchError(Exception):
    """The run cannot produce an honest result; exit non-zero."""


# -- isolation ---------------------------------------------------------------


def isolate() -> str:
    """Private scratch inside the checkout; every ``REPRO_*`` unset.

    Returns the scratch directory.  ``TMPDIR`` points into it so the
    native-kernel work directory and the store's temp files stay inside
    the checkout, and ``REPRO_CACHE_DIR`` gives this process (and the
    pool workers it forks) a store nobody else has warmed.
    """
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise BenchError(f"no compiler to measure: {src}/repro is missing")
    if src not in sys.path:
        sys.path.insert(0, src)
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    os.makedirs(OUT_DIR, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
    os.environ["TMPDIR"] = scratch
    tempfile.tempdir = None  # re-read TMPDIR
    os.environ["REPRO_CACHE_DIR"] = os.path.join(scratch, "cache")
    return scratch


def cleanup(scratch: str) -> None:
    shutil.rmtree(scratch, ignore_errors=True)


# -- statistics --------------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def quartiles(values) -> tuple[float, float]:
    """(first, third) quartile as ``statistics.quantiles(n=4)`` gives."""
    if len(values) < 2:
        v = float(values[0])
        return v, v
    q = statistics.quantiles(values, n=4)
    return float(q[0]), float(q[2])


def geomean(values) -> float:
    values = list(values)
    return math.exp(sum(math.log(v) for v in values) / len(values))


def summary(values) -> dict:
    q1, q3 = quartiles(values)
    return {"median": median(values), "q1": q1, "q3": q3, "n": len(values)}


def tail(values, q: float = 95.0, strict: bool = True) -> float:
    """The q-th percentile, refused unless ten samples lie beyond it."""
    ordered = sorted(values)
    beyond = len(ordered) * (1.0 - q / 100.0)
    if beyond < 10.0:
        if strict:
            raise BenchError(
                f"p{q:g} needs at least ten samples beyond it; "
                f"{len(ordered)} samples leave {beyond:.1f}")
        if not ordered:
            return 0.0
    rank = min(len(ordered) - 1, math.ceil(q / 100.0 * len(ordered)) - 1)
    return float(ordered[max(0, rank)])


# -- workloads ---------------------------------------------------------------


class Workload:
    """What ``bench.run`` drives: ``setup``, ``gate``, ``measure``, then
    ``named_rows``, ``end_to_end``, ``per_layer`` and ``facts`` over what
    ``measure`` returned.  Every checked operation goes through
    ``check``; the result line's ``attempted`` and ``failed`` are its
    counts."""

    #: Traced runs measure half the time untraced and half traced.
    splits_trace = True
    MIN_ROUNDS = 5
    QUICK_ROUNDS = 2

    def __init__(self, name: str, seed: int, quick: bool = False) -> None:
        self.name = name
        self.seed = seed
        self.quick = quick
        self.min_rounds = self.QUICK_ROUNDS if quick else self.MIN_ROUNDS
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)

    def worker_pids(self):
        return ()

    def extra(self, measured: dict) -> dict:
        """Workload-specific provenance for the detail record."""
        return {}

    def close(self) -> None:
        pass


def matches_reference(arrays: dict, reference: dict) -> bool:
    """Arrays against the reference interpreter's, with the tolerance
    ``tests/test_end_to_end.py`` uses."""
    import numpy as np

    for name, expected in reference.items():
        try:
            np.testing.assert_allclose(arrays[name], expected,
                                       rtol=1e-9, atol=1e-12)
        except (AssertionError, KeyError):
            return False
    return True


# -- wrapping layer entry points -----------------------------------------------


class Patches:
    """Attributes swapped for wrappers while a ``with`` block runs.

    Layers are timed from outside: ``wrap(owner, name, make)`` replaces
    ``owner.name`` with ``make(original)`` and the exit puts every
    original back.
    """

    def __init__(self) -> None:
        self._saved: list[tuple] = []

    def wrap(self, owner, name: str, make) -> None:
        inner = getattr(owner, name)
        self._saved.append((owner, name, inner))
        setattr(owner, name, make(inner))

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, inner = self._saved.pop()
            setattr(owner, name, inner)


# -- spans -------------------------------------------------------------------


class Tracer:
    """In-memory span recorder (name, start, end, parent, workload id).

    ``begin``/``end`` nest through a stack, so a span's parent is the
    span that was open when it began.  ``add`` records an already-timed
    interval under the currently open span.
    """

    def __init__(self, wid: str) -> None:
        self.wid = wid
        self.spans: list[list] = []   # [name, start, end, parent, wid]
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.wid])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> float:
        span = self.spans[index]
        span[2] = time.perf_counter()
        self._stack.pop()
        return span[2] - span[1]

    def add(self, name: str, start: float, end: float,
            parent: int | None = None) -> int:
        if parent is None:
            parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, self.wid])
        return len(self.spans) - 1

    def write_chrome(self, path: str, limit: int = 40000) -> int:
        """Chrome trace-event JSON (open in chrome://tracing, Perfetto).

        At most ``limit`` spans are written, oldest first: a grid32 run
        records a few hundred thousand and the viewer wants a sample.
        """
        if not self.spans:
            return 0
        t0 = self.spans[0][1]
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": (start - t0) * 1e6, "dur": (end - start) * 1e6,
                   "args": {"parent": parent, "workload": wid, "id": i}}
                  for i, (name, start, end, parent, wid)
                  in enumerate(self.spans[:limit])]
        with open(path, "w") as f:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms",
                       "otherData": {"spans_recorded": len(self.spans)}}, f)
        return len(events)


# -- provenance --------------------------------------------------------------


def cc_version() -> str:
    """First line of ``cc --version``; no C compiler is a refused run."""
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            out = subprocess.run([path, "--version"], capture_output=True,
                                 text=True)
            if out.returncode == 0 and out.stdout:
                return out.stdout.splitlines()[0]
    raise BenchError("no C compiler: the fused and host engines would "
                     "silently fall back to Python kernels")


def git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(seed: int) -> dict:
    import numpy

    return {
        "nproc": os.cpu_count() or 1,
        "cc": cc_version(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb(pids=()) -> float:
    """Peak RSS of this process plus that of the processes in ``pids``
    (the pool workers of ``serve_mix``), in MB.

    ``RUSAGE_CHILDREN`` is no use here: a forked child starts from its
    parent's high-water mark, so every ``cc`` the kernels spawn would
    report this process's own size.  Workers are read from
    ``/proc/<pid>/status`` while they are alive (Linux; KiB both ways).
    """
    total = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in pids:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    total += int(line.split()[1])
    return total / 1024.0
