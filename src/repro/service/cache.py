"""Content-addressed, persistent compile cache — a façade over the
unified artifact store.

Compiled :class:`~repro.driver.compiler.Executable` objects are keyed by
the SHA-256 of everything that determines them — the source text, every
:class:`~repro.driver.compiler.CompilerOptions` switch (including the
*resolved* target name and the ``fuse_exec`` knob), an optional
machine-configuration tag, and the cache schema / package versions — and
stored as ``exe``-kind artifacts in the
:class:`~repro.service.store.ArtifactStore` at ``~/.cache/repro`` (or
``$REPRO_CACHE_DIR``).  A key is a pure function of its inputs, so a hit
is safe to use without any staleness check, and any change to the
pipeline that should invalidate old entries is expressed by bumping
:data:`SCHEMA_VERSION`.

The store is shared with incremental compilation's ``front``/``pass``/
``backend`` artifacts (see :mod:`repro.service.store`): one
store, one LRU eviction policy over every kind together, one version
marker, one purge path — there is no second cache to keep coherent.

An entry is the executable alone.  Plans never pickle (a
:class:`~repro.peac.isa.Routine` drops its own), so an executable
loaded from the store runs exactly as the same source compiled cold:
each binding signature's first trip on the interpreter oracle, kernels
from the second.

Writes are atomic (temp file + ``os.replace``), reads touch the entry's
mtime for the LRU sweep, and corrupt or version-skewed entries are
deleted and reported as misses — the cache is always allowed to forget.

The cache is two-tier: over the disk store sits a small in-process
**memo** of recently loaded executables, so a long-running server pays
the unpickle cost once per source, not once per request.  A memo entry
is only trusted while the disk file's ``stat`` signature (mtime, size)
is unchanged — eviction, corruption, or replacement by another process
all invalidate it — and a memo hit returns the *same* ``Executable``
object as the previous call (plan warmth accumulates across requests;
executables are immutable apart from their plan caches).  A fresh
``CompileCache`` instance always starts with an empty memo, so
cross-process reads exercise the pickle path.  The memo holds only
``exe`` artifacts: pipeline-stage artifacts carry mutable IR that must
unpickle fresh on every use.
"""

from __future__ import annotations

import collections
import dataclasses
import os

from .store import ArtifactStore, default_store, fingerprint

#: Bump to invalidate every existing cache entry (pipeline or pickle
#: layout changes).  The package version participates in the key too,
#: so releases never read each other's artifacts.
#: 2: keys carry the resolved pass-pipeline identity; executables carry
#:    a PipelineTrace.
#: 3: asyncio service front door.
#: 4: the unified artifact store (keys carry the resolved target and
#:    fuse_exec; entries use the headered store layout).
#: 5: shift folding — pickled host programs carry FoldedShift ops,
#:    folded halo bindings and non-resident Allocs that an older
#:    executor would run as plain copies into arrays it never allocates.
#: 6: states are named by their structural rendering, not their pickle
#:    (no chain may join the two), and the ``phase`` kind is gone.
#: 7: plan specs are numbered over compute steps alone (memory operands
#:    no longer take a token), so a persisted spec table of an older
#:    numbering must not be re-attached.
#: 8: exe artifacts no longer carry plan state: a kernel is typed from
#:    its binding signatures, not from a recorded spec table.
SCHEMA_VERSION = 8


def _options_payload(options) -> dict:
    """A stable, JSON-serializable rendering of CompilerOptions.

    The ``target`` is *resolved* through the registry (so an alias and
    its canonical name share artifacts, and two targets never do) and
    ``fuse_exec`` is lifted out explicitly: it changes runtime fusion
    behavior even when the transform pipeline's structure is otherwise
    identical, so it must never be absorbed into a stale key.
    """
    from ..targets import get_target

    return {
        "target": get_target(options.target).name,
        "fuse_exec": options.transform.fuse_exec,
        "transform": dataclasses.asdict(options.transform),
        "backend": dataclasses.asdict(options.backend),
    }


def cache_key(source: str, options=None, machine: dict | None = None,
              pipeline: list | None = None) -> str:
    """Content address of a compilation: source + options + pipeline +
    versions.

    ``machine`` is an optional JSON-serializable machine-configuration
    tag for callers whose artifacts depend on more than the pipeline
    (the core pipeline is machine-independent: geometries are built at
    run time).

    ``pipeline`` is the resolved pass-pipeline identity — the ordered
    ``{name, config}`` records of the enabled passes.  It defaults to
    the registry's resolution for ``options``, so registering,
    reordering, disabling, or reconfiguring a pass invalidates stale
    artifacts without a schema bump.
    """
    from ..driver.compiler import CompilerOptions
    from ..transform import pipeline_identity

    options = options or CompilerOptions()
    if pipeline is None:
        pipeline = pipeline_identity(options.transform)
    payload = {
        "source": source,
        "options": _options_payload(options),
        "pipeline": pipeline,
    }
    if machine:
        payload["machine"] = machine
    return fingerprint("exe", payload)


class CompileCache:
    """The whole-source compile cache: ``exe`` artifacts plus a memo."""

    def __init__(self, root: str | None = None,
                 max_bytes: int | None = None,
                 memo_entries: int = 16,
                 store: ArtifactStore | None = None) -> None:
        self.store = store if store is not None \
            else ArtifactStore(root, max_bytes)
        self.root = self.store.root
        self.objects = self.store.objects
        self.memo_entries = memo_entries
        self._memo: collections.OrderedDict = collections.OrderedDict()
        self.memo_hits = 0

    # -- counters (delegated to the store's exe-kind ledger) -----------

    @property
    def hits(self) -> int:
        return self.store.counters["exe"]["hits"] + self.memo_hits

    @property
    def misses(self) -> int:
        return self.store.counters["exe"]["misses"]

    @property
    def errors(self) -> int:
        return self.store.counters["exe"]["errors"]

    @property
    def evictions(self) -> int:
        return self.store.evictions

    @property
    def max_bytes(self) -> int:
        return self.store.max_bytes

    @max_bytes.setter
    def max_bytes(self, value: int) -> None:
        self.store.max_bytes = value

    # -- the store ------------------------------------------------------

    def _path(self, key: str) -> str:
        return self.store._path("exe", key)

    # -- the in-process memo tier --------------------------------------

    def _memo_get(self, key: str, path: str):
        """The memoized Executable, iff the disk entry is unchanged."""
        entry = self._memo.get(key)
        if entry is None:
            return None
        exe, sig = entry
        try:
            st = os.stat(path)
        except OSError:
            self._memo.pop(key, None)
            return None  # evicted or cleared behind our back
        if (st.st_mtime_ns, st.st_size) != sig:
            self._memo.pop(key, None)
            return None  # rewritten, touched, or corrupted: reload
        self._memo.move_to_end(key)
        return exe

    def _memo_put(self, key: str, exe, path: str) -> None:
        if not self.memo_entries:
            return
        try:
            st = os.stat(path)
        except OSError:
            return
        self._memo[key] = (exe, (st.st_mtime_ns, st.st_size))
        self._memo.move_to_end(key)
        while len(self._memo) > self.memo_entries:
            self._memo.popitem(last=False)

    def get(self, key: str):
        """The cached Executable for ``key``, or None (a miss)."""
        path = self._path(key)
        exe = self._memo_get(key, path)
        if exe is not None:
            self.memo_hits += 1
            try:
                os.utime(path)  # LRU touch
            except OSError:
                pass
            self._memo_put(key, exe, path)  # refresh sig after touch
            return exe
        artifact = self.store.get("exe", key)
        if artifact is None:
            return None
        try:
            exe = artifact.obj["exe"]
        except (KeyError, TypeError):
            # A well-formed artifact with the wrong payload shape:
            # forget it like any other corruption.
            self.store._forget("exe", key, path)
            self.store.counters["exe"]["hits"] -= 1
            return None
        self._memo_put(key, exe, path)
        return exe

    def put(self, key: str, exe) -> None:
        """Persist an Executable under ``key``.

        The write is atomic; a failed pickle leaves no entry.
        """
        if self.store.put("exe", key, {"exe": exe}):
            self._memo_put(key, exe, self._path(key))

    def clear(self) -> None:
        """Drop every entry (used on version skew and by tests)."""
        self._memo.clear()
        self.store.purge()

    # -- the compile front door ----------------------------------------

    def compile(self, source: str, options=None, incremental=False,
                deferred: list | None = None):
        """Compile through the cache; returns ``(executable, hit)``.

        On a whole-source miss, ``incremental`` compiles through the
        store's pipeline-stage artifacts, so an edit that only perturbs the
        pipeline tail reuses every prefix artifact.

        A miss writes its entry before returning, unless the caller
        passes a ``deferred`` list: the ``(key, executable)`` pair is
        appended to it instead, for the caller to :meth:`put` later (a
        pool worker does so after it has sent its response).
        """
        from ..driver.compiler import compile_source

        key = cache_key(source, options)
        exe = self.get(key)
        if exe is not None:
            return exe, True
        exe = compile_source(source, options, cache=False,
                             incremental=incremental, store=self.store)
        if deferred is None:
            self.put(key, exe)
        else:
            deferred.append((key, exe))
        return exe, False

    def stats(self) -> dict:
        """Counters plus the executable store's current footprint.

        ``entries``/``bytes`` cover the ``exe`` kind (this façade's
        artifacts); the full per-kind breakdown is
        ``self.store.stats()`` — the ``repro cache stats`` payload.
        """
        exe = self.store.stats()["kinds"]["exe"]
        return {
            "root": self.root,
            "entries": exe["entries"],
            "bytes": exe["bytes"],
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "memo_hits": self.memo_hits,
            "memo_entries": len(self._memo),
            "evictions": self.evictions,
            "errors": self.errors,
        }


def cache_admin(cache: CompileCache, action: str = "stats",
                kind: str | None = None) -> dict:
    """The shared ``repro cache`` / ``{"op": "cache"}`` surface.

    ``stats`` returns the façade's executable-level counters plus the
    unified store's per-kind breakdown; ``ls`` lists entries (newest
    first, optionally one ``kind``); ``purge`` deletes entries (all, or
    one ``kind``) through the store's single purge path and invalidates
    the memo.  Counters are process-local; the entry listing and byte
    footprint are the on-disk truth shared by every worker.
    """
    store = cache.store
    if action == "stats":
        return {"cache": cache.stats(), "store": store.stats()}
    if action == "ls":
        return {"entries": store.ls(kind=kind)}
    if action == "purge":
        removed = store.purge(kind=kind)
        cache._memo.clear()
        return {"purged": removed}
    raise ValueError(f"unknown cache action {action!r} "
                     "(expected stats, ls, or purge)")


_DEFAULT: CompileCache | None = None


def default_cache() -> CompileCache:
    """The process-wide cache at ``$REPRO_CACHE_DIR``/``~/.cache/repro``."""
    global _DEFAULT
    store = default_store()
    if _DEFAULT is None or _DEFAULT.store is not store:
        _DEFAULT = CompileCache(store=store)
    return _DEFAULT
