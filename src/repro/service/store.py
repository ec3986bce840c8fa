"""The content-addressed artifact store: one store for every stage.

Incremental compilation keys every stage of the pipeline — front end,
transform passes, backend, and whole executables — into a single
on-disk store of fingerprinted artifacts.  A fingerprint is a pure
function of everything that determines the artifact: the upstream
state's name (:func:`repro.pipeline.manager.state_hash`), the stage's
name and projected config, the resolved target and ``fuse_exec`` knob,
and the cache schema/package versions.  A hit is therefore safe to
reuse with no staleness check, and *content chaining* (each artifact
records the name of the state it produced) lets a warm compile walk
the whole pass chain by reading only small artifact headers.

Artifact kinds:

``front``
    parse + lower + check of one source text (the AST, the lowered
    program, and the layout directives).
``pass``
    one transform pass's output: the canonical program-scope NIR state
    plus the pass's report slot (the ``meta`` side channel).
``backend``
    one whole backend compilation (host program + partition report),
    keyed by the final transform state.
``exe``
    a whole :class:`~repro.driver.compiler.Executable`, keyed by
    :func:`cache_key` (source, options, pass pipeline, versions) — what
    :meth:`ArtifactStore.compile` looks up before any stage runs.

On-disk layout: one file per artifact at ``objects/<key>.<kind>.pkl``.
The file starts with a three-line ASCII header — version tag, the
artifact's output state hash (or ``-``), and the byte length of the
``meta`` pickle — followed by the meta pickle and then the state
pickle.  :meth:`ArtifactStore.head` reads only the header + meta (a
few hundred bytes), which is what makes chain traversal cheap;
:meth:`ArtifactStore.get` is the same read carried on into the state.

Crash safety: writes go through a temp file + ``os.replace`` (readers
never observe a partial artifact; concurrent writers of the same key
last-write-win a complete file), and any truncated, corrupt, or
version-skewed entry is deleted and reported as a miss — the store is
always allowed to forget, and a forgotten artifact degrades to a
recompute, never an exception.

Over the ``exe`` kind sits a small in-process **memo** of recently
loaded executables, so a long-running server pays the unpickle once
per source, not once per request.  A memo entry is trusted only while
the file's ``(st_mtime_ns, st_size)`` is unchanged — eviction,
corruption or replacement by another process all invalidate it — and a
memo hit returns the *same* ``Executable`` object as the call before
(plan warmth accumulates across requests).  A fresh store starts with
an empty memo, so cross-process reads take the pickle path, and
:meth:`ArtifactStore.purge` empties it.  Pipeline-stage artifacts carry
mutable IR that must unpickle fresh on every use, so only ``exe``
artifacts are memoised.  An executable never carries plan state (a
:class:`~repro.peac.isa.Routine` drops its own), so one loaded from the
store runs exactly as the same source compiled cold.

One eviction policy: an LRU sweep (by mtime; reads touch) keeps the
whole store — every kind together — under ``max_bytes``.  A write does
not list the directory: the store keeps the total of its last listing
plus the bytes it has written since, and sweeps only when that sum
passes ``max_bytes`` or when it has written ``max_bytes // 8`` since
the listing (other processes write to the same root, and this bounds
what they can add unseen).  One purge path: the ``VERSION`` marker
check wipes everything on a schema or package version change, and
:meth:`purge` is the ``repro cache purge`` surface.

A ``*.tmp`` file is a write in progress, or one whose writer was
killed before its ``os.replace``.  It is listed as an entry of no kind,
so whole-store totals count it, the LRU sweep can remove it, and an
unfiltered :meth:`purge` deletes it.
"""

from __future__ import annotations

import collections
import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import asdict, dataclass

#: Every artifact kind the store accepts, in pipeline order.
KINDS = ("front", "pass", "backend", "exe")

#: Bump to invalidate every existing entry (pipeline or pickle layout
#: changes).  The package version participates in the tag too, so
#: releases never read each other's artifacts.
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

_DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_HEADER_MAX = 4096  # tag + hash + meta-length always fit well inside

_MEMO_ENTRIES = 16  # executables the in-process memo keeps


def _version_tag() -> str:
    """Schema + package version (read per call: tests patch the schema)."""
    from .. import __version__

    return f"{SCHEMA_VERSION}:{__version__}"


def default_root() -> str:
    """``$REPRO_CACHE_DIR``, else ``~/.cache/repro``."""
    return os.environ.get("REPRO_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "repro")


def fingerprint(kind: str, payload: dict) -> str:
    """The store key for ``payload`` — a pure function of its inputs.

    ``payload`` must be JSON-serializable (a compile state goes in by
    its :func:`~repro.pipeline.manager.state_hash` name); the kind and
    the schema/package version tag participate, so no two kinds and no
    two releases can collide.
    """
    blob = json.dumps({"kind": kind, "tag": _version_tag(),
                       "payload": payload}, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


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
        "transform": asdict(options.transform),
        "backend": asdict(options.backend),
    }


def cache_key(source: str, options=None, machine: dict | None = None,
              pipeline: list | None = None) -> str:
    """The ``exe`` key of a compilation: source + options + pipeline +
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


@dataclass
class Artifact:
    """One fully loaded store entry."""

    obj: object
    meta: object
    out_hash: str


class ArtifactStore:
    """The content-addressed artifact store, LRU-capped by total size."""

    def __init__(self, root: str | None = None,
                 max_bytes: int | None = None) -> None:
        if root is None:
            root = default_root()
        if max_bytes is None:
            max_bytes = int(os.environ.get("REPRO_CACHE_MAX_BYTES",
                                           _DEFAULT_MAX_BYTES))
        self.root = root
        self.objects = os.path.join(root, "objects")
        self.max_bytes = max_bytes
        self.counters = {kind: {"hits": 0, "misses": 0, "errors": 0}
                         for kind in KINDS}
        self.evictions = 0
        self.memo_hits = 0
        self._memo: collections.OrderedDict = collections.OrderedDict()
        self._listed: int | None = None  # bytes at the last listing
        self._written = 0                # bytes put since that listing
        os.makedirs(self.objects, exist_ok=True)
        self._check_version()

    # -- versioned invalidation ----------------------------------------

    def _check_version(self) -> None:
        """Purge the store wholesale when the schema/version changes."""
        marker = os.path.join(self.root, "VERSION")
        tag = _version_tag()
        try:
            with open(marker) as f:
                if f.read().strip() == tag:
                    return
        except OSError:
            pass
        self.purge()
        with open(marker, "w") as f:
            f.write(tag + "\n")

    # -- paths ----------------------------------------------------------

    def _path(self, kind: str, key: str) -> str:
        return os.path.join(self.objects, f"{key}.{kind}.pkl")

    def fingerprint(self, kind: str, payload: dict) -> str:
        return fingerprint(kind, payload)

    # -- reads ----------------------------------------------------------

    def _read(self, kind: str, key: str, load_state: bool):
        """The one validated read: header, meta and (optionally) state.

        Any malformed entry — truncated header, bad tag, unparsable
        lengths, short meta, corrupt pickle — is deleted and counted as
        an error + miss.
        """
        path = self._path(kind, key)
        try:
            f = open(path, "rb")
        except OSError:
            self.counters[kind]["misses"] += 1
            return None
        try:
            with f:
                tag, out_hash, meta_len = (
                    f.readline(_HEADER_MAX).rstrip(b"\n").decode("ascii")
                    for _ in range(3))
                if tag != _version_tag():
                    raise ValueError("version skew")
                meta_len = int(meta_len)
                if meta_len < 0:
                    raise ValueError("negative meta length")
                blob = f.read(meta_len)
                if len(blob) != meta_len:
                    raise ValueError("truncated meta")
                meta = pickle.loads(blob) if meta_len else None
                obj = pickle.load(f) if load_state else None
        except Exception:
            self._forget(kind, key, path)
            return None
        self.counters[kind]["hits"] += 1
        try:
            os.utime(path)  # LRU touch
        except OSError:
            pass
        return Artifact(obj=obj, meta=meta,
                        out_hash="" if out_hash == "-" else out_hash)

    def _forget(self, kind: str, key: str, path: str) -> None:
        self.counters[kind]["errors"] += 1
        self.counters[kind]["misses"] += 1
        try:
            os.unlink(path)
        except OSError:
            pass

    def head(self, kind: str, key: str):
        """``(out_hash, meta)`` without loading the state, or None.

        This is the chain-traversal read: a few hundred bytes per
        artifact, so a fully warm pipeline costs header reads, not
        unpickles.
        """
        artifact = self._read(kind, key, load_state=False)
        return None if artifact is None \
            else (artifact.out_hash, artifact.meta)

    def get(self, kind: str, key: str) -> Artifact | None:
        """The full artifact under ``key``, or None (a miss)."""
        return self._read(kind, key, load_state=True)

    # -- writes ---------------------------------------------------------

    def put(self, kind: str, key: str, obj, *, meta=None,
            out_hash: str = "") -> bool:
        """Persist one artifact atomically; returns success.

        A failed pickle or write counts an error and leaves no entry —
        storing is always best-effort, the caller already holds the
        live objects.
        """
        try:
            meta_blob = (pickle.dumps(meta, pickle.HIGHEST_PROTOCOL)
                         if meta is not None else b"")
            state_blob = pickle.dumps(obj, pickle.HIGHEST_PROTOCOL)
        except Exception:
            self.counters[kind]["errors"] += 1
            return False
        header = (f"{_version_tag()}\n{out_hash or '-'}\n"
                  f"{len(meta_blob)}\n").encode("ascii")
        try:
            fd, tmp = tempfile.mkstemp(dir=self.objects, suffix=".tmp")
        except OSError:
            self.counters[kind]["errors"] += 1
            return False
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(header)
                f.write(meta_blob)
                f.write(state_blob)
            os.replace(tmp, self._path(kind, key))
        except OSError:
            self.counters[kind]["errors"] += 1
            try:
                os.unlink(tmp)
            except OSError:
                pass
            return False
        self._written += len(header) + len(meta_blob) + len(state_blob)
        if (self._listed is None
                or self._listed + self._written > self.max_bytes
                or self._written >= self.max_bytes // 8):
            self._evict(keep=(kind, key))
        return True

    # -- executables: the memo over the exe kind ------------------------

    def _memo_pop(self, key: str, path: str):
        """The memoized Executable, taken out of the memo, iff the disk
        entry is unchanged (a hit puts it back)."""
        exe, sig = self._memo.pop(key, (None, None))
        if exe is None:
            return None
        try:
            st = os.stat(path)
        except OSError:
            return None  # evicted or cleared behind our back
        if (st.st_mtime_ns, st.st_size) != sig:
            return None  # rewritten, touched, or corrupted: reload
        return exe

    def _memo_put(self, key: str, exe, path: str) -> None:
        try:
            st = os.stat(path)
        except OSError:
            return
        self._memo[key] = (exe, (st.st_mtime_ns, st.st_size))
        self._memo.move_to_end(key)
        while len(self._memo) > _MEMO_ENTRIES:
            self._memo.popitem(last=False)

    def get_exe(self, key: str):
        """The Executable under ``key`` (memo first), or None (a miss)."""
        path = self._path("exe", key)
        exe = self._memo_pop(key, path)
        if exe is not None:
            self.memo_hits += 1
            try:
                os.utime(path)  # LRU touch
            except OSError:
                pass
            self._memo_put(key, exe, path)  # refresh sig after touch
            return exe
        artifact = self.get("exe", key)
        if artifact is None:
            return None
        try:
            exe = artifact.obj["exe"]
        except (KeyError, TypeError):
            # A well-formed artifact with the wrong payload shape:
            # forget it like any other corruption.
            self._forget("exe", key, path)
            self.counters["exe"]["hits"] -= 1
            return None
        self._memo_put(key, exe, path)
        return exe

    def put_exe(self, key: str, exe) -> None:
        """Persist an Executable under ``key`` and memoise it."""
        if self.put("exe", key, {"exe": exe}):
            self._memo_put(key, exe, self._path("exe", key))

    def compile(self, source: str, options=None, incremental=False,
                deferred: list | None = None):
        """Compile through the store; returns ``(executable, hit)``.

        On a whole-source miss, ``incremental`` compiles through the
        pipeline-stage artifacts, so an edit that only perturbs the
        pipeline tail reuses every prefix artifact.

        A miss writes its entry before returning, unless the caller
        passes a ``deferred`` list: the ``(key, executable)`` pair is
        appended to it instead, for the caller to :meth:`put_exe` later
        (a pool worker does so after it has sent its response).
        """
        from ..driver.compiler import compile_source

        key = cache_key(source, options)
        exe = self.get_exe(key)
        if exe is not None:
            return exe, True
        exe = compile_source(source, options, cache=False,
                             incremental=incremental, store=self)
        if deferred is None:
            self.put_exe(key, exe)
        else:
            deferred.append((key, exe))
        return exe, False

    # -- maintenance -----------------------------------------------------

    def _entries(self):
        """(mtime, size, path, filename) of every artifact and temp
        file."""
        out = []
        try:
            names = os.listdir(self.objects)
        except OSError:
            return out
        for name in names:
            if not name.endswith((".pkl", ".tmp")):
                continue
            path = os.path.join(self.objects, name)
            try:
                st = os.stat(path)
            except OSError:
                continue
            out.append((st.st_mtime, st.st_size, path, name))
        return out

    def _evict(self, keep: tuple[str, str] | None = None) -> None:
        """Delete least-recently-used entries until under ``max_bytes``."""
        entries = self._entries()
        total = sum(size for _, size, _, _ in entries)
        protected = f"{keep[1]}.{keep[0]}.pkl" if keep else None
        for mtime, size, path, name in sorted(entries):
            if total <= self.max_bytes:
                break
            if name == protected:
                continue  # never evict the entry just written
            try:
                os.unlink(path)
                total -= size
                self.evictions += 1
            except OSError:
                pass
        self._listed = total
        self._written = 0

    @staticmethod
    def _split(name: str) -> tuple[str, str]:
        """``<key>.<kind>.pkl`` -> (kind, key); unknowns and ``*.tmp``
        files get kind ''."""
        stem = name[:-len(".pkl")]
        key, _, kind = stem.rpartition(".")
        if kind in KINDS and key:
            return kind, key
        return "", stem

    def purge(self, kind: str | None = None) -> int:
        """Delete every entry (of one kind, if named) and empty the memo;
        returns the count."""
        self._memo.clear()
        removed = 0
        for _mtime, _size, path, name in self._entries():
            if kind is not None and self._split(name)[0] != kind:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
        self._listed = None
        return removed

    def ls(self, kind: str | None = None) -> list[dict]:
        """Per-entry records, newest first (the ``repro cache ls`` view)."""
        now = time.time()
        rows = []
        for mtime, size, _path, name in sorted(self._entries(),
                                               reverse=True):
            entry_kind, key = self._split(name)
            if kind is not None and entry_kind != kind:
                continue
            rows.append({"key": key, "kind": entry_kind, "bytes": size,
                         "age_seconds": max(0.0, now - mtime)})
        return rows

    def stats(self) -> dict:
        """Per-kind counters plus the store's current footprint."""
        kinds = {kind: {"entries": 0, "bytes": 0, **counts}
                 for kind, counts in self.counters.items()}
        total_entries = 0
        total_bytes = 0
        for _mtime, size, _path, name in self._entries():
            entry_kind, _key = self._split(name)
            if entry_kind in kinds:
                kinds[entry_kind]["entries"] += 1
                kinds[entry_kind]["bytes"] += size
            total_entries += 1
            total_bytes += size
        return {
            "root": self.root,
            "entries": total_entries,
            "bytes": total_bytes,
            "max_bytes": self.max_bytes,
            "evictions": self.evictions,
            "kinds": kinds,
        }

    def exe_stats(self) -> dict:
        """The ``exe`` kind's counters (memo hits included) and footprint:
        the ``cache`` block of the service's ``stats`` op."""
        exe = self.stats()["kinds"]["exe"]
        return {
            "root": self.root,
            "entries": exe["entries"],
            "bytes": exe["bytes"],
            "max_bytes": self.max_bytes,
            "hits": exe["hits"] + self.memo_hits,
            "misses": exe["misses"],
            "memo_hits": self.memo_hits,
            "memo_entries": len(self._memo),
            "evictions": self.evictions,
            "errors": exe["errors"],
        }

    def admin(self, action: str = "stats", kind: str | None = None) -> dict:
        """The ``repro cache`` / ``{"op": "cache"}`` surface.

        ``stats`` returns the executable-level counters plus the per-kind
        breakdown; ``ls`` lists entries (newest first, optionally one
        ``kind``); ``purge`` deletes entries (all, or one ``kind``).
        Counters are process-local; the entry listing and byte footprint
        are the on-disk truth shared by every worker.
        """
        if action == "stats":
            return {"cache": self.exe_stats(), "store": self.stats()}
        if action == "ls":
            return {"entries": self.ls(kind=kind)}
        if action == "purge":
            return {"purged": self.purge(kind=kind)}
        raise ValueError(f"unknown cache action {action!r} "
                         "(expected stats, ls, or purge)")


_DEFAULT: ArtifactStore | None = None


def default_store() -> ArtifactStore:
    """The process-wide store at ``$REPRO_CACHE_DIR``/``~/.cache/repro``."""
    global _DEFAULT
    root = default_root()
    if _DEFAULT is None or _DEFAULT.root != root:
        _DEFAULT = ArtifactStore(root)
    return _DEFAULT
