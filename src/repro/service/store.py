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
    a whole :class:`~repro.driver.compiler.Executable` — the legacy
    whole-source cache, now a façade over this store (see
    :mod:`repro.service.cache`).

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

One eviction policy: an LRU sweep (by mtime; reads touch) keeps the
whole store — every kind together — under ``max_bytes``.  One purge
path: the ``VERSION`` marker check wipes everything on a schema or
package version change, and :meth:`purge` is the ``repro cache purge``
surface.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import tempfile
import time
from dataclasses import dataclass

#: Every artifact kind the store accepts, in pipeline order.
KINDS = ("front", "pass", "backend", "exe")

_DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_HEADER_MAX = 4096  # tag + hash + meta-length always fit well inside


def _version_tag() -> str:
    """Schema + package version (read lazily: tests patch the schema)."""
    from .. import __version__
    from . import cache

    return f"{cache.SCHEMA_VERSION}:{__version__}"


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
        self._evict(keep=(kind, key))
        return True

    # -- maintenance -----------------------------------------------------

    def _entries(self):
        """(mtime, size, path, filename) of every artifact file."""
        out = []
        try:
            names = os.listdir(self.objects)
        except OSError:
            return out
        for name in names:
            if not name.endswith(".pkl"):
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

    @staticmethod
    def _split(name: str) -> tuple[str, str]:
        """``<key>.<kind>.pkl`` -> (kind, key); unknowns get kind ''."""
        stem = name[:-len(".pkl")]
        key, _, kind = stem.rpartition(".")
        if kind in KINDS and key:
            return kind, key
        return "", stem

    def purge(self, kind: str | None = None) -> int:
        """Delete every entry (of one kind, if named); returns count."""
        removed = 0
        for _mtime, _size, path, name in self._entries():
            if kind is not None and self._split(name)[0] != kind:
                continue
            try:
                os.unlink(path)
                removed += 1
            except OSError:
                pass
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


_DEFAULT: ArtifactStore | None = None


def default_store() -> ArtifactStore:
    """The process-wide store at ``$REPRO_CACHE_DIR``/``~/.cache/repro``."""
    global _DEFAULT
    root = default_root()
    if _DEFAULT is None or _DEFAULT.root != root:
        _DEFAULT = ArtifactStore(root)
    return _DEFAULT
