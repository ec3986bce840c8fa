"""Incremental compilation: the artifact store and its reuse contract.

* store round-trips: put/get/head, meta side channel, content chaining;
* crash safety: truncated/corrupt/version-skewed entries degrade to a
  recompute (never an exception), writes are atomic, concurrent
  writers never expose a partial artifact;
* reuse: a warm recompile hits every artifact; a tail edit reuses the
  prefix; a target or fuse_exec switch never serves a stale artifact;
* one name per state: the structural hash is the same whichever route
  built the state and wherever its lines sit, differs whenever the
  compiled program does, and is the same in every process;
* the hypothesis differential: incremental and cold compiles of the
  same edited source agree structurally and bit-identically at run
  time;
* the admin surface: ``ArtifactStore.admin``, the ``{"op": "cache"}`` service
  op, and the ``repro cache`` CLI.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import tempfile
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import Machine, slicewise_model
from repro.pipeline import state_hash
from repro.programs.kernels import ALL_KERNELS
from repro.programs.swe import swe_source
from repro.runtime.host import format_host_program
from repro.service.jobs import execute_request
from repro.service.store import ArtifactStore, cache_key, fingerprint
from repro.transform import Options as TransformOptions

from .conftest import lower

SOURCE = """
program heat
integer, parameter :: n = 16
double precision, array(n,n) :: t, tnew
double precision kappa
integer it
kappa = 0.1d0
forall (i=1:n, j=1:n) t(i,j) = mod(i*7 + j*3, 11) * 1.0d0
do it = 1, 4
   tnew = t + kappa * (cshift(t, shift=1, dim=1) &
          + cshift(t, shift=-1, dim=1) - 2.0d0 * t)
   t = tnew
end do
end program heat
"""


def make_store(tmp_path, **kw) -> ArtifactStore:
    return ArtifactStore(str(tmp_path / "store"), **kw)


def compile_inc(source, store, options=None):
    return compile_source(source, options, cache=False, incremental=True,
                          store=store)


def run_outputs(exe):
    result = exe.run(Machine(slicewise_model(n_pes=64)))
    return result.arrays, result.scalars, result.output


def assert_same_run(exe_a, exe_b):
    """Structural equality of the compiled artifact + bitwise run."""
    assert exe_a.host_program == exe_b.host_program
    arrays_a, scalars_a, out_a = run_outputs(exe_a)
    arrays_b, scalars_b, out_b = run_outputs(exe_b)
    assert sorted(arrays_a) == sorted(arrays_b)
    for name, data in arrays_a.items():
        np.testing.assert_array_equal(data, arrays_b[name])
    assert scalars_a == scalars_b
    assert out_a == out_b


# ---------------------------------------------------------------------------
# Store basics
# ---------------------------------------------------------------------------


class TestStoreBasics:
    def test_put_get_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        key = store.fingerprint("pass", {"in": "abc", "pass": "fold"})
        assert store.put("pass", key, {"x": [1, 2, 3]},
                         meta=("slot", 7), out_hash="deadbeef")
        art = store.get("pass", key)
        assert art is not None
        assert art.obj == {"x": [1, 2, 3]}
        assert art.meta == ("slot", 7)
        assert art.out_hash == "deadbeef"

    def test_head_reads_hash_and_meta_only(self, tmp_path):
        store = make_store(tmp_path)
        store.put("pass", "k1", [0] * 1000, meta={"m": 1}, out_hash="h1")
        assert store.head("pass", "k1") == ("h1", {"m": 1})
        assert store.head("pass", "nope") is None
        assert store.counters["pass"]["hits"] == 1
        assert store.counters["pass"]["misses"] == 1

    def test_missing_key_is_a_miss(self, tmp_path):
        store = make_store(tmp_path)
        assert store.get("front", "nothing") is None
        assert store.counters["front"]["misses"] == 1
        assert store.counters["front"]["errors"] == 0

    def test_fingerprint_pure_and_kind_separated(self, tmp_path):
        payload = {"source": "x = 1", "target": "cm2"}
        assert fingerprint("front", payload) == fingerprint("front",
                                                            dict(payload))
        assert fingerprint("front", payload) != fingerprint("exe", payload)
        assert fingerprint("front", payload) != \
            fingerprint("front", {**payload, "target": "cm5"})

    def test_state_hash_is_content_addressed(self):
        """Equal terms built separately share a name; a changed
        constant, symbol type or domain extent gets another."""
        base = "integer a(8)\nreal x\nx = 1.5\na = 2\nend\n"
        assert lowered_hash(base) == lowered_hash(base)
        assert lowered_hash(base) == lowered_hash("! moved\n\n" + base)
        names = {lowered_hash(text) for text in (
            base,
            base.replace("a = 2", "a = 3"),
            base.replace("real x", "double precision x"),
            base.replace("a(8)", "a(9)"))}
        assert len(names) == 4

    def test_ls_purge_stats(self, tmp_path):
        store = make_store(tmp_path)
        store.put("front", "f1", 1)
        store.put("pass", "p1", 2)
        store.put("pass", "p2", 3)
        entries = store.ls()
        assert len(entries) == 3
        assert {e["kind"] for e in entries} == {"front", "pass"}
        assert all(e["bytes"] > 0 for e in entries)
        assert len(store.ls(kind="pass")) == 2
        stats = store.stats()
        assert stats["entries"] == 3
        assert stats["kinds"]["pass"]["entries"] == 2
        assert stats["kinds"]["front"]["entries"] == 1
        assert store.purge(kind="pass") == 2
        assert store.get("front", "f1") is not None
        assert store.purge() == 1
        assert store.stats()["entries"] == 0

    def test_lru_eviction_keeps_newest(self, tmp_path):
        store = make_store(tmp_path, max_bytes=1)
        store.put("pass", "old", list(range(100)))
        store.put("pass", "new", list(range(100)))
        # The entry just written is protected; the older one is gone.
        assert store.get("pass", "new") is not None
        assert store.get("pass", "old") is None
        assert store.evictions >= 1

    def test_put_under_the_cap_lists_nothing(self, tmp_path, monkeypatch):
        """The running total stands in for a listing: a put into a
        1,000-entry store that stays under its cap never reads the
        directory."""
        store = make_store(tmp_path)
        blob = b"x" * 256
        for i in range(1000):
            with open(store._path("pass", f"k{i}"), "wb") as f:
                f.write(blob)
        store.put("pass", "first", blob)  # the one listing
        assert store.stats()["entries"] == 1001
        calls = []
        real = os.listdir
        monkeypatch.setattr(os, "listdir",
                            lambda *a: calls.append(a) or real(*a))
        store.put("pass", "second", blob)
        assert calls == []
        assert store.get("pass", "second") is not None

    def test_two_writers_stay_near_the_cap(self, tmp_path):
        """Each store sees the other's writes at its next listing, so
        the directory ends at most one writer's unlisted share (an
        eighth of the cap) above it — though neither store's own writes
        ever reach the cap."""
        cap = 64 * 1024
        one = make_store(tmp_path, max_bytes=cap)
        two = ArtifactStore(one.root, max_bytes=cap)
        for i in range(112):
            writer = one if i % 2 else two
            writer.put("pass", f"k{i}", os.urandom(1024))
        total = one.stats()["bytes"]
        assert total <= cap + cap // 8
        assert one.evictions + two.evictions > 0

    def test_orphan_temp_file_is_counted_and_purged(self, tmp_path):
        """A writer killed before its ``os.replace`` leaves a ``*.tmp``:
        it counts in the totals as an entry of no kind, a kind-filtered
        purge keeps it, and a full purge removes it."""
        store = make_store(tmp_path)
        store.put("pass", "k", [1, 2, 3])
        orphan = os.path.join(store.objects, "tmpdead1234.tmp")
        with open(orphan, "wb") as f:
            f.write(b"half an artifact")
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["kinds"]["pass"]["entries"] == 1
        assert {e["kind"] for e in store.ls()} == {"pass", ""}
        assert store.purge(kind="pass") == 1
        assert os.path.exists(orphan)
        assert store.purge() == 1
        assert os.listdir(store.objects) == []

    def test_version_marker_purges_on_schema_change(self, tmp_path,
                                                    monkeypatch):
        from repro.service import store as store_mod

        store = make_store(tmp_path)
        store.put("exe", "k", "payload")
        monkeypatch.setattr(store_mod, "SCHEMA_VERSION", 999)
        reopened = ArtifactStore(store.root)
        assert reopened.stats()["entries"] == 0

    def test_schema_5_phase_artifacts_are_purged(self, tmp_path,
                                                 monkeypatch):
        """``phase`` is no longer a kind: a store directory written
        under schema 5 must not keep its ``*.phase.pkl`` files as
        unknown entries."""
        from repro.service import store as store_mod

        assert store_mod.SCHEMA_VERSION >= 6
        with monkeypatch.context() as patch:
            patch.setattr(store_mod, "SCHEMA_VERSION", 5)
            old = make_store(tmp_path)
            old.put("pass", "k", "state")
            os.rename(old._path("pass", "k"),
                      os.path.join(old.objects, "k.phase.pkl"))
        store = ArtifactStore(old.root)
        assert os.listdir(store.objects) == []


# ---------------------------------------------------------------------------
# Crash safety
# ---------------------------------------------------------------------------


class TestCrashSafety:
    def _entry_path(self, store):
        (name,) = os.listdir(store.objects)
        return os.path.join(store.objects, name)

    def test_truncated_header_degrades_to_miss(self, tmp_path):
        store = make_store(tmp_path)
        store.put("pass", "k", [1, 2, 3], out_hash="h")
        path = self._entry_path(store)
        with open(path, "wb") as f:
            f.write(b"5:")  # a write that died mid-header
        assert store.get("pass", "k") is None
        assert store.counters["pass"]["errors"] == 1
        assert not os.path.exists(path), "corrupt entry must be forgotten"

    def test_truncated_state_degrades_to_miss(self, tmp_path):
        store = make_store(tmp_path)
        store.put("pass", "k", list(range(1000)), out_hash="h")
        path = self._entry_path(store)
        blob = open(path, "rb").read()
        with open(path, "wb") as f:
            f.write(blob[:len(blob) // 2])  # valid header, half a pickle
        assert store.get("pass", "k") is None
        assert store.counters["pass"]["errors"] == 1
        assert not os.path.exists(path)

    def test_garbage_body_degrades_to_miss(self, tmp_path):
        store = make_store(tmp_path)
        store.put("backend", "k", (1, 2))
        path = self._entry_path(store)
        header = open(path, "rb").read().split(b"\n", 3)
        with open(path, "wb") as f:
            f.write(b"\n".join(header[:3]) + b"\n" + b"\x80garbage")
        assert store.get("backend", "k") is None
        assert store.counters["backend"]["errors"] == 1

    def test_version_skewed_entry_is_forgotten(self, tmp_path):
        store = make_store(tmp_path)
        store.put("front", "k", "obj")
        path = self._entry_path(store)
        blob = open(path, "rb").read()
        _tag, rest = blob.split(b"\n", 1)
        with open(path, "wb") as f:
            f.write(b"0:stale\n" + rest)
        assert store.get("front", "k") is None
        assert store.counters["front"]["errors"] == 1
        assert not os.path.exists(path)

    def test_unpicklable_put_is_an_error_not_an_exception(self, tmp_path):
        store = make_store(tmp_path)
        assert store.put("exe", "k", lambda: None) is False
        assert store.counters["exe"]["errors"] == 1
        assert store.stats()["entries"] == 0

    def test_writes_leave_no_temp_files(self, tmp_path):
        store = make_store(tmp_path)
        for i in range(10):
            store.put("pass", f"k{i}", list(range(50)))
        leftovers = [n for n in os.listdir(store.objects)
                     if not n.endswith(".pkl")]
        assert leftovers == []

    def test_corrupted_pass_artifact_recompiles_correctly(self, tmp_path):
        """A warm chain with one corrupted link degrades to recompute."""
        store = make_store(tmp_path)
        cold = compile_source(SOURCE, cache=False, incremental=False)
        compile_inc(SOURCE, store)
        for name in os.listdir(store.objects):
            if name.endswith(".pass.pkl"):
                with open(os.path.join(store.objects, name), "wb") as f:
                    f.write(b"not an artifact")
        warm = compile_inc(SOURCE, store)
        assert_same_run(cold, warm)

    def test_unloadable_pass_state_falls_back_to_a_cold_run(self, tmp_path):
        """Headers intact, states gone: every pass hits on its header,
        the final state cannot be materialized, and the passes run for
        real — still under the name a cold run gives that state."""
        store = make_store(tmp_path)
        first = compile_inc(SOURCE, store)
        for name in os.listdir(store.objects):
            if name.endswith(".pass.pkl"):
                path = os.path.join(store.objects, name)
                blob = open(path, "rb").read()
                with open(path, "wb") as f:
                    f.write(blob[:-8])
        store.purge(kind="backend")
        exe = compile_inc(SOURCE, store)
        arts = exe.transformed.trace.artifacts
        assert arts["passes"]["hits"] == 0 and arts["passes"]["misses"] > 0
        assert arts["state_hash"] == \
            first.transformed.trace.artifacts["state_hash"]
        assert_same_run(first, exe)

    def test_fallback_reruns_from_the_unextended_environment(
            self, tmp_path, monkeypatch):
        """A miss runs normalize on the lowered environment (declaring
        its temporaries), every later pass hits, and the state the hits
        ran ahead to is evicted between ``head`` and ``get``: the
        storeless rerun must name its temporaries as a cold compile
        does, not after the ones the miss declared."""
        store = make_store(tmp_path)
        serial = TransformOptions(promote_loops=False)
        compile_inc(SOURCE, store, CompilerOptions(transform=serial))
        # No CSE opportunity in SOURCE: same normalize output, new key.
        edit = CompilerOptions(
            transform=dataclasses.replace(serial, comm_cse=False))
        real_get = store.get

        def evicting_get(kind, key):
            if kind == "pass":
                os.unlink(store._path(kind, key))
            return real_get(kind, key)

        monkeypatch.setattr(store, "get", evicting_get)
        hits = store.counters["pass"]["hits"]
        exe = compile_inc(SOURCE, store, edit)
        assert store.counters["pass"]["hits"] > hits  # miss, then hits
        cold = compile_source(SOURCE, edit, cache=False, incremental=False)
        assert exe.transformed.trace.artifacts["state_hash"] == \
            state_hash(cold.transformed.nir, cold.env)
        assert sorted(exe.env.symbols) == sorted(cold.env.symbols)
        assert_same_run(cold, exe)

    def test_concurrent_writers_never_expose_partial(self, tmp_path):
        store = make_store(tmp_path)
        key = "contended"
        payloads = [list(range(i, i + 500)) for i in range(8)]
        errors: list[BaseException] = []
        seen: list[object] = []

        def writer(payload):
            try:
                for _ in range(20):
                    store.put("pass", key, payload, out_hash="h")
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(60):
                    art = store.get("pass", key)
                    if art is not None:
                        seen.append(art.obj)
            except BaseException as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(p,))
                   for p in payloads]
        threads += [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert seen, "readers should observe complete artifacts"
        assert all(obj in payloads for obj in seen)
        final = store.get("pass", key)
        assert final is not None and final.obj in payloads


# ---------------------------------------------------------------------------
# Incremental reuse
# ---------------------------------------------------------------------------


class TestIncrementalReuse:
    def test_warm_recompile_hits_every_stage(self, tmp_path):
        store = make_store(tmp_path)
        first = compile_inc(SOURCE, store)
        arts = first.transformed.trace.artifacts
        assert arts["front"] == "miss"
        assert arts["backend"] == "miss"
        assert arts["passes"]["hits"] == 0
        warm = compile_inc(SOURCE, store)
        arts = warm.transformed.trace.artifacts
        assert arts["front"] == "hit"
        assert arts["backend"] == "hit"
        assert arts["passes"]["misses"] == 0
        assert arts["passes"]["hits"] > 0
        assert_same_run(first, warm)

    @pytest.mark.parametrize("target", ["cm2", "cm5", "host"])
    def test_backend_artifact_persists_on_every_target(self, tmp_path,
                                                       target):
        """Regression: the host backend's lowering audit builds every
        routine's plan, which must not keep the artifact from pickling."""
        store = make_store(tmp_path)
        options = CompilerOptions(target=target)
        compile_inc(SOURCE, store, options)
        assert store.counters["backend"]["errors"] == 0
        assert store.stats()["kinds"]["backend"]["entries"] == 1
        warm = compile_inc(SOURCE, store, options)
        assert warm.transformed.trace.artifacts["backend"] == "hit"

    def test_warm_trace_marks_cached_passes(self, tmp_path):
        store = make_store(tmp_path)
        compile_inc(SOURCE, store)
        warm = compile_inc(SOURCE, store)
        cached = [t.cached for t in warm.transformed.trace.passes
                  if t.enabled]
        assert cached and all(cached)
        assert any("[cached]" in line
                   for line in warm.transformed.trace.summary_lines())

    def test_incremental_matches_cold(self, tmp_path):
        store = make_store(tmp_path)
        cold = compile_source(SOURCE, cache=False, incremental=False)
        inc_cold = compile_inc(SOURCE, store)
        inc_warm = compile_inc(SOURCE, store)
        assert_same_run(cold, inc_cold)
        assert_same_run(cold, inc_warm)

    def test_source_edit_reuses_nothing_stale(self, tmp_path):
        store = make_store(tmp_path)
        compile_inc(SOURCE, store)
        edited = SOURCE.replace("kappa = 0.1d0", "kappa = 0.2d0")
        exe = compile_inc(edited, store)
        assert exe.transformed.trace.artifacts["front"] == "miss"
        cold = compile_source(edited, cache=False, incremental=False)
        assert_same_run(cold, exe)

    def test_comment_only_edit_reuses_full_prefix(self, tmp_path):
        """A comment edit re-parses, then chains warm: the front
        artifact misses but records the same lowered-state hash, so
        every pass and the backend reuse their artifacts."""
        store = make_store(tmp_path)
        compile_inc(SOURCE, store)
        edited = SOURCE.replace("kappa = 0.1d0",
                                "kappa = 0.1d0  ! diffusivity")
        assert edited != SOURCE
        exe = compile_inc(edited, store)
        arts = exe.transformed.trace.artifacts
        assert arts["front"] == "miss"
        assert arts["passes"]["misses"] == 0
        assert arts["passes"]["hits"] > 0
        assert arts["backend"] == "hit"

    def test_backend_config_edit_reuses_prefix(self, tmp_path):
        """A tail (backend-only) change hits front + passes."""
        store = make_store(tmp_path)
        compile_inc(SOURCE, store)
        naive_backend = dataclasses.replace(
            CompilerOptions(), backend=CompilerOptions.naive().backend)
        exe = compile_inc(SOURCE, store, options=naive_backend)
        arts = exe.transformed.trace.artifacts
        assert arts["front"] == "hit"
        assert arts["passes"]["misses"] == 0
        assert arts["passes"]["hits"] > 0
        assert arts["backend"] == "miss"
        cold = compile_source(SOURCE, options=naive_backend, cache=False,
                              incremental=False)
        assert_same_run(cold, exe)

    def test_target_switch_never_serves_stale_artifacts(self, tmp_path):
        store = make_store(tmp_path)
        cm2 = compile_inc(SOURCE, store)
        host_options = CompilerOptions(target="host")
        host = compile_inc(SOURCE, store, options=host_options)
        # The context (resolved target) splits every key: nothing from
        # the cm2 compile may be reused, starting at the front end.
        assert host.transformed.trace.artifacts["front"] == "miss"
        assert host.transformed.trace.artifacts["backend"] == "miss"
        cold = compile_source(SOURCE, options=host_options, cache=False,
                              incremental=False)
        assert host.host_program == cold.host_program
        assert cm2.host_program != host.host_program \
            or cm2.partition != host.partition

    def test_cache_key_splits_target_and_fuse_exec(self):
        """Regression: the whole-source key was blind to both."""
        from repro.transform import Options as TransformOptions

        base = CompilerOptions()
        host = CompilerOptions(target="host")
        unfused = CompilerOptions(
            transform=TransformOptions(fuse_exec=False))
        keys = {cache_key(SOURCE, base), cache_key(SOURCE, host),
                cache_key(SOURCE, unfused)}
        assert len(keys) == 3

    def test_verify_forces_cold_compile(self, tmp_path):
        store = make_store(tmp_path)
        compile_inc(SOURCE, store)
        exe = compile_inc(SOURCE, store,
                          options=CompilerOptions(verify=True))
        # No artifact accounting: the verified compile ran everything.
        assert exe.transformed.trace.artifacts == {}

    def test_analyze_and_dump_after_never_consult_the_store(self, tmp_path):
        """``analyze`` reports carry source lines, which a line-free
        state name cannot vouch for; ``dump_after`` observes the passes
        run.  Neither may read or write an artifact."""
        store = make_store(tmp_path)
        compile_inc(SOURCE, store)
        before = sorted(os.listdir(store.objects))
        analyzed = compile_inc(SOURCE, store, options=CompilerOptions(
            transform=TransformOptions(analyze=True)))
        dumped = compile_source(SOURCE, cache=False, incremental=True,
                                store=store, dump_after=("promote",))
        for exe in (analyzed, dumped):
            assert exe.transformed.trace.artifacts == {}
            assert not any(t.cached for t in exe.transformed.trace.passes)
        assert "promote" in dumped.transformed.trace.dumps
        assert analyzed.transformed.trace.timing("racecheck").seconds > 0
        assert sorted(os.listdir(store.objects)) == before


# ---------------------------------------------------------------------------
# One name per state
# ---------------------------------------------------------------------------


def lowered_hash(source: str) -> str:
    lowered = lower(source)
    return state_hash(lowered.nir, lowered.env)


def corpus() -> dict[str, str]:
    sources = {name: generate() for name, generate in ALL_KERNELS.items()}
    sources["swe"] = swe_source(32, 2)
    return sources


SINGLE_OFF = ("promote_loops", "comm_cse", "block", "fuse", "pad_masks",
              "recheck", "fuse_exec")

DO_I = ("integer i, j, a\na = 0\ndo i=1,3\na = a + 1\nend do\n"
        "print *, a\nend\n")
DO_J = DO_I.replace("do i", "do j")

_DIGEST = """
import hashlib
from repro.driver.compiler import compile_source
from repro.pipeline import state_hash
from tests.test_incremental import corpus, lowered_hash
digest = hashlib.sha256()
for name, source in sorted(corpus().items()):
    final = compile_source(source, cache=False).transformed
    digest.update((lowered_hash(source)
                   + state_hash(final.nir, final.env)).encode())
print(digest.hexdigest())
"""


class TestOneNamePerState:
    @pytest.mark.parametrize("off", ["pad_masks", "comm_cse", "fuse"])
    @pytest.mark.parametrize("prog", ["swe", "redblack", "where"])
    def test_route_independence(self, tmp_path, prog, off):
        """A state built from the lowered program and the same state
        built by resuming from an artifact another configuration left
        behind carry one name, so each route finds the other's
        ``backend`` artifact."""
        source = corpus()[prog]
        options = CompilerOptions(transform=TransformOptions(**{off: False}))
        store = make_store(tmp_path)
        first = compile_inc(source, store, options)   # into an empty store
        store.purge(kind="pass")
        compile_inc(source, store)                    # the default chain
        second = compile_inc(source, store, options)  # resumes inside it
        arts = second.transformed.trace.artifacts
        assert arts["passes"]["hits"] > 0 and arts["passes"]["misses"] > 0
        assert arts["state_hash"] == \
            first.transformed.trace.artifacts["state_hash"]
        assert arts["backend"] == "hit"
        assert second.host_program == first.host_program

    @pytest.mark.parametrize("prog", ["heat", "redblack"])
    def test_line_independence(self, tmp_path, prog):
        """Moving every statement down a line re-parses and nothing
        else: the lowered state keeps its name."""
        source = corpus()[prog]
        store = make_store(tmp_path)
        compile_inc(source, store)
        shifted = "! a comment line\n" + source
        exe = compile_inc(shifted, store)
        arts = exe.transformed.trace.artifacts
        assert arts["front"] == "miss"
        assert arts["passes"]["misses"] == 0
        assert arts["backend"] == "hit"
        cold = compile_source(shifted, cache=False, incremental=False)
        assert format_host_program(exe.host_program) == \
            format_host_program(cold.host_program)
        # The AST and the lowered program come from the exact text.
        assert exe.unit == cold.unit

    def test_programs_pretty_printing_alike_get_different_names(
            self, tmp_path):
        """``nir.pretty`` drops ``Do.index_names``; the name must not.
        ``do i`` and ``do j`` compile to different host loops and leave
        different scalars behind."""
        from repro import nir

        cold_i = compile_source(DO_I, cache=False, incremental=False)
        cold_j = compile_source(DO_J, cache=False, incremental=False)
        assert nir.pretty(cold_i.transformed.nir) == \
            nir.pretty(cold_j.transformed.nir)
        store = make_store(tmp_path)
        inc_i = compile_inc(DO_I, store)
        inc_j = compile_inc(DO_J, store)
        assert inc_j.transformed.trace.artifacts["backend"] == "miss"
        assert inc_i.transformed.trace.artifacts["state_hash"] != \
            inc_j.transformed.trace.artifacts["state_hash"]
        for inc, cold in ((inc_i, cold_i), (inc_j, cold_j)):
            assert run_outputs(inc)[1] == run_outputs(cold)[1]
        assert run_outputs(inc_i)[1] != run_outputs(inc_j)[1]

    def test_one_name_one_host_program(self):
        """Injectivity over the corpus: whatever option set produced
        them, final states sharing a name compile (under the same
        backend options, target and ``fuse_exec``, which turns the
        backend's batch pass on) to the same host program."""
        variants = [CompilerOptions(), CompilerOptions.naive(),
                    CompilerOptions.neighborhood()]
        variants += [CompilerOptions(transform=TransformOptions(
            **{off: False})) for off in SINGLE_OFF]
        groups: dict[tuple, list[str]] = {}
        for source in corpus().values():
            for options in variants:
                exe = compile_source(source, options, cache=False,
                                     incremental=False)
                final = exe.transformed
                key = (state_hash(final.nir, final.env), options.backend,
                       options.target, options.transform.fuse_exec)
                groups.setdefault(key, []).append(
                    format_host_program(exe.host_program))
        assert len(groups) > len(corpus())       # options do change states
        assert any(len(texts) > 1 for texts in groups.values())  # and share
        assert all(len(set(texts)) == 1 for texts in groups.values())

    def test_names_do_not_depend_on_the_process(self):
        """No unordered set, ``id`` or hash-seeded order may reach the
        rendering: two interpreters with different string-hash seeds
        agree on every lowered and final state of the corpus."""
        digests = set()
        for seed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       PYTHONPATH=os.pathsep.join(sys.path))
            proc = subprocess.run([sys.executable, "-c", _DIGEST], env=env,
                                  capture_output=True, text=True,
                                  timeout=300)
            assert proc.returncode == 0, proc.stderr
            digests.add(proc.stdout.strip())
        assert len(digests) == 1 and len(digests.pop()) == 64


# ---------------------------------------------------------------------------
# The hypothesis differential: incremental == cold
# ---------------------------------------------------------------------------


@st.composite
def edits(draw):
    """A (base, edited) source pair differing in one statement."""
    n = draw(st.integers(min_value=4, max_value=10))
    k_base = draw(st.integers(min_value=1, max_value=9))
    k_edit = draw(st.integers(min_value=1, max_value=9))
    op = draw(st.sampled_from(["+", "-", "*"]))

    def program(k):
        return (f"integer a({n}), b({n})\n"
                f"forall (i=1:{n}) a(i) = i\n"
                f"b = a {op} {k}\n"
                f"b = b + cshift(a, 1)\n"
                "print *, sum(b)\n"
                "end\n")

    return program(k_base), program(k_edit)


@settings(max_examples=8, deadline=None)
@given(edits())
def test_incremental_equals_cold_after_edit(pair):
    """Warm the store on a base program, compile an edit through it,
    and require structural + bitwise agreement with a cold compile."""
    base, edited = pair
    with tempfile.TemporaryDirectory() as root:
        store = ArtifactStore(os.path.join(root, "store"))
        compile_inc(base, store)  # warm: the edit shares its prefix
        inc = compile_inc(edited, store)
        cold = compile_source(edited, cache=False, incremental=False)
        assert_same_run(cold, inc)
        # And a second, fully warm compile of the edit agrees too.
        warm = compile_inc(edited, store)
        assert_same_run(cold, warm)


# ---------------------------------------------------------------------------
# The admin surface: ArtifactStore.admin, the service op, the CLI
# ---------------------------------------------------------------------------


class TestAdminSurface:
    def test_cache_admin_stats_ls_purge(self, tmp_path):
        cache = ArtifactStore(str(tmp_path / "cc"))
        cache.compile(SOURCE)
        stats = cache.admin()
        assert stats["cache"]["entries"] == 1
        assert stats["store"]["kinds"]["exe"]["entries"] == 1
        listing = cache.admin("ls", kind="exe")
        assert len(listing["entries"]) == 1
        assert cache.admin("purge")["purged"] == 1
        assert cache.exe_stats()["entries"] == 0
        _exe, hit = cache.compile(SOURCE)
        assert not hit, "purge must also invalidate the memo tier"
        with pytest.raises(ValueError):
            cache.admin("defragment")

    def test_service_cache_op(self, tmp_path):
        cache = ArtifactStore(str(tmp_path / "cc"))
        resp = execute_request({"op": "compile", "source": SOURCE,
                                "incremental": True}, cache)
        assert resp["ok"], resp
        assert resp["pipeline"]["artifacts"]["front"] == "miss"
        resp = execute_request({"op": "cache"}, cache)
        assert resp["ok"]
        assert resp["store"]["entries"] > 0
        resp = execute_request({"op": "cache", "action": "purge"}, cache)
        assert resp["ok"] and resp["purged"] > 0
        resp = execute_request({"op": "cache", "action": "nope"}, cache)
        assert not resp["ok"]
        assert resp["error"]["type"] == "ValueError"

    def test_service_incremental_response_and_fingerprint(self, tmp_path):
        from repro.service.jobs import request_fingerprint

        plain = request_fingerprint({"op": "compile", "source": SOURCE})
        inc = request_fingerprint({"op": "compile", "source": SOURCE,
                                   "incremental": True})
        assert plain != inc and inc.endswith(":inc")

    def test_cli_cache_command(self, tmp_path, capsys):
        from repro.driver.cli import main

        root = str(tmp_path / "cc")
        cache = ArtifactStore(root)
        cache.compile(SOURCE)
        assert main(["cache", "stats", "--cache-dir", root,
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["store"]["kinds"]["exe"]["entries"] == 1
        assert main(["cache", "ls", "--cache-dir", root]) == 0
        assert "exe" in capsys.readouterr().out
        assert main(["cache", "purge", "--cache-dir", root]) == 0
        assert "purged 1" in capsys.readouterr().out

    def test_cli_incremental_flag(self, tmp_path, capsys, monkeypatch):
        from repro.driver.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cc"))
        src = tmp_path / "p.f90"
        src.write_text(SOURCE)
        assert main(["run", str(src), "--incremental"]) == 0
        capsys.readouterr()
        assert main(["cache", "stats"]) == 0
        out = capsys.readouterr().out
        assert "front" in out and "pass" in out
