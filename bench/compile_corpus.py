"""``compile_corpus``: cold compiles and the store's read and write paths.

Nothing is run while timing, so only the compiler layers and
``service.store``/``service.cache`` do work.  Reads sit beside writes:
a faster ``get`` paid for by a slower ``put`` shows in the same round.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import random
import shutil
import tempfile
import time

from repro.driver.compiler import CompilerOptions, compile_source
from repro.driver.reference import run_reference
from repro.frontend.directives import parse_layout_directives
from repro.frontend.lexer import tokenize
from repro.frontend.parser import parse_program
from repro.lowering import check_program, lower_program
from repro.pipeline.manager import ir_size
from repro.programs.kernels import ALL_KERNELS
from repro.programs.swe import swe_source
from repro.runtime.host import format_host_program
from repro.service.cache import CompileCache, cache_key
from repro.service.store import ArtifactStore
from repro.targets import get_target
from repro.transform import Options as TransformOptions
from repro.transform import optimize

from .harness import (Patches, Tracer, Workload, geomean,
                      matches_reference, median)
from .metrics import PASSES, TARGETS

STORE_PROGRAMS = ("swe", "redblack")
STAGES = ("parse", "lower", "check", "optimize", "backend")


def _fingerprint(exe) -> tuple:
    return (format_host_program(exe.host_program),
            exe.partition.node_instructions)


def _ast_nodes(unit) -> int:
    count = 0
    stack = [unit]
    while stack:
        node = stack.pop()
        if dataclasses.is_dataclass(node) and not isinstance(node, type):
            count += 1
            stack.extend(getattr(node, f.name)
                         for f in dataclasses.fields(node))
        elif isinstance(node, (tuple, list)):
            stack.extend(node)
    return count


class _StoreTimer(Patches):
    """Times ``ArtifactStore.put/get/head`` while the store phases run."""

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
        self.seconds = {"put": 0.0, "get": 0.0, "head": 0.0}

    def __enter__(self) -> "_StoreTimer":
        for name in self.seconds:
            self.wrap(ArtifactStore, name, self._timed)
        return self

    def _timed(self, inner):
        name = inner.__name__

        def timed(store, *args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(store, *args, **kwargs)
            finally:
                t1 = time.perf_counter()
                self.seconds[name] += t1 - t0
                self.tracer.add(f"store.{name}", t0, t1)
        return timed


class CompileCorpusWorkload(Workload):
    def __init__(self, name: str, seed: int, quick: bool = False) -> None:
        super().__init__(name, seed, quick)
        self.sources: dict[str, str] = {}
        self.expected: dict[tuple[str, str], tuple] = {}   # _fingerprint
        self.shape: dict[str, float] = {}     # deterministic counts
        self._counted: set[tuple[str, str]] = set()
        self.base = CompilerOptions()
        self.tail_edit = dataclasses.replace(
            self.base, transform=TransformOptions(recheck=False))

    def inputs_digest(self) -> str:
        blob = repr((self._order(), sorted(self.sources.items()),
                     self._shift_line()))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _order(self) -> list[tuple[str, str]]:
        combos = [(prog, target) for prog in self.sources
                  for target in TARGETS]
        random.Random(self.seed).shuffle(combos)
        return combos

    def _shift_line(self) -> str:
        nonce = random.Random(self.seed).getrandbits(32)
        return f"! line-shift edit {nonce:08x}\n"

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        for prog, generate in ALL_KERNELS.items():
            self.sources[prog] = generate()
        self.sources["swe"] = swe_source(512, 8)
        for prog, source in self.sources.items():
            for target in TARGETS:
                exe = compile_source(source, CompilerOptions(target=target),
                                     cache=False, incremental=False)
                self.expected[prog, target] = _fingerprint(exe)

    # -- correctness gate -------------------------------------------------------

    def gate(self) -> None:
        """Every program x target runs to the reference's arrays."""
        for prog, source in self.sources.items():
            ref = run_reference(parse_program(source))
            for target in TARGETS:
                exe = compile_source(source, CompilerOptions(target=target),
                                     cache=False, incremental=False)
                self.check(
                    matches_reference(exe.run().arrays, ref.arrays),
                    f"{prog}/{target}: differs from reference")

    # -- cold compiles ------------------------------------------------------------

    def _cold(self, prog: str, target: str) -> float:
        options = CompilerOptions(target=target)
        t0 = time.perf_counter()
        exe = compile_source(self.sources[prog], options,
                             cache=False, incremental=False)
        secs = time.perf_counter() - t0
        self.check(_fingerprint(exe) == self.expected[prog, target],
                   f"{prog}/{target}: cold compile changed its output")
        return secs

    def _staged(self, prog: str, target: str, tracer: Tracer) -> dict:
        """The stages of ``compile_unit`` called one by one, each a span.

        ``parse_program`` tokenizes internally; the lexer is timed on its
        own beside it and ``frontend.parse_ms`` is the difference.
        """
        source = self.sources[prog]
        options = CompilerOptions(target=target)
        out: dict[str, float] = {}
        root = tracer.begin(f"compile:{prog}:{target}")

        def stage(name, fn, *args, **kwargs):
            span = tracer.begin(name)
            value = fn(*args, **kwargs)
            out[name] = tracer.end(span)
            return value

        tokens = stage("lex", tokenize, source)
        unit = stage("parse", parse_program, source)
        lowered = stage("lower", lower_program, unit)
        stage("check", check_program, lowered.nir, lowered.env)
        transformed = stage("optimize", optimize, lowered,
                            options.transform, verify=False)
        backend = get_target(target).compiler()(
            transformed.env, options=options.backend,
            layouts=parse_layout_directives(source))
        program = stage("backend", backend.compile_program, transformed.nir)
        tracer.end(root)
        for timing in transformed.trace.passes:
            if timing.enabled:
                out[f"pass.{timing.name}"] = timing.seconds
        self.check((format_host_program(program),
                    backend.report.node_instructions)
                   == self.expected[prog, target],
                   f"{prog}/{target}: staged compile changed its output")
        if (prog, target) not in self._counted:
            self._counted.add((prog, target))
            ran = [t for t in transformed.trace.passes if t.enabled]
            report = backend.report
            for key, value in (
                    ("frontend.tokens", len(tokens)),
                    ("frontend.ast_nodes", _ast_nodes(unit)),
                    ("lowering.nir_nodes", ir_size(lowered.nir.body)),
                    ("transform.nir_nodes_out", ran[-1].ir_after),
                    ("backend.compute_blocks", report.compute_blocks),
                    ("backend.comm_phases", report.comm_phases),
                    ("backend.serial_moves", report.serial_moves),
                    ("backend.routines", len(program.routines))):
                self.shape[key] = self.shape.get(key, 0.0) + value
        return out

    # -- store phases ---------------------------------------------------------------

    def _store_round(self, prog: str, phases: dict, counts: dict) -> None:
        """Fill, memo hit, warm disk hit, tail edit, line-shift edit."""
        source = self.sources[prog]
        want = self.expected[prog, "cm2"]
        root = tempfile.mkdtemp(prefix="store-")
        try:
            cache = CompileCache(root)
            t0 = time.perf_counter()
            exe, hit = cache.compile(source, self.base, incremental=True)
            phases["fill"][prog].append(time.perf_counter() - t0)
            self.check(not hit and _fingerprint(exe) == want,
                       f"{prog}: store fill")
            stats = cache.store.stats()
            counts["store.objects"][prog] = stats["entries"]
            counts["store.bytes_written"][prog] = stats["bytes"]
            counts["cache.entry_bytes"][prog] = os.path.getsize(os.path.join(
                cache.objects, f"{cache_key(source, self.base)}.exe.pkl"))

            t0 = time.perf_counter()
            exe, hit = cache.compile(source, self.base, incremental=True)
            phases["memo"][prog].append(time.perf_counter() - t0)
            self.check(hit and cache.memo_hits == 1, f"{prog}: memo hit")

            fresh = CompileCache(root)   # empty memo: pays the unpickle
            t0 = time.perf_counter()
            exe, hit = fresh.compile(source, self.base, incremental=True)
            phases["warm_disk"][prog].append(time.perf_counter() - t0)
            self.check(hit and fresh.memo_hits == 0
                       and _fingerprint(exe) == want,
                       f"{prog}: warm disk hit")

            for phase, text, options in (
                    ("tail", source, self.tail_edit),
                    ("shift", self._shift_line() + source, self.base)):
                store = ArtifactStore(root)
                t0 = time.perf_counter()
                exe = compile_source(text, options, cache=False,
                                     incremental=True, store=store)
                phases[phase][prog].append(time.perf_counter() - t0)
                arts = exe.transformed.trace.artifacts
                tail_ok = phase != "tail" or (
                    arts["front"] == "hit" and arts["passes"]["hits"] > 0)
                self.check(tail_ok and _fingerprint(exe) == want,
                           f"{prog}: {phase} edit recompile")
                counts["hits"][prog, phase] = {
                    "front": int(arts["front"] == "hit"),
                    "pass": arts["passes"]["hits"],
                    "backend": int(arts["backend"] == "hit"),
                    "phase": arts["phases"]["hits"],
                    "passes_run": arts["passes"]["misses"],
                }
        finally:
            shutil.rmtree(root, ignore_errors=True)

    # -- measurement ------------------------------------------------------------------

    def measure(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Rounds until ``seconds`` are up; a round is the 36 cold
        compiles, then the store phases on both store programs, so both
        halves sample the same stretch of (drifting) machine speed."""
        order = self._order()
        cold: dict = {combo: [] for combo in order}
        staged: dict = {combo: [] for combo in order}
        phases = {name: {prog: [] for prog in STORE_PROGRAMS}
                  for name in ("fill", "memo", "warm_disk", "tail", "shift")}
        counts = {"store.objects": {}, "store.bytes_written": {},
                  "cache.entry_bytes": {}, "hits": {}}
        store_times: list[dict] = []
        deadline = time.perf_counter() + seconds
        rounds = 0
        while rounds < self.min_rounds or time.perf_counter() < deadline:
            for combo in order:
                cold[combo].append(self._cold(*combo))
                if tracer is not None:
                    staged[combo].append(self._staged(*combo, tracer))
            if tracer is None:
                for prog in STORE_PROGRAMS:
                    self._store_round(prog, phases, counts)
            else:
                with _StoreTimer(tracer) as timer:
                    span = tracer.begin("store_round")
                    for prog in STORE_PROGRAMS:
                        self._store_round(prog, phases, counts)
                    tracer.end(span)
                store_times.append(timer.seconds)
            rounds += 1
        verify = self._verify_cost() if tracer is not None else None
        return {"rounds": rounds, "cold": cold, "staged": staged,
                "phases": phases, "counts": counts,
                "store_times": store_times, "verify": verify}

    def _verify_cost(self) -> float:
        """ms the verifier adds to one cm2 pass over the corpus."""
        def one_pass(verify: bool) -> float:
            t0 = time.perf_counter()
            for source in self.sources.values():
                compile_source(source, CompilerOptions(verify=verify),
                               cache=False, incremental=False)
            return time.perf_counter() - t0
        on = min(one_pass(True) for _ in range(self.min_rounds))
        off = min(one_pass(False) for _ in range(self.min_rounds))
        return (on - off) * 1e3

    # -- results ------------------------------------------------------------------------

    # Every timing below is the fastest round (see the README's
    # calibration log: the median follows the box's speed drift, the
    # minimum does not); the printed lines carry the medians beside it.

    @staticmethod
    def _phase_ms(phases: dict, name: str) -> float:
        return geomean(min(ts) * 1e3 for ts in phases[name].values())

    def named_rows(self, measured: dict) -> tuple[dict, list[str]]:
        cold = {combo: min(ts) * 1e3
                for combo, ts in measured["cold"].items()}
        rows = {
            "compile_cold_ms": geomean(cold.values()),
            "compile_warm_disk_ms": self._phase_ms(measured["phases"],
                                                   "warm_disk"),
            "recompile_tail_ms": self._phase_ms(measured["phases"], "tail"),
            "recompile_shift_ms": self._phase_ms(measured["phases"],
                                                 "shift"),
            "peac_instrs": float(sum(
                instrs for _program, instrs in self.expected.values())),
        }
        lines = []
        for prog in self.sources:
            cells = "  ".join(
                f"{t} {cold[prog, t]:6.2f} "
                f"({median(measured['cold'][prog, t]) * 1e3:.2f})"
                for t in TARGETS)
            lines.append(f"  {prog:<10} cold ms fastest (median)  {cells}  "
                         f"n={len(measured['cold'][prog, TARGETS[0]])}")
        for prog in STORE_PROGRAMS:
            cells = "  ".join(
                f"{name} {min(ts[prog]) * 1e3:.2f} "
                f"({median(ts[prog]) * 1e3:.2f})"
                for name, ts in measured["phases"].items())
            hits = measured["counts"]["hits"][prog, "shift"]
            lines.append(
                f"  {prog:<10} store ms {cells}  "
                f"n={len(measured['phases']['fill'][prog])}  "
                f"(line-shift edit reran {hits['passes_run']} passes)")
        return rows, lines

    def end_to_end(self, measured: dict) -> dict:
        rows, _ = self.named_rows(measured)
        return {
            "work_per_s": 1000.0 / rows["compile_cold_ms"],
            "op_ms": geomean([rows["compile_warm_disk_ms"],
                              rows["recompile_tail_ms"],
                              rows["recompile_shift_ms"]]),
        }

    def per_layer(self, traced: dict) -> dict:
        """ms for one pass over the 36 compiles, by stage (sums of the
        per program x target fastest rounds), and per store round."""
        staged = traced["staged"]

        def total(key: str, only_target: str | None = None) -> float:
            return sum(min(s.get(key, 0.0) for s in runs) * 1e3
                       for (prog, target), runs in staged.items()
                       if only_target in (None, target))

        whole = sum(min(ts) * 1e3 for ts in traced["cold"].values())
        stages = {name: total(name) for name in STAGES}
        lex = total("lex")
        out = {
            "frontend.lex_ms": lex,
            "frontend.parse_ms": stages["parse"] - lex,
            "lowering.lower_ms": stages["lower"],
            "lowering.check_ms": stages["check"],
            "transform.optimize_ms": stages["optimize"],
            "driver.glue_ms": whole - sum(stages.values()),
            "analysis.verify_ms": traced["verify"],
        }
        for name in PASSES:
            out[f"transform.{name}_ms"] = total(f"pass.{name}")
        for target in TARGETS:
            out[f"backend.{target}_ms"] = total("backend", target)
        out.update(self.shape)

        phases, counts = traced["phases"], traced["counts"]
        for key in ("put", "get", "head"):
            out[f"store.{key}_ms"] = min(
                t[key] for t in traced["store_times"]) * 1e3
        for key in ("store.objects", "store.bytes_written",
                    "cache.entry_bytes"):
            out[key] = float(sum(counts[key].values()))
        for kind in ("front", "pass", "phase", "backend"):
            out[f"store.{kind}_hits"] = float(sum(
                hits[kind] for hits in counts["hits"].values()))
        out["cache.memo_hit_ms"] = self._phase_ms(phases, "memo")
        out["cache.disk_hit_ms"] = self._phase_ms(phases, "warm_disk")
        out["cache.fill_ms"] = self._phase_ms(phases, "fill")
        return out

    def facts(self, traced: dict) -> dict:
        """``coverage``: share of ``compile_source`` wall inside the
        staged calls (fastest rounds)."""
        whole = sum(min(ts) for ts in traced["cold"].values())
        inside = sum(min(sum(s[name] for name in STAGES) for s in runs)
                     for runs in traced["staged"].values())
        return {"coverage": {"compile": inside / whole}}
