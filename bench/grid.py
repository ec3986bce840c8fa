"""``grid512`` and ``grid32``: precompiled stencil programs, run only.

Three programs under three configs -- ``fast`` (cm2, the default engine),
``fused`` (cm2, the paper-headline engine) and ``host`` (the host target
on its own machine).  At 512x512 a run is a few dozen dispatches over
2 MB arrays; at 32x32 for 400 steps it is thousands of dispatches over
8 KB arrays, so the two sizes split bytes from per-call cost.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import random
import time

from repro import nir
from repro.backend.host import kernels as host_kernels
from repro.driver.compiler import CompilerOptions, compile_source
from repro.driver.reference import run_reference
from repro.frontend.parser import parse_program
from repro.machine import execplan
from repro.programs.kernels import heat_source, life_source
from repro.programs.swe import swe_source
from repro.runtime import cmrt
from repro.runtime.host import HostExecutor
from repro.targets import build_machine

from .harness import (Patches, Tracer, Workload, geomean,
                      matches_reference, summary)
from .metrics import CONFIGS

PAPER_GFLOPS = 2.99

# (program, generator, n, steps)
SIZES = {
    "grid512": (("swe", swe_source, 512, 8),
                ("heat", heat_source, 512, 16),
                ("life", life_source, 512, 8)),
    "grid32": (("swe", swe_source, 32, 400),
               ("heat", heat_source, 64, 400),
               ("life", life_source, 32, 400)),
}



class _RunLedger:
    """What one traced run spent where (seconds and counts)."""

    def __init__(self) -> None:
        self.exec_s = 0.0
        self.comm_s = 0.0
        self.comm_calls = 0
        self.comm_bytes = 0
        self.kernel_s = 0.0
        self.dispatches = 0


class _Probe(Patches):
    """Wraps the layer entry points of a run and feeds a ledger.

    ``cmrt.execute_comm``/``execute_reduce`` are looked up as module
    attributes by the host executor, so swapping the attribute is
    enough; ``HostExecutor.run`` is swapped on the class; the machine
    is a subclass made here whose ``call_routine``/``call_fused`` time
    themselves (``call_fused`` of one call re-enters ``call_routine``:
    only the outermost counts).
    """

    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer
        self.ledger = _RunLedger()
        self._classes: dict[type, type] = {}

    def __enter__(self) -> "_Probe":
        self.wrap(cmrt, "execute_comm", self._comm)
        self.wrap(cmrt, "execute_reduce", self._comm)
        self.wrap(HostExecutor, "run", self._executor_run)
        return self

    def _comm(self, inner):
        def timed(machine, evaluator, clause, *rest):
            t0 = time.perf_counter()
            try:
                return inner(machine, evaluator, clause, *rest)
            finally:
                t1 = time.perf_counter()
                led = self.ledger
                led.comm_s += t1 - t0
                led.comm_calls += 1
                if isinstance(clause.tgt, nir.AVar):   # not a reduction
                    led.comm_bytes += \
                        machine.home(clause.tgt.name).data.nbytes
                self.tracer.add(f"runtime.{inner.__name__}", t0, t1)
        return timed

    def _executor_run(self, inner):
        def timed(executor, program):
            span = self.tracer.begin("runtime.HostExecutor.run")
            try:
                return inner(executor, program)
            finally:
                self.ledger.exec_s += self.tracer.end(span)
        return timed

    def machine(self, plain):
        """A timing twin of ``plain`` (same class, model and engine)."""
        base = type(plain)
        cls = self._classes.get(base)
        if cls is None:
            cls = self._classes[base] = self._timed_class(base)
        return cls(plain.model, exec_mode=plain.exec_mode)

    def _timed_class(self, base: type) -> type:
        probe = self

        def timed(name):
            inner = getattr(base, name)

            def method(self, *args, **kwargs):
                if self._bench_busy:
                    return inner(self, *args, **kwargs)
                self._bench_busy = True
                t0 = time.perf_counter()
                try:
                    return inner(self, *args, **kwargs)
                finally:
                    t1 = time.perf_counter()
                    self._bench_busy = False
                    probe.ledger.kernel_s += t1 - t0
                    probe.ledger.dispatches += 1
                    probe.tracer.add(f"machine.{name}", t0, t1)
            return method

        return type(f"Timed{base.__name__}", (base,), {
            "_bench_busy": False,
            "call_routine": timed("call_routine"),
            "call_fused": timed("call_fused"),
        })


class _BuildTimer(Patches):
    """Times native kernel builds (emit + ``cc`` + dlopen) during set-up.

    ``try_native``/``retune`` are imported by name into the two modules
    that build kernels, so those bindings are what gets wrapped.
    """

    SITES = ((execplan, "try_native"), (host_kernels, "try_native"),
             (host_kernels, "retune"))

    def __init__(self) -> None:
        super().__init__()
        self.seconds = 0.0

    def __enter__(self) -> "_BuildTimer":
        for module, name in self.SITES:
            self.wrap(module, name, self._timed)
        return self

    def _timed(self, inner):
        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.seconds += time.perf_counter() - t0
        return timed


def _plain_machine(config: str):
    if config == "host":
        return build_machine("host")
    return build_machine("cm2", exec_mode=config)


def _frozen(arrays: dict) -> dict:
    """Arrays as (dtype, shape, bytes): what byte-identical compares."""
    return {name: (a.dtype, a.shape, a.tobytes())
            for name, a in arrays.items()}


def _same_bytes(got: dict, want: dict) -> bool:
    """``got`` (arrays) against ``want`` (from ``_frozen``)."""
    return (got.keys() == want.keys()
            and all((got[k].dtype, got[k].shape) == want[k][:2]
                    and got[k].tobytes() == want[k][2] for k in want))


class GridWorkload(Workload):
    def __init__(self, name: str, seed: int, quick: bool = False) -> None:
        super().__init__(name, seed, quick)
        self.programs = SIZES[name]
        self.sources: dict[str, str] = {}
        self.exes: dict[tuple[str, str], object] = {}
        self.first: dict[tuple[str, str], object] = {}   # RunResult
        self.steady: dict[tuple[str, str], dict] = {}    # fusion_summary
        self.oracle: dict[str, dict] = {}                # _frozen(interp)
        self.cells = {prog: n * n * steps
                      for prog, _gen, n, steps in self.programs}
        self.native_build_s = 0.0

    def inputs_digest(self) -> str:
        """What the seed decides: the order within a round (the programs
        are fixed)."""
        blob = repr((self._order(), sorted(self.sources.items())))
        return hashlib.sha256(blob.encode()).hexdigest()

    def _order(self) -> list[tuple[str, str]]:
        combos = [(prog[0], cfg) for prog in self.programs
                  for cfg in CONFIGS]
        random.Random(self.seed).shuffle(combos)
        return combos

    # -- set-up: sources, compiles, one run each (builds kernels) ---------

    def setup(self) -> None:
        with _BuildTimer() as builds:
            for prog, generate, n, steps in self.programs:
                source = self.sources[prog] = generate(n, steps)
                cm2 = compile_source(source, CompilerOptions(),
                                     cache=False, incremental=False)
                host = compile_source(source,
                                      CompilerOptions(target="host"),
                                      cache=False, incremental=False)
                for cfg in CONFIGS:
                    exe = host if cfg == "host" else cm2
                    self.exes[prog, cfg] = exe
                    first = exe.run(machine=_plain_machine(cfg))
                    first.arrays.clear()   # 40 MB each; the gate reruns
                    self.first[prog, cfg] = first
                    gc.collect()           # see _timed_run
        self.native_build_s = builds.seconds

    # -- correctness gate ---------------------------------------------------

    def gate(self) -> None:
        """Reference interpreter vs interp oracle vs the three configs."""
        for prog, _gen, _n, _steps in self.programs:
            ref = run_reference(parse_program(self.sources[prog]))
            oracle = self.exes[prog, "fast"].run(
                machine=build_machine("cm2", exec_mode="interp"))
            self.check(matches_reference(oracle.arrays, ref.arrays),
                       f"{prog}: interp differs from reference")
            self.oracle[prog] = _frozen(oracle.arrays)
            del oracle
            for cfg in CONFIGS:
                result = self.exes[prog, cfg].run(machine=_plain_machine(cfg))
                self.check(_same_bytes(result.arrays, self.oracle[prog]),
                           f"{prog}/{cfg}: arrays differ from interp")
                del result
                gc.collect()

    # -- measurement ----------------------------------------------------------

    def _timed_run(self, prog: str, cfg: str, probe: _Probe | None):
        """(seconds, ledger or None); the result is checked untimed."""
        exe = self.exes[prog, cfg]
        machine = _plain_machine(cfg)
        # Machines and results die in reference cycles; left to the
        # collector's own schedule, 40 MB of arrays per earlier run is
        # freed (and page-faulted back) in the middle of later runs.
        gc.collect()
        if probe is None:
            t0 = time.perf_counter()
            result = exe.run(machine=machine)
            secs = time.perf_counter() - t0
            ledger = None
        else:
            machine = probe.machine(machine)
            ledger = probe.ledger = _RunLedger()
            span = probe.tracer.begin(f"run:{prog}:{cfg}")
            result = exe.run(machine=machine)
            secs = probe.tracer.end(span)
        self.steady[prog, cfg] = result.machine.fusion_summary()
        want = self.first[prog, cfg].stats
        self.check(_same_bytes(result.arrays, self.oracle[prog])
                   and (cfg == "host"
                        or result.stats.total_cycles == want.total_cycles),
                   f"{prog}/{cfg}: timed run differs from gate run")
        return secs, ledger

    def measure(self, seconds: float, tracer: Tracer | None = None) -> dict:
        """Rounds over every program x config until ``seconds`` are up.

        Each round visits the nine combinations in the seeded order, so
        every combination samples the whole window evenly: this kind of
        box drifts between speed levels second by second, and a batch
        per combination would hand each one a different machine.
        """
        order = self._order()
        times: dict = {combo: [] for combo in order}
        ledgers: dict = {combo: [] for combo in order}
        probe = _Probe(tracer) if tracer is not None else None
        with probe or contextlib.nullcontext():
            deadline = time.perf_counter() + seconds
            rounds = 0
            while rounds < self.min_rounds or time.perf_counter() < deadline:
                for combo in order:
                    secs, ledger = self._timed_run(*combo, probe)
                    times[combo].append(secs)
                    ledgers[combo].append(ledger)
                rounds += 1
        return {"times": times, "ledgers": ledgers}

    # -- results ----------------------------------------------------------------

    def named_rows(self, measured: dict) -> tuple[dict, list[str]]:
        """ISSUE 11's end-to-end names for this workload, plus print lines.

        Rates come from the fastest round of each combination (see the
        README's calibration log: the median follows the box's speed
        drift, the minimum does not); the lines show both.
        """
        times = measured["times"]
        rows: dict[str, float] = {}
        lines = []
        for cfg in CONFIGS:
            per_prog = {}
            for prog, *_ in self.programs:
                s = summary(times[prog, cfg])
                best = min(times[prog, cfg])
                per_prog[prog] = self.cells[prog] / best / 1e6
                lines.append(
                    f"  {prog:<5}{cfg:<6} fastest {best * 1e3:8.2f} ms  "
                    f"median {s['median'] * 1e3:8.2f} "
                    f"[{s['q1'] * 1e3:.2f}, {s['q3'] * 1e3:.2f}] "
                    f"n={s['n']}  {per_prog[prog]:8.2f} Mcups")
            rows[f"run_{cfg}_mcups"] = geomean(per_prog.values())
        # The host model's "cycles" are calibrated nanoseconds of this
        # process, not simulation, so only the cm2 configs are summed.
        rows["sim_cycles_total"] = float(sum(
            self.first[prog, cfg].stats.total_cycles
            for prog, *_ in self.programs for cfg in ("fast", "fused")))
        gflops = rows["sim_gflops_swe"] = self.first["swe", "fused"].gflops()
        if self.name == "grid512":
            lines.append(f"  simulated SWE under fused: {gflops:.4f} GFLOPS; "
                         f"the paper reports {PAPER_GFLOPS} "
                         f"({(gflops / PAPER_GFLOPS - 1) * 100:+.1f}%)")
        return rows, lines

    def end_to_end(self, measured: dict) -> dict:
        best = {combo: min(ts) for combo, ts in measured["times"].items()}
        return {
            "work_per_s": geomean(self.cells[prog] / best[prog, cfg]
                                  for prog, cfg in best),
            "op_ms": geomean(b * 1e3 for b in best.values()),
        }

    def per_layer(self, traced: dict) -> dict:
        """Layer rows from the traced half: each combination's fastest
        round, split by layer and summed over the three programs."""
        out: dict[str, float] = {}
        fastest = {}
        for combo, ts in traced["times"].items():
            fastest[combo] = traced["ledgers"][combo][ts.index(min(ts))]
        for cfg in CONFIGS:
            leds = [fastest[prog, cfg] for prog, *_ in self.programs]
            comm = sum(led.comm_s for led in leds)
            kernel = sum(led.kernel_s for led in leds)
            calls = sum(led.comm_calls for led in leds)
            dispatches = sum(led.dispatches for led in leds)
            out[f"runtime.comm_ms.{cfg}"] = comm * 1e3
            out[f"machine.kernel_ms.{cfg}"] = kernel * 1e3
            out[f"runtime.dispatch_ms.{cfg}"] = \
                (sum(led.exec_s for led in leds) - comm - kernel) * 1e3
            out[f"runtime.comm_us_per_call.{cfg}"] = comm / calls * 1e6
            out[f"machine.kernel_us_per_dispatch.{cfg}"] = \
                kernel / dispatches * 1e6
            out[f"machine.dispatches.{cfg}"] = float(dispatches)
        one = [fastest[prog, "fast"] for prog, *_ in self.programs]
        out["runtime.comm_calls"] = float(sum(led.comm_calls for led in one))
        out["runtime.comm_bytes"] = float(sum(led.comm_bytes for led in one))
        # Builds happen in the set-up runs; the rest describe a steady run.
        out["machine.megakernel_builds"] = float(sum(
            r.machine.fusion_summary()["megakernel_builds"]
            for r in self.first.values()))
        for key in ("megakernel_hits", "stepwise_groups",
                    "host_native_dispatches", "host_blocked_dispatches"):
            out[f"machine.{key}"] = float(sum(
                f.get(key, 0) for f in self.steady.values()))
        out["machine.native_build_s"] = self.native_build_s
        cm2 = [self.first[prog, cfg].stats for prog, *_ in self.programs
               for cfg in ("fast", "fused")]
        for key in ("node", "call", "comm", "host"):
            out[f"machine.sim_{key}_cycles"] = float(sum(
                getattr(s, f"{key}_cycles") for s in cm2))
        out["machine.sim_flops"] = float(sum(s.flops for s in cm2))
        return out

    def facts(self, traced: dict) -> dict:
        """Checks on the layer split itself, from all traced rounds.

        ``coverage``: share of each config's ``exe.run`` wall inside the
        layer spans (``HostExecutor.run``: its self time plus comm plus
        kernels).  ``comm_kernel_share``: comm + kernels alone.
        ``comm_calls_per_step``: per program, the same at both sizes.
        """
        coverage, share = {}, {}
        for cfg in CONFIGS:
            leds = [led for prog, *_ in self.programs
                    for led in traced["ledgers"][prog, cfg]]
            wall = sum(sum(traced["times"][prog, cfg])
                       for prog, *_ in self.programs)
            coverage[cfg] = sum(led.exec_s for led in leds) / wall
            share[cfg] = sum(led.comm_s + led.kernel_s for led in leds) / wall
        per_step = {prog: traced["ledgers"][prog, "fast"][0].comm_calls / steps
                    for prog, _gen, _n, steps in self.programs}
        return {"coverage": coverage, "comm_kernel_share": share,
                "comm_calls_per_step": per_step}
