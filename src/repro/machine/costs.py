"""Cycle-cost model for the simulated CM/2.

All performance claims in the reproduction reduce to the constants here.
The anchor points come from the paper and from CM/2 folklore:

* "a single vector spill-restore pair costs 18 cycles — roughly
  equivalent to three single-precision floating point vector operations"
  (section 5.2) ⇒ one vector load or store = 9 cycles, one vector
  arithmetic operation = 6 cycles;
* "PEAC's support for load chaining also allows one in-memory operand to
  be substituted for a register operand" ⇒ a chained operand adds no
  issue slot;
* dual-issued loads/stores overlap with arithmetic ("accesses to CM
  memory to be overlapped with arithmetic operations") ⇒ a paired memory
  op costs max(arith, mem) instead of their sum;
* the CM/2 sequencer runs at 7 MHz and drives 2,048 slicewise PEs.

The *fieldwise* table models the execution environment of the hand-coded
\\*Lisp baseline: the same Weitek datapath reached through the bit-serial
fieldwise transposer — higher memory and issue costs, no chaining, no
multiply-add, and interpreted per-operation dispatch from the front end.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from functools import lru_cache


@dataclass(frozen=True)
class InstructionCosts:
    """Cycles per vector instruction (one four-element trip)."""

    arith: int = 6
    move: int = 6
    cmp: int = 6
    logic: int = 6
    select: int = 6
    iarith: int = 6
    fma: int = 6
    div: int = 24
    idiv: int = 24
    sqrt: int = 30
    trans: int = 60
    load: int = 9
    store: int = 9
    loop_overhead: int = 2  # decrement + jnz per trip

    def for_kind(self, kind: str) -> int:
        table = {
            "arith": self.arith,
            "arith1": self.arith,
            "move": self.move,
            "cmp": self.cmp,
            "logic": self.logic,
            "logic1": self.logic,
            "select": self.select,
            "iarith": self.iarith,
            "iarith1": self.iarith,
            "fma": self.fma,
            "div": self.div,
            "idiv": self.idiv,
            "sqrt": self.sqrt,
            "trans": self.trans,
            "load": self.load,
            "store": self.store,
        }
        try:
            return table[kind]
        except KeyError:
            raise KeyError(f"no cost for instruction kind {kind!r}") from None


@dataclass(frozen=True)
class CostModel:
    """Full machine cost model: node, network and host constants."""

    name: str = "cm2-slicewise"
    clock_hz: float = 7.0e6
    n_pes: int = 2048

    instr: InstructionCosts = field(default_factory=InstructionCosts)
    chaining: bool = True       # in-memory operands cost no extra slot
    dual_issue: bool = True     # paired mem op overlaps with arithmetic
    fma_supported: bool = True

    # Per-PEAC-call front-end overhead: sequencer dispatch plus one IFIFO
    # push per argument (pointers, scalars, vlen).
    call_dispatch: int = 450
    ififo_push: int = 30

    # Grid (NEWS) communication: per off-node element per PE, plus wire
    # latency per hop of PE-grid distance.
    grid_per_element: int = 40
    grid_latency: int = 300
    # General router: gathers, transposes, irregular copies.
    router_per_element: int = 260
    router_latency: int = 1200
    # Hypercube combine step for reductions/broadcast.
    hop_cycles: int = 120

    # Front-end (SPARC) costs, in node-clock cycles for a common budget.
    host_op: int = 6
    host_element_op: int = 60   # per element of serial array work

    def instruction_cycles(self, instr) -> int:
        """Issue cost of one instruction (with pairing and chaining)."""
        base = self.instr.for_kind(instr.kind)
        if not self.chaining and instr.has_chained_mem:
            # Without chaining the streamed operand needs its own load.
            base += self.instr.load
        if instr.paired is not None:
            mem = self.instr.for_kind(instr.paired.kind)
            if self.dual_issue:
                base = max(base, mem)
            else:
                base += mem
        return base

    def with_(self, **kwargs) -> "CostModel":
        return replace(self, **kwargs)


#: The canonical cost-model name → factory table.  The target registry
#: (:mod:`repro.targets`) resolves CLI/service ``model`` names through
#: this — an unknown name is an error there, never a silent fallback.
MODEL_FACTORIES: dict = {}


def _model(factory):
    MODEL_FACTORIES[factory.__name__.removesuffix("_model")] = factory
    return factory


def model_names() -> list[str]:
    """The registered cost-model names, in registration order."""
    return list(MODEL_FACTORIES)


@_model
def slicewise_model(n_pes: int = 2048) -> CostModel:
    """The CM/2 slicewise PE model (CM Fortran and Fortran-90-Y target)."""
    return CostModel(name="cm2-slicewise", n_pes=n_pes)


@_model
def fieldwise_model(n_pes: int = 2048) -> CostModel:
    """The fieldwise execution model of the hand-coded \\*Lisp baseline.

    Memory traffic moves through the bit-serial transposer (slower loads
    and stores), there is no load chaining, no overlap and no chained
    multiply-add, and every elemental operation is dispatched separately
    by the interpreting front end.
    """
    return CostModel(
        name="cm2-fieldwise",
        n_pes=n_pes,
        instr=InstructionCosts(
            # Arithmetic goes through the same Weitek datapath as
            # slicewise mode (same per-op cost); memory, however, moves
            # through all 32 bit-serial processors' memories at once, so
            # fieldwise loads/stores are *cheaper* per element than the
            # slicewise word-serial path.  The structural losses are that
            # every elemental operation is its own load-op-store sweep,
            # with no chaining, no overlap and no chained multiply-add.
            arith=6,
            move=6,
            cmp=6,
            logic=6,
            select=6,
            iarith=6,
            fma=12,          # synthesized from mul + add
            div=24,
            idiv=24,
            sqrt=30,
            trans=60,
            load=4,
            store=4,
            loop_overhead=1,
        ),
        chaining=False,
        dual_issue=False,
        fma_supported=False,
        # Fieldwise elemental operations are direct microcoded sequencer
        # broadcasts, not IFIFO-marshalled PEAC subroutine calls, so the
        # per-operation dispatch is far cheaper than a compiled call.
        call_dispatch=120,
        ififo_push=8,
        grid_per_element=40,
        grid_latency=300,
    )


@_model
def cm5_model(n_nodes: int = 256) -> CostModel:
    """A first-order CM/5 model: SPARC nodes with four vector datapaths.

    The CM/5 runs at 32 MHz with fat-tree connectivity; vector units give
    each node roughly the throughput of several CM/2 PEs.  Only relative
    behaviour matters here (the retargeting experiment, section 5.3.1).
    """
    return CostModel(
        name="cm5",
        clock_hz=32.0e6,
        n_pes=n_nodes,
        instr=InstructionCosts(
            arith=8, move=8, cmp=8, logic=8, select=8, iarith=8,
            fma=8, div=26, idiv=26, sqrt=30, trans=56,
            load=10, store=10, loop_overhead=2,
        ),
        call_dispatch=700,    # message-dispatched node program start
        ififo_push=24,
        grid_per_element=30,  # fat-tree nearest-neighbour
        grid_latency=500,
        router_per_element=160,
        router_latency=1600,
        hop_cycles=150,
    )


# -- the host model: measured, not simulated --------------------------------

#: Fallback constants (nanoseconds) when the timer resolves to zero.
#: They match a commodity x86 core running memory-bound float64 ufuncs.
_HOST_CANNED = {
    "arith": 1.0, "div": 4.0, "sqrt": 5.0, "trans": 20.0,
    "cmp": 1.0, "copy": 0.8, "roll": 1.5, "call": 1200.0,
}


def _best_ns(fn, reps: int = 3) -> float:
    """Minimum wall-clock nanoseconds over ``reps`` invocations."""
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e9


@lru_cache(maxsize=1)
def _host_calibration() -> dict:
    """Per-operation nanosecond costs of the CPU actually running us.

    Measured once per process (the cache makes every host machine in a
    process share one deterministic table, so :class:`RunStats` stay
    identical across reruns and exec engines).  A test that needs
    cycles stable across processes patches this function to return
    :data:`_HOST_CANNED`.
    """
    import numpy as np

    n = 1 << 16
    a = np.linspace(0.1, 1.9, n)
    b = np.linspace(1.1, 2.9, n)
    out = np.empty(n)
    small = np.ones(16)
    sout = np.empty(16)
    probes = {
        "arith": lambda: np.add(a, b, out=out),
        "div": lambda: np.divide(a, b, out=out),
        "sqrt": lambda: np.sqrt(a, out=out),
        "trans": lambda: np.sin(a, out=out),
        "cmp": lambda: np.less(a, b, out=np.empty(n, dtype=bool)),
        "copy": lambda: np.copyto(out, a),
        "roll": lambda: np.copyto(out, np.roll(a, 1)),
    }
    table = {}
    for key, fn in probes.items():
        fn()  # warm the code path before timing
        ns = _best_ns(fn) / n
        table[key] = ns if ns > 0 else _HOST_CANNED[key]
    # Per-call dispatch overhead: a ufunc on a tiny array is almost
    # entirely numpy/Python call machinery.
    np.add(small, small, out=sout)
    call = _best_ns(lambda: np.add(small, small, out=sout), reps=5)
    table["call"] = call if call > 0 else _HOST_CANNED["call"]
    return table


def _trip(ns_per_element: float) -> int:
    """ns/element → whole cycles per four-element trip at 1 GHz."""
    return max(1, round(ns_per_element * 4))


@_model
def host_model(n_pes: int = 1) -> CostModel:
    """The native-host model: one cycle is one measured nanosecond.

    Unlike the CM models there are no simulated Weitek cycles — the
    instruction table is calibrated from a micro-benchmark of the CPU
    the process is running on (:func:`_host_calibration`), the clock is
    1 GHz so reported cycles read directly as nanoseconds, and the
    default geometry is a single "PE" (the whole array is one virtual
    subgrid streamed through cache-blocked kernels).
    """
    cal = _host_calibration()
    arith = _trip(cal["arith"])
    mem = _trip(cal["copy"])
    return CostModel(
        name="host",
        clock_hz=1.0e9,
        n_pes=n_pes,
        instr=InstructionCosts(
            arith=arith, move=mem, cmp=_trip(cal["cmp"]),
            logic=_trip(cal["cmp"]), select=3 * mem,
            iarith=arith, fma=2 * arith,
            div=_trip(cal["div"]), idiv=_trip(cal["div"]),
            sqrt=_trip(cal["sqrt"]), trans=_trip(cal["trans"]),
            load=mem, store=mem, loop_overhead=1,
        ),
        chaining=True,       # a memory operand is just another ufunc arg
        dual_issue=False,    # numpy passes do not overlap
        fma_supported=True,
        call_dispatch=max(1, round(cal["call"])),
        ififo_push=max(1, round(cal["call"] / 40)),
        grid_per_element=_trip(cal["roll"]),
        grid_latency=max(1, round(cal["call"])),
        router_per_element=4 * _trip(cal["roll"]),
        router_latency=2 * max(1, round(cal["call"])),
        hop_cycles=max(1, round(cal["call"] / 4)),
        host_op=10,
        host_element_op=max(1, round(cal["arith"] * 20)),
    )
