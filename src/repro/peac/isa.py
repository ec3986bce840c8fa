"""PEAC — Processing Element Assembly Code — instruction set.

PEAC is "the programming language designed by the CM Fortran group for
this PE abstraction ... PEAC allows the Weitek chip to be programmed as
a four-wide vector processor; it also allows accesses to CM memory to be
overlapped with arithmetic operations, and supports the Weitek chained
multiply-add instruction" (section 2.2).

The concrete syntax follows Figure 12::

    Pk51vs1_
        flodv [aP7+0]1++ aV3
        fsubv aV3 [aP4+0]1++ aV1      ; chained in-memory operand
        fmulv aS28 aV1 aV3, flodv [aP8+0]1++ aV4   ; dual issue
        ...
        jnz ac2 Pk51vs1_

Register classes: ``aV`` four-wide vector registers (the scarce
resource), ``aS`` scalar broadcast registers, ``aP`` subgrid pointer
registers with post-increment addressing, ``ac`` loop counters.
"""

from __future__ import annotations

from dataclasses import dataclass

NUM_VREGS = 8     # Weitek WTL3164: 32 words = 8 four-wide vector registers
NUM_SREGS = 32    # scalar broadcast registers (allocated from the top down)
NUM_PREGS = 16    # subgrid pointer registers
NUM_CREGS = 4     # loop counters; ac2 is the virtual-subgrid trip counter

VECTOR_WIDTH = 4  # elements processed per vector instruction


class PeacError(Exception):
    """Raised on malformed PEAC instructions or operand misuse."""


# ---------------------------------------------------------------------------
# Operands
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Operand:
    """Base class for PEAC operands."""


@dataclass(frozen=True)
class VReg(Operand):
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n < NUM_VREGS:
            raise PeacError(f"vector register aV{self.n} out of range")

    def __str__(self) -> str:
        return f"aV{self.n}"


@dataclass(frozen=True)
class SReg(Operand):
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n < NUM_SREGS:
            raise PeacError(f"scalar register aS{self.n} out of range")

    def __str__(self) -> str:
        return f"aS{self.n}"


@dataclass(frozen=True)
class PReg(Operand):
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n < NUM_PREGS:
            raise PeacError(f"pointer register aP{self.n} out of range")

    def __str__(self) -> str:
        return f"aP{self.n}"


@dataclass(frozen=True)
class CReg(Operand):
    n: int

    def __post_init__(self) -> None:
        if not 0 <= self.n < NUM_CREGS:
            raise PeacError(f"counter register ac{self.n} out of range")

    def __str__(self) -> str:
        return f"ac{self.n}"


@dataclass(frozen=True)
class Mem(Operand):
    """A streaming memory operand ``[aPn+off]1++`` (post-increment)."""

    preg: PReg
    offset: int = 0
    incr: int = 1

    def __str__(self) -> str:
        return f"[{self.preg}+{self.offset}]{self.incr}++"


@dataclass(frozen=True)
class Imm(Operand):
    """An immediate constant (sequencer-broadcast literal)."""

    value: float

    def __str__(self) -> str:
        if float(self.value).is_integer():
            return f"#{int(self.value)}"
        return f"#{self.value!r}"


@dataclass(frozen=True)
class LabelRef(Operand):
    name: str

    def __str__(self) -> str:
        return self.name


# ---------------------------------------------------------------------------
# Opcodes
# ---------------------------------------------------------------------------

# opcode -> (n_operands, kind)
# Vector arithmetic writes its last operand; loads/stores stream memory.
OPCODES: dict[str, tuple[int, str]] = {
    # memory
    "flodv": (2, "load"),      # flodv <mem> <vreg>
    "fstrv": (2, "store"),     # fstrv <vreg> <mem>
    # moves
    "fmovv": (2, "move"),      # fmovv <src> <vreg>
    # arithmetic: <a> <b> <dst>
    "faddv": (3, "arith"),
    "fsubv": (3, "arith"),
    "fmulv": (3, "arith"),
    "fdivv": (3, "div"),
    "fminv": (3, "arith"),
    "fmaxv": (3, "arith"),
    "fmodv": (3, "div"),
    "fpowv": (3, "trans"),
    # chained multiply-add: dst = a*b + c
    "fmav": (4, "fma"),
    "fmsv": (4, "fma"),        # dst = a*b - c
    # unary: <a> <dst>
    "fnegv": (2, "arith1"),
    "fabsv": (2, "arith1"),
    "fsqrtv": (2, "sqrt"),
    "finvv": (2, "div"),
    "fsinv": (2, "trans"),
    "fcosv": (2, "trans"),
    "ftanv": (2, "trans"),
    "fasinv": (2, "trans"),
    "facosv": (2, "trans"),
    "fatanv": (2, "trans"),
    "fexpv": (2, "trans"),
    "flogv": (2, "trans"),
    "flog10v": (2, "trans"),
    "ffloorv": (2, "arith1"),
    "fceilv": (2, "arith1"),
    # conversions
    "fintv": (2, "arith1"),    # float -> integer
    "ffltv": (2, "arith1"),    # integer -> float (single)
    "fdblv": (2, "arith1"),    # integer/single -> double
    # comparisons (produce an all-ones/zero mask): <a> <b> <dst>
    "fceqv": (3, "cmp"),
    "fcnev": (3, "cmp"),
    "fcltv": (3, "cmp"),
    "fclev": (3, "cmp"),
    "fcgtv": (3, "cmp"),
    "fcgev": (3, "cmp"),
    # logical / mask ops
    "candv": (3, "logic"),
    "corv": (3, "logic"),
    "cxorv": (3, "logic"),
    "cnotv": (2, "logic1"),
    # masked select: fselv <mask> <true_val> <false_val> <dst>
    "fselv": (4, "select"),
    # integer vector arithmetic
    "iaddv": (3, "iarith"),
    "isubv": (3, "iarith"),
    "imulv": (3, "iarith"),
    "idivv": (3, "idiv"),
    "imodv": (3, "idiv"),
    "inegv": (2, "iarith1"),
    # control
    "jnz": (2, "branch"),      # jnz <creg> <label>
}

FLOP_KINDS = {
    "arith": 1, "arith1": 1, "div": 1, "sqrt": 1, "trans": 1, "fma": 2,
}
"""Floating-point operations per *element* for each instruction kind.
Counts follow the SWE convention: adds, subtracts, multiplies, divides
and library functions each count one flop per element; the chained
multiply-add counts two."""


@dataclass(frozen=True)
class Instr:
    """One PEAC instruction, optionally dual-issued with a memory op.

    ``paired`` holds a load/store issued in the same cycle slot (the
    "overlapped" memory access of Figure 12's optimized encoding).
    """

    op: str
    operands: tuple[Operand, ...]
    paired: "Instr | None" = None

    def __post_init__(self) -> None:
        if self.op not in OPCODES:
            raise PeacError(f"unknown opcode {self.op!r}")
        want, kind = OPCODES[self.op]
        if len(self.operands) != want:
            raise PeacError(
                f"{self.op} expects {want} operands, got {len(self.operands)}")
        mem_ops = sum(isinstance(o, Mem) for o in self.operands)
        if kind in ("arith", "div", "cmp", "logic", "fma", "select",
                    "iarith", "idiv") and mem_ops > 1:
            raise PeacError(
                f"{self.op}: at most one chained in-memory operand")
        if self.paired is not None:
            if OPCODES[self.paired.op][1] not in ("load", "store"):
                raise PeacError("only loads/stores may be dual-issued")
            if self.paired.paired is not None:
                raise PeacError("dual-issue pairs cannot nest")

    @property
    def kind(self) -> str:
        return OPCODES[self.op][1]

    @property
    def dest(self) -> Operand | None:
        """The operand written by this instruction, if any."""
        if self.kind in ("store", "branch"):
            return None
        return self.operands[-1]

    @property
    def sources(self) -> tuple[Operand, ...]:
        if self.kind == "store":
            return (self.operands[0],)
        if self.kind == "branch":
            return (self.operands[0],)
        return self.operands[:-1]

    @property
    def has_chained_mem(self) -> bool:
        """True when an arithmetic source streams directly from memory."""
        if self.kind in ("load", "store"):
            return False
        return any(isinstance(o, Mem) for o in self.sources)

    def __str__(self) -> str:
        text = f"{self.op} " + " ".join(str(o) for o in self.operands)
        if self.paired is not None:
            text += ", " + str(self.paired)
        return text


@dataclass(frozen=True)
class ParamSpec:
    """A formal parameter of a PEAC routine, filled over the IFIFO.

    kinds:

    * ``subgrid``  — pointer to the PE's local subgrid of an array
      (binds a pointer register),
    * ``coord``    — pointer to a runtime-materialized coordinate subgrid
      ``(shape_key, axis)``,
    * ``halo``     — pointer to a neighbour-shifted ghost view of an
      array's subgrid (the §5.3.2 neighborhood model); binding it
      performs the boundary exchange,
    * ``scalar``   — a front-end scalar broadcast into a scalar register,
    * ``vlen``     — the virtual subgrid length (binds the trip counter).
    """

    kind: str
    name: str
    reg: Operand
    meta: tuple = ()

    def __post_init__(self) -> None:
        if self.kind not in ("subgrid", "coord", "halo", "scalar",
                             "vlen"):
            raise PeacError(f"unknown parameter kind {self.kind!r}")


@dataclass(frozen=True)
class Routine:
    """A complete PEAC routine: one virtual subgrid loop.

    ``body`` is the loop body (executed once per four-element trip);
    the closing ``jnz ac2 <label>`` back edge is implicit in ``label``.
    Frozen, with tuple ``params`` and ``body``: its plan holds for its
    whole life, and a changed routine is a new one.
    """

    name: str
    params: tuple[ParamSpec, ...] = ()
    body: tuple[Instr, ...] = ()
    spill_slots: int = 0  # per-call PE scratch streams, bound from aP15 down
    dtype: str = "float64"  # element dtype of the routine's spill scratch

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "body", tuple(self.body))

    def __getstate__(self) -> dict:
        """Pickle without the plan :func:`repro.machine.plan.get_plan`
        keeps in ``_plan``: it is built again on first use."""
        state = dict(self.__dict__)
        state.pop("_plan", None)
        return state

    @property
    def label(self) -> str:
        return f"{self.name}_"

    def instruction_count(self) -> int:
        """Issue slots in the loop body (a dual-issue pair is one slot)."""
        return len(self.body)

    def memory_refs(self) -> int:
        """Total loads/stores per trip, however issued."""
        refs = 0
        for instr in self.body:
            refs += sum(isinstance(o, Mem) for o in instr.operands)
            if instr.paired is not None:
                refs += sum(isinstance(o, Mem)
                            for o in instr.paired.operands)
        return refs
