"""Slicewise processing-element executor for PEAC routines.

The CM is SIMD: every PE runs the same virtual subgrid loop over its
block of data.  The simulator therefore executes each PEAC instruction
once over the *concatenation of all subgrids* (a flat numpy array) —
semantically identical to per-element execution because subgrid loops
are restricted to pointwise-local, streaming references — and charges
cycles analytically: ``cycles_per_trip × ceil(vlen / 4)`` on the PE with
the largest subgrid (all PEs run in lockstep, so the fullest PE sets the
pace).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..peac.isa import (
    FLOP_KINDS,
    Imm,
    Instr,
    Mem,
    PReg,
    Routine,
    SReg,
    VReg,
)
from .costs import CostModel


class ExecutionError(Exception):
    """Raised when a routine misuses registers or streams."""


@dataclass
class SubgridStream:
    """A streaming memory operand: a (possibly strided) view of an array.

    Loads snapshot the current contents; stores write through to the
    underlying global array immediately, preserving the element-wise
    program order of the virtual subgrid loop.
    """

    view: np.ndarray
    name: str = "?"

    @property
    def proto(self) -> np.ndarray:
        """An array with the stream's shape and dtype (here: the view)."""
        return self.view

    def read(self) -> np.ndarray:
        return np.ravel(self.view).copy()

    def write(self, values: np.ndarray) -> None:
        flat = np.asarray(values)
        if flat.size == 1 and self.view.size != 1:
            np.copyto(self.view, flat.reshape(()), casting="unsafe")
            return
        np.copyto(self.view, flat.reshape(self.view.shape), casting="unsafe")


class VectorExecutor:
    """Executes one PEAC routine over bound operand streams."""

    def __init__(self) -> None:
        self.vregs: dict[int, np.ndarray | None] = {}
        self.sregs: dict[int, float] = {}
        self.pregs: dict[int, SubgridStream] = {}

    # -- binding --------------------------------------------------------

    def bind_pointer(self, preg: PReg, stream: SubgridStream) -> None:
        self.pregs[preg.n] = stream

    def bind_scalar(self, sreg: SReg, value) -> None:
        self.sregs[sreg.n] = value

    # -- execution ------------------------------------------------------

    def run(self, routine: Routine) -> None:
        self.run_instrs(routine.body)

    def run_instrs(self, instrs) -> None:
        with np.errstate(all="ignore"):
            for instr in instrs:
                self._exec(instr)

    def _exec(self, instr: Instr) -> None:
        # Dual-issue: both halves read pre-instruction state, then commit.
        if instr.paired is not None:
            main_commit = self._eval(instr)
            paired_commit = self._eval(instr.paired)
            main_commit()
            paired_commit()
        else:
            self._eval(instr)()

    def _read(self, op) -> np.ndarray | float:
        if isinstance(op, VReg):
            val = self.vregs.get(op.n)
            if val is None:
                raise ExecutionError(f"read of undefined register {op}")
            return val
        if isinstance(op, SReg):
            try:
                return self.sregs[op.n]
            except KeyError:
                raise ExecutionError(f"read of unbound scalar {op}") from None
        if isinstance(op, Mem):
            try:
                return self.pregs[op.preg.n].read()
            except KeyError:
                raise ExecutionError(
                    f"read through unbound pointer {op.preg}") from None
        if isinstance(op, Imm):
            # Integral immediates stay integers so that integer vector
            # arithmetic keeps Fortran INTEGER*4 wraparound semantics
            # (a float immediate would promote the whole stream to
            # float64).  numpy's weak-scalar promotion leaves float
            # streams unaffected by an int immediate.
            v = op.value
            if float(v).is_integer() and abs(v) <= 2**31 - 1:
                return int(v)
            return v
        raise ExecutionError(f"cannot read operand {op}")

    def _eval(self, instr: Instr):
        """Evaluate an instruction; returns a commit thunk."""
        op = instr.op
        kind = instr.kind

        if kind == "load":
            mem, dst = instr.operands
            value = self._read(mem)
            return self._commit_vreg(dst, value)
        if kind == "store":
            src, mem = instr.operands
            value = self._read(src)
            stream = self.pregs.get(mem.preg.n)
            if stream is None:
                raise ExecutionError(f"store through unbound {mem.preg}")
            return lambda: stream.write(np.asarray(value))
        if kind == "move":
            src, dst = instr.operands
            return self._commit_vreg(dst, self._read(src))
        if kind == "branch":
            return lambda: None

        args = [self._read(o) for o in instr.sources]
        result = _APPLY[op](*args)
        return self._commit_vreg(instr.operands[-1], result)

    def _commit_vreg(self, dst, value):
        if not isinstance(dst, VReg):
            raise ExecutionError(f"destination must be a vector register,"
                                 f" got {dst}")

        def commit():
            self.vregs[dst.n] = np.asarray(value)

        return commit


def _fortran_int(x) -> np.ndarray:
    """Fortran INT(): truncation toward zero, to 32-bit integers."""
    return np.trunc(np.asarray(x, dtype=np.float64)).astype(np.int32)


def _int_div(a, b):
    af = np.asarray(a, dtype=np.float64)
    bf = np.asarray(b, dtype=np.float64)
    return np.trunc(af / bf).astype(np.int32)


def _int_mod(a, b):
    return np.fmod(np.asarray(a, dtype=np.int64),
                   np.asarray(b, dtype=np.int64)).astype(np.int32)


def _as_bool(x) -> np.ndarray:
    return np.asarray(x, dtype=bool)


_APPLY = {
    "faddv": lambda a, b: np.add(a, b),
    "fsubv": lambda a, b: np.subtract(a, b),
    "fmulv": lambda a, b: np.multiply(a, b),
    "fdivv": lambda a, b: np.divide(a, b),
    "fminv": lambda a, b: np.minimum(a, b),
    "fmaxv": lambda a, b: np.maximum(a, b),
    "fmodv": lambda a, b: np.fmod(a, b),
    "fpowv": lambda a, b: np.power(a, b),
    "fmav": lambda a, b, c: np.add(np.multiply(a, b), c),
    "fmsv": lambda a, b, c: np.subtract(np.multiply(a, b), c),
    "fnegv": lambda a: np.negative(a),
    "fabsv": lambda a: np.abs(a),
    "fsqrtv": lambda a: np.sqrt(a),
    "finvv": lambda a: np.divide(1.0, a),
    "fsinv": lambda a: np.sin(a),
    "fcosv": lambda a: np.cos(a),
    "ftanv": lambda a: np.tan(a),
    "fasinv": lambda a: np.arcsin(a),
    "facosv": lambda a: np.arccos(a),
    "fatanv": lambda a: np.arctan(a),
    "fexpv": lambda a: np.exp(a),
    "flogv": lambda a: np.log(a),
    "flog10v": lambda a: np.log10(a),
    "ffloorv": lambda a: np.floor(a).astype(np.int32),
    "fceilv": lambda a: np.ceil(a).astype(np.int32),
    "fintv": _fortran_int,
    "ffltv": lambda a: np.asarray(a, dtype=np.float32),
    "fdblv": lambda a: np.asarray(a, dtype=np.float64),
    "fceqv": lambda a, b: np.equal(a, b),
    "fcnev": lambda a, b: np.not_equal(a, b),
    "fcltv": lambda a, b: np.less(a, b),
    "fclev": lambda a, b: np.less_equal(a, b),
    "fcgtv": lambda a, b: np.greater(a, b),
    "fcgev": lambda a, b: np.greater_equal(a, b),
    "candv": lambda a, b: np.logical_and(_as_bool(a), _as_bool(b)),
    "corv": lambda a, b: np.logical_or(_as_bool(a), _as_bool(b)),
    "cxorv": lambda a, b: np.logical_xor(_as_bool(a), _as_bool(b)),
    "cnotv": lambda a: np.logical_not(_as_bool(a)),
    "fselv": lambda m, t, f: np.where(_as_bool(m), t, f),
    "iaddv": lambda a, b: np.add(a, b),
    "isubv": lambda a, b: np.subtract(a, b),
    "imulv": lambda a, b: np.multiply(a, b),
    "idivv": _int_div,
    "imodv": _int_mod,
    "inegv": lambda a: np.negative(a),
}


def cycles_per_trip(routine: Routine, model: CostModel) -> int:
    """Issue cycles for one four-element trip of the subgrid loop."""
    total = model.instr.loop_overhead
    for instr in routine.body:
        total += model.instruction_cycles(instr)
    return total


def flops_per_element(routine: Routine) -> int:
    """Useful floating-point operations per element of the subgrid."""
    flops = 0
    for instr in routine.body:
        flops += FLOP_KINDS.get(instr.kind, 0)
        if instr.paired is not None:
            flops += FLOP_KINDS.get(instr.paired.kind, 0)
    return flops

