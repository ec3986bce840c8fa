"""Routine plans: PEAC routines resolved once, for everyone who runs them.

:class:`~repro.machine.pe.VectorExecutor` re-walks the instruction list
on every ``call_routine``, re-dispatching on instruction-kind strings
and re-resolving every operand.  Long blocked codeblocks run the *same*
handful of routines thousands of times, so this module compiles each
:class:`~repro.peac.isa.Routine` **once** into a :class:`RoutinePlan`:

* **steps** — a flat sequence of pre-resolved steps (operand slots
  bound by index into flat register files, ``Imm`` coercion done at
  plan time, dual-issue pairs kept as one group), which
  :mod:`repro.machine.loopir` lowers, once per kernel, into the loop
  both kernel printers read;
* **cost accounting** — ``cycles_per_trip`` and ``flops_per_element``,
  computed once and cached on the plan;
* **signatures** — numpy result dtypes and shapes depend on the bound
  operands, so a plan *specializes* per binding signature: ``specs``
  maps each signature met to the shape and dtype of every intermediate;
* **the recording walk** (:meth:`RoutinePlan.run_steps`) — the steps
  executed by the interpreter's own rules (the same ``_APPLY`` table, a
  snapshot of every memory operand, both evals of a dual-issue pair
  before either commit) while writing that spec.  It runs a
  signature's first trip and, unchanged, the rare dispatch no kernel
  may run; it is never made fast, because nothing steady runs it.

The interpreter stays as the oracle: ``REPRO_EXEC=interp`` (see
:class:`~repro.machine.cm2.Machine`) routes dispatch back through
``VectorExecutor``, and the equivalence tests assert both paths produce
bit-identical arrays and identical :class:`~repro.machine.stats.RunStats`.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter

import numpy as np

from ..peac.isa import (
    FLOP_KINDS,
    Imm,
    Instr,
    Mem,
    Routine,
    SReg,
    VReg,
    NUM_SREGS,
    NUM_VREGS,
)
from .costs import CostModel
from .pe import ExecutionError, SubgridStream, _APPLY


_UNBOUND = object()
"""Sentinel for an unbound scalar-register slot."""


# ---------------------------------------------------------------------------
# Buffer pool
# ---------------------------------------------------------------------------


class BufferPool:
    """Reusable numpy scratch, keyed by element dtype and count.

    ``acquire`` hands out an array of exactly the requested shape and
    dtype, preferring a previously released buffer (warm pages, no
    allocation); ``release`` returns a buffer for reuse.  The pool is
    bounded: buckets cap their entry count and the pool drops buffers
    instead of growing past ``max_bytes``.
    """

    def __init__(self, max_bytes: int = 256 * 1024 * 1024,
                 per_key: int = 16) -> None:
        self._free: dict[tuple[str, int], list[np.ndarray]] = {}
        self._pooled_bytes = 0
        self.max_bytes = max_bytes
        self.per_key = per_key
        self.hits = 0
        self.misses = 0

    def acquire(self, shape, dtype) -> np.ndarray:
        dt = np.dtype(dtype)
        size = int(math.prod(shape)) if shape else 1
        bucket = self._free.get((dt.str, size))
        if bucket:
            buf = bucket.pop()
            self._pooled_bytes -= buf.nbytes
            self.hits += 1
        else:
            buf = np.empty(size, dtype=dt)
            self.misses += 1
        return buf.reshape(shape)

    def release(self, arr: np.ndarray | None) -> None:
        if arr is None:
            return
        flat = arr.reshape(-1)
        key = (arr.dtype.str, flat.size)
        bucket = self._free.setdefault(key, [])
        if (len(bucket) >= self.per_key
                or self._pooled_bytes + flat.nbytes > self.max_bytes):
            return  # let the GC have it
        bucket.append(flat)
        self._pooled_bytes += flat.nbytes

    def clear(self) -> None:
        self._free.clear()
        self._pooled_bytes = 0


#: Shared module-level pool: machines, benchmark reruns and baseline
#: comparisons all reuse the same warm scratch.
GLOBAL_POOL = BufferPool()


# ---------------------------------------------------------------------------
# Operand readers
# ---------------------------------------------------------------------------

# Reader tuples, resolved at plan time:
#   (_R_VREG, n)       — vector register file slot n
#   (_R_SREG, n)       — scalar register file slot n
#   (_R_CONST, value)  — Imm, coerced at plan time
#   (_R_MEM, preg)     — streaming memory operand
_R_VREG, _R_SREG, _R_CONST, _R_MEM = 0, 1, 2, 3


def _reader(op) -> tuple:
    if isinstance(op, VReg):
        return (_R_VREG, op.n)
    if isinstance(op, SReg):
        return (_R_SREG, op.n)
    if isinstance(op, Imm):
        # The interpreter's Imm coercion rule, applied at plan time.
        value = op.value
        if float(value).is_integer() and abs(value) <= 2**31 - 1:
            value = int(value)
        return (_R_CONST, value)
    if isinstance(op, Mem):
        return (_R_MEM, op.preg.n)
    raise ExecutionError(f"cannot read operand {op}")


class _Frame:
    """Per-call state of one recording walk."""

    __slots__ = ("streams", "scalars", "v", "spec")

    def __init__(self, streams, scalars) -> None:
        self.streams = streams          # list[SubgridStream | None]
        self.scalars = scalars          # list, _UNBOUND when unbound
        self.v: list = [None] * NUM_VREGS
        self.spec: dict[int, tuple] = {}   # token -> (shape, dtype)


def _read(frame: _Frame, rd):
    tag = rd[0]
    if tag == _R_VREG:
        val = frame.v[rd[1]]
        if val is None:
            raise ExecutionError(f"read of undefined register aV{rd[1]}")
        return val
    if tag == _R_SREG:
        val = frame.scalars[rd[1]]
        if val is _UNBOUND:
            raise ExecutionError(f"read of unbound scalar aS{rd[1]}")
        return val
    if tag == _R_CONST:
        return rd[1]
    stream = frame.streams[rd[1]]
    if stream is None:
        raise ExecutionError(f"read through unbound pointer aP{rd[1]}")
    return stream.read()    # a snapshot, as the interpreter takes


# ---------------------------------------------------------------------------
# Plan steps
# ---------------------------------------------------------------------------


class _Step:
    """One pre-resolved step: an eval phase and a commit phase.

    ``eval`` reads the operands and returns the value ``commit`` then
    writes.  The walk runs every eval of a group before any commit, so
    both halves of a dual-issue pair observe pre-instruction state,
    exactly like the interpreter.  Steps hold no per-call state: every
    machine in the process shares them.
    """

    __slots__ = ()

    def eval(self, frame: _Frame):
        return None

    def commit(self, frame: _Frame, value) -> None:
        pass


class _BranchStep(_Step):
    __slots__ = ()


class _MoveStep(_Step):
    """``flodv <mem> <vreg>`` and ``fmovv <mem|vreg|sreg|imm> <vreg>``."""

    __slots__ = ("reader", "dst")

    def __init__(self, reader, dst: int) -> None:
        self.reader = reader
        self.dst = dst

    def eval(self, frame: _Frame):
        return _read(frame, self.reader)

    def commit(self, frame: _Frame, value) -> None:
        frame.v[self.dst] = np.asarray(value)


class _StoreStep(_Step):
    """``fstrv <src> <mem>``: read at eval, write through at commit."""

    __slots__ = ("reader", "preg")

    def __init__(self, reader, preg: int) -> None:
        self.reader = reader
        self.preg = preg

    def eval(self, frame: _Frame):
        value = _read(frame, self.reader)
        if frame.streams[self.preg] is None:
            raise ExecutionError(f"store through unbound aP{self.preg}")
        return value

    def commit(self, frame: _Frame, value) -> None:
        frame.streams[self.preg].write(np.asarray(value))


# The two ufuncs of a multiply-add.  The recording walk runs them
# rather than ``_APPLY``'s lambda, so the product's shape and dtype are
# in the spec; a blocked kernel runs the same two, block by block.
_FMA_FNS = {
    "fmav": (np.multiply, np.add),
    "fmsv": (np.multiply, np.subtract),
}


class _ComputeStep(_Step):
    """An arithmetic/comparison/logic/select step.

    The recording walk runs the interpreter's ``_APPLY`` lambda — a
    multiply-add as its two ufuncs, ``fma`` — and writes the shape and
    dtype of the result under ``token`` (and of an fma's product under
    ``aux``) into the spec.
    """

    __slots__ = ("op", "readers", "dst", "token", "aux", "apply", "fma")

    def __init__(self, op: str, readers, dst: int, token: int,
                 aux: int) -> None:
        self.op = op
        self.readers = readers
        self.dst = dst
        self.token = token
        self.aux = aux
        # finvv's readers carry the 1.0 numerator explicitly, so its
        # apply is the two-argument divide (same result).
        self.apply = np.divide if op == "finvv" else _APPLY[op]
        self.fma = _FMA_FNS.get(op)

    def eval(self, frame: _Frame):
        args = [_read(frame, rd) for rd in self.readers]
        if self.fma is not None:  # _APPLY's two ufuncs, the product recorded
            tmp = np.asarray(self.fma[0](args[0], args[1]))
            frame.spec[self.aux] = (tmp.shape, tmp.dtype)
            result = np.asarray(self.fma[1](tmp, args[2]))
        else:
            result = np.asarray(self.apply(*args))
        frame.spec[self.token] = (result.shape, result.dtype)
        return result

    def commit(self, frame: _Frame, value) -> None:
        frame.v[self.dst] = value


# ---------------------------------------------------------------------------
# The routine plan
# ---------------------------------------------------------------------------


#: Monotonic plan identities.  The kernel cache keys on these rather
#: than ``id(plan)`` so a recycled object address can never resurrect a
#: stale compilation.
_SERIALS = iter(range(1, 1 << 62)).__next__


class RoutinePlan:
    """One routine, compiled once into directly executable steps."""

    SPEC_CAP = 8  # binding signatures cached per plan

    def __init__(self, routine: Routine) -> None:
        self.name = routine.name
        self.serial = _SERIALS()
        self.body_id = id(routine.body)
        self.body_len = len(routine.body)
        self._instrs = tuple(routine.body)
        self.flops_per_element = _plan_flops(routine)
        #: ``(preg, instr)`` of each unpaired vector load: what a fused
        #: group elides when an earlier constituent stored the stream.
        self.mem_loads = tuple(
            (instr.operands[0].preg.n, instr) for instr in self._instrs
            if instr.paired is None and instr.kind in ("load", "move")
            and isinstance(instr.operands[0], Mem))
        self._cycles: dict[CostModel, int] = {}
        self.specs: dict[tuple, dict[int, tuple]] = {}
        self._compile(routine)
        # Kernels compiled over this plan die with it (they own block
        # buffers a long-lived worker would otherwise keep).
        from .execplan import evict_serial  # it imports this module

        weakref.finalize(self, evict_serial, self.serial).atexit = False

    # -- plan compilation ----------------------------------------------

    def _compile(self, routine: Routine) -> None:
        self._tokens = 0
        self.groups: list[tuple[_Step, ...]] = []
        for instr in routine.body:
            group = (instr,) if instr.paired is None else (instr, instr.paired)
            self.groups.append(
                tuple(self._compile_instr(i) for i in group))

        used: set[int] = set()
        stored: set[int] = set()
        reads: set[int] = set()
        for steps in self.groups:
            for step in steps:
                if isinstance(step, _StoreStep):
                    used.add(step.preg)
                    stored.add(step.preg)
                    readers = (step.reader,)
                elif isinstance(step, _MoveStep):
                    readers = (step.reader,)
                elif isinstance(step, _ComputeStep):
                    readers = step.readers
                else:
                    continue
                for rd in readers:
                    if rd[0] == _R_MEM:
                        used.add(rd[1])
                        reads.add(rd[1])
        self.used_pregs = tuple(sorted(used))
        self.stored_pregs = tuple(sorted(stored))
        self.read_pregs = tuple(sorted(reads))

    def _compile_instr(self, instr: Instr) -> _Step:
        kind = instr.kind
        if kind in ("load", "move"):
            src, dst = instr.operands
            return _MoveStep(_reader(src), dst.n)
        if kind == "store":
            src, mem = instr.operands
            return _StoreStep(_reader(src), mem.preg.n)
        if kind == "branch":
            return _BranchStep()

        readers = [_reader(op) for op in instr.sources]
        if instr.op == "finvv":
            readers.insert(0, (_R_CONST, 1.0))
        dst = instr.operands[-1]
        if not isinstance(dst, VReg):
            raise ExecutionError(
                f"destination must be a vector register, got {dst}")
        token = self._tokens      # the result's; the next is the aux's
        self._tokens += 2
        return _ComputeStep(instr.op, tuple(readers), dst.n, token,
                            token + 1)

    # -- cached cost accounting ----------------------------------------

    def cycles_per_trip(self, model: CostModel) -> int:
        got = self._cycles.get(model)
        if got is None:
            got = model.instr.loop_overhead
            for instr in self._instrs:
                got += model.instruction_cycles(instr)
            self._cycles[model] = got
        return got

    # -- execution ------------------------------------------------------

    def _signature(self, streams, scalars) -> tuple:
        s_sig = []
        for st in streams:
            if st is None:
                s_sig.append(None)
            else:
                view = st.proto
                if not isinstance(view, np.ndarray):
                    view = np.asarray(view)
                s_sig.append((view.shape, view.dtype.str))
        k_sig = []
        for val in scalars:
            if val is _UNBOUND:
                k_sig.append(None)
            elif isinstance(val, np.ndarray):
                k_sig.append(("a", val.shape, val.dtype.str))
            elif isinstance(val, np.generic):
                k_sig.append(("n", val.dtype.str))
            else:
                k_sig.append(("p", type(val).__name__))
        return (tuple(s_sig), tuple(k_sig))

    def execute(self, streams, scalars, pool: BufferPool | None = None):
        """Run the plan over bound operand streams, machine-less.

        ``streams`` is a list of ``NUM_PREGS`` :class:`SubgridStream`
        entries (or ``None``); ``scalars`` a list of ``NUM_SREGS``
        values with ``_UNBOUND`` holes.  This is the group of one
        without a machine (:func:`repro.machine.execplan.run_group`): a
        kernel when the bindings allow one, else :meth:`run_steps`.
        Returns the :class:`~repro.machine.kernel.Launch` when a kernel
        ran over the operands as bound, else None.
        """
        from .execplan import Dispatch, run_group  # it imports this module

        return run_group((Dispatch(None, self, streams, scalars),),
                         pool if pool is not None else GLOBAL_POOL,
                         Counter())

    def run_steps(self, streams, scalars, sig) -> None:
        """The recording walk: the first trip of binding signature
        ``sig``, and any later dispatch no kernel may run (over plain
        streams: :func:`~repro.machine.execplan.run_group` has swapped
        every shifted one for its copy)."""
        frame = _Frame(streams, scalars)
        with np.errstate(all="ignore"):
            for steps in self.groups:
                values = [step.eval(frame) for step in steps]
                for step, value in zip(steps, values):
                    step.commit(frame, value)
        if sig not in self.specs:
            if len(self.specs) >= self.SPEC_CAP:
                self.specs.pop(next(iter(self.specs)))
            self.specs[sig] = frame.spec


def _plan_flops(routine: Routine) -> int:
    flops = 0
    for instr in routine.body:
        flops += FLOP_KINDS.get(instr.kind, 0)
        if instr.paired is not None:
            flops += FLOP_KINDS.get(instr.paired.kind, 0)
    return flops


def get_plan(routine: Routine) -> RoutinePlan:
    """The cached execution plan for a routine (compiled on first use).

    The plan is cached on the routine object itself, keyed by the
    identity and length of its body so in-place edits (tests build
    routines incrementally) recompile instead of running stale steps.
    """
    plan = getattr(routine, "_plan", None)
    if (plan is not None and plan.body_id == id(routine.body)
            and plan.body_len == len(routine.body)):
        return plan
    plan = RoutinePlan(routine)
    routine._plan = plan
    return plan


def invalidate_plan(routine: Routine) -> None:
    """Drop a routine's cached plan (after mutating its body in place).

    Also evicts every kernel built over the stale plan: a group
    compiled against the old instruction stream must never run again
    after the routine changed.  (A machine's launch records compare
    ``get_plan(routine)`` by identity, so they fall with it.)
    """
    plan = getattr(routine, "_plan", None)
    if plan is not None:
        from .execplan import evict_serial

        evict_serial(plan.serial)
        del routine._plan
