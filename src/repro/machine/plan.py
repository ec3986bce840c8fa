"""Routine plans: PEAC routines resolved once, for everyone who runs them.

:class:`~repro.machine.pe.VectorExecutor` re-walks the instruction list
on every ``call_routine``, re-dispatching on instruction-kind strings
and re-resolving every operand.  Long blocked codeblocks run the *same*
handful of routines thousands of times, so this module compiles each
:class:`~repro.peac.isa.Routine` **once** into a :class:`RoutinePlan`:

* **steps** — a flat sequence of pre-resolved steps (operand slots
  bound by index into flat register files, ``Imm`` coercion done at
  plan time, dual-issue pairs kept as one group), which
  :mod:`repro.machine.loopir` types and lowers, once per kernel, into
  the loop both kernel printers read;
* **cost accounting** — ``cycles_per_trip`` and ``flops_per_element``,
  computed once and cached on the plan;
* **signatures** — numpy result dtypes depend on the bound operands, so
  a kernel is built per binding signature (:meth:`RoutinePlan._signature`),
  and only for one the plan has ``seen``: a signature's first trip runs
  on the interpreter oracle, as does the rare dispatch no kernel may
  run (:func:`repro.machine.execplan.run_oracle`).

The interpreter stays the oracle: ``exec_mode="interp"`` (see
:class:`~repro.machine.cm2.Machine`) runs every dispatch on
``VectorExecutor``, and the equivalence tests assert the kernels
produce bit-identical arrays and identical
:class:`~repro.machine.stats.RunStats`.
"""

from __future__ import annotations

import math
import weakref
from collections import Counter
from typing import NamedTuple

import numpy as np

from ..peac.isa import Imm, Instr, Mem, Routine, SReg, VReg
from .costs import CostModel
from .pe import ExecutionError, flops_per_element


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


# ---------------------------------------------------------------------------
# Plan steps
# ---------------------------------------------------------------------------


class _BranchStep(NamedTuple):
    """Loop bookkeeping: nothing to lower."""


class _MoveStep(NamedTuple):
    """``flodv <mem> <vreg>`` and ``fmovv <mem|vreg|sreg|imm> <vreg>``."""

    reader: tuple
    dst: int


class _StoreStep(NamedTuple):
    """``fstrv <src> <mem>``."""

    reader: tuple
    preg: int


class _ComputeStep(NamedTuple):
    """An arithmetic/comparison/logic/select step.  ``finvv``'s readers
    carry its 1.0 numerator explicitly."""

    op: str
    readers: tuple
    dst: int


# ---------------------------------------------------------------------------
# The routine plan
# ---------------------------------------------------------------------------


#: Monotonic plan identities.  The kernel cache keys on these rather
#: than ``id(plan)`` so a recycled object address can never resurrect a
#: stale compilation.
_SERIALS = iter(range(1, 1 << 62)).__next__


class RoutinePlan:
    """One routine, compiled once into pre-resolved steps."""

    SPEC_CAP = 8  # binding signatures remembered per plan

    def __init__(self, routine: Routine) -> None:
        self.name = routine.name
        self.serial = _SERIALS()
        self.body_id = id(routine.body)
        self.body_len = len(routine.body)
        #: The instructions compiled (what the oracle runs for the plan).
        self.instrs = tuple(routine.body)
        self.flops_per_element = flops_per_element(routine)
        #: ``(preg, instr)`` of each unpaired vector load: what a fused
        #: group elides when an earlier constituent stored the stream.
        self.mem_loads = tuple(
            (instr.operands[0].preg.n, instr) for instr in self.instrs
            if instr.paired is None and instr.kind in ("load", "move")
            and isinstance(instr.operands[0], Mem))
        self._cycles: dict[CostModel, int] = {}
        #: Binding signatures whose first trip has run, oldest first.
        self.seen: dict[tuple, None] = {}
        self._compile(routine)
        # Kernels compiled over this plan die with it (they own block
        # buffers a long-lived worker would otherwise keep).
        from .execplan import evict_serial  # it imports this module

        weakref.finalize(self, evict_serial, self.serial).atexit = False

    # -- plan compilation ----------------------------------------------

    def _compile(self, routine: Routine) -> None:
        self.groups = [
            tuple(self._compile_instr(i) for i in (
                (instr,) if instr.paired is None else (instr, instr.paired)))
            for instr in routine.body]
        reads: set[int] = set()
        stored: set[int] = set()
        for steps in self.groups:
            for step in steps:
                if isinstance(step, _StoreStep):
                    stored.add(step.preg)
                readers = (step.readers if isinstance(step, _ComputeStep)
                           else () if isinstance(step, _BranchStep)
                           else (step.reader,))
                reads.update(rd[1] for rd in readers if rd[0] == _R_MEM)
        self.used_pregs = tuple(sorted(reads | stored))
        self.stored_pregs = tuple(sorted(stored))
        self.read_pregs = tuple(sorted(reads))

    def _compile_instr(self, instr: Instr):
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
        return _ComputeStep(instr.op, tuple(readers), dst.n)

    # -- cached cost accounting ----------------------------------------

    def cycles_per_trip(self, model: CostModel) -> int:
        got = self._cycles.get(model)
        if got is None:
            got = model.instr.loop_overhead
            for instr in self.instrs:
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
        kernel when the bindings allow one, else the oracle.  Returns
        the :class:`~repro.machine.kernel.Launch` when a kernel ran over
        the operands as bound, else None.
        """
        # execplan imports this module
        from .execplan import Dispatch, group_of, run_group

        dispatches = (Dispatch(None, self, streams, scalars),)
        return run_group(dispatches,
                         pool if pool is not None else GLOBAL_POOL,
                         Counter(), group_of(dispatches))

    def saw(self, sig) -> None:
        """Remember that binding signature ``sig`` had its first trip
        (the oldest is forgotten past ``SPEC_CAP``)."""
        if sig not in self.seen:
            if len(self.seen) >= self.SPEC_CAP:
                del self.seen[next(iter(self.seen))]
            self.seen[sig] = None


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
