"""Compiled fast-path execution engine for PEAC routines.

:class:`~repro.machine.pe.VectorExecutor` re-walks the instruction list
on every ``call_routine``: it re-dispatches on instruction-kind strings,
rebuilds commit thunks, snapshots every memory operand with
``np.ravel(view).copy()``, and lets every ufunc allocate a fresh output
array.  Long blocked codeblocks run the *same* handful of routines
thousands of times, so all of that is re-done work.

This module compiles each :class:`~repro.peac.isa.Routine` **once** into
a :class:`RoutinePlan` — a flat sequence of pre-resolved steps:

* operand slots are bound by index into flat register files instead of
  per-access dict lookups;
* ``Imm`` coercion (the integer-immediate rule) happens at plan time;
* dual-issue pairs are pre-split into read and commit phases so both
  halves observe pre-instruction state, exactly like the interpreter;
* arithmetic executes as direct numpy ufunc calls with ``out=`` into a
  per-call set of buffers drawn from a :class:`BufferPool`, so steady
  state runs allocation-free;
* memory operands alias the bound subgrid view (no copy) whenever no
  later store in the routine can overlap them — decided with a cheap
  ``np.may_share_memory`` check per call;
* the per-dispatch cost accounting (``cycles_per_trip``,
  ``flops_per_element``) is computed once and cached on the plan.

Because numpy result dtypes/shapes depend on the bound operands, a plan
*specializes* lazily: the first call with a given binding signature runs
in recording mode (semantically identical to the interpreter — it uses
the same ``_APPLY`` table) and captures every intermediate's shape and
dtype; later calls with the same signature run the compiled fast steps.

The interpreter stays as the slow-path oracle: ``REPRO_EXEC=interp``
(see :class:`~repro.machine.cm2.Machine`) routes dispatch back through
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
from .shifted import materialize_streams


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
#   (_R_VREG, n)                    — vector register file slot n
#   (_R_SREG, n)                    — scalar register file slot n
#   (_R_CONST, value)               — Imm, coerced at plan time
#   (_R_MEM, preg, token, hazard)   — streaming memory operand
_R_VREG, _R_SREG, _R_CONST, _R_MEM = 0, 1, 2, 3


def _coerce_imm(value):
    """Plan-time version of the interpreter's Imm coercion rule."""
    if float(value).is_integer() and abs(value) <= 2**31 - 1:
        return int(value)
    return value


class _Frame:
    """Per-call execution state for one plan run."""

    __slots__ = ("streams", "scalars", "v", "pool", "spec", "bufs",
                 "record")

    def __init__(self, streams, scalars, pool, spec) -> None:
        self.streams = streams          # list[SubgridStream | None]
        self.scalars = scalars          # list, _UNBOUND when unbound
        self.v: list = [None] * NUM_VREGS
        self.pool = pool
        self.spec = spec                # dict[token, (shape, dtype)]
        self.bufs: dict[int, np.ndarray] = {}
        self.record = spec is None

    def buf(self, token: int) -> np.ndarray:
        got = self.bufs.get(token)
        if got is None:
            shape, dtype = self.spec[token]
            got = self.pool.acquire(shape, dtype)
            self.bufs[token] = got
        return got


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
    return _read_mem(frame, rd[1], rd[2], rd[3])


def _read_mem(frame: _Frame, preg: int, token: int, hazard) -> np.ndarray:
    """Snapshot (or alias) the current contents of a stream operand.

    The interpreter always copies.  Here the copy is skipped when no
    store at or after this step can overlap the view — checked with
    ``np.may_share_memory`` against the streams in ``hazard`` — and the
    view is contiguous (so the flattened alias is itself copy-free).
    """
    stream = frame.streams[preg]
    if stream is None:
        raise ExecutionError(f"read through unbound pointer aP{preg}")
    view = stream.view
    if not isinstance(view, np.ndarray):
        view = np.asarray(view)
    need_copy = False
    for q in hazard:
        other = frame.streams[q]
        if other is not None and np.may_share_memory(view, other.view):
            need_copy = True
            break
    if not need_copy and view.flags["C_CONTIGUOUS"]:
        return view.reshape(-1)
    if frame.record:
        return np.ravel(view).copy()
    buf = frame.pool.acquire((view.size,), view.dtype)
    np.copyto(buf.reshape(view.shape), view)
    frame.bufs[token] = buf
    return buf


# ---------------------------------------------------------------------------
# Plan steps
# ---------------------------------------------------------------------------


class _Step:
    """One pre-resolved step: an eval phase and a commit phase.

    For unpaired instructions the two phases run back to back; for a
    dual-issue pair the plan runs *both* evals before *either* commit,
    mirroring the interpreter's pre-instruction-state semantics.
    """

    __slots__ = ("pending",)

    def eval(self, frame: _Frame) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def commit(self, frame: _Frame) -> None:
        pass


class _BranchStep(_Step):
    __slots__ = ()

    def eval(self, frame: _Frame) -> None:
        pass


class _LoadStep(_Step):
    """``flodv <mem> <vreg>`` (also ``fmovv`` with a memory source)."""

    __slots__ = ("reader", "dst")

    def __init__(self, reader, dst: int) -> None:
        self.reader = reader
        self.dst = dst

    def eval(self, frame: _Frame) -> None:
        self.pending = _read(frame, self.reader)

    def commit(self, frame: _Frame) -> None:
        frame.v[self.dst] = np.asarray(self.pending)
        self.pending = None


class _MoveStep(_Step):
    """``fmovv <vreg|sreg|imm> <vreg>``."""

    __slots__ = ("reader", "dst")

    def __init__(self, reader, dst: int) -> None:
        self.reader = reader
        self.dst = dst

    def eval(self, frame: _Frame) -> None:
        self.pending = _read(frame, self.reader)

    def commit(self, frame: _Frame) -> None:
        frame.v[self.dst] = np.asarray(self.pending)
        self.pending = None


class _StoreStep(_Step):
    """``fstrv <src> <mem>``: read at eval, write through at commit."""

    __slots__ = ("reader", "preg")

    def __init__(self, reader, preg: int) -> None:
        self.reader = reader
        self.preg = preg

    def eval(self, frame: _Frame) -> None:
        self.pending = _read(frame, self.reader)
        if frame.streams[self.preg] is None:
            raise ExecutionError(f"store through unbound aP{self.preg}")

    def commit(self, frame: _Frame) -> None:
        frame.streams[self.preg].write(np.asarray(self.pending))
        self.pending = None


class _ComputeStep(_Step):
    """An arithmetic/comparison/logic/select step.

    ``mode`` selects the fast executor:

    * ``"ufunc"``  — one numpy ufunc with ``out=`` into a pooled buffer;
    * ``"fma"``    — chained multiply-add as two ufuncs via an aux buffer;
    * ``"select"`` — masked select as two ``np.copyto`` passes;
    * ``"intdiv"`` — ``idivv``/``imodv``: the interpreter's allocating
      lambda here, its numpy calls block by block in a kernel
      (``kernel._Builder._emit_compute``);
    * ``"alloc"``  — the conversions (``fintv``, ``ffloorv``, ``fceilv``,
      ``ffltv``, ``fdblv``), and nothing else: the interpreter's
      allocating lambda, and no kernel for the routine.

    Recording mode always runs the interpreter's ``_APPLY`` lambda and
    captures the result (and intermediate) shapes/dtypes for the
    specialization.
    """

    __slots__ = ("op", "readers", "dst", "token", "aux", "mode",
                 "fn", "fn2", "apply")

    def __init__(self, op: str, readers, dst: int, token: int,
                 aux: int) -> None:
        self.op = op
        self.readers = readers
        self.dst = dst
        self.token = token
        self.aux = aux
        # finvv's readers carry the 1.0 numerator explicitly, so its
        # record-mode apply is the two-argument divide (same result).
        self.apply = np.divide if op == "finvv" else _APPLY[op]
        if op in _FMA_FNS:
            self.mode = "fma"
            self.fn, self.fn2 = _FMA_FNS[op]
        elif op == "fselv":
            self.mode = "select"
            self.fn = self.fn2 = None
        elif op in _OUT_FNS:
            self.mode = "ufunc"
            self.fn = _OUT_FNS[op]
            self.fn2 = None
        else:
            self.mode = "intdiv" if op in ("idivv", "imodv") else "alloc"
            self.fn = self.fn2 = None

    def eval(self, frame: _Frame) -> None:
        args = [_read(frame, rd) for rd in self.readers]
        if frame.record:
            self._eval_record(frame, args)
        else:
            self._eval_fast(frame, args)

    def _eval_record(self, frame: _Frame, args) -> None:
        if self.mode == "fma":
            tmp = np.asarray(self.fn(args[0], args[1]))
            frame.spec[self.aux] = (tmp.shape, tmp.dtype)
            result = np.asarray(self.fn2(tmp, args[2]))
        elif self.mode == "select":
            mask = np.asarray(args[0], dtype=bool)
            frame.spec[self.aux] = (mask.shape, mask.dtype)
            result = np.asarray(np.where(mask, args[1], args[2]))
        else:
            result = np.asarray(self.apply(*args))
        if self.mode != "alloc":
            frame.spec[self.token] = (result.shape, result.dtype)
        self.pending = result

    def _eval_fast(self, frame: _Frame, args) -> None:
        mode = self.mode
        if mode == "ufunc":
            out = frame.buf(self.token)
            self.fn(*args, out=out)
            self.pending = out
        elif mode == "fma":
            tmp = frame.buf(self.aux)
            out = frame.buf(self.token)
            self.fn(args[0], args[1], out=tmp)
            self.fn2(tmp, args[2], out=out)
            self.pending = out
        elif mode == "select":
            mask, tval, fval = args
            if isinstance(mask, np.ndarray) and mask.dtype != bool \
                    and mask.size > 1:
                mbuf = frame.buf(self.aux)
                np.not_equal(mask, 0, out=mbuf)
                mask = mbuf
            elif not (isinstance(mask, np.ndarray)
                      and mask.dtype == bool):
                mask = np.asarray(mask, dtype=bool)
            out = frame.buf(self.token)
            np.copyto(out, fval)
            np.copyto(out, tval, where=mask)
            self.pending = out
        else:
            self.pending = np.asarray(self.apply(*args))

    def commit(self, frame: _Frame) -> None:
        frame.v[self.dst] = self.pending
        self.pending = None


# numpy ufuncs that compute each _APPLY entry bit-identically with out=.
_OUT_FNS = {
    "faddv": np.add, "fsubv": np.subtract, "fmulv": np.multiply,
    "fdivv": np.divide, "fminv": np.minimum, "fmaxv": np.maximum,
    "fmodv": np.fmod, "fpowv": np.power,
    "fnegv": np.negative, "fabsv": np.absolute, "fsqrtv": np.sqrt,
    "fsinv": np.sin, "fcosv": np.cos, "ftanv": np.tan,
    "fasinv": np.arcsin, "facosv": np.arccos, "fatanv": np.arctan,
    "fexpv": np.exp, "flogv": np.log, "flog10v": np.log10,
    "fceqv": np.equal, "fcnev": np.not_equal, "fcltv": np.less,
    "fclev": np.less_equal, "fcgtv": np.greater, "fcgev": np.greater_equal,
    "candv": np.logical_and, "corv": np.logical_or,
    "cxorv": np.logical_xor, "cnotv": np.logical_not,
    "iaddv": np.add, "isubv": np.subtract, "imulv": np.multiply,
    "inegv": np.negative,
    "finvv": np.divide,     # its readers carry the 1.0 numerator
}

_FMA_FNS = {
    "fmav": (np.multiply, np.add),
    "fmsv": (np.multiply, np.subtract),
}

# What the C emitter (:mod:`repro.machine.ckernel`) does with each op:
# every key of ``pe._APPLY`` is in exactly one of the two tables.  A
# form is ``(family, C operator)``; the *kind* an op computes in is the
# dtype the recording pass wrote into the spec, never the op's name
# (``fmulv`` over ``int32`` streams is an integer multiply).
_C_FORMS = {
    # computed in the recorded kind; integers in the unsigned twin
    "faddv": ("arith", "+"), "fsubv": ("arith", "-"),
    "fmulv": ("arith", "*"), "fdivv": ("arith", "/"),
    "finvv": ("arith", "/"),
    "iaddv": ("arith", "+"), "isubv": ("arith", "-"),
    "imulv": ("arith", "*"),
    "fmav": ("fma", "+"), "fmsv": ("fma", "-"),
    "fnegv": ("neg", "-"), "inegv": ("neg", "-"),
    "fabsv": ("abs", "fabs"), "fsqrtv": ("sqrt", "sqrt"),
    # C's usual arithmetic conversions are numpy's promotion here
    "fceqv": ("cmp", "=="), "fcnev": ("cmp", "!="), "fcltv": ("cmp", "<"),
    "fclev": ("cmp", "<="), "fcgtv": ("cmp", ">"), "fcgev": ("cmp", ">="),
    # on truth values (an operand that is not one means ``!= 0``)
    "candv": ("logic", "&"), "corv": ("logic", "|"),
    "cxorv": ("logic", "^"), "cnotv": ("not", "!"),
    "fselv": ("select", "?"),
    # by a plan-time constant outside {0, -1} only
    "idivv": ("intdiv", "/"), "imodv": ("intdiv", "%"),
}

_C_DECLINED = {
    **dict.fromkeys(
        ("fsinv", "fcosv", "ftanv", "fasinv", "facosv", "fatanv", "fexpv",
         "flogv", "flog10v", "fpowv", "fmodv"),
        "libm is not numpy's SIMD routine: not bit-identical"),
    **dict.fromkeys(("fminv", "fmaxv"),
                    "numpy propagates a NaN operand's payload, C's "
                    "fmin/fmax and ?: do not"),
    **dict.fromkeys(("fintv", "ffloorv", "fceilv", "ffltv", "fdblv"),
                    "conversion: numpy's cast of NaN and out-of-range "
                    "values is not C's (and no blocked kernel asks)"),
}


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
        groups: list[tuple[Instr, ...]] = []
        for instr in routine.body:
            if instr.paired is not None:
                groups.append((instr, instr.paired))
            else:
                groups.append((instr,))

        # Suffix sets of stored pointer registers: a value *held* from
        # group i onward must be snapshotted if any store at >= i can
        # overlap it.
        suffix: list[frozenset[int]] = [frozenset()] * len(groups)
        stored: set[int] = set()
        for gi in range(len(groups) - 1, -1, -1):
            for instr in groups[gi]:
                if instr.kind == "store":
                    mem = instr.operands[1]
                    stored.add(mem.preg.n)
            suffix[gi] = frozenset(stored)

        self._tokens = 0
        self.groups: list[tuple[_Step, ...]] = []
        short_lived: list[list[int]] = []
        for gi, group in enumerate(groups):
            group_stores = frozenset(
                i.operands[1].preg.n for i in group if i.kind == "store")
            shorts: list[int] = []
            steps = tuple(
                self._compile_instr(instr, suffix[gi], group_stores, shorts)
                for instr in group)
            self.groups.append(steps)
            short_lived.append(shorts)

        self._analyze_lifetimes(short_lived)

        used: set[int] = set()
        stored: set[int] = set()
        reads: set[int] = set()
        for steps in self.groups:
            for step in steps:
                if isinstance(step, _StoreStep):
                    used.add(step.preg)
                    stored.add(step.preg)
                    readers = (step.reader,)
                elif isinstance(step, (_LoadStep, _MoveStep)):
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

    def _new_token(self) -> int:
        self._tokens += 1
        return self._tokens - 1

    def _compile_instr(self, instr: Instr, held_hazard: frozenset[int],
                       group_stores: frozenset[int],
                       shorts: list[int]) -> _Step:
        kind = instr.kind

        def mem_reader(op: Mem, hazard) -> tuple:
            token = self._new_token()
            return (_R_MEM, op.preg.n, token, tuple(sorted(hazard)))

        def src_reader(op, *, held: bool) -> tuple:
            if isinstance(op, VReg):
                return (_R_VREG, op.n)
            if isinstance(op, SReg):
                return (_R_SREG, op.n)
            if isinstance(op, Imm):
                return (_R_CONST, _coerce_imm(op.value))
            if isinstance(op, Mem):
                # A value held across phases (a load, or a store source
                # read before this group's commits) must be protected
                # from the stores that can run before it is consumed;
                # an operand consumed inside its own eval needs none.
                hz = held_hazard if held else (
                    group_stores if kind == "store" else frozenset())
                rd = mem_reader(op, hz)
                if not held:
                    shorts.append(rd[2])
                return rd
            raise ExecutionError(f"cannot read operand {op}")

        if kind == "load":
            mem, dst = instr.operands
            rd = src_reader(mem, held=True)
            return _LoadStep(rd, dst.n)
        if kind == "store":
            src, mem = instr.operands
            rd = src_reader(src, held=False)
            return _StoreStep(rd, mem.preg.n)
        if kind == "move":
            src, dst = instr.operands
            if isinstance(src, Mem):
                return _LoadStep(src_reader(src, held=True), dst.n)
            return _MoveStep(src_reader(src, held=False), dst.n)
        if kind == "branch":
            return _BranchStep()

        readers = []
        if instr.op == "finvv":
            readers.append((_R_CONST, 1.0))
        for op in instr.sources:
            readers.append(src_reader(op, held=False))
        dst = instr.operands[-1]
        if not isinstance(dst, VReg):
            raise ExecutionError(
                f"destination must be a vector register, got {dst}")
        token = self._new_token()
        aux = self._new_token()
        shorts.append(aux)
        return _ComputeStep(instr.op, tuple(readers), dst.n, token, aux)

    def _analyze_lifetimes(self, short_lived: list[list[int]]) -> None:
        """Per-group release schedule for pooled buffers.

        A token (one step's output buffer) can be released as soon as
        no vector register holds it; moves share tokens, so holders are
        tracked as sets.  Short-lived tokens (chained operand snapshots,
        fma/select intermediates) release with their own group.
        """
        v_tok: list[int | None] = [None] * NUM_VREGS
        holders: dict[int, set[int]] = {}
        self.releases: list[tuple[int, ...]] = []
        for gi, steps in enumerate(self.groups):
            dying: list[int] = list(short_lived[gi])
            for step in steps:
                if isinstance(step, (_LoadStep, _ComputeStep)):
                    token = (step.reader[2]
                             if isinstance(step, _LoadStep)
                             else step.token)
                    dst = step.dst
                elif isinstance(step, _MoveStep):
                    rd = step.reader
                    token = v_tok[rd[1]] if rd[0] == _R_VREG else None
                    dst = step.dst
                else:
                    continue
                old = v_tok[dst]
                if old is not None:
                    held_by = holders.get(old)
                    if held_by is not None:
                        held_by.discard(dst)
                        if not held_by:
                            dying.append(old)
                            del holders[old]
                v_tok[dst] = token
                if token is not None:
                    holders.setdefault(token, set()).add(dst)
            self.releases.append(tuple(dying))

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
        without a machine (:func:`repro.machine.execplan.run_lone`): a
        kernel when the bindings allow one, else :meth:`run_steps`.
        Returns the :class:`~repro.machine.kernel.Launch` when a kernel
        ran over the operands as bound, else None.
        """
        from .execplan import Dispatch, run_lone  # it imports this module

        return run_lone(Dispatch(None, self, streams, scalars),
                        pool if pool is not None else GLOBAL_POOL,
                        Counter())

    def run_steps(self, streams, scalars, pool: BufferPool, sig) -> None:
        """The step engine: the recording pass of a new binding
        signature ``sig``, the fully general fallback after it."""
        materialize_streams(streams)
        spec = self.specs.get(sig)
        frame = _Frame(streams, scalars, pool, spec)
        try:
            with np.errstate(all="ignore"):
                self._run(frame)
        finally:
            for buf in frame.bufs.values():
                pool.release(buf)
            frame.bufs.clear()
        if spec is None:
            if len(self.specs) >= self.SPEC_CAP:
                self.specs.pop(next(iter(self.specs)))
            self.specs[sig] = frame.spec

    def _run(self, frame: _Frame) -> None:
        if frame.record:
            frame.spec = {}
        pool = frame.pool
        bufs = frame.bufs
        for steps, dying in zip(self.groups, self.releases):
            if len(steps) == 1:
                step = steps[0]
                step.eval(frame)
                step.commit(frame)
            else:
                main, paired = steps
                main.eval(frame)
                paired.eval(frame)
                main.commit(frame)
                paired.commit(frame)
            for token in dying:
                buf = bufs.pop(token, None)
                if buf is not None:
                    pool.release(buf)


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
