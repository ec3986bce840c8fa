"""Host (front-end) program representation and executor.

The FE/NIR compiler "translates the NIR remainder program into SPARC
assembly code plus runtime system library calls" (section 5.2).  The
reproduction's host program is a small IR of front-end operations —
allocation, scalar work, control flow, CM runtime calls, and PEAC
dispatches with their IFIFO argument pushes — interpreted against a
:class:`~repro.machine.cm2.Machine`.  A textual disassembly is available
via :func:`format_host_program`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .. import nir
from ..machine import ckernel
from ..machine.kernel import hot
from ..machine.loopir import Declined
from ..machine.plan import get_plan
from ..machine.shifted import Shifted
from ..machine.stats import RunStats
from ..peac.isa import Routine
from . import cmrt
from .nir_eval import NirEvaluator

Region = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class HostOp:
    """Base class for host-program operations."""


@dataclass(frozen=True)
class Alloc(HostOp):
    name: str
    extents: tuple[int, ...]
    dtype: str  # numpy dtype name
    layout: tuple[str, ...] | None = None  # !layout: directive modes
    # False for a temporary every use of which was folded into its
    # readers (see FoldedShift): the front end still pays for declaring
    # it, the simulator never materialises it.
    resident: bool = True


@dataclass(frozen=True)
class ScalarInit(HostOp):
    name: str
    value: object


@dataclass(frozen=True)
class ArgBinding:
    """One actual argument of a node call (matches a ParamSpec)."""

    kind: str                       # 'subgrid'|'coord'|'halo'|'scalar'
    name: str                       # parameter name
    array: str | None = None        # subgrid/halo: array name
    region: Region | None = None    # subgrid/coord: region, None = full
    extents: tuple[int, ...] = ()   # coord: base extents
    axis: int = 0                   # coord: axis
    lo: int = 1                     # coord: first point along the axis
    step: int = 1                   # coord: axis stride
    shift: int = 0                  # halo stream: exchange priced at bind
    value: nir.Value | None = None  # scalar: host-evaluated NIR value
    # A halo is the array read through circular offsets, never copied
    # ahead of the call.  The §5.3.2 halo *stream* (axis/shift, made by
    # the neighborhood backend) prices a boundary exchange each time it
    # is bound; a *folded* CSHIFT (offsets per axis, made by the shift
    # fold) was priced by its FoldedShift and stands in for ``temp``.
    offsets: tuple[int, ...] = ()   # folded halo: CSHIFT offset per axis
    temp: str | None = None         # folded halo: the temporary replaced


@dataclass(frozen=True)
class NodeCall(HostOp):
    """Dispatch a PEAC routine: push args over the IFIFO, start the loop."""

    routine: Routine
    args: tuple[ArgBinding, ...]
    region_extents: tuple[int, ...]
    real_elements: int
    layout: tuple[str, ...] | None = None  # target array's !layout: modes


@dataclass(frozen=True)
class CommMove(HostOp):
    """A communication phase: one MOVE executed by the CM runtime."""

    clause: nir.MoveClause
    kind: str  # 'cshift'|'eoshift'|'transpose'|'spread'|'copy'|'gather'
    # A whole-array CSHIFT by constants into a whole array, resolved
    # once at compile time: (source array, its extents, dim, shift).
    const: tuple | None = None


@dataclass(frozen=True)
class FoldedShift(CommMove):
    """A CSHIFT folded into its readers: priced here, copied nowhere.

    Still the communication phase it was compiled as — same clause,
    same ``cshift_cycles``, same place in the program — but the
    readers' arguments for its temporary became halo bindings of the
    source, so the temporary is never written (``const`` is always
    resolved; its source may be a folded temporary itself).
    """

    readers: tuple[str, ...] = ()   # 'routine.param' of each reader
    # The op rides through ``cmrt.execute_comm`` in the clause's place:
    # wrappers there ask a clause for its target array, and a folded
    # shift has none.
    tgt = None

    @property
    def temp(self) -> str:
        """The temporary this shift defined."""
        return self.clause.tgt.name

    @property
    def src(self) -> str:
        return self.const[0]


@dataclass(frozen=True)
class ReduceMove(HostOp):
    """A reduction phase: runtime combine tree into a front-end scalar."""

    clause: nir.MoveClause


@dataclass(frozen=True)
class ScalarMove(HostOp):
    """Front-end scalar assignment."""

    clause: nir.MoveClause


@dataclass(frozen=True)
class ElementMove(HostOp):
    """Serial element-at-a-time array access executed by the front end."""

    clause: nir.MoveClause


@dataclass(frozen=True)
class Loop(HostOp):
    var: str
    lo: int
    hi: int
    step: int
    body: tuple[HostOp, ...]


@dataclass(frozen=True)
class WhileOp(HostOp):
    cond: nir.Value
    body: tuple[HostOp, ...]


@dataclass(frozen=True)
class IfOp(HostOp):
    cond: nir.Value
    then: tuple[HostOp, ...]
    els: tuple[HostOp, ...] = ()


@dataclass(frozen=True)
class Print(HostOp):
    values: tuple[nir.Value, ...]


@dataclass(frozen=True)
class Stop(HostOp):
    pass


@dataclass
class HostProgram:
    """The complete front-end program plus its node routines."""

    name: str
    ops: tuple[HostOp, ...]
    routines: dict[str, Routine] = field(default_factory=dict)


class StopExecution(Exception):
    """Internal signal for the STOP statement."""


def value_arrays(value: nir.Value) -> frozenset[str]:
    """Array names a host-evaluated NIR value reads."""
    return frozenset(n.name for n in nir.values.walk(value)
                     if isinstance(n, nir.AVar))


def value_scalars(value: nir.Value) -> frozenset[str]:
    """Scalar names a host-evaluated NIR value reads."""
    return frozenset(n.name for n in nir.values.walk(value)
                     if isinstance(n, nir.SVar))


def _clause_reads(clause: nir.MoveClause) -> frozenset[str]:
    reads = value_arrays(clause.src) | value_arrays(clause.mask)
    tgt = clause.tgt
    if isinstance(tgt, nir.AVar) and isinstance(tgt.field, nir.Subscript):
        for idx in tgt.field.indices:
            if isinstance(idx, nir.IndexRange):
                for part in (idx.lo, idx.hi, idx.stride):
                    if part is not None:
                        reads |= value_arrays(part)
            else:
                reads |= value_arrays(idx)
    return reads


def op_effects(op: HostOp) -> tuple[frozenset[str], frozenset[str]]:
    """Name-level (array reads, array writes) of a non-call host op."""
    if isinstance(op, CommMove):
        return _clause_reads(op.clause), frozenset({op.clause.tgt.name})
    if isinstance(op, ReduceMove):
        tgt = op.clause.tgt
        writes = (frozenset({tgt.name}) if isinstance(tgt, nir.AVar)
                  else frozenset())
        return _clause_reads(op.clause), writes
    if isinstance(op, ElementMove):
        tgt = frozenset({op.clause.tgt.name})
        return _clause_reads(op.clause) | tgt, tgt
    if isinstance(op, ScalarMove):
        return _clause_reads(op.clause), frozenset()
    if isinstance(op, Print):
        reads: frozenset[str] = frozenset()
        for value in op.values:
            reads |= value_arrays(value)
        return reads, frozenset()
    if isinstance(op, Alloc):
        return frozenset(), frozenset({op.name})
    if isinstance(op, (IfOp, WhileOp)):     # the condition, not the body
        return value_arrays(op.cond), frozenset()
    return frozenset(), frozenset()


# A pending batch is flushed when it reaches this many calls, whatever
# the barriers say: a barrier-free loop would otherwise grow one group
# per loop execution, probed and built at a cost quadratic in the trip
# count.  The longest batch any committed program forms is 6.
_BATCH_CAP = 32

# Trip records (docs/PIPELINE.md section 16).  A loop of fewer trips
# than ``_TRIP_MIN`` is declined one on entry: trips 1-3 cannot be
# recorded (walk, kernel + launch record, first replay), building one
# costs about what two replayed trips save, and what is left of a
# short loop is microseconds.  After ``_TRIP_EXITS`` side exits a loop
# execution stops recording.
_TRIP_MIN = 16
_TRIP_EXITS = 3

# Trip-record step kinds; a step is a list headed by one.
_COMM, _MOVE, _GUARD, _LAUNCH, _ENQUEUE, _FLUSH = range(6)


class _Trip(list):
    """A trip record: its steps, in order; whether a host-evaluated
    value of it may differ from trip to trip (:func:`_varies`); and,
    once a trip has run from it, its native run or why there is none
    (:meth:`HostExecutor._native_trips`)."""

    __slots__ = ("varies", "native")

    def __init__(self, steps, varies: bool) -> None:
        super().__init__(steps)
        self.varies = varies
        self.native = None


class HostExecutor:
    """Interprets a host program against a simulated machine.

    With ``fuse_exec`` (and a machine in ``"fused"`` mode) adjacent node
    calls accumulate into a pending batch handed to
    :meth:`~repro.machine.cm2.Machine.call_fused` as one dispatch.  Node
    calls always append — the batch preserves their order — while other
    runtime work is *hoisted* ahead of the batch when its name-level
    array footprint is independent of every pending call; dependent work
    (a CSHIFT reading an array the batch writes, a reduction, serial
    element access) flushes the batch first.  Argument resolution is
    persistent: each call site's subgrid and coordinate views are cached
    and revalidated by array identity instead of re-resolved per trip,
    which is also what lets the machine replay the site's launch record
    (every dispatch names its site: ``id`` of the op, or of each op in
    a fused batch).

    A halo argument is read in place when the batch runs, not copied
    when the call is enqueued, so the arrays pending calls read through
    halos are tracked too: hoisted work about to overwrite one first
    hands those calls a copy (:meth:`_snapshot`) — the batch itself
    stays whole, and breaks exactly where it did when every CSHIFT was
    a copy made up front.

    A loop whose body is straight-line PEAC traffic gets a *trip
    record* (:meth:`_run_loop`): once a trip's every dispatch replayed a
    launch record, what that trip did is kept as a flat list of
    pre-resolved steps and later trips run the list instead of the
    walk above — bit-identical arrays, ``RunStats`` and counters, and a
    plain resume through this path from the op whose guard failed.
    When every launch of the record is C and nothing it evaluates
    varies from trip to trip, the trips after its first run leave
    Python: only the guards are evaluated here, and the launches of
    every trip they pass run in one native call
    (:meth:`_run_native`).
    """

    def __init__(self, machine, fuse_exec: bool = False) -> None:
        self.machine = machine
        self.scalars: dict[str, object] = {}
        self.output: list[str] = []
        # The lambda closes over ``machine``, not ``self``: an executor
        # in its own evaluator's closure is a cycle that keeps the
        # machine — every simulated array — alive until a full GC.
        self.evaluator = NirEvaluator(
            read_array=lambda name: machine.home(name).data,
            scalars=self.scalars)
        self.fuse_exec = bool(fuse_exec) and machine.exec_mode == "fused"
        self._pending: list[tuple[HostOp, tuple]] = []
        self._pending_reads: set[str] = set()
        self._pending_writes: set[str] = set()
        self._pending_halos: set[str] = set()
        self._call_infos: dict[int, tuple] = {}
        self._binding_cache: dict[int, tuple] = {}
        # op_effects by id(op); the entry keeps the (frozen) op alive,
        # so its id cannot come back as another op's.
        self._effects: dict[int, tuple] = {}
        # Trip records: ``_trip_sites`` by id(loop), and — only while
        # the trip that may become one runs — the log of what it did,
        # ``(op, outcome)`` in order with ``(None, (batch, records))``
        # for a flush.  Set to None by whatever no record may contain.
        self._loops: dict[int, tuple] = {}
        self._log: list | None = None

    # ------------------------------------------------------------------

    def run(self, program: HostProgram) -> None:
        try:
            self._run_ops(program.ops)
        except StopExecution:
            pass
        self._flush()

    def _run_ops(self, ops) -> None:
        for op in ops:
            self._run_op(op)

    # ------------------------------------------------------------------

    def _run_op(self, op: HostOp) -> None:
        if not self.fuse_exec:
            return self._exec_op(op)
        if isinstance(op, NodeCall):
            return self._enqueue_call(op)
        if isinstance(op, Loop):
            return self._exec_op(op)  # bodies recurse through _run_op
        effects = self._effects.get(id(op))
        if effects is None:
            effects = self._effects[id(op)] = (*op_effects(op), op)
        if isinstance(op, WhileOp) and effects[0]:
            # An array-reading condition must observe the pending batch
            # before every evaluation, so run the loop here.
            m = self.machine
            while True:
                self._barrier(effects[0], frozenset())
                if not bool(self.evaluator.eval_scalar(op.cond)):
                    break
                m.charge_host(m.model.host_op)
                self._run_ops(op.body)
            m.charge_host(m.model.host_op)
            return
        self._barrier(effects[0], effects[1])
        return self._exec_op(op)

    def _barrier(self, reads: frozenset[str],
                 writes: frozenset[str]) -> None:
        """Flush the batch if the op's footprint intersects it."""
        if not self._pending:
            return
        if (reads & self._pending_writes
                or writes & self._pending_writes
                or writes & self._pending_reads):
            self._flush()
        elif writes & self._pending_halos:
            self._snapshot(writes)

    def _snapshot(self, arrays: frozenset[str]) -> None:
        """Give pending calls copies of their halos of ``arrays``.

        One copy per operand key, so calls that shared a folded
        temporary still share one stream.
        """
        self._log = None    # a copy is a binding no record has seen
        copies: dict = {}
        for op, call in self._pending:
            bindings = call[1]
            for arg in op.args:
                value = bindings.get(arg.name)
                if (arg.kind == "halo" and arg.array in arrays
                        and isinstance(value, Shifted)):
                    copy = copies.get(value.key)
                    if copy is None:
                        copy = copies[value.key] = value.materialize()
                    bindings[arg.name] = copy
                    self.machine.fusion_metrics["shifts_materialized"] += 1
        self._pending_halos -= arrays

    def _flush(self) -> None:
        if not self._pending:
            return
        pending = self._pending
        self._pending = []
        self._pending_reads = set()
        self._pending_writes = set()
        self._pending_halos = set()
        records = self.machine.call_fused(
            [call for _, call in pending],
            site=tuple(id(op) for op, _ in pending))
        if self._log is not None:
            self._log.append((None, (pending, records)))

    def _call_info(self, op: NodeCall) -> tuple:
        """(plan, reads, writes, enqueue-time reads, halo arrays) for a
        call site."""
        info = self._call_infos.get(id(op))
        plan = get_plan(op.routine)
        if info is not None and info[0] is plan:
            return info
        regs = {param.name: param.reg for param in op.routine.params}
        read_pregs = set(plan.read_pregs)
        stored = set(plan.stored_pregs)
        reads: set[str] = set()
        writes: set[str] = set()
        prefetch: set[str] = set()
        halos: set[str] = set()
        for arg in op.args:
            if arg.kind == "subgrid":
                reg = regs.get(arg.name)
                if reg is None:
                    continue
                if reg.n in read_pregs:
                    reads.add(arg.array)
                if reg.n in stored:
                    writes.add(arg.array)
            elif arg.kind == "halo":
                halos.add(arg.array)
                if arg.temp is not None:
                    # The batch breaks where it did when the call read
                    # the temporary; its FoldedShift already flushed
                    # every pending store to the source.
                    reads.add(arg.temp)
                else:
                    # A halo stream sees every store enqueued before it.
                    reads.add(arg.array)
                    prefetch.add(arg.array)
            elif arg.kind == "scalar" and arg.value is not None:
                prefetch |= value_arrays(arg.value)
        info = (plan, frozenset(reads), frozenset(writes),
                frozenset(prefetch), frozenset(halos))
        self._call_infos[id(op)] = info
        return info

    def _enqueue_call(self, op: NodeCall) -> None:
        _plan, reads, writes, prefetch, halos = self._call_info(op)
        if prefetch and (prefetch & self._pending_writes):
            self._flush()
        bindings = self._bindings(op)
        pair = (op, (op.routine, bindings, op.region_extents,
                     op.real_elements, op.layout))
        self._pending.append(pair)
        self._pending_reads |= reads
        self._pending_writes |= writes
        self._pending_halos |= halos
        if self._log is not None:
            self._log.append(pair)
        if len(self._pending) >= _BATCH_CAP:
            self._log = None    # flushed by count, not by an op to resume at
            self._flush()

    def _bindings(self, op: NodeCall) -> dict[str, object]:
        """Resolved argument bindings, with persistent subgrid views.

        Subgrid and coordinate views and folded halos depend only on
        the array object, so they are cached per call site and
        revalidated by identity; halo streams (priced per bind) and
        scalar values are taken fresh every call.
        """
        cached = self._binding_cache.get(id(op))
        if cached is not None:
            static, checks = cached
            for name, home, data in checks:
                if (self.machine.arrays.get(name) is not home
                        or home.data is not data):
                    cached = None
                    break
        if cached is None:
            static = {}
            checks = []
            seen: set[str] = set()
            for arg in op.args:
                if arg.kind == "subgrid":
                    static[arg.name] = self.machine.view(arg.array,
                                                         arg.region)
                elif arg.kind == "halo" and arg.temp is not None:
                    static[arg.name] = Shifted(
                        self.machine.home(arg.array).data, arg.offsets,
                        key=arg.temp)
                else:
                    if arg.kind == "coord":
                        static[arg.name] = self.machine.coord_subgrid(
                            arg.extents, arg.axis, arg.region, arg.lo,
                            arg.step)
                    continue
                if arg.array not in seen:
                    seen.add(arg.array)
                    home = self.machine.home(arg.array)
                    checks.append((arg.array, home, home.data))
            self._binding_cache[id(op)] = (static, tuple(checks))
        else:
            static = cached[0]
        bindings: dict[str, object] = dict(static)
        for arg in op.args:
            if arg.kind == "halo" and arg.temp is None:
                bindings[arg.name] = self.machine.halo_subgrid(
                    arg.array, arg.shift, arg.axis)
            elif arg.kind == "scalar":
                bindings[arg.name] = self.evaluator.eval_scalar(arg.value)
        return bindings

    # -- loops and their trip records ------------------------------------

    def _run_loop(self, op: Loop) -> None:
        m = self.machine
        m.charge_host(m.model.host_op)
        trips = range(op.lo, op.hi + (1 if op.step > 0 else -1), op.step)
        sites = self._trip_sites(op, len(trips))
        steps = None
        exits = 0
        stayed = None       # why a record's trips could not run natively
        natively = 0        # trips that did
        t = 0
        while t < len(trips):
            i = trips[t]
            t += 1
            self.scalars[op.var] = i
            m.charge_host(m.model.host_op)
            if steps is not None:
                left = self._run_trip(steps)
                if left is None:
                    m.trip_metrics["replays"] += 1
                    if steps.native is None:
                        steps.native = self._native_trips(steps)
                    if isinstance(steps.native, str):
                        stayed = steps.native
                    else:
                        ran = self._run_native(steps, op.var, trips[t:])
                        natively += ran
                        t += ran
                    continue
                # A side exit: every step so far did what this path
                # would have, so the trip goes on here from the op
                # whose guard failed.
                reason, resume = left
                m.trip_metrics["exits"] += 1
                m.trip_metrics[reason] += 1
                steps = None
                exits += 1
                if exits == _TRIP_EXITS:
                    sites = None
                self._sync_pending()
                while resume is not None:
                    ops, at, resume = resume
                    self._run_ops(ops[at:])
            elif sites is not None:
                carried = [id(site) for site, _ in self._pending]
                self._log = []
                self._run_ops(op.body)
                log, self._log = self._log, None
                if log is not None:
                    steps = self._build_trip(log, sites, carried, op.var)
                    if steps == "never steady":
                        self._decline(steps)
                        steps = sites = None
            else:
                self._run_ops(op.body)
        if stayed is not None and not natively:
            self._decline(stayed, "native_declined")
        # Fortran's exit value, as promotion stores it; uncharged.
        self.scalars[op.var] = op.lo + len(trips) * op.step

    def _decline(self, reason: str, key: str = "declined") -> None:
        declined = self.machine.trip_metrics[key]
        declined[reason] = declined.get(reason, 0) + 1

    def _trip_sites(self, loop: Loop, trips: int) -> dict | None:
        """Where each op of an eligible body resumes, by ``id(op)`` —
        ``(ops, index, where the enclosing branch resumes)`` — or None,
        the reason counted, when ``loop`` can have no trip record.

        Eligible is a body (through ``IfOp`` branches) of node calls,
        folded shifts, scalar moves and conditionals in which no
        host-evaluated value reads an array and no argument is a halo
        stream (made at every bind): nothing in it can allocate, rebind
        an array or invalidate a plan, so what one trip validated by
        identity holds for all.
        """
        if self.machine.exec_mode == "interp":
            return None         # the oracle neither makes nor reads one
        if trips < _TRIP_MIN:
            return self._decline("too short")
        memo = self._loops.get(id(loop))
        if memo is None:
            sites: dict = {}
            memo = self._loops[id(loop)] = (
                self._walk_sites(loop.body, None, sites) or sites, loop)
        if isinstance(memo[0], str):
            return self._decline(memo[0])
        return memo[0]

    def _walk_sites(self, ops, after, sites: dict) -> str | None:
        for at, op in enumerate(ops):
            if id(op) in sites:
                return "op repeated"
            sites[id(op)] = (ops, at, after)
            if isinstance(op, NodeCall):
                if any(a.kind == "halo" and a.temp is None for a in op.args):
                    return "halo stream"
                reads = any(value_arrays(a.value) for a in op.args
                            if a.kind == "scalar")
            elif isinstance(op, (ScalarMove, IfOp)):
                reads = op_effects(op)[0]
            elif isinstance(op, FoldedShift):
                reads = False
            else:
                return f"op {type(op).__name__}"
            if reads:
                return "array-reading scalar"
            if isinstance(op, IfOp):
                inner = (ops, at + 1, after)
                why = (self._walk_sites(op.then, inner, sites)
                       or self._walk_sites(op.els, inner, sites))
                if why:
                    return why
        return None

    def _build_trip(self, log, sites, carried, var) -> _Trip | str | None:
        """The trip record of the trip ``log`` describes, in a loop
        over ``var``; None when the trip is not one to replay (yet);
        ``"never steady"`` when no trip of this loop will be.

        Recordable is a trip whose every dispatch replayed a launch
        record and that leaves pending the call sites it found pending
        (``carried``): the next trip then meets the same batch at every
        flush.  Under ``fuse_exec`` a trip that flushes nothing only
        lengthens the batch; when the calls of an earlier trip were
        still in it, the body has no barrier for its own calls and
        every later trip will do the same.
        """
        m = self.machine
        compiled = self.evaluator.compile_scalar
        if self.fuse_exec:
            mine = {id(op) for op, _ in log if isinstance(op, NodeCall)}
            if mine and all(op is not None for op, _ in log):
                return "never steady" if mine <= set(carried) else None
            if [id(site) for site, _ in self._pending] != carried:
                return None
        steps: list = []
        batch = list(self._pending)     # what every later trip starts with
        flush = None                    # waiting for the op that caused it
        for entry in log:
            op, what = entry
            if op is None:
                launches = _trip_launches(what[1], batch)
                if launches is None:
                    return None
                flush = [_FLUSH, None, launches]
                steps.append(flush)
                batch = []
                continue
            resume = sites[id(op)]
            if flush is not None:
                flush[1], flush = resume, None
            if isinstance(op, FoldedShift):
                cycles = m.shift_cycles(*op.const)
                if steps and steps[-1][0] == _COMM:
                    steps[-1][1] += cycles
                    steps[-1][2] += 1
                else:
                    steps.append([_COMM, cycles, 1])
            elif isinstance(op, ScalarMove):
                steps.append([_MOVE, op.clause.tgt.name,
                              compiled(op.clause.src)])
            elif isinstance(op, IfOp):
                steps.append([_GUARD, resume, compiled(op.cond), what])
            elif self.fuse_exec:
                batch.append(entry)
                steps.append([_ENQUEUE, entry, what[1],
                              [(a.name, compiled(a.value)) for a in op.args
                               if a.kind == "scalar"]])
            else:
                if what is None:
                    return None
                (record,) = what
                values = {a.name: a.value for a in op.args}
                steps.append([_LAUNCH, resume, record, _may_get_hot(record),
                              [(k, kind, compiled(values[name]))
                               for name, k, kind in record.calls[0][4]]])
        if flush is not None:
            return None
        m.trip_metrics["records"] += 1
        return _Trip(steps, _varies(log, var))

    def _run_trip(self, steps) -> tuple | None:
        """Run one trip from its record: None, or the side exit
        ``(reason, where the ordinary path resumes)``.

        Each step does exactly what the ordinary path did at that point
        of the recorded trip, eagerly and in program order, and checks
        its guard before it does anything — so an exit leaves nothing
        to undo.  ``_pending`` stays real; the three ``_pending_*``
        sets stay what they were when the trip began
        (:meth:`_sync_pending`).
        """
        m = self.machine
        stats = m.stats
        replay = m.replay
        host_op = m.model.host_op
        scalars = self.scalars
        pending = self._pending
        for step in steps:
            kind = step[0]
            if kind == _COMM:       # a run of folded shifts
                stats.comm_cycles += step[1]
                stats.comm_ops += step[2]
            elif kind == _LAUNCH:   # an unbatched node call
                _, resume, record, kern, args = step
                if kern is not None and hot(kern):
                    return "tier_up", resume
                X = record.X
                for k, type_, evaluate in args:
                    value = evaluate()
                    if type(value) is not type_:
                        return "scalar_type", resume
                    X[k] = value
                replay(record)
            elif kind == _ENQUEUE:  # a node call joining the batch
                _, pair, bindings, args = step
                for name, evaluate in args:
                    bindings[name] = evaluate()
                pending.append(pair)
            elif kind == _FLUSH:    # the batch, as the records it replays
                _, resume, launches = step
                for record, kern, fills in launches:
                    if kern is not None and hot(kern):
                        return "tier_up", resume
                    X = record.X
                    for k, type_, bindings, name in fills:
                        value = bindings[name]
                        if type(value) is not type_:
                            return "scalar_type", resume
                        X[k] = value
                del pending[:]
                for launch in launches:
                    replay(launch[0])
            elif kind == _MOVE:
                scalars[step[1]] = step[2]()
                stats.host_cycles += host_op
            else:                   # _GUARD: an IfOp, its branch inlined
                if bool(step[2]()) is not step[3]:
                    return "guard", step[1]
                stats.host_cycles += host_op
        return None

    def _native_trips(self, trip) -> tuple | str:
        """How ``trip``'s later trips run natively — ``(driver, launch
        records, guards, per-trip host charges)`` — or why they cannot.

        Asked once per record, after a trip ran from it, so every value
        it evaluates (invariant: :func:`_varies`) already sits in the
        scalar files and bindings dicts, and the batch it carries is
        the one every later trip carries.  The driver is built here, at
        the first record that qualifies.
        """
        host_op = self.machine.model.host_op
        per_trip = RunStats(host_cycles=host_op)    # the loop's own
        records: list = []
        guards: list = []
        for step in trip:
            kind = step[0]
            if kind == _COMM:
                per_trip.comm_cycles += step[1]
                per_trip.comm_ops += step[2]
            elif kind == _LAUNCH:
                records.append(step[2])
            elif kind == _FLUSH:
                records.extend(launch[0] for launch in step[2])
            elif kind in (_MOVE, _GUARD):
                per_trip.host_cycles += host_op
                if kind == _GUARD:
                    guards.append((step[2], step[3]))
        if not all(record.launch.kern.native for record in records):
            # Without a compiler no kernel is C: say why.
            return ("no compiler" if ckernel._compiler() is None
                    else "blocked kernel")
        if trip.varies:
            return "varying scalar"
        try:
            driver = ckernel.TripDriver(
                [(record.launch, record.X) for record in records])
        except Declined:
            return "no compiler"
        except ckernel.BuildFailed:
            return "build failed"
        return driver, records, guards, per_trip

    def _run_native(self, trip, var: str, upcoming: range) -> int:
        """Run natively as many of the ``upcoming`` trips as pass every
        guard of ``trip`` — the ones before the first that would leave
        it — and charge them; how many.

        A guard reads the loop variable and invariant scalars only, so
        each trip's guards are evaluated here, in order, before any
        launch: what the trips that pass do is the record's launches,
        over the same scalars, and the charges of the trip it ran from,
        which the machine multiplies.  The trip that fails a guard is
        left to :meth:`_run_trip`, which leaves the record where it
        always did.
        """
        driver, records, guards, per_trip = trip.native
        count = _passing(guards, self.scalars, var, upcoming)
        if count:
            m = self.machine
            driver(count)
            m.replay_trips(records, count)
            m.stats.merge(per_trip, count)
            m.trip_metrics["replays"] += count
            m.trip_metrics["native"] += count
        return count

    def _sync_pending(self) -> None:
        """Make the ``_pending_*`` sets say what ``_pending`` holds.
        Trips run from a record keep only the list, so mid-trip the
        sets are still those of the batch the trip started with — what
        they must be again when it ends, but not at a side exit."""
        self._pending_reads = set()
        self._pending_writes = set()
        self._pending_halos = set()
        for op, _ in self._pending:
            _plan, reads, writes, _prefetch, halos = self._call_info(op)
            self._pending_reads |= reads
            self._pending_writes |= writes
            self._pending_halos |= halos

    # ------------------------------------------------------------------

    def _exec_op(self, op: HostOp) -> None:
        m = self.machine
        if isinstance(op, Alloc):
            if not op.resident:
                m.charge_host(m.model.host_op)  # what m.alloc charges
            # Pre-allocated inputs (Executable.run's overrides) survive.
            elif op.name not in m.arrays:
                m.alloc(op.name, op.extents, np.dtype(op.dtype),
                        layout=op.layout)
        elif isinstance(op, ScalarInit):
            self.scalars[op.name] = op.value
            m.charge_host(m.model.host_op)
        elif isinstance(op, NodeCall):
            self._node_call(op)
        elif isinstance(op, FoldedShift):
            cmrt.execute_comm(m, self.evaluator, op, "folded", op.const)
            if self._log is not None:
                self._log.append((op, None))
        elif isinstance(op, CommMove):
            cmrt.execute_comm(m, self.evaluator, op.clause, op.kind,
                              op.const)
        elif isinstance(op, ReduceMove):
            cmrt.execute_reduce(m, self.evaluator, op.clause, self.scalars)
        elif isinstance(op, ScalarMove):
            value = self.evaluator.eval_scalar(op.clause.src)
            assert isinstance(op.clause.tgt, nir.SVar)
            self.scalars[op.clause.tgt.name] = value
            m.charge_host(m.model.host_op)
            if self._log is not None:
                self._log.append((op, None))
        elif isinstance(op, ElementMove):
            self._element_move(op.clause)
        elif isinstance(op, Loop):
            self._run_loop(op)
        elif isinstance(op, WhileOp):
            while bool(self.evaluator.eval_scalar(op.cond)):
                m.charge_host(m.model.host_op)
                self._run_ops(op.body)
            m.charge_host(m.model.host_op)
        elif isinstance(op, IfOp):
            m.charge_host(m.model.host_op)
            taken = bool(self.evaluator.eval_scalar(op.cond))
            if self._log is not None:
                self._log.append((op, taken))
            self._run_ops(op.then if taken else op.els)
        elif isinstance(op, Print):
            items = [self.evaluator.eval_scalar(v) if not self._is_field(v)
                     else str(self.evaluator.eval(v)) for v in op.values]
            self.output.append(" ".join(str(x) for x in items))
            m.charge_host(m.model.host_op)
        elif isinstance(op, Stop):
            raise StopExecution()
        else:
            raise TypeError(f"unknown host op {type(op).__name__}")

    @staticmethod
    def _is_field(value: nir.Value) -> bool:
        return any(isinstance(n, (nir.AVar, nir.LocalUnder))
                   for n in nir.values.walk(value))

    # ------------------------------------------------------------------

    def _node_call(self, op: NodeCall) -> None:
        records = self.machine.call_routine(
            op.routine, self._bindings(op), op.region_extents,
            op.real_elements, layout=op.layout, site=id(op))
        if self._log is not None:
            self._log.append((op, records))

    def _element_move(self, clause: nir.MoveClause) -> None:
        """Serial front-end array access: single elements or sections.

        The front end pays :attr:`host_element_op` cycles per element
        touched — this is the "serial code" the compilation model pushes
        programmers away from.
        """
        m = self.machine
        tgt = clause.tgt
        assert isinstance(tgt, nir.AVar) and isinstance(tgt.field,
                                                        nir.Subscript)
        data = m.home(tgt.name).data
        index: list = []
        for axis, sub in enumerate(tgt.field.indices):
            if isinstance(sub, nir.IndexRange):
                n = data.shape[axis]
                lo = (int(self.evaluator.eval_scalar(sub.lo))
                      if sub.lo is not None else 1)
                hi = (int(self.evaluator.eval_scalar(sub.hi))
                      if sub.hi is not None else n)
                st = (int(self.evaluator.eval_scalar(sub.stride))
                      if sub.stride is not None else 1)
                index.append(slice(lo - 1, hi, st))
            else:
                index.append(int(self.evaluator.eval_scalar(sub)) - 1)
        view = data[tuple(index)]
        elements = int(np.asarray(view).size) if hasattr(view, "size") else 1
        m.charge_host(m.model.host_element_op * max(1, elements))

        mask = self.evaluator.eval(clause.mask)
        value = self.evaluator.eval(clause.src)
        if np.ndim(view) == 0:
            if bool(np.all(mask)):
                data[tuple(index)] = np.asarray(value).reshape(()).item() \
                    if isinstance(value, np.ndarray) else value
            return
        val = np.broadcast_to(np.asarray(value), view.shape)
        if np.ndim(mask) == 0:
            if bool(mask):
                np.copyto(view, val, casting="unsafe")
        else:
            mask_arr = np.broadcast_to(np.asarray(mask, bool), view.shape)
            np.copyto(view, np.where(mask_arr, val, view), casting="unsafe")


def _varies(log, var: str) -> bool:
    """Whether some value the trip ``log`` describes evaluating on the
    host may differ from trip to trip: a scalar-move source or scalar
    argument that reads the loop variable ``var``, or a condition,
    source or argument that reads a scalar some move of the trip
    assigns at or after it — a value carried over from the trip before,
    a move's own target included.  Reading a scalar an earlier move of
    the trip assigned is invariant when that move is."""
    ahead = Counter(op.clause.tgt.name for op, _ in log
                    if isinstance(op, ScalarMove))
    for op, _ in log:
        if isinstance(op, IfOp):
            if value_scalars(op.cond) & ahead.keys():
                return True
            continue
        if isinstance(op, ScalarMove):
            values = (op.clause.src,)
        elif isinstance(op, NodeCall):
            values = tuple(a.value for a in op.args
                           if a.kind == "scalar" and a.value is not None)
        else:
            continue        # a folded shift, a flush
        for value in values:
            reads = value_scalars(value)
            if var in reads or reads & ahead.keys():
                return True
        if isinstance(op, ScalarMove):
            tgt = op.clause.tgt.name
            ahead[tgt] -= 1
            if not ahead[tgt]:
                del ahead[tgt]
    return False


def _passing(guards, scalars, var: str, upcoming: range) -> int:
    """How many of the ``upcoming`` trips, in order, take every guard's
    recorded branch — ``(condition closure, outcome)`` pairs, evaluated
    with the loop variable ``var`` of ``scalars`` set to each trip's."""
    if guards:
        for n, i in enumerate(upcoming):
            scalars[var] = i
            for cond, taken in guards:
                if bool(cond()) is not taken:
                    return n
    return len(upcoming)


def _may_get_hot(record):
    """The record's kernel if a later launch may find it hot
    (:func:`~repro.machine.kernel.hot`), else None: a C kernel stays
    one, a decline is remembered."""
    kern = record.launch.kern
    return None if kern.native or kern.declined is not None else kern


def _trip_launches(records, batch) -> list | None:
    """A flush as a trip record keeps it: per launch record replayed,
    ``(record, its kernel if it may get hot, scalar fills)`` — a fill
    is ``(scalar-file slot, type, bindings dict, name)`` over the dicts
    of ``batch``, the ``(op, call)`` pairs every later trip flushes
    here.  None when the flush is not one to replay: the ordinary path
    ran part of it (``records`` is None), a record no longer matches
    those calls — the one identity check that stands for every later
    trip — or several records of which one may still get hot (a
    rejected batch replays call by call, and a kernel that crosses
    between two of them must be met by the ordinary path).
    """
    if records is None:
        return None
    launches = []
    calls = [call for _, call in batch]
    for record in records:
        mine, calls = calls[:len(record.calls)], calls[len(record.calls):]
        if record.stale(mine) is not None:
            return None
        launches.append((record, _may_get_hot(record),
                         [(k, kind, call[1], name)
                          for call, spec in zip(mine, record.calls)
                          for name, k, kind in spec[4]]))
    if calls or (len(launches) > 1
                 and any(kern is not None for _, kern, _ in launches)):
        return None
    return launches


def format_host_program(program: HostProgram, indent: int = 0) -> str:
    """Readable disassembly of a host program (for docs and debugging)."""
    lines: list[str] = [f"HOST PROGRAM {program.name}:"]
    _format_ops(program.ops, lines, 1)
    return "\n".join(lines)


def _format_ops(ops, lines: list[str], depth: int) -> None:
    pad = "  " * depth
    for op in ops:
        if isinstance(op, Alloc):
            lines.append(f"{pad}alloc {op.name}{list(op.extents)} "
                         f": {op.dtype}"
                         + ("" if op.resident else "  (folded)"))
        elif isinstance(op, ScalarInit):
            lines.append(f"{pad}scalar {op.name} = {op.value}")
        elif isinstance(op, NodeCall):
            args = ", ".join(a.name for a in op.args)
            lines.append(f"{pad}call_pe {op.routine.name}({args}) "
                         f"over {op.region_extents}")
        elif isinstance(op, FoldedShift):
            lines.append(f"{pad}cm_rt cshift (folded) {op.src} -> "
                         f"{', '.join(op.readers)}")
        elif isinstance(op, CommMove):
            lines.append(f"{pad}cm_rt {op.kind}: {op.clause.tgt}")
        elif isinstance(op, ReduceMove):
            lines.append(f"{pad}cm_rt reduce: {op.clause.tgt}")
        elif isinstance(op, ScalarMove):
            lines.append(f"{pad}scalar_move {op.clause.tgt} <- "
                         f"{op.clause.src}")
        elif isinstance(op, ElementMove):
            lines.append(f"{pad}element_move {op.clause.tgt}")
        elif isinstance(op, Loop):
            lines.append(f"{pad}for {op.var} = {op.lo}, {op.hi}, {op.step}:")
            _format_ops(op.body, lines, depth + 1)
        elif isinstance(op, WhileOp):
            lines.append(f"{pad}while {op.cond}:")
            _format_ops(op.body, lines, depth + 1)
        elif isinstance(op, IfOp):
            lines.append(f"{pad}if {op.cond}:")
            _format_ops(op.then, lines, depth + 1)
            if op.els:
                lines.append(f"{pad}else:")
                _format_ops(op.els, lines, depth + 1)
        elif isinstance(op, Print):
            lines.append(f"{pad}print {', '.join(map(str, op.values))}")
        elif isinstance(op, Stop):
            lines.append(f"{pad}stop")
