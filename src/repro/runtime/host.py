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
from typing import NamedTuple

import numpy as np

from .. import nir
from ..machine import ckernel, kernel
from ..machine.loopir import Declined
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
    # The first trip, where it ends its batches elsewhere than the
    # others: the body's ops with its own markers (it joins calls
    # pending on entry).  None: the body.
    first: tuple[HostOp, ...] | None = None


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


@dataclass(frozen=True)
class Flush(HostOp):
    """Dispatch the node calls pending as one batch."""


@dataclass(frozen=True)
class Snapshot(HostOp):
    """Give the pending calls copies of their halos of ``arrays``, which
    the next op overwrites."""

    arrays: tuple[str, ...]


@dataclass
class HostProgram:
    """The complete front-end program plus its node routines.

    ``batched``: the end of every batch of node calls is marked
    (:mod:`repro.backend.cm2.batches`), and the ``fused`` engine runs
    the batches as marked; every engine skips the markers otherwise.
    """

    name: str
    ops: tuple[HostOp, ...]
    routines: dict[str, Routine] = field(default_factory=dict)
    batched: bool = False


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


def _trip_declined(ops, seen: set) -> str:
    """Why a loop of body ``ops`` can have no trip record, or "" when it
    can.  Eligible is a body (through ``IfOp`` branches) of node calls,
    folded shifts, scalar moves, conditionals and batch markers in which
    no host-evaluated value reads an array and no argument is a halo
    stream (made at every bind)."""
    for op in ops:
        if id(op) in seen:
            return "op repeated"
        seen.add(id(op))
        if isinstance(op, NodeCall):
            if any(a.kind == "halo" and a.temp is None for a in op.args):
                return "halo stream"
            reads = any(value_arrays(a.value) for a in op.args
                        if a.kind == "scalar")
        elif isinstance(op, ScalarMove):
            reads = value_arrays(op.clause.src) | value_arrays(op.clause.mask)
        elif isinstance(op, IfOp):
            reads = value_arrays(op.cond)
        elif isinstance(op, (FoldedShift, Flush, Snapshot)):
            reads = False
        else:
            return f"op {type(op).__name__}"
        if reads:
            return "array-reading scalar"
        if isinstance(op, IfOp):
            why = (_trip_declined(op.then, seen)
                   or _trip_declined(op.els, seen))
            if why:
                return why
    return ""


# Trip records (docs/PIPELINE.md section 16).  A loop of fewer trips
# than ``_TRIP_MIN`` is declined one on entry: what is left of a short
# loop is microseconds.  Only its first ``_TRIP_ENTRIES`` trips keep
# records of one trip each; after ``_TRIP_EXITS`` exits a loop
# execution stops binding them.
_TRIP_MIN = 16
_TRIP_ENTRIES = 2
_TRIP_EXITS = 3


class _Trip(NamedTuple):
    """What one trip of a loop did, kept with the executable by op,
    site and template — no array, address or closure: its moves, guards
    and calls, ``(op, outcome)``; per dispatch ``(site, template, call
    ops)``, a call pending on entry included; what it charges besides
    its launches.  ``at``: None for a steady record (it covers every
    trip its guards pass), else the one trip (from 0) of a loop
    execution it covers."""

    steps: tuple
    launches: tuple
    per_trip: RunStats
    at: int | None


class _Bound(NamedTuple):
    """A record bound to this run: its launch records, its driver, why
    it has none or None (one trip, run in Python), the trips it covers
    and what stops it short (``guard``, ``tier_up``; None: no exit)."""

    record: _Trip
    launches: list
    driver: object
    count: int
    stop: str | None


class HostExecutor:
    """Interprets a host program against a simulated machine.

    On a machine in ``"fused"`` mode a batched program's node calls
    accumulate, in order, into a pending batch, each bound where it
    stands, and a :class:`Flush` hands the batch to
    :meth:`~repro.machine.cm2.Machine.call_fused` as one dispatch; a
    :class:`Snapshot` gives the pending calls copies of halos the next
    op overwrites (:meth:`_snapshot`).  Where each batch ends was fixed
    at compile time (:mod:`repro.backend.cm2.batches`); every other
    engine dispatches each call where it stands and skips the markers.
    Each call site's views are cached and revalidated by array
    identity, which is what lets the machine replay the site's launch
    record (a dispatch names its site: ``id`` of the op, or of each op
    in a fused batch).

    A loop whose body is straight-line PEAC traffic runs its trips
    whole from *trip records* kept with the executable (:meth:`_run_loop`):
    learned from a trip this walk ran, bound to each run's homes and
    scalars where a trip starts (:meth:`_fit`), and run in one native
    call when every launch is C, else in Python (:meth:`_run_trips`) —
    with bit-identical arrays, ``RunStats`` and counters.
    """

    def __init__(self, machine) -> None:
        self.machine = machine
        self.scalars: dict[str, object] = {}
        self.output: list[str] = []
        # The lambda closes over ``machine``, not ``self``: an executor
        # in its own evaluator's closure is a cycle that keeps the
        # machine — every simulated array — alive until a full GC.
        self.evaluator = NirEvaluator(
            read_array=lambda name: machine.home(name).data,
            scalars=self.scalars)
        self.fuse_exec = False
        self._pending: list[tuple[HostOp, tuple]] = []
        self._binding_cache: dict[int, tuple] = {}
        # While a trip that may become a trip record runs: what it did,
        # ``(op, outcome)`` in order, ``(None, (batch, records))`` for a
        # flush.  None once anything no record may contain happens.
        self._log: list | None = None

    # ------------------------------------------------------------------

    def run(self, program: HostProgram) -> None:
        self.fuse_exec = (program.batched
                          and self.machine.exec_mode == "fused")
        try:
            self._run_ops(program.ops)
        except StopExecution:
            pass

    def _run_ops(self, ops) -> None:
        for op in ops:
            self._exec_op(op)

    # ------------------------------------------------------------------

    def _snapshot(self, arrays: tuple[str, ...]) -> None:
        """Give pending calls copies of their halos of ``arrays``.

        One copy per operand key, so calls that shared a folded
        temporary still share one stream.
        """
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
                    self._log = None    # a binding no record has seen

    def _flush(self) -> None:
        pending = self._pending
        self._pending = []
        records = self.machine.call_fused(
            [call for _, call in pending],
            site=tuple(id(op) for op, _ in pending))
        if self._log is not None:
            self._log.append((None, (pending, records)))

    def _node_call(self, op: NodeCall) -> None:
        """Bind ``op`` here: add it to the pending batch under
        ``fuse_exec``, else dispatch it."""
        call = self._call(op)
        if self.fuse_exec:
            self._pending.append((op, call))
        else:
            call = self.machine.call_routine(
                *call[:4], layout=op.layout, site=id(op))    # its records
        if self._log is not None:
            self._log.append((op, call))

    def _call(self, op: NodeCall) -> tuple:
        """The ``call_fused`` tuple of ``op``, bound here and now."""
        return (op.routine, self._bindings(op), op.region_extents,
                op.real_elements, op.layout)

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
        why = ("" if m.exec_mode == "interp"    # the oracle records none
               else _trip_declined(op.body, set())
               if len(trips) >= _TRIP_MIN
               else "too short")
        if why:
            self._decline(why)
        active = m.exec_mode != "interp" and not why
        exits = natively = 0    # natively: trips the driver ran
        stayed = None       # why trips run from a record stayed in Python
        exiting = False     # the trip after an exit runs unrecorded
        t = 0
        while t < len(trips):
            self.scalars[op.var] = trips[t]
            bound = self._bind(op, t, trips[t:]) if active else None
            if bound is not None:
                ran = self._run_trips(bound, op.var, trips[t:])
                t += ran
                # Its launches ran every call pending on entry.
                self._pending = []
                if isinstance(bound.driver, str):
                    stayed = bound.driver
                elif bound.driver is not None:
                    natively += ran
                # A steady record that stopped short is an exit: the
                # next trip runs from another record, or on the ordinary
                # path unrecorded.
                exiting = bound.stop is not None and t < len(trips)
                exits += exiting
                active = exits < _TRIP_EXITS
                continue
            body = (op.first if t == 0 and op.first is not None
                    and self.fuse_exec else op.body)
            t += 1
            m.charge_host(m.model.host_op)
            if exiting or not active:
                exiting = False
                self._run_ops(body)
                continue
            entered = bool(self._pending)
            self._log = []
            self._run_ops(body)
            log, self._log = self._log, None
            record = (None if log is None
                      else self._build_trip(log, entered, op.var, t - 1))
            if isinstance(record, str):
                self._decline(record)
                active = False
            elif record is not None:
                self._keep(op, record)
        if stayed is not None and not natively:
            self._decline(stayed, "native_declined")
        # Fortran's exit value, as promotion stores it; uncharged.
        self.scalars[op.var] = op.lo + len(trips) * op.step

    def _decline(self, reason: str, key: str = "declined") -> None:
        declined = self.machine.trip_metrics[key]
        declined[reason] = declined.get(reason, 0) + 1

    def _kept(self, loop: Loop) -> tuple:
        """The records kept for ``loop``: replaced, never changed."""
        got = self.machine.trips.get(id(loop))
        return () if got is None or got[0] is not loop else got[1]

    def _build_trip(self, log, entered, var, at) -> _Trip | str | None:
        """The record of trip ``at`` (from 0) of a loop over ``var``,
        from its ``log``; None when it is none (yet); why not, when no
        later trip of the loop execution will be: ``"varying scalar"``.
        Every dispatch must have run a kernel.  It is steady when no
        call was pending as it started (``entered``) and nothing it
        evaluated varies (:func:`_varies`); else it is kept for one of
        the first ``_TRIP_ENTRIES`` trips."""
        m = self.machine
        host_op = m.model.host_op
        per_trip = RunStats(host_cycles=host_op)    # the loop's own
        steps: list = []
        launches: list = []     # (site, template, call ops)
        for op, what in log:
            if op is None:      # a flush: (its pairs, records)
                pairs, records = what
                if records is None:
                    return None
                ops = tuple(site for site, _ in pairs)
                site = tuple(map(id, ops))
                if len(records) == 1 and len(records[0].calls) == len(ops):
                    launches.append((site, records[0].template, ops))
                else:           # a rejected batch: call by call
                    for i, (record, op) in enumerate(zip(records, ops)):
                        launches.append(((site, i), record.template, (op,)))
            elif isinstance(op, FoldedShift):
                per_trip.comm_cycles += m.shift_cycles(*op.const)
                per_trip.comm_ops += 1
            elif isinstance(op, (ScalarMove, IfOp)):
                per_trip.host_cycles += host_op
                steps.append((op, what))
            elif self.fuse_exec:
                steps.append((op, None))
            elif what is None:
                return None
            else:
                steps.append((op, None))
                launches.append((id(op), what[0].template, (op,)))
        varies = _varies(log, var)
        if not varies and not entered:
            at = None
        elif at >= _TRIP_ENTRIES:
            return "varying scalar" if varies else None
        return _Trip(tuple(steps), tuple(launches), per_trip, at)

    def _keep(self, loop: Loop, record: _Trip) -> None:
        """Keep ``record`` in place of one of the same trip and sites."""
        def ident(r):
            return (r.at, [launch[0] for launch in r.launches],
                    [(id(op), taken) for op, taken in r.steps])
        kept = tuple(r for r in self._kept(loop) if ident(r) != ident(record))
        self.machine.trips[id(loop)] = (loop, kept + (record,))

    def _bind(self, loop: Loop, at: int, upcoming: range) -> _Bound | None:
        """The first kept record of ``loop`` that fits at trip ``at``,
        the first of ``upcoming``, bound: an entry record, where the
        loop has a steady one, before those — a trip entered with calls
        pending, only one of its own."""
        kept = self._kept(loop)
        steady = [r for r in kept if r.at is None]
        if not steady:
            return None
        for record in ([r for r in kept if r.at == at]
                       + ([] if self._pending else steady)):
            bound = self._fit(record, loop.var, upcoming)
            if bound is not None:
                return bound
        return None

    def _fit(self, record: _Trip, var: str, upcoming: range) -> _Bound | None:
        """``record`` bound at the first of the ``upcoming`` trips, or
        None — the scalars as they were — when a guard takes the other
        branch, a blocked kernel would be hot on its first trip or
        ``Machine.adopt`` binds no launch.  Its steps run as the
        ordinary path would run them this trip: moves assign, and calls'
        ``_bindings`` fill their launches' scalar files beside the calls
        pending on entry.  A steady record covers later trips with the
        files of this one; an entry record, this trip alone."""
        saved = dict(self.scalars)
        ev = self.evaluator
        calls = {id(op): call for op, call in self._pending}
        guards = []
        for op, taken in record.steps:
            if isinstance(op, NodeCall):
                calls[id(op)] = self._call(op)
            elif taken is None:
                self.scalars[op.clause.tgt.name] = ev.eval_scalar(
                    op.clause.src)
            else:
                cond = ev.compile_scalar(op.cond)
                if bool(cond()) is not taken:
                    return self._restore(saved)
                guards.append((cond, taken, _bisectable(op.cond, var)))
        alone = record.at is not None
        cool = [0]

        def covers(kernels):
            cool[0] = _cool_trips(
                [(kern, len(t.plans) * (t.n + kernel._LAUNCH_COST))
                 for kern, (_, t, _) in zip(kernels, record.launches)],
                1 if alone else len(upcoming))
            return _passing(guards, self.scalars, var, upcoming[:cool[0]])

        records, count = self.machine.adopt([
            (site, template, [calls[id(op)] for op in ops])
            for site, template, ops in record.launches], covers)
        if not count:
            return self._restore(saved)
        return _Bound(
            record, records,
            self._trip_driver(records) if count > 1 else None, count,
            None if alone else "guard" if count < cool[0] else "tier_up")

    def _restore(self, saved: dict) -> None:
        self.scalars.clear()
        self.scalars.update(saved)

    def _trip_driver(self, records):
        """The native driver of a trip over ``records``, or why it has
        none."""
        if not all(record.launch.kern.native for record in records):
            # Without a compiler no kernel is C: say why.
            return ("no compiler" if ckernel._compiler() is None
                    else "blocked kernel")
        try:
            return ckernel.TripDriver(
                [(record.launch, record.X) for record in records])
        except Declined:
            return "no compiler"
        except ckernel.BuildFailed:
            return "build failed"

    def _run_trips(self, bound: _Bound, var: str, upcoming: range) -> int:
        """Run, and charge, the trips ``bound`` covers of the
        ``upcoming`` ones it was fitted to; how many.  One that stops
        short exits, counted by what stopped it."""
        m = self.machine
        records, count, driver = bound.launches, bound.count, bound.driver
        native = driver is not None and not isinstance(driver, str)
        if native:
            m.trip_metrics["native"] += count
        else:
            launches = [(record.launch.run, record.X) for record in records]

            def driver(trips):
                for _ in range(trips):
                    for run, X in launches:
                        run(X)
        driver(count)
        m.replay_trips(records, count)
        m.stats.merge(bound.record.per_trip, count)
        m.trip_metrics["records"] += 1
        m.trip_metrics["replays"] += count
        if bound.stop is not None and count < len(upcoming):
            m.trip_metrics["exits"] += 1
            m.trip_metrics[bound.stop] += 1
        return count

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
        elif isinstance(op, Flush):
            if self._pending:
                self._flush()
        elif isinstance(op, Snapshot):
            if self._pending:
                self._snapshot(op.arrays)
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
            while True:
                if not bool(self.evaluator.eval_scalar(op.cond)):
                    break
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
    assigns at or after it — a value the trip before left,
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


_MONOTONE = frozenset({nir.BinOp.LT, nir.BinOp.LE, nir.BinOp.GT,
                       nir.BinOp.GE})


def _bisectable(cond: nir.Value, var: str) -> bool:
    """Whether ``cond`` compares the loop variable ``var`` by ``< <= >
    >=`` with a value that does not read it: its outcome changes at most
    once over a trip range."""
    return (isinstance(cond, nir.Binary) and cond.op in _MONOTONE
            and any(mine == nir.SVar(var) and var not in value_scalars(other)
                    for mine, other in ((cond.left, cond.right),
                                        (cond.right, cond.left))))


def _passing(guards, scalars, var: str, upcoming: range) -> int:
    """How many of the ``upcoming`` trips, in order, take every guard's
    recorded branch — ``(closure, outcome, bisectable)``, asked with the
    loop variable ``var`` of ``scalars`` set to each trip's; the first
    trip's is known.  A bisectable guard passes on a prefix of them,
    found by bisection; the others are asked trip by trip up to its
    end."""
    count = len(upcoming)
    for cond, taken, bisect in guards:
        lo = 1      # trips [0, lo) pass
        while bisect and lo < count:
            mid = (lo + count) // 2
            scalars[var] = upcoming[mid]
            if bool(cond()) is taken:
                lo = mid + 1
            else:
                count = mid
    rest = [(cond, taken) for cond, taken, bisect in guards if not bisect]
    for n in range(1, count if rest else 0):
        scalars[var] = upcoming[n]
        for cond, taken in rest:
            if bool(cond()) is not taken:
                return n
    return count


def _cool_trips(launches, most: int) -> int:
    """How many whole trips over ``launches`` — ``(kernel, work)`` in
    trip order — at most ``most``, run before some launch would find its
    blocked kernel hot: ``hot`` is asked before a launch, and
    ``Launch.run`` adds the launch's ``work`` to ``streamed``.  A C
    kernel stays one, and a decline is remembered."""
    work: dict = {}     # id -> [kernel, per trip, before its last launch]
    for kern, per in launches:
        if not kern.native and kern.declined is None:
            got = work.setdefault(id(kern), [kern, 0, 0])
            got[2] = got[1]
            got[1] += per
    for kern, per_trip, before in work.values():
        # Trip t (from 0) meets streamed + t * per_trip + before.
        most = min(most, max(0, -((kern.streamed + before - kernel._TIER_UP)
                                  // per_trip)))
    return most


def format_host_program(program: HostProgram) -> str:
    """Readable disassembly of a host program (for docs and debugging):
    a ``flush`` line ends each batch of node calls."""
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
        elif isinstance(op, Flush):
            lines.append(f"{pad}flush")
        elif isinstance(op, Snapshot):
            lines.append(f"{pad}snapshot halos of {', '.join(op.arrays)}")
        elif isinstance(op, Loop):
            lines.append(f"{pad}for {op.var} = {op.lo}, {op.hi}, {op.step}:")
            if op.first is None:
                _format_ops(op.body, lines, depth + 1)
            else:
                lines.append(f"{pad}  first trip:")
                _format_ops(op.first, lines, depth + 2)
                lines.append(f"{pad}  other trips:")
                _format_ops(op.body, lines, depth + 2)
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
