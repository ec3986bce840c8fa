"""Call batching: where each fused dispatch ends, fixed at compile time.

The ``fused`` engine hands adjacent node calls to ``Machine.call_fused``
as one batch.  This pass, the backend's last (under ``fuse_exec``),
marks where every batch ends: a :class:`~repro.runtime.host.Flush`
dispatches the calls pending, a :class:`~repro.runtime.host.Snapshot`
gives them copies of their halos of arrays the next op overwrites.
Calls bind where they stand.  Other host work is hoisted over pending
calls whose name-level footprint it is independent of, and ends their
batch otherwise; so does a call whose host-evaluated arguments read a
pending write, and a batch of ``_BATCH_CAP`` calls.  No batch spans a
trip: every DO and WHILE body ends flushed (docs/PIPELINE.md §10).
"""

from __future__ import annotations

import dataclasses
from typing import NamedTuple

from ... import nir
from ...peac.isa import Mem
from ...runtime import host as h

# A batch is flushed when it reaches this many calls, whatever the
# footprints say: a long run of independent calls would otherwise be
# probed and built as one group at a cost quadratic in its length.  The
# longest batch any committed program forms is 4 (SWE).
_BATCH_CAP = 32


def _clause_reads(clause: nir.MoveClause) -> frozenset[str]:
    reads = h.value_arrays(clause.src) | h.value_arrays(clause.mask)
    tgt = clause.tgt
    if isinstance(tgt, nir.AVar) and isinstance(tgt.field, nir.Subscript):
        for idx in tgt.field.indices:
            if isinstance(idx, nir.IndexRange):
                for part in (idx.lo, idx.hi, idx.stride):
                    if part is not None:
                        reads |= h.value_arrays(part)
            else:
                reads |= h.value_arrays(idx)
    return reads


def op_effects(op: h.HostOp) -> tuple[frozenset[str], frozenset[str]]:
    """Name-level (array reads, array writes) of a non-call host op."""
    if isinstance(op, h.CommMove):
        return _clause_reads(op.clause), frozenset({op.clause.tgt.name})
    if isinstance(op, h.ReduceMove):
        tgt = op.clause.tgt
        writes = (frozenset({tgt.name}) if isinstance(tgt, nir.AVar)
                  else frozenset())
        return _clause_reads(op.clause), writes
    if isinstance(op, h.ElementMove):
        tgt = frozenset({op.clause.tgt.name})
        return _clause_reads(op.clause) | tgt, tgt
    if isinstance(op, h.ScalarMove):
        return _clause_reads(op.clause), frozenset()
    if isinstance(op, h.Print):
        reads: frozenset[str] = frozenset()
        for value in op.values:
            reads |= h.value_arrays(value)
        return reads, frozenset()
    if isinstance(op, h.Alloc):
        return frozenset(), frozenset({op.name})
    if isinstance(op, (h.IfOp, h.WhileOp)):     # the condition, not the body
        return h.value_arrays(op.cond), frozenset()
    return frozenset(), frozenset()


def pointer_use(routine) -> tuple[set[int], set[int]]:
    """The pointer registers ``routine`` streams from and stores
    through, read off its instructions."""
    reads: set[int] = set()
    stored: set[int] = set()
    for instr in routine.body:
        for ins in (instr, instr.paired):
            kind = None if ins is None else ins.kind
            if kind in (None, "branch"):
                continue
            # Every memory operand is a source but a store's target.
            operands = ins.operands
            if kind == "store":
                stored.add(operands[1].preg.n)
                operands = operands[:1]
            reads.update(o.preg.n for o in operands if isinstance(o, Mem))
    return reads, stored


def _footprint(op: h.NodeCall) -> tuple[set, set, set, set]:
    """A call's array ``(reads, writes, reads as it binds, halos)``."""
    read_pregs, stored = pointer_use(op.routine)
    regs = {param.name: param.reg for param in op.routine.params}
    reads, writes, binds, halos = set(), set(), set(), set()
    for arg in op.args:
        if arg.kind == "subgrid" and regs.get(arg.name) is not None:
            if regs[arg.name].n in read_pregs:
                reads.add(arg.array)
            if regs[arg.name].n in stored:
                writes.add(arg.array)
        elif arg.kind == "halo":
            halos.add(arg.array)
            # A folded halo breaks the batch where reading its temporary
            # did (its FoldedShift already flushed every store to the
            # source); a halo stream sees every store enqueued before it.
            reads.add(arg.array if arg.temp is None else arg.temp)
            if arg.temp is None:
                binds.add(arg.array)
        elif arg.kind == "scalar" and arg.value is not None:
            binds |= h.value_arrays(arg.value)
    return reads, writes, binds, halos


class _Pending(NamedTuple):
    """What may be pending at a point of the walk: the calls, in order,
    when every path there agrees (None when not), the most any path
    leaves, and the union of their footprints."""

    calls: tuple | None
    count: int
    reads: frozenset
    writes: frozenset
    halos: frozenset


_NONE = _Pending((), 0, frozenset(), frozenset(), frozenset())


def place_batches(program: h.HostProgram) -> h.HostProgram:
    """``program`` with the end of every batch marked."""
    return dataclasses.replace(program, ops=_trip(program.ops, _NONE),
                               batched=True)


def _flushed(state: _Pending, out: list) -> _Pending:
    if state.count:
        out.append(h.Flush())
    return _NONE


def _trip(ops, state: _Pending) -> tuple:
    """``ops`` walked from ``state``, ending with nothing pending."""
    out: list = []
    _flushed(_block(ops, state, out), out)
    return tuple(out)


def _block(ops, state: _Pending, out: list) -> _Pending:
    for op in ops:
        state = _op(op, state, out)
    return state


def _op(op: h.HostOp, state: _Pending, out: list) -> _Pending:
    if isinstance(op, h.NodeCall):
        reads, writes, binds, halos = _footprint(op)
        if binds & state.writes:
            state = _flushed(state, out)
        out.append(op)
        state = _Pending(
            None if state.calls is None else state.calls + (op,),
            state.count + 1, state.reads | reads, state.writes | writes,
            state.halos | halos)
        return _flushed(state, out) if state.count >= _BATCH_CAP else state
    if isinstance(op, h.Loop):
        return _loop(op, state, out)
    if isinstance(op, h.WhileOp):
        op = dataclasses.replace(op, body=_trip(op.body, _NONE))
    if isinstance(op, (h.WhileOp, h.Stop)):
        _flushed(state, out)
        out.append(op)
        return _NONE
    reads, writes = op_effects(op) if state.count else (frozenset(),) * 2
    if reads & state.writes or writes & (state.writes | state.reads):
        state = _flushed(state, out)
    elif writes & state.halos:
        out.append(h.Snapshot(tuple(sorted(writes & state.halos))))
        state = state._replace(halos=state.halos - writes)
    if not isinstance(op, h.IfOp):
        out.append(op)
        return state
    then: list = []
    els: list = []
    a, b = _block(op.then, state, then), _block(op.els, state, els)
    same = then == list(op.then) and els == list(op.els)
    out.append(op if same else dataclasses.replace(
        op, then=tuple(then), els=tuple(els)))
    return _Pending(a.calls if a.calls == b.calls else None,
                    max(a.count, b.count), a.reads | b.reads,
                    a.writes | b.writes, a.halos | b.halos)


def _loop(op: h.Loop, state: _Pending, out: list) -> _Pending:
    """A DO loop entered with ``state`` pending: its first trip joins
    the calls pending unless it would flush them before joining any (or
    the paths into it left different calls pending), and it carries
    that trip as ``first`` where its markers differ from the others'."""
    body = _trip(op.body, _NONE)
    if not range(op.lo, op.hi + (1 if op.step > 0 else -1), op.step):
        out.append(dataclasses.replace(op, body=body))
        return state        # no trip runs: what was pending still is
    first = None
    if state.count and state.calls is not None:
        first = _trip(op.body, state)
        lead = next(marked for marked in first if isinstance(
            marked, (h.Flush, h.NodeCall, h.Snapshot, h.IfOp, h.Loop)))
        if isinstance(lead, h.Flush):
            first = None
    if first is None:
        _flushed(state, out)
    out.append(dataclasses.replace(
        op, body=body, first=None if first == body else first))
    return _NONE
