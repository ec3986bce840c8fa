"""Shift folding: a CSHIFT into a temporary becomes an operand.

The compilation model sends every CSHIFT through the CM runtime into a
temporary that a later computation block streams; section 5.3.2 wants
the compiler free to "perform general neighborhood computations
directly".  The simulator only has to *price* that communication, so
once the host program is assembled this rewrite turns each whole-array
constant CSHIFT whose only consumers are PEAC dispatches into

* a :class:`~repro.runtime.host.FoldedShift` where the
  :class:`~repro.runtime.host.CommMove` stood (same ``cshift_cycles``,
  same place, same batch-breaking footprint), and
* a ``halo`` argument on each reader: the source array read through
  per-axis offsets (``cshift(cshift(p,-1,1),-1,2)`` composes into one
  operand of ``p``).

NIR and the PEAC routines are untouched; only the bindings change.
Folding is all-or-nothing per temporary — a temporary whose every
definition and every read folded is never
materialised (its ``Alloc`` stays, non-resident, to keep the front
end's bill) — and a read folds only when

* the reader is a node call taking the whole temporary through a
  pointer it never stores, over the temporary's full extents;
* its reaching definition is a foldable CSHIFT earlier in the *same
  straight-line block* (nothing folds across a loop, branch or join);
* nothing in between may write the shift's (ultimate) source.

PRINT, reductions, section copies, serial element access, halo streams
and control-flow conditions read a real array, so any such reader
keeps the temporary — and with it today's copy.  The reader itself may
store the source (``t = tnew`` blocked with the stencil that reads
``cshift(t)``): that hazard belongs to the kernels, which stage the
store (:func:`repro.machine.loopir.lower`).

Every surviving whole-array constant CSHIFT is annotated with its
resolved ``(source, extents, dim, shift)`` so the runtime neither
re-walks the clause nor re-evaluates the constants per call.
"""

from __future__ import annotations

import dataclasses

from ... import nir
from ...lowering.environment import Environment
from ...peac.isa import PReg
from ...runtime import host as h
from .batches import op_effects, pointer_use


def fold_shifts(program: h.HostProgram, env: Environment) -> h.HostProgram:
    """The host program with every legal CSHIFT folded into its readers."""
    if not _has_cshift(program.ops):
        return program
    candidates = {sym.name for sym in env.symbols.values() if sym.temp}
    while True:
        folder = _Folder(env, candidates)
        ops = folder.block(program.ops)
        if not folder.failed:
            return h.HostProgram(name=program.name, ops=ops,
                                 routines=program.routines)
        candidates -= folder.failed


def _has_cshift(ops) -> bool:
    """Whether the walk would meet any CSHIFT communication phase (most
    programs have none, and then there is nothing to fold or resolve)."""
    for op in ops:
        if isinstance(op, h.CommMove):
            if op.kind == "cshift":
                return True
        elif isinstance(op, h.IfOp):
            if _has_cshift(op.then) or _has_cshift(op.els):
                return True
        elif isinstance(op, (h.Loop, h.WhileOp)):
            if _has_cshift(op.body):
                return True
    return False


def _shift_const(op: h.CommMove, env: Environment) -> tuple | None:
    """``(source, extents, dim, shift)`` of a whole-array CSHIFT by
    constants into a whole array of the same shape, else None."""
    clause = op.clause
    call = clause.src
    if (op.kind != "cshift" or clause.mask != nir.TRUE
            or not _whole(clause.tgt) or not isinstance(call, nir.FcnCall)
            or len(call.args) < 3 or not _whole(call.args[0])):
        return None
    shift, dim = call.args[1], call.args[2]
    if not (_int_const(shift) and _int_const(dim)):
        return None
    src = env.symbols.get(call.args[0].name)
    tgt = env.symbols.get(clause.tgt.name)
    if (src is None or tgt is None or not src.extents
            or src.extents != tgt.extents
            or not 1 <= dim.rep <= len(src.extents)):
        return None
    return src.name, src.extents, int(dim.rep), int(shift.rep)


def _whole(value) -> bool:
    return (isinstance(value, nir.AVar)
            and isinstance(value.field, nir.Everywhere))


def _int_const(value) -> bool:
    return (isinstance(value, nir.Scalar) and isinstance(value.rep, int)
            and not isinstance(value.rep, bool))


class _Folder:
    """One rewriting walk under a fixed set of candidate temporaries.

    ``failed`` collects the candidates some read or write of which
    cannot fold; the driver drops them and walks again, so a failure
    cascades (``cshift(tmp2)`` left real makes ``tmp2`` real).
    """

    def __init__(self, env: Environment, candidates: set[str]) -> None:
        self.env = env
        self.candidates = candidates
        self.failed: set[str] = set()
        self._stored: dict[int, frozenset[str]] = {}

    # -- one straight-line block ------------------------------------------

    def block(self, ops) -> tuple[h.HostOp, ...]:
        # temp -> (source array, offset per axis): what the temporary
        # equals right now, while nothing has written the source.
        avail: dict[str, tuple[str, tuple[int, ...]]] = {}
        # temp -> [slot in out, op, const, readers], latest definition
        defs: dict[str, list] = {}
        folded: list[list] = []
        out: list = []

        def kill(array: str) -> None:
            avail.pop(array, None)
            for temp in [t for t, (root, _) in avail.items()
                         if root == array]:
                del avail[temp]

        def real(reads, writes) -> None:
            """An op that reads and writes arrays for real."""
            self.failed |= (reads | writes) & self.candidates
            for array in writes:
                kill(array)

        for op in ops:
            if isinstance(op, h.Alloc):
                if op.name in self.candidates:
                    op = dataclasses.replace(op, resident=False)
            elif isinstance(op, h.CommMove):
                const = _shift_const(op, self.env)
                temp = op.clause.tgt.name
                if (const is not None and temp in self.candidates
                        and self._same_type(temp, const[0])):
                    root, offsets = self._compose(const, avail, defs, temp)
                    kill(temp)
                    avail[temp] = (root, offsets)
                    defs[temp] = [len(out), op, const, []]
                    folded.append(defs[temp])
                else:
                    real(*op_effects(op))
                    if const is not None:
                        op = dataclasses.replace(op, const=const)
            elif isinstance(op, (h.NodeCall, h.Loop, h.WhileOp, h.IfOp)):
                if isinstance(op, h.NodeCall):
                    op = self._node_call(op, avail, defs)
                else:
                    op = self._nested(op)
                # Reads first: the reader may itself store the source.
                for array in self._writes(op):
                    kill(array)
            else:
                real(*op_effects(op))
            out.append(op)
        for slot, op, const, readers in folded:
            out[slot] = h.FoldedShift(clause=op.clause, kind=op.kind,
                                      const=const, readers=tuple(readers))
        return tuple(out)

    def _same_type(self, temp: str, src: str) -> bool:
        """A shifted operand stands in for the temporary bit for bit."""
        symbols = self.env.symbols
        return symbols[temp].element == symbols[src].element

    def _compose(self, const, avail, defs, temp):
        """(root, offsets) of a foldable CSHIFT, through a folded source."""
        src, extents, dim, shift = const
        root, offsets = src, (0,) * len(extents)
        if src in self.candidates:
            if src in avail:
                root, offsets = avail[src]
                defs[src][3].append(f"({temp})")
            else:
                self.failed.add(src)  # read here, not defined in reach
        offsets = tuple(off + shift if axis == dim - 1 else off
                        for axis, off in enumerate(offsets))
        return root, offsets

    # -- node calls -----------------------------------------------------------

    def _stored_params(self, routine) -> frozenset[str]:
        """Names of the pointer parameters the routine stores through."""
        got = self._stored.get(id(routine))
        if got is None:
            pregs = pointer_use(routine)[1]
            got = self._stored[id(routine)] = frozenset(
                p.name for p in routine.params
                if isinstance(p.reg, PReg) and p.reg.n in pregs)
        return got

    def _written(self, op: h.NodeCall) -> set[str]:
        stored = self._stored_params(op.routine)
        return {arg.array for arg in op.args
                if arg.kind == "subgrid" and arg.name in stored}

    def _node_call(self, op: h.NodeCall, avail, defs) -> h.NodeCall:
        stored = self._stored_params(op.routine)
        args = []
        for arg in op.args:
            if arg.kind == "scalar" and arg.value is not None:
                self.failed |= h.value_arrays(arg.value) & self.candidates
            elif arg.array in self.candidates:
                temp = arg.array
                if (arg.kind == "subgrid" and temp in avail
                        and arg.region is None and arg.name not in stored
                        and op.region_extents
                        == self.env.symbols[temp].extents):
                    root, offsets = avail[temp]
                    defs[temp][3].append(
                        f"{op.routine.name}.{arg.name.rsplit('.', 1)[-1]}")
                    arg = h.ArgBinding(kind="halo", name=arg.name,
                                       array=root, offsets=offsets,
                                       temp=temp)
                else:
                    self.failed.add(temp)
            args.append(arg)
        if all(new is old for new, old in zip(args, op.args)):
            return op
        return dataclasses.replace(op, args=tuple(args))

    # -- control flow ---------------------------------------------------------

    def _nested(self, op):
        """Bodies are blocks of their own: nothing folds across them."""
        self.failed |= h.value_arrays(getattr(op, "cond", nir.TRUE)) \
            & self.candidates
        if isinstance(op, h.IfOp):
            return dataclasses.replace(op, then=self.block(op.then),
                                       els=self.block(op.els))
        return dataclasses.replace(op, body=self.block(op.body))

    def _writes(self, op) -> frozenset[str]:
        """Every array (or folded temporary) written inside ``op``."""
        if isinstance(op, h.NodeCall):
            return frozenset(self._written(op))
        if isinstance(op, h.IfOp):
            bodies = op.then + op.els
        elif isinstance(op, (h.Loop, h.WhileOp)):
            bodies = op.body
        else:
            return op_effects(op)[1]
        return frozenset().union(*(self._writes(inner) for inner in bodies))
