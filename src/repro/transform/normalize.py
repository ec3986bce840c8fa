"""Normalization: communication and reduction extraction.

Naive lowering leaves communication intrinsics (``CSHIFT``), reductions
(``SUM``) and misaligned section references nested inside MOVE sources.
The CM programming model, however, separates interprocessor
communication (CM runtime calls issued by the front end) from purely
local computation (PEAC virtual subgrid loops).  This pass rewrites each
MOVE so that afterwards every MOVE is exactly one of:

* a **computation**: all array operands aligned with the target region,
  arbitrary elemental operators, optionally masked;
* a **communication**: a lone ``cshift``/``eoshift``/``transpose``/
  ``spread`` call, or a plain misaligned copy, moving data into an
  aligned temporary or the final target;
* a **reduction**: a lone reduction call whose result lands in a scalar;
* a **serial** action (scalar moves, element moves under serial loops).

This realizes the execution-partition analysis of section 4.2: "each
phase either carries out a single computational action over data with a
common shape and alignment, or expresses a single communication of data
from one shape/alignment to another."  Figure 12's ``tmp0``/``tmp1``
temporaries for the SWE CSHIFTs come from exactly this rewrite.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import nir
from ..frontend import intrinsics as intr
from ..lowering.analysis import Inference
from ..lowering.environment import Environment
from . import regions as rg


def _is_gather(field: nir.FieldAction) -> bool:
    """True for subscripts carrying field-valued (coordinate) indices."""
    if not isinstance(field, nir.Subscript):
        return False
    return any(
        not isinstance(i, (nir.IndexRange, nir.Scalar, nir.SVar))
        for i in field.indices)


@dataclass
class NormalizeReport:
    """What the pass did, for tests and the experiment harness."""

    comm_hoisted: int = 0
    comm_cse_hits: int = 0
    reductions_hoisted: int = 0
    alignment_copies: int = 0
    moves_in: int = 0
    moves_out: int = 0


class Normalizer:
    def __init__(self, env: Environment,
                 domains: dict[str, nir.Shape] | None = None,
                 comm_cse: bool = True,
                 neighborhood: bool = False,
                 memo: dict | None = None) -> None:
        self.env = env
        self.domains = domains if domains is not None else env.domains
        self.infer = Inference(env, self.domains,
                               memo if memo is not None else {})
        self.report = NormalizeReport()
        self.comm_cse = comm_cse
        # §5.3.2 "Other Computation Models": under the neighborhood
        # model, circular shifts of whole arrays are not hoisted into
        # communication phases; they compile directly into the node
        # code as halo streams, "performing physical communications as
        # required".
        self.neighborhood = neighborhood
        # Communication CSE: identical communication calls within one
        # straight-line region reuse one temporary.  SWE repeats a third
        # of its CSHIFTs ("a series of circular shifts interspersed with
        # blocks of local computation"), so this saves real router/grid
        # traffic.  Entries are keyed by the normalized call and
        # invalidated when any array the call reads is stored to.
        self._comm_memo: dict[nir.FcnCall, str] = {}

    # -- communication CSE scope control ---------------------------------

    def _memo_barrier(self) -> None:
        self._comm_memo.clear()

    def _note_store(self, array: str) -> None:
        stale = [call for call, home in self._comm_memo.items()
                 if array in nir.array_vars(call) or home == array]
        for call in stale:
            del self._comm_memo[call]

    # ------------------------------------------------------------------

    def normalize(self, node: nir.Imperative) -> nir.Imperative:
        """Normalize an imperative tree (bodies of scopes included)."""
        if isinstance(node, nir.Program):
            return nir.Program(self.normalize(node.body), node.name)
        if isinstance(node, nir.WithDomain):
            return nir.WithDomain(node.name, node.shape,
                                  self.normalize(node.body))
        if isinstance(node, nir.WithDecl):
            return nir.WithDecl(node.decl, self.normalize(node.body))
        if isinstance(node, nir.Sequentially):
            return nir.seq(*[self.normalize(a) for a in node.actions])
        if isinstance(node, nir.Concurrently):
            return nir.Concurrently(
                tuple(self.normalize(a) for a in node.actions))
        if isinstance(node, nir.Move):
            self.report.moves_in += len(node.clauses)
            out = self.normalize_move(node)
            self.report.moves_out += sum(
                len(m.clauses) for m in out if isinstance(m, nir.Move))
            return nir.seq(*out)
        if isinstance(node, nir.Do):
            self._memo_barrier()
            body = self.normalize(node.body)
            self._memo_barrier()
            return nir.Do(node.shape, body, node.index_names)
        if isinstance(node, nir.While):
            cond, prelude = self._extract_scalar_value(node.cond)
            self._memo_barrier()
            # Condition temporaries must be refreshed each iteration.
            body = nir.seq(self.normalize(node.body), *prelude)
            self._memo_barrier()
            return nir.seq(*prelude, nir.While(cond, body))
        if isinstance(node, nir.IfThenElse):
            cond, prelude = self._extract_scalar_value(node.cond)
            self._memo_barrier()
            then = self.normalize(node.then)
            self._memo_barrier()
            els = self.normalize(node.els)
            self._memo_barrier()
            return nir.seq(*prelude, nir.IfThenElse(cond, then, els))
        if isinstance(node, nir.CallStmt):
            preludes: list[nir.Imperative] = []
            args = []
            for a in node.args:
                val, pre = self._extract_scalar_value(a)
                preludes.extend(pre)
                args.append(val)
            return nir.seq(*preludes, nir.CallStmt(node.name, tuple(args)))
        return node

    # ------------------------------------------------------------------

    def normalize_move(self, move: nir.Move) -> list[nir.Imperative]:
        out: list[nir.Imperative] = []
        for clause in move.clauses:
            out.extend(self._normalize_clause(clause))
        return out

    def _normalize_clause(self, clause: nir.MoveClause
                          ) -> list[nir.Imperative]:
        prelude: list[nir.Imperative] = []
        scalar_target = isinstance(clause.tgt, nir.SVar)
        src = self._extract(clause.src, prelude,
                            root_scalar=scalar_target,
                            root_comm=(not scalar_target
                                       and clause.mask == nir.TRUE))
        mask = self._extract(clause.mask, prelude, root_scalar=False,
                             root_comm=False)
        new_clause = nir.MoveClause(mask, src, clause.tgt,
                                    loc=clause.loc)
        if not scalar_target:
            new_clause, copies = self._align(new_clause)
            prelude.extend(copies)
        prelude.append(nir.Move((new_clause,)))
        if isinstance(clause.tgt, nir.AVar):
            self._note_store(clause.tgt.name)
            # A root communication also seeds the CSE table: its target
            # holds the shifted data until either side is overwritten.
            if (self.comm_cse and new_clause.mask == nir.TRUE
                    and isinstance(new_clause.src, nir.FcnCall)
                    and new_clause.src.name.lower() in intr.COMMUNICATION
                    and isinstance(clause.tgt.field, nir.Everywhere)):
                self._comm_memo[new_clause.src] = clause.tgt.name
        return prelude

    # -- extraction ----------------------------------------------------

    def _extract_scalar_value(self, value: nir.Value
                              ) -> tuple[nir.Value, list[nir.Imperative]]:
        prelude: list[nir.Imperative] = []
        out = self._extract(value, prelude, root_scalar=False,
                            root_comm=False)
        return out, prelude

    def _extract(self, value: nir.Value, prelude: list[nir.Imperative],
                 root_scalar: bool, root_comm: bool) -> nir.Value:
        """Hoist nested communication/reduction calls out of a value tree.

        ``root_scalar``: the value is the whole source of a scalar move,
        so a root reduction may stay in place.  ``root_comm``: the value
        is the whole source of an unmasked array move, so a root
        communication call may stay in place.
        """
        if isinstance(value, nir.Binary):
            return nir.Binary(
                value.op,
                self._extract(value.left, prelude, False, False),
                self._extract(value.right, prelude, False, False))
        if isinstance(value, nir.Unary):
            return nir.Unary(
                value.op, self._extract(value.operand, prelude, False, False))
        if isinstance(value, nir.FcnCall):
            name = value.name.lower()
            if name in intr.COMMUNICATION:
                return self._extract_comm(value, prelude, root_comm)
            if name in intr.REDUCTIONS:
                return self._extract_reduction(value, prelude, root_scalar)
            # Elemental call (merge): recurse into arguments.
            return nir.FcnCall(value.name, tuple(
                self._extract(a, prelude, False, False) for a in value.args))
        return value

    def _is_halo_shift(self, call: nir.FcnCall) -> bool:
        """A CSHIFT the neighborhood PE model reads as a halo stream."""
        if call.name.lower() != "cshift":
            return False
        arr, shift, dim = call.args
        return (isinstance(arr, nir.AVar)
                and isinstance(arr.field, nir.Everywhere)
                and isinstance(shift, nir.Scalar)
                and isinstance(dim, nir.Scalar))

    def _extract_comm(self, call: nir.FcnCall,
                      prelude: list[nir.Imperative],
                      is_root: bool) -> nir.Value:
        args = list(call.args)
        args[0] = self._materialize(
            self._extract(args[0], prelude, False, False), prelude)
        fixed = nir.FcnCall(call.name, tuple(args))
        if self.neighborhood and not is_root and self._is_halo_shift(fixed):
            return fixed
        if self.comm_cse and fixed in self._comm_memo:
            self.report.comm_cse_hits += 1
            return nir.AVar(self._comm_memo[fixed], nir.Everywhere())
        if is_root:
            return fixed
        info = self.infer.infer(fixed)
        tmp = self.env.fresh_temp(nir.extents(info.shape, self.domains),
                                  info.elem)
        prelude.append(nir.move1(fixed, nir.AVar(tmp.name, nir.Everywhere())))
        self.report.comm_hoisted += 1
        if self.comm_cse:
            self._comm_memo[fixed] = tmp.name
        return nir.AVar(tmp.name, nir.Everywhere())

    def _extract_reduction(self, call: nir.FcnCall,
                           prelude: list[nir.Imperative],
                           is_root: bool) -> nir.Value:
        args = list(call.args)
        args[0] = self._materialize(
            self._extract(args[0], prelude, False, False), prelude)
        fixed = nir.FcnCall(call.name, tuple(args))
        info = self.infer.infer(fixed)
        if info.shape is not None:
            # Dimensional reduction produces an array: materialize it.
            tmp = self.env.fresh_temp(nir.extents(info.shape, self.domains),
                                      info.elem)
            prelude.append(
                nir.move1(fixed, nir.AVar(tmp.name, nir.Everywhere())))
            self.report.reductions_hoisted += 1
            return nir.AVar(tmp.name, nir.Everywhere())
        if is_root:
            return fixed
        tmp = self.env.fresh_scalar_temp(info.elem)
        prelude.append(nir.move1(fixed, nir.SVar(tmp.name)))
        self.report.reductions_hoisted += 1
        return nir.SVar(tmp.name)

    def _materialize(self, value: nir.Value,
                     prelude: list[nir.Imperative]) -> nir.Value:
        """Ensure a communication/reduction argument is a plain array ref."""
        if isinstance(value, nir.AVar):
            return value
        info = self.infer.infer(value)
        if info.shape is None:
            return value
        tmp = self.env.fresh_temp(nir.extents(info.shape, self.domains),
                                  info.elem)
        prelude.append(nir.move1(value, nir.AVar(tmp.name, nir.Everywhere())))
        return nir.AVar(tmp.name, nir.Everywhere())

    # -- alignment -----------------------------------------------------

    def _align(self, clause: nir.MoveClause
               ) -> tuple[nir.MoveClause, list[nir.Imperative]]:
        """Hoist misaligned array operands into aligned temporaries."""
        assert isinstance(clause.tgt, nir.AVar)
        tgt_sym = self.env.lookup(clause.tgt.name)
        tregion = rg.region_of_field(clause.tgt.field, tgt_sym.extents,
                                     self.domains)
        if not tregion.exact:
            return clause, []  # serial element move; alignment n/a
        # A plain unmasked copy IS a communication when misaligned;
        # leave it to be classified by the phase splitter.
        if isinstance(clause.src, nir.AVar) and clause.mask == nir.TRUE:
            return clause, []
        if isinstance(clause.src, nir.FcnCall) \
                and clause.src.name.lower() in intr.COMMUNICATION:
            return clause, []

        copies: list[nir.Imperative] = []

        def fix(value: nir.Value) -> nir.Value:
            if isinstance(value, nir.AVar):
                return self._align_operand(value, clause.tgt, tregion, copies)
            if isinstance(value, nir.Binary):
                return nir.Binary(value.op, fix(value.left), fix(value.right))
            if isinstance(value, nir.Unary):
                return nir.Unary(value.op, fix(value.operand))
            if isinstance(value, nir.FcnCall):
                return nir.FcnCall(value.name,
                                   tuple(fix(a) for a in value.args))
            return value

        new = nir.MoveClause(fix(clause.mask), fix(clause.src),
                             clause.tgt, loc=clause.loc)
        return new, copies

    def _align_operand(self, operand: nir.AVar, tgt: nir.AVar,
                       tregion: rg.Region,
                       copies: list[nir.Imperative]) -> nir.Value:
        sym = self.env.lookup(operand.name)
        if _is_gather(operand.field):
            # Coordinate-subscripted read (e.g. a diagonal): a router
            # gather, routed through an aligned temporary.
            tmp = self.env.fresh_temp(tregion.base_extents, sym.element)
            copies.append(nir.move1(operand, nir.AVar(tmp.name, tgt.field)))
            self.report.alignment_copies += 1
            return nir.AVar(tmp.name, tgt.field)
        oregion = rg.region_of_field(operand.field, sym.extents, self.domains)
        if tregion.is_full and oregion.is_full \
                and oregion.base_extents == tregion.base_extents:
            return operand
        if rg.regions_equal(oregion, tregion):
            return operand
        if not oregion.exact:
            # Element accesses under serial loops are host business.
            return operand
        if oregion.extents != tregion.extents:
            return operand  # scalar-ish or broadcast; shapecheck governs
        # Misaligned: route through a temporary aligned with the target.
        tmp = self.env.fresh_temp(tregion.base_extents, sym.element)
        aligned_field = tgt.field
        copies.append(nir.move1(operand, nir.AVar(tmp.name, aligned_field)))
        self.report.alignment_copies += 1
        return nir.AVar(tmp.name, aligned_field)
