"""Loop promotion: serial DO axes become parallel MOVE dimensions.

Figure 9's naive NIR represents the nest ``do i / forall j
A(i,j)=B(i,j)+j`` as a *single* MOVE over a two-dimensional domain.  To
reach that form from per-statement lowering, this pass rewrites a serial
``DO(i, MOVE)`` whose iterations are provably independent into one MOVE
over the enlarged region: the loop index disappears from subscripts in
favour of an index range, and its value uses become ``local_under``
coordinates.  Applied bottom-up, it also vectorizes dusty-deck Fortran
77 loop nests (the paper's SWE benchmark is "an updated Fortran-90
version of a dusty deck code").

Independence test (per clause): every target must subscript the loop
index directly on some axis, and every read of an array that the MOVE
writes must use the loop index at that same axis — so iteration ``i``
touches only slice ``i`` of any written array.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import nir
from ..lowering.environment import Environment


@dataclass
class PromotionReport:
    promoted: int = 0
    rejected: int = 0
    promoted_indices: set[str] = field(default_factory=set)


class LoopPromoter:
    def __init__(self, env: Environment,
                 domains: dict[str, nir.Shape] | None = None) -> None:
        self.env = env
        self.domains = domains if domains is not None else env.domains
        self.report = PromotionReport()

    # ------------------------------------------------------------------

    def promote(self, node: nir.Imperative) -> nir.Imperative:
        """Apply promotion bottom-up throughout an imperative tree."""
        if isinstance(node, nir.Program):
            return nir.Program(self.promote(node.body), node.name)
        if isinstance(node, nir.WithDomain):
            return nir.WithDomain(node.name, node.shape,
                                  self.promote(node.body))
        if isinstance(node, nir.WithDecl):
            return nir.WithDecl(node.decl, self.promote(node.body))
        if isinstance(node, nir.Sequentially):
            return nir.seq(*[self.promote(a) for a in node.actions])
        if isinstance(node, nir.Concurrently):
            return nir.Concurrently(
                tuple(self.promote(a) for a in node.actions))
        if isinstance(node, nir.While):
            return nir.While(node.cond, self.promote(node.body))
        if isinstance(node, nir.IfThenElse):
            return nir.IfThenElse(node.cond, self.promote(node.then),
                                  self.promote(node.els))
        if isinstance(node, nir.Do):
            body = self.promote(node.body)
            node = nir.Do(node.shape, body, node.index_names)
            return self.try_promote_do(node)
        return node

    # ------------------------------------------------------------------

    def try_promote_do(self, node: nir.Do) -> nir.Imperative:
        """Promote one serial DO level if legal, else return it unchanged."""
        if not isinstance(node.shape, nir.SerialInterval):
            return node
        if len(node.index_names) != 1:
            return node
        index = node.index_names[0]
        axis_rng = (node.shape.lo, node.shape.hi, node.shape.stride)
        if axis_rng[2] <= 0:
            return node
        if axis_rng[1] < axis_rng[0]:
            # Zero trips: nothing runs, and a parallel MOVE over the
            # empty section would be a node call over no elements.
            return self._final_index_move(index, axis_rng)

        if isinstance(node.body, nir.Sequentially):
            return self._try_distribute(node, index, axis_rng)
        if not isinstance(node.body, nir.Move):
            return node
        move = node.body

        written = {}
        for clause in move.clauses:
            if not isinstance(clause.tgt, nir.AVar) \
                    or not isinstance(clause.tgt.field, nir.Subscript):
                self.report.rejected += 1
                return node
            axis = self._index_axis(clause.tgt.field, index)
            if axis is None:
                self.report.rejected += 1
                return node
            prev = written.get(clause.tgt.name)
            if prev is not None and prev != axis:
                self.report.rejected += 1
                return node
            written[clause.tgt.name] = axis

        for clause in move.clauses:
            for value in (clause.src, clause.mask):
                if not self._reads_safe(value, index, written):
                    self.report.rejected += 1
                    return node

        new_clauses = tuple(
            self._rewrite_clause(clause, index, axis_rng, written)
            for clause in move.clauses)
        self.report.promoted += 1
        self.report.promoted_indices.add(index)
        return nir.seq(nir.Move(new_clauses),
                       self._final_index_move(index, axis_rng))

    def _final_index_move(self, index: str,
                          axis_rng: tuple[int, int, int]) -> nir.Imperative:
        """Preserve the Fortran value of the DO variable after the loop."""
        lo, hi, st = axis_rng
        count = max(0, (hi - lo) // st + 1)
        final = lo + count * st
        return nir.move1(nir.int_const(final), nir.SVar(index))

    def _try_distribute(self, node: nir.Do, index: str,
                        axis_rng: tuple[int, int, int]) -> nir.Imperative:
        """Loop distribution: ``DO i [S1; S2]`` becomes ``DO i S1; DO i S2``.

        Legal when every written array is slice-``i``-local throughout the
        whole body (each instance of any statement touches only slice
        ``i``), so no value flows between different iterations across
        statements.  Each distributed loop is then promoted on its own.
        """
        actions = node.body.actions
        if not all(isinstance(m, nir.Move) for m in actions):
            return node
        # Constant stores to scalars nobody in the body reads (e.g. the
        # final-index moves emitted by inner promotions) are loop-
        # invariant: hoist them after the distributed loops.
        body_reads: set[str] = set()
        for m in actions:
            for clause in m.clauses:
                body_reads |= nir.scalar_vars(clause.src)
                body_reads |= nir.scalar_vars(clause.mask)
                if isinstance(clause.tgt, nir.AVar) \
                        and isinstance(clause.tgt.field, nir.Subscript):
                    for idx in clause.tgt.field.indices:
                        if not isinstance(idx, nir.IndexRange):
                            body_reads |= nir.scalar_vars(idx)
        moves: list[nir.Move] = []
        tail: list[nir.Move] = []
        for m in actions:
            if all(isinstance(c.tgt, nir.SVar)
                   and c.tgt.name not in body_reads
                   and c.tgt.name != index
                   and nir.is_constant(c.src) and c.mask == nir.TRUE
                   for c in m.clauses):
                tail.append(m)
            else:
                moves.append(m)

        written: dict[str, int] = {}
        for move in moves:
            for clause in move.clauses:
                if not isinstance(clause.tgt, nir.AVar) \
                        or not isinstance(clause.tgt.field, nir.Subscript):
                    self.report.rejected += 1
                    return node
                axis = self._index_axis(clause.tgt.field, index)
                if axis is None:
                    self.report.rejected += 1
                    return node
                prev = written.get(clause.tgt.name)
                if prev is not None and prev != axis:
                    self.report.rejected += 1
                    return node
                written[clause.tgt.name] = axis
        for move in moves:
            for clause in move.clauses:
                for value in (clause.src, clause.mask):
                    if not self._reads_safe(value, index, written):
                        self.report.rejected += 1
                        return node

        out = [
            self.try_promote_do(nir.Do(node.shape, move, node.index_names))
            for move in moves
        ]
        return nir.seq(*out, *tail)

    # ------------------------------------------------------------------

    def _index_axis(self, sub: nir.Subscript, index: str) -> int | None:
        """Axis (1-based) where ``index`` appears as a plain subscript."""
        axis = None
        for k, idx in enumerate(sub.indices, start=1):
            if isinstance(idx, nir.SVar) and idx.name == index:
                if axis is not None:
                    return None  # used on two axes: diagonal write
                axis = k
        return axis

    def _reads_safe(self, value: nir.Value, index: str,
                    written: dict[str, int]) -> bool:
        """Reads of written arrays must hit the loop index's own slice."""
        for node in nir.values.walk(value):
            if isinstance(node, nir.AVar) and node.name in written:
                if not isinstance(node.field, nir.Subscript):
                    return False
                axis = written[node.name]
                idx = node.field.indices[axis - 1]
                if not (isinstance(idx, nir.SVar) and idx.name == index):
                    return False
        return True

    def _rewrite_clause(self, clause: nir.MoveClause, index: str,
                        axis_rng: tuple[int, int, int],
                        written: dict[str, int]) -> nir.MoveClause:
        tgt = self._rewrite_avar(clause.tgt, index, axis_rng)
        # Compute the promoted axis position among the *region* axes of
        # the target, for coordinate-value rewrites.
        _, promoted_pos = self._region_positions(clause.tgt, index)
        new_region = self._new_region_shape(clause.tgt, index, axis_rng)
        src = self._rewrite_value(clause.src, index, axis_rng, new_region,
                                  promoted_pos)
        mask = self._rewrite_value(clause.mask, index, axis_rng, new_region,
                                   promoted_pos)
        return nir.MoveClause(mask, src, tgt, loc=clause.loc)

    def _region_positions(self, tgt: nir.AVar,
                          index: str) -> tuple[int, int]:
        """(number of region axes after rewrite, promoted axis position)."""
        assert isinstance(tgt.field, nir.Subscript)
        count = 0
        promoted_pos = 0
        for idx in tgt.field.indices:
            if isinstance(idx, nir.SVar) and idx.name == index:
                count += 1
                promoted_pos = count
            elif isinstance(idx, (nir.IndexRange, nir.LocalUnder)):
                count += 1
        return count, promoted_pos

    def _new_region_shape(self, tgt: nir.AVar, index: str,
                          axis_rng: tuple[int, int, int]) -> nir.Shape:
        assert isinstance(tgt.field, nir.Subscript)
        dims: list[nir.Shape] = []
        for idx in tgt.field.indices:
            if isinstance(idx, nir.SVar) and idx.name == index:
                dims.append(nir.Interval(*axis_rng))
            elif isinstance(idx, nir.IndexRange):
                dims.append(self._range_to_interval(idx))
            elif isinstance(idx, nir.LocalUnder):
                dims.extend(nir.dims_of(idx.shape, self.domains))
        if len(dims) == 1:
            return dims[0]
        return nir.ProdDom(tuple(dims))

    def _range_to_interval(self, rng: nir.IndexRange) -> nir.Shape:
        def const(v, d):
            if v is None:
                return d
            assert isinstance(v, nir.Scalar)
            return int(v.rep)

        # Bounds were folded to constants at lowering; missing parts can
        # only appear on Everywhere-canonical fields which are not ranges.
        lo = const(rng.lo, 1)
        hi = const(rng.hi, lo)
        st = const(rng.stride, 1)
        return nir.Interval(lo, hi, st)

    def _rewrite_read(self, ref: nir.AVar, index: str,
                      axis_rng: tuple[int, int, int],
                      new_region: nir.Shape,
                      promoted_pos: int) -> nir.AVar:
        """Rewrite an array *read* under promotion.

        When the read stays rectangular (the loop index appears at the
        same region position as in the target) the index becomes a range;
        otherwise the whole reference switches to canonical gather form —
        every region-contributing subscript a coordinate field over the
        promoted region, as in Figure 9's diagonal access.
        """
        assert isinstance(ref.field, nir.Subscript)
        region_dims = nir.dims_of(new_region, self.domains)

        # Decide mode: gather is needed if any subscript is field-valued
        # after rewriting, or the loop index sits at a mismatched position.
        pos = 0
        needs_gather = False
        for idx in ref.field.indices:
            if isinstance(idx, nir.IndexRange):
                pos += 1
            elif isinstance(idx, nir.SVar) and idx.name == index:
                pos += 1
                if pos != promoted_pos:
                    needs_gather = True
            elif isinstance(idx, nir.LocalUnder):
                pos += 1
                needs_gather = True
            elif not self._is_scalar_index(idx, index):
                needs_gather = True

        indices: list[nir.Value] = []
        pos = 0
        for idx in ref.field.indices:
            if isinstance(idx, nir.IndexRange):
                pos += 1
                if needs_gather:
                    indices.append(self._range_as_gather(
                        idx, new_region, region_dims, pos))
                else:
                    indices.append(idx)
            elif isinstance(idx, nir.SVar) and idx.name == index:
                pos += 1
                if needs_gather:
                    indices.append(nir.LocalUnder(new_region, promoted_pos))
                else:
                    indices.append(nir.IndexRange(
                        nir.int_const(axis_rng[0]),
                        nir.int_const(axis_rng[1]),
                        nir.int_const(axis_rng[2])))
            elif isinstance(idx, nir.LocalUnder):
                pos += 1
                indices.append(self._rewrite_value(
                    idx, index, axis_rng, new_region, promoted_pos))
            else:
                indices.append(self._rewrite_value(
                    idx, index, axis_rng, new_region, promoted_pos))

        # Canonicalize identity gathers back to rectangular sections.
        if needs_gather and self._is_identity_gather(indices, region_dims):
            indices = self._gather_to_ranges(indices, region_dims)
        sym = self.env.lookup(ref.name)
        field = nir.Subscript(tuple(indices))
        if self._covers_fully(field, sym.extents):
            return nir.AVar(ref.name, nir.Everywhere())
        return nir.AVar(ref.name, field)

    def _is_scalar_index(self, idx: nir.Value, index: str) -> bool:
        """A subscript with no loop-index or field content stays scalar."""
        for node in nir.values.walk(idx):
            if isinstance(node, nir.SVar) and node.name == index:
                return False
            if isinstance(node, (nir.LocalUnder, nir.AVar)):
                return False
        return True

    def _range_as_gather(self, rng: nir.IndexRange, new_region: nir.Shape,
                         region_dims, pos: int) -> nir.Value:
        """Express a range subscript as a coordinate field over the region.

        The range pairs pointwise with region axis ``pos``: the k-th
        region point reads the k-th range element, i.e. the affine map
        ``lo + ((coord - axis.lo) / axis.stride) * stride``.
        """
        axis = region_dims[pos - 1]
        if isinstance(axis, nir.Point):
            axis_lo, axis_st = axis.value, 1
        else:
            axis_lo, axis_st = axis.lo, axis.stride
        coord = nir.LocalUnder(new_region, pos)
        lo = int(rng.lo.rep) if isinstance(rng.lo, nir.Scalar) else 1
        st = int(rng.stride.rep) if isinstance(rng.stride, nir.Scalar) else 1
        steps: nir.Value = coord
        if axis_lo != 0:
            steps = nir.Binary(nir.BinOp.SUB, coord, nir.int_const(axis_lo))
        if axis_st != 1:
            steps = nir.Binary(nir.BinOp.DIV, steps, nir.int_const(axis_st))
        if st != 1:
            steps = nir.Binary(nir.BinOp.MUL, steps, nir.int_const(st))
        if lo != 0:
            steps = nir.Binary(nir.BinOp.ADD, steps, nir.int_const(lo))
        return steps

    def _is_identity_gather(self, indices, region_dims) -> bool:
        pos = 0
        for idx in indices:
            if isinstance(idx, nir.LocalUnder):
                pos += 1
                if idx.dim != pos:
                    return False
            elif not isinstance(idx, (nir.Scalar, nir.SVar)):
                return False
        return pos == len(region_dims)

    def _gather_to_ranges(self, indices, region_dims):
        out: list[nir.Value] = []
        pos = 0
        for idx in indices:
            if isinstance(idx, nir.LocalUnder):
                axis = region_dims[pos]
                pos += 1
                if isinstance(axis, nir.Point):
                    out.append(nir.int_const(axis.value))
                else:
                    out.append(nir.IndexRange(nir.int_const(axis.lo),
                                              nir.int_const(axis.hi),
                                              nir.int_const(axis.stride)))
            else:
                out.append(idx)
        return out

    def _rewrite_avar(self, ref: nir.AVar, index: str,
                      axis_rng: tuple[int, int, int]) -> nir.AVar:
        """Replace the plain loop-index subscript with its range."""
        assert isinstance(ref.field, nir.Subscript)
        sym = self.env.lookup(ref.name)
        new_indices: list[nir.Value] = []
        for idx in ref.field.indices:
            if isinstance(idx, nir.SVar) and idx.name == index:
                new_indices.append(nir.IndexRange(
                    nir.int_const(axis_rng[0]), nir.int_const(axis_rng[1]),
                    nir.int_const(axis_rng[2])))
            else:
                new_indices.append(idx)
        field = nir.Subscript(tuple(new_indices))
        if self._covers_fully(field, sym.extents):
            return nir.AVar(ref.name, nir.Everywhere())
        return nir.AVar(ref.name, field)

    def _covers_fully(self, field: nir.Subscript,
                      extents: tuple[int, ...]) -> bool:
        if len(field.indices) != len(extents):
            return False
        for idx, n in zip(field.indices, extents):
            if not isinstance(idx, nir.IndexRange):
                return False
            lo = idx.lo.rep if isinstance(idx.lo, nir.Scalar) else 1
            hi = idx.hi.rep if isinstance(idx.hi, nir.Scalar) else n
            st = idx.stride.rep if isinstance(idx.stride, nir.Scalar) else 1
            if not (int(lo) == 1 and int(hi) == n and int(st) == 1):
                return False
        return True

    def _rewrite_value(self, value: nir.Value, index: str,
                       axis_rng: tuple[int, int, int],
                       new_region: nir.Shape,
                       promoted_pos: int) -> nir.Value:
        if isinstance(value, nir.SVar) and value.name == index:
            return nir.LocalUnder(new_region, promoted_pos)
        if isinstance(value, nir.AVar):
            if isinstance(value.field, nir.Subscript):
                return self._rewrite_read(value, index, axis_rng, new_region,
                                          promoted_pos)
            return value
        if isinstance(value, nir.LocalUnder):
            # Old region coordinates shift past the inserted axis.
            old_dims = nir.dims_of(value.shape, self.domains)
            new_dim = value.dim + (1 if value.dim >= promoted_pos else 0)
            if len(old_dims) == nir.rank(new_region, self.domains):
                # Shape already includes the axis (shared region reference).
                return nir.LocalUnder(new_region, value.dim)
            return nir.LocalUnder(new_region, new_dim)
        if isinstance(value, nir.Binary):
            return nir.Binary(
                value.op,
                self._rewrite_value(value.left, index, axis_rng, new_region,
                                    promoted_pos),
                self._rewrite_value(value.right, index, axis_rng, new_region,
                                    promoted_pos))
        if isinstance(value, nir.Unary):
            return nir.Unary(
                value.op,
                self._rewrite_value(value.operand, index, axis_rng,
                                    new_region, promoted_pos))
        if isinstance(value, nir.FcnCall):
            return nir.FcnCall(value.name, tuple(
                self._rewrite_value(a, index, axis_rng, new_region,
                                    promoted_pos)
                for a in value.args))
        return value

