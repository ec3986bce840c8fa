"""Front-end semantic lowering: Fortran 90 ASTs to valid NIR programs.

This is the paper's section 4.1: "five semantic equations, one for each
of the semantic domains — declarations, types, values, imperatives, and
shapes ... defined piecewise as a mapping from specific syntactic forms
to NIR fragments."  The result is target-independent NIR, typechecked
and shapechecked, with no attempt at optimization.

The equations are the methods of :class:`Lowerer`:

* ``lower_type``       — type domain (TypeDecl base types to NIR types),
* ``lower_decls``      — declaration domain (via ``build_environment``),
* ``lower_value``      — value domain (expressions to NIR values),
* ``lower_imperative`` — imperative domain (statements to NIR actions),
* ``lower_shape``      — shape domain (triplets/bounds to NIR shapes).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .. import nir
from ..frontend import ast_nodes as A
from ..frontend import intrinsics as intr
from ..sourceloc import SourceLoc, attach_loc, loc_of
from . import fold
from .analysis import Inference
from .environment import Environment, LoweringError, build_environment


@dataclass
class LoweredProgram:
    """A lowered unit: the NIR program plus its environments."""

    nir: nir.Program
    env: Environment

    @property
    def domains(self) -> dict[str, nir.Shape]:
        return self.env.domains

    def inner_body(self) -> nir.Imperative:
        """The executable action inside all WITH_DOMAIN/WITH_DECL scopes."""
        node: nir.Imperative = self.nir.body
        while isinstance(node, (nir.WithDomain, nir.WithDecl)):
            node = node.body
        return node


def lower_program(unit: A.ProgramUnit,
                  memo: dict | None = None) -> LoweredProgram:
    """Lower a parsed PROGRAM unit to NIR (the front-end semantic phase);
    ``memo`` is the compile's inference memo."""
    return Lowerer(unit, memo=memo).run()


_BINOPS = {
    "+": nir.BinOp.ADD,
    "-": nir.BinOp.SUB,
    "*": nir.BinOp.MUL,
    "/": nir.BinOp.DIV,
    "**": nir.BinOp.POW,
    "==": nir.BinOp.EQ,
    "/=": nir.BinOp.NE,
    "<": nir.BinOp.LT,
    "<=": nir.BinOp.LE,
    ">": nir.BinOp.GT,
    ">=": nir.BinOp.GE,
    ".and.": nir.BinOp.AND,
    ".or.": nir.BinOp.OR,
    ".eqv.": nir.BinOp.EQV,
    ".neqv.": nir.BinOp.NEQV,
}


class Lowerer:
    def __init__(self, unit: A.ProgramUnit,
                 env: Environment | None = None,
                 memo: dict | None = None) -> None:
        self.unit = unit
        self.env = env if env is not None else build_environment(unit)
        self.infer = Inference(self.env,
                               memo=memo if memo is not None else {})
        # Serial-context bindings: loop/FORALL index name -> NIR value.
        self.index_bindings: dict[str, nir.Value] = {}

    def run(self) -> LoweredProgram:
        body = self.lower_block(self.unit.body)
        scoped: nir.Imperative = nir.WithDecl(self.env.nir_declarations(),
                                              body)
        # Domains wrap outermost, later-registered innermost, so that
        # product domains may reference earlier ones (Figure 8).
        for name, shape in reversed(list(self.env.domains.items())):
            scoped = nir.WithDomain(name, shape, scoped)
        program = nir.Program(scoped, name=self.unit.name)
        return LoweredProgram(nir=program, env=self.env)

    # ------------------------------------------------------------------
    # Imperative-domain equation
    # ------------------------------------------------------------------

    def lower_block(self, stmts) -> nir.Imperative:
        return nir.seq(*[self.lower_imperative(s) for s in stmts])

    def lower_imperative(self, stmt: A.Stmt) -> nir.Imperative:
        """Location-aware wrapper around the per-statement equations.

        Any semantic error escaping statement translation is tagged with
        the statement's source line (innermost location wins, so a more
        precise expression position set deeper down is preserved).
        """
        try:
            return self._lower_imperative(stmt)
        except (LoweringError, nir.TypeError_, nir.ShapeError) as exc:
            attach_loc(exc, loc_of(stmt))
            raise

    def _lower_imperative(self, stmt: A.Stmt) -> nir.Imperative:
        if isinstance(stmt, A.Assignment):
            return self.lower_assignment(stmt)
        if isinstance(stmt, A.ForallStmt):
            return self.lower_forall(stmt)
        if isinstance(stmt, A.WhereConstruct):
            return self.lower_where(stmt)
        if isinstance(stmt, A.DoLoop):
            return self.lower_do(stmt)
        if isinstance(stmt, A.DoWhile):
            cond = self.lower_value(stmt.cond)
            self._require_scalar(cond, "DO WHILE condition", stmt.line)
            return nir.While(cond, self.lower_block(stmt.body))
        if isinstance(stmt, A.IfConstruct):
            return self.lower_if(stmt)
        if isinstance(stmt, A.PrintStmt):
            return nir.CallStmt(
                "print", tuple(self.lower_value(e) for e in stmt.items))
        if isinstance(stmt, A.CallStmt):
            return nir.CallStmt(
                stmt.name, tuple(self.lower_value(a) for a in stmt.args))
        if isinstance(stmt, A.ContinueStmt):
            return nir.Skip()
        if isinstance(stmt, A.StopStmt):
            return nir.CallStmt("stop")
        raise LoweringError(f"cannot lower statement {type(stmt).__name__}")

    def lower_assignment(self, stmt: A.Assignment,
                         mask: nir.Value = nir.TRUE) -> nir.Imperative:
        target = self.lower_target(stmt.target)
        src = self.lower_value(stmt.expr)
        # Shapecheck the interaction now (static shapechecking, §4.1).
        tinfo = self.infer.infer(target)
        sinfo = self.infer.infer(src)
        if sinfo.shape is not None and tinfo.shape is None:
            raise nir.ShapeError(
                f"line {stmt.line}: array value assigned to scalar "
                f"'{stmt.target}'")
        if sinfo.shape is not None and tinfo.shape is not None:
            if not nir.conformable(tinfo.shape, sinfo.shape,
                                   self.env.domains):
                raise nir.ShapeError(
                    f"line {stmt.line}: shape mismatch in assignment to "
                    f"'{stmt.target}': {nir.extents(tinfo.shape, self.env.domains)} "
                    f"vs {nir.extents(sinfo.shape, self.env.domains)}")
        loc = loc_of(stmt.target) or loc_of(stmt)
        return nir.move1(src, target, mask, loc=loc)

    def lower_target(self, target: A.Expr) -> nir.Value:
        if isinstance(target, A.VarRef):
            if target.name in self.index_bindings:
                raise LoweringError(
                    f"cannot assign to loop index '{target.name}'")
            sym = self.env.lookup(target.name)
            if sym.is_array:
                return nir.AVar(target.name, nir.Everywhere())
            if target.name in self.env.params:
                raise LoweringError(
                    f"cannot assign to PARAMETER '{target.name}'")
            return nir.SVar(target.name)
        if isinstance(target, A.ArrayRef):
            sym = self.env.lookup(target.name)
            if not sym.is_array:
                raise LoweringError(f"'{target.name}' is not an array")
            field = self.lower_subscripts(target.name, target.subscripts)
            return nir.AVar(target.name, field)
        raise LoweringError(f"invalid assignment target {target}")

    def lower_if(self, stmt: A.IfConstruct) -> nir.Imperative:
        node: nir.Imperative = (self.lower_block(stmt.else_body)
                                if stmt.else_body else nir.Skip())
        for cond_expr, body in reversed(stmt.arms):
            cond = self.lower_value(cond_expr)
            self._require_scalar(cond, "IF condition", stmt.line)
            node = nir.IfThenElse(cond, self.lower_block(body), node)
        return node

    def lower_do(self, stmt: A.DoLoop) -> nir.Imperative:
        lo = fold.try_fold_int(stmt.lo, self.env.params)
        hi = fold.try_fold_int(stmt.hi, self.env.params)
        step = (fold.try_fold_int(stmt.step, self.env.params)
                if stmt.step is not None else 1)
        sym = self.env.lookup(stmt.var)
        if sym.is_array or not sym.element.is_integer:
            raise LoweringError(
                f"DO index '{stmt.var}' must be an integer scalar")
        if lo is not None and hi is not None and step is not None:
            shape = self.lower_shape_serial(lo, hi, step)
            prev = self.index_bindings.get(stmt.var)
            self.index_bindings[stmt.var] = nir.SVar(stmt.var)
            try:
                body = self.lower_block(stmt.body)
            finally:
                if prev is None:
                    self.index_bindings.pop(stmt.var, None)
                else:
                    self.index_bindings[stmt.var] = prev
            return nir.Do(shape, body, index_names=(stmt.var,))
        # Non-constant bounds: fall back to an explicit WHILE loop.
        init = nir.move1(self.lower_value(stmt.lo), nir.SVar(stmt.var))
        step_v = (self.lower_value(stmt.step) if stmt.step is not None
                  else nir.int_const(1))
        cond = nir.Binary(nir.BinOp.LE, nir.SVar(stmt.var),
                          self.lower_value(stmt.hi))
        body = self.lower_block(stmt.body)
        bump = nir.move1(
            nir.Binary(nir.BinOp.ADD, nir.SVar(stmt.var), step_v),
            nir.SVar(stmt.var))
        return nir.seq(init, nir.While(cond, nir.seq(body, bump)))

    def lower_where(self, stmt: A.WhereConstruct) -> nir.Imperative:
        mask = self.lower_value(stmt.mask)
        minfo = self.infer.infer(mask)
        if minfo.shape is None or not minfo.elem.is_logical:
            raise nir.TypeError_(
                f"line {stmt.line}: WHERE mask must be a logical array")
        # Fortran evaluates the WHERE mask once.  If any body assignment
        # writes an array the mask reads, materialize the mask into a
        # logical temporary first; otherwise use it inline (the cleaner
        # Figure 10 form).
        prelude: list[nir.Imperative] = []
        mask_reads = nir.array_vars(mask)
        written = set()
        for a in list(stmt.body) + list(stmt.elsewhere):
            if isinstance(a.target, (A.VarRef, A.ArrayRef)):
                written.add(a.target.name)
        if mask_reads & written:
            tmp = self.env.fresh_temp(
                nir.extents(minfo.shape, self.env.domains), nir.LOGICAL_32)
            prelude.append(
                nir.move1(mask, nir.AVar(tmp.name, nir.Everywhere())))
            mask = nir.AVar(tmp.name, nir.Everywhere())
        moves = [self.lower_assignment(a, mask=mask) for a in stmt.body]
        neg = nir.Unary(nir.UnOp.NOT, mask)
        moves += [self.lower_assignment(a, mask=neg) for a in stmt.elsewhere]
        return nir.seq(*prelude, *moves)

    def lower_forall(self, stmt: A.ForallStmt) -> nir.Imperative:
        target = stmt.assignment.target
        if not isinstance(target, A.ArrayRef):
            raise LoweringError("FORALL target must be an array reference")
        sym = self.env.lookup(target.name)
        if len(target.subscripts) != len(sym.extents):
            raise LoweringError(
                f"FORALL target '{target.name}' rank mismatch")
        triplet_by_var = {t.var: t for t in stmt.triplets}
        # Region axis of each triplet variable in the target reference;
        # non-triplet subscripts (e.g. a surrounding serial DO index, as in
        # Figure 9's "do i / forall j" nest) pin their axis to a point and
        # contribute nothing to the parallel region.
        axis_of: dict[str, int] = {}
        region: list[nir.Shape] = []
        pinned: dict[int, nir.Value] = {}  # target axis -> scalar index value
        for axis, sub in enumerate(target.subscripts, start=1):
            if isinstance(sub, A.VarRef) and sub.name in triplet_by_var:
                if sub.name in axis_of:
                    raise LoweringError(
                        f"FORALL variable '{sub.name}' used twice in target")
                t = triplet_by_var[sub.name]
                lo = fold.fold_int(t.lo, self.env.params)
                hi = fold.fold_int(t.hi, self.env.params)
                stride = (fold.fold_int(t.stride, self.env.params)
                          if t.stride is not None else 1)
                axis_of[sub.name] = len(region) + 1
                region.append(nir.Interval(lo, hi, stride))
            else:
                value = self.lower_value(sub)
                info = self.infer.infer(value)
                if info.shape is not None or not info.elem.is_integer:
                    raise LoweringError(
                        "FORALL target subscripts must be triplet variables "
                        "or scalar integer expressions")
                pinned[axis] = value
        if set(axis_of) != set(triplet_by_var):
            raise LoweringError("unused FORALL triplet variable")
        if not region:
            raise LoweringError("FORALL region is empty")
        region_shape: nir.Shape = (region[0] if len(region) == 1
                                   else nir.ProdDom(tuple(region)))
        full = (not pinned
                and nir.extents(region_shape) == sym.extents
                and all(isinstance(d, nir.Interval)
                        and d.lo == 1 and d.stride == 1 for d in region))
        if full:
            # The region covers the array: use its declared domain so the
            # move is recognized as an everywhere-computation (Figure 7).
            region_shape = nir.DomainRef(sym.domain)
            field: nir.FieldAction = nir.Everywhere()
        else:
            indices: list[nir.Value] = []
            region_iter = iter(region)
            for axis in range(1, len(target.subscripts) + 1):
                if axis in pinned:
                    indices.append(pinned[axis])
                else:
                    d = next(region_iter)
                    indices.append(nir.IndexRange(
                        nir.int_const(d.lo), nir.int_const(d.hi),
                        nir.int_const(d.stride)))
            field = nir.Subscript(tuple(indices))
        bindings = {
            var: nir.LocalUnder(region_shape, axis)
            for var, axis in axis_of.items()
        }
        saved = dict(self.index_bindings)
        self.index_bindings.update(bindings)
        try:
            src = self.lower_value(stmt.assignment.expr)
            mask = (self.lower_value(stmt.mask)
                    if stmt.mask is not None else nir.TRUE)
        finally:
            self.index_bindings = saved
        return nir.move1(src, nir.AVar(target.name, field), mask,
                         loc=loc_of(target) or loc_of(stmt))

    # ------------------------------------------------------------------
    # Shape-domain equation
    # ------------------------------------------------------------------

    def lower_shape_serial(self, lo: int, hi: int, step: int) -> nir.Shape:
        return nir.SerialInterval(lo, hi, step)

    # ------------------------------------------------------------------
    # Value-domain equation
    # ------------------------------------------------------------------

    def lower_value(self, expr: A.Expr) -> nir.Value:
        """Location-aware wrapper around the value-domain equation.

        The produced NIR value is stamped with the expression's source
        position (when it does not already carry a more precise one),
        and any semantic error is tagged the same way.
        """
        loc = getattr(expr, "loc", None)
        try:
            out = self._lower_value(expr)
        except (LoweringError, nir.TypeError_, nir.ShapeError) as exc:
            attach_loc(exc, loc)
            raise
        if loc is not None and out.loc is None:
            out = dataclasses.replace(out, loc=loc)
        return out

    def _lower_value(self, expr: A.Expr) -> nir.Value:
        if isinstance(expr, A.IntLit):
            return nir.int_const(expr.value)
        if isinstance(expr, A.RealLit):
            return nir.Scalar(
                nir.FLOAT_64 if expr.double else nir.FLOAT_32, expr.value)
        if isinstance(expr, A.LogicalLit):
            return nir.Scalar(nir.LOGICAL_32, expr.value)
        if isinstance(expr, A.VarRef):
            return self.lower_var(expr.name)
        if isinstance(expr, A.BinExpr):
            op = _BINOPS.get(expr.op)
            if op is None:
                raise LoweringError(f"unknown operator {expr.op}")
            return nir.Binary(op, self.lower_value(expr.left),
                              self.lower_value(expr.right))
        if isinstance(expr, A.UnExpr):
            if expr.op == "-":
                return nir.Unary(nir.UnOp.NEG, self.lower_value(expr.operand))
            if expr.op == ".not.":
                return nir.Unary(nir.UnOp.NOT, self.lower_value(expr.operand))
            raise LoweringError(f"unknown unary operator {expr.op}")
        if isinstance(expr, A.ArrayRef):
            return self.lower_ref_or_call(expr)
        raise LoweringError(f"cannot lower expression {expr}")

    def lower_var(self, name: str) -> nir.Value:
        if name in self.index_bindings:
            return self.index_bindings[name]
        if name in self.env.params:
            sym = self.env.lookup(name)
            return nir.Scalar(sym.element, self.env.params[name])
        sym = self.env.lookup(name)
        if sym.is_array:
            return nir.AVar(name, nir.Everywhere())
        return nir.SVar(name)

    def lower_ref_or_call(self, expr: A.ArrayRef) -> nir.Value:
        name = expr.name.lower()
        if name in self.env.symbols and self.env.lookup(name).is_array:
            field = self.lower_subscripts(name, expr.subscripts)
            return nir.AVar(name, field)
        if intr.is_intrinsic(name):
            return self.lower_intrinsic(name, expr)
        raise LoweringError(f"unknown function or array '{name}'")

    def lower_subscripts(self, name: str, subscripts) -> nir.FieldAction:
        sym = self.env.lookup(name)
        if len(subscripts) != len(sym.extents):
            raise nir.ShapeError(
                f"'{name}' has rank {len(sym.extents)} but "
                f"{len(subscripts)} subscripts were given")
        indices: list[nir.Value] = []
        all_full = True
        for axis, sub in enumerate(subscripts):
            if isinstance(sub, A.SectionRange):
                rng = self.lower_range(sub)
                full = (rng.lo is None and rng.hi is None
                        and rng.stride is None)
                if not full:
                    all_full = False
                indices.append(rng)
            else:
                all_full = False
                indices.append(self.lower_value(sub))
        if all_full:
            return nir.Everywhere()
        return nir.Subscript(tuple(indices))

    def lower_range(self, rng: A.SectionRange) -> nir.IndexRange:
        def bound(e: A.Expr | None) -> nir.Value | None:
            if e is None:
                return None
            n = fold.try_fold_int(e, self.env.params)
            if n is None:
                raise LoweringError(
                    "section bounds must be constant expressions")
            return nir.int_const(n)

        return nir.IndexRange(bound(rng.lo), bound(rng.hi), bound(rng.stride))

    def lower_intrinsic(self, name: str, expr: A.ArrayRef) -> nir.Value:
        positional: list[A.Expr] = []
        keyword: dict[str, A.Expr] = {}
        for arg in expr.subscripts:
            if isinstance(arg, A.KeywordArg):
                keyword[arg.name] = arg.value
            else:
                positional.append(arg)

        if name in intr.UNARY_INTRINSICS:
            if len(positional) != 1 or keyword:
                raise LoweringError(f"{name}: expected one argument")
            return nir.Unary(intr.UNARY_INTRINSICS[name],
                             self.lower_value(positional[0]))
        if name in intr.BINARY_INTRINSICS:
            if len(positional) < 2 or keyword:
                raise LoweringError(f"{name}: expected two or more arguments")
            out = self.lower_value(positional[0])
            for nxt in positional[1:]:
                out = nir.Binary(intr.BINARY_INTRINSICS[name], out,
                                 self.lower_value(nxt))
            return out
        if name == "merge":
            if len(positional) + len(keyword) != 3:
                raise LoweringError("merge: expected three arguments")
            slots = intr.normalize_args(
                intr.Intrinsic("merge", "elemental", 3, 3,
                               ("tsource", "fsource", "mask")),
                positional, keyword)
            return nir.FcnCall(
                "merge", tuple(self.lower_value(a) for a in slots))
        if name in ("size", "shape", "lbound", "ubound"):
            return self.lower_inquiry(name, positional)
        if name in intr.COMMUNICATION:
            sig = intr.COMMUNICATION[name]
            slots = intr.normalize_args(sig, positional, keyword)
            return self.lower_comm(name, slots)
        if name in intr.REDUCTIONS:
            sig = intr.REDUCTIONS[name]
            slots = intr.normalize_args(sig, positional, keyword)
            args = [self.lower_value(slots[0])]
            if len(slots) > 1 and slots[1] is not None:
                args.append(self.lower_const_int(slots[1], f"{name} DIM"))
            return nir.FcnCall(name, tuple(args))
        raise LoweringError(f"unsupported intrinsic '{name}'")

    def lower_inquiry(self, name: str, positional) -> nir.Value:
        if not positional or not isinstance(positional[0], A.VarRef):
            raise LoweringError(f"{name}: expected an array argument")
        sym = self.env.lookup(positional[0].name)
        if not sym.is_array:
            raise LoweringError(f"{name}: '{sym.name}' is not an array")
        if name == "size":
            if len(positional) > 1:
                dim = fold.fold_int(positional[1], self.env.params)
                return nir.int_const(sym.extents[dim - 1])
            total = 1
            for e in sym.extents:
                total *= e
            return nir.int_const(total)
        if name in ("lbound", "ubound") and len(positional) > 1:
            dim = fold.fold_int(positional[1], self.env.params)
            return nir.int_const(1 if name == "lbound"
                                 else sym.extents[dim - 1])
        raise LoweringError(f"{name}: unsupported form")

    def lower_comm(self, name: str, slots) -> nir.Value:
        array = self.lower_value(slots[0])
        if name == "cshift":
            shift = self.lower_const_int(slots[1], "cshift SHIFT")
            dim = (self.lower_const_int(slots[2], "cshift DIM")
                   if slots[2] is not None else nir.int_const(1))
            return nir.FcnCall("cshift", (array, shift, dim))
        if name == "eoshift":
            shift = self.lower_const_int(slots[1], "eoshift SHIFT")
            boundary = (self.lower_value(slots[2])
                        if slots[2] is not None else nir.int_const(0))
            dim = (self.lower_const_int(slots[3], "eoshift DIM")
                   if slots[3] is not None else nir.int_const(1))
            return nir.FcnCall("eoshift", (array, shift, boundary, dim))
        if name == "transpose":
            return nir.FcnCall("transpose", (array,))
        if name == "spread":
            dim = self.lower_const_int(slots[1], "spread DIM")
            ncopies = self.lower_const_int(slots[2], "spread NCOPIES")
            return nir.FcnCall("spread", (array, dim, ncopies))
        raise LoweringError(f"unsupported communication intrinsic {name}")

    def lower_const_int(self, expr: A.Expr, what: str) -> nir.Scalar:
        n = fold.try_fold_int(expr, self.env.params)
        if n is None:
            raise LoweringError(f"{what} must be a constant expression")
        return nir.int_const(n)

    # ------------------------------------------------------------------

    def _require_scalar(self, value: nir.Value, what: str, line: int) -> None:
        info = self.infer.infer(value)
        if info.shape is not None:
            raise nir.ShapeError(f"line {line}: {what} must be scalar")
