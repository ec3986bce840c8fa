"""Reference interpreter: direct numpy execution of the Fortran subset.

This is the correctness oracle.  It executes parsed ASTs with numpy,
independently of NIR, the transformations and the machine model; every
end-to-end test compares the compiled pipeline's arrays against it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..frontend import ast_nodes as A
from ..frontend import intrinsics as intr
from ..lowering.environment import build_environment


class ReferenceError_(Exception):
    """Raised on programs outside the supported subset."""


@dataclass
class ReferenceResult:
    arrays: dict[str, np.ndarray] = field(default_factory=dict)
    scalars: dict[str, object] = field(default_factory=dict)
    output: list[str] = field(default_factory=list)


def run_reference(unit: A.ProgramUnit,
                  inputs: dict[str, np.ndarray] | None = None
                  ) -> ReferenceResult:
    """Execute a program unit directly; optionally preset named arrays."""
    interp = Interpreter(unit)
    if inputs:
        for name, values in inputs.items():
            arr = interp.arrays[name]
            np.copyto(arr, values, casting="unsafe")
    interp.run()
    return ReferenceResult(arrays=interp.arrays, scalars=interp.scalars,
                           output=interp.output)


class _Stop(Exception):
    pass


class Interpreter:
    def __init__(self, unit: A.ProgramUnit) -> None:
        self.unit = unit
        self.env = build_environment(unit)
        self.arrays: dict[str, np.ndarray] = {}
        self.scalars: dict[str, object] = {}
        self.output: list[str] = []
        for sym in self.env.symbols.values():
            if sym.is_array:
                self.arrays[sym.name] = np.zeros(sym.extents,
                                                 dtype=sym.element.dtype)
            elif sym.init is not None:
                self.scalars[sym.name] = sym.init

    # ------------------------------------------------------------------

    def run(self) -> None:
        try:
            self.exec_block(self.unit.body)
        except _Stop:
            pass

    def exec_block(self, stmts) -> None:
        for stmt in stmts:
            self.exec_stmt(stmt)

    # ------------------------------------------------------------------

    def exec_stmt(self, stmt: A.Stmt) -> None:
        if isinstance(stmt, A.Assignment):
            self.assign(stmt, mask=None)
        elif isinstance(stmt, A.WhereConstruct):
            mask = np.asarray(self.eval(stmt.mask), dtype=bool)
            for a in stmt.body:
                self.assign(a, mask=mask)
            for a in stmt.elsewhere:
                self.assign(a, mask=~mask)
        elif isinstance(stmt, A.ForallStmt):
            self.exec_forall(stmt)
        elif isinstance(stmt, A.DoLoop):
            lo = int(self.eval(stmt.lo))
            hi = int(self.eval(stmt.hi))
            step = int(self.eval(stmt.step)) if stmt.step is not None else 1
            i = lo
            while (i <= hi if step > 0 else i >= hi):
                self.scalars[stmt.var] = i
                self.exec_block(stmt.body)
                i += step
            self.scalars[stmt.var] = i  # lo + trips * step, per the standard
        elif isinstance(stmt, A.DoWhile):
            while bool(self.eval(stmt.cond)):
                self.exec_block(stmt.body)
        elif isinstance(stmt, A.IfConstruct):
            for cond, body in stmt.arms:
                if bool(self.eval(cond)):
                    self.exec_block(body)
                    return
            self.exec_block(stmt.else_body)
        elif isinstance(stmt, A.PrintStmt):
            self.output.append(" ".join(str(self.eval(e))
                                        for e in stmt.items))
        elif isinstance(stmt, A.ContinueStmt):
            pass
        elif isinstance(stmt, A.StopStmt):
            raise _Stop()
        elif isinstance(stmt, A.CallStmt):
            raise ReferenceError_(f"CALL '{stmt.name}' is not supported")
        else:
            raise ReferenceError_(
                f"cannot interpret {type(stmt).__name__}")

    # ------------------------------------------------------------------

    def assign(self, stmt: A.Assignment, mask) -> None:
        value = self.eval(stmt.expr)
        target = stmt.target
        if isinstance(target, A.VarRef):
            if target.name in self.arrays:
                arr = self.arrays[target.name]
                self._masked_store(arr, value, mask)
            else:
                if mask is not None:
                    raise ReferenceError_("WHERE over a scalar target")
                self.scalars[target.name] = self._to_scalar(value)
            return
        if isinstance(target, A.ArrayRef):
            arr = self.arrays.get(target.name)
            if arr is None:
                raise ReferenceError_(f"'{target.name}' is not an array")
            index = self._index(target, arr)
            view = arr[index]
            if np.isscalar(view) or view.ndim == 0:
                arr[index] = value
            else:
                self._masked_store(view, value, mask)
            return
        raise ReferenceError_(f"bad assignment target {target}")

    @staticmethod
    def _masked_store(view: np.ndarray, value, mask) -> None:
        val = np.broadcast_to(np.asarray(value), view.shape)
        if mask is None:
            np.copyto(view, val, casting="unsafe")
        else:
            m = np.broadcast_to(np.asarray(mask, bool), view.shape)
            np.copyto(view, np.where(m, val, view), casting="unsafe")

    @staticmethod
    def _to_scalar(value):
        arr = np.asarray(value)
        if arr.size != 1:
            raise ReferenceError_("array value assigned to scalar")
        return arr.reshape(()).item()

    def exec_forall(self, stmt: A.ForallStmt) -> None:
        names = [t.var for t in stmt.triplets]
        ranges = []
        for t in stmt.triplets:
            lo = int(self.eval(t.lo))
            hi = int(self.eval(t.hi))
            st = int(self.eval(t.stride)) if t.stride is not None else 1
            ranges.append(range(lo, hi + (1 if st > 0 else -1), st))

        # Vectorized evaluation for large regions: bind each index to a
        # broadcastable coordinate array and evaluate once.  The
        # per-point loop below remains the defining semantics (and the
        # fallback); a property test asserts the two paths agree.
        total_points = 1
        for r in ranges:
            total_points *= len(r)
        if total_points >= 2048:
            try:
                self._exec_forall_vectorized(stmt, names, ranges)
                return
            except Exception:
                pass  # fall back to the defining per-point loop
        saved = {n: self.scalars.get(n) for n in names}
        # Fortran FORALL: evaluate all right-hand sides before any store.
        pending: list[tuple[tuple, object]] = []

        def rec(k: int) -> None:
            if k == len(names):
                if stmt.mask is not None and not bool(self.eval(stmt.mask)):
                    return
                tgt = stmt.assignment.target
                assert isinstance(tgt, A.ArrayRef)
                arr = self.arrays[tgt.name]
                index = self._index(tgt, arr)
                pending.append((index, self.eval(stmt.assignment.expr)))
                return
            for v in ranges[k]:
                self.scalars[names[k]] = v
                rec(k + 1)

        rec(0)
        tgt = stmt.assignment.target
        arr = self.arrays[tgt.name]
        for index, value in pending:
            arr[index] = value
        for n, v in saved.items():
            if v is None:
                self.scalars.pop(n, None)
            else:
                self.scalars[n] = v

    def _exec_forall_vectorized(self, stmt: A.ForallStmt, names, ranges
                                ) -> None:
        """Evaluate a FORALL with indices bound to coordinate arrays.

        Every triplet variable becomes an integer array shaped to
        broadcast along its own region axis; numpy then evaluates the
        right-hand side, the mask, and every subscript pointwise over
        the whole region in one pass.  Gather subscripts come out as
        broadcastable fancy indices, which matches FORALL's pointwise
        semantics exactly.  Raises on any construct it cannot prove
        vectorizable (mixed slice/array subscripts), triggering the
        per-point fallback.
        """
        k = len(names)
        saved = {n: self.scalars.get(n) for n in names}
        try:
            for axis, (name, rng) in enumerate(zip(names, ranges)):
                shape = [1] * k
                shape[axis] = len(rng)
                self.scalars[name] = np.asarray(list(rng),
                                                dtype=np.int64
                                                ).reshape(shape)
            tgt = stmt.assignment.target
            assert isinstance(tgt, A.ArrayRef)
            arr = self.arrays[tgt.name]
            index_arrays = []
            for sub in tgt.subscripts:
                if isinstance(sub, A.SectionRange):
                    raise ReferenceError_("section in FORALL target")
                index_arrays.append(np.asarray(self.eval(sub)) - 1)
            value = self.eval(stmt.assignment.expr)
            region_shape = np.broadcast_shapes(
                *(ix.shape for ix in index_arrays))
            index_arrays = [np.broadcast_to(ix, region_shape)
                            for ix in index_arrays]
            value_b = np.broadcast_to(np.asarray(value), region_shape)
            if stmt.mask is not None:
                mask = np.broadcast_to(
                    np.asarray(self.eval(stmt.mask), bool), region_shape)
                arr[tuple(ix[mask] for ix in index_arrays)] = value_b[mask]
            else:
                arr[tuple(index_arrays)] = value_b
        finally:
            for n, v in saved.items():
                if v is None:
                    self.scalars.pop(n, None)
                else:
                    self.scalars[n] = v

    # ------------------------------------------------------------------

    def _index(self, ref: A.ArrayRef, arr: np.ndarray):
        index = []
        has_array = False
        has_section = False
        for axis, sub in enumerate(ref.subscripts):
            n = arr.shape[axis]
            if isinstance(sub, A.SectionRange):
                has_section = True
                lo = int(self.eval(sub.lo)) if sub.lo is not None else 1
                hi = int(self.eval(sub.hi)) if sub.hi is not None else n
                st = int(self.eval(sub.stride)) if sub.stride is not None \
                    else 1
                index.append(slice(lo - 1, hi, st))
            else:
                val = self.eval(sub)
                if isinstance(val, np.ndarray) and val.ndim > 0:
                    # Vectorized FORALL index: pointwise fancy indexing.
                    has_array = True
                    index.append(np.asarray(val, dtype=np.int64) - 1)
                else:
                    index.append(int(val) - 1)
        if has_array:
            if has_section:
                raise ReferenceError_(
                    "sections may not mix with vector subscripts")
            # All-fancy pointwise indexing (broadcast scalars along).
            index = [np.asarray(ix) for ix in index]
            return tuple(index)
        return tuple(index)

    # ------------------------------------------------------------------

    def eval(self, expr: A.Expr):
        if isinstance(expr, A.IntLit):
            return expr.value
        if isinstance(expr, A.RealLit):
            return expr.value
        if isinstance(expr, A.LogicalLit):
            return expr.value
        if isinstance(expr, A.StringLit):
            return expr.value
        if isinstance(expr, A.VarRef):
            return self._load_name(expr.name)
        if isinstance(expr, A.UnExpr):
            val = self.eval(expr.operand)
            if expr.op == "-":
                return np.negative(val) if isinstance(val, np.ndarray) \
                    else -val
            if expr.op == ".not.":
                return np.logical_not(val)
            raise ReferenceError_(f"unary {expr.op}")
        if isinstance(expr, A.BinExpr):
            return self._binop(expr.op, self.eval(expr.left),
                               self.eval(expr.right))
        if isinstance(expr, A.ArrayRef):
            return self._ref_or_call(expr)
        raise ReferenceError_(f"cannot evaluate {expr}")

    def _load_name(self, name: str):
        if name in self.scalars:
            return self.scalars[name]
        if name in self.arrays:
            return self.arrays[name]
        if name in self.env.params:
            return self.env.params[name]
        raise ReferenceError_(f"use of unset variable '{name}'")

    @staticmethod
    def _binop(op: str, left, right):
        def int_like(x):
            if isinstance(x, (bool, np.bool_)):
                return False
            if isinstance(x, (int, np.integer)):
                return True
            return isinstance(x, np.ndarray) and np.issubdtype(
                x.dtype, np.integer)

        table = {
            "+": np.add, "-": np.subtract, "*": np.multiply,
            "**": np.power,
            "==": np.equal, "/=": np.not_equal, "<": np.less,
            "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal,
            ".and.": np.logical_and, ".or.": np.logical_or,
            ".neqv.": np.logical_xor,
        }
        with np.errstate(all="ignore"):
            if op == "/":
                if int_like(left) and int_like(right):
                    return np.trunc(
                        np.asarray(left, np.float64)
                        / np.asarray(right, np.float64)).astype(np.int32)
                return np.divide(left, right)
            if op == ".eqv.":
                return np.equal(np.asarray(left, bool),
                                np.asarray(right, bool))
            return table[op](left, right)

    def _ref_or_call(self, expr: A.ArrayRef):
        name = expr.name.lower()
        if name in self.arrays:
            arr = self.arrays[name]
            out = arr[self._index(expr, arr)]
            return out.copy() if isinstance(out, np.ndarray) else out
        if intr.is_intrinsic(name):
            return self._intrinsic(name, expr)
        raise ReferenceError_(f"unknown function or array '{name}'")

    def _intrinsic(self, name: str, expr: A.ArrayRef):
        positional = []
        keyword = {}
        for a in expr.subscripts:
            if isinstance(a, A.KeywordArg):
                keyword[a.name] = self.eval(a.value)
            else:
                positional.append(self.eval(a))
        with np.errstate(all="ignore"):
            return self._apply_intrinsic(name, positional, keyword)

    def _apply_intrinsic(self, name: str, args, kw):
        simple = {
            "abs": np.abs, "sqrt": np.sqrt, "sin": np.sin, "cos": np.cos,
            "tan": np.tan, "asin": np.arcsin, "acos": np.arccos,
            "atan": np.arctan, "exp": np.exp, "log": np.log,
            "log10": np.log10, "exp10": None,
        }
        if name in simple and simple[name] is not None:
            return simple[name](np.asarray(args[0], np.float64)
                                if not isinstance(args[0], float)
                                else args[0])
        if name == "floor":
            return np.floor(args[0]).astype(np.int32)
        if name == "ceiling":
            return np.ceil(args[0]).astype(np.int32)
        if name == "int":
            return np.trunc(np.asarray(args[0], np.float64)).astype(np.int32)
        if name == "real":
            return np.asarray(args[0], np.float32)
        if name == "dble":
            return np.asarray(args[0], np.float64)
        if name == "mod":
            return np.fmod(args[0], args[1])
        if name == "min":
            out = args[0]
            for a in args[1:]:
                out = np.minimum(out, a)
            return out
        if name == "max":
            out = args[0]
            for a in args[1:]:
                out = np.maximum(out, a)
            return out
        if name == "merge":
            return np.where(np.asarray(args[2], bool), args[0], args[1])
        if name == "cshift":
            arr = np.asarray(args[0])
            shift = int(kw.get("shift", args[1] if len(args) > 1 else 0))
            dim = int(kw.get("dim", args[2] if len(args) > 2 else 1))
            return np.roll(arr, -shift, axis=dim - 1)
        if name == "eoshift":
            arr = np.asarray(args[0]).copy()
            shift = int(kw.get("shift", args[1] if len(args) > 1 else 0))
            boundary = kw.get("boundary",
                              args[2] if len(args) > 2 else 0)
            dim = int(kw.get("dim", args[3] if len(args) > 3 else 1)) - 1
            out = np.roll(arr, -shift, axis=dim)
            idx = [slice(None)] * arr.ndim
            if shift > 0:
                idx[dim] = slice(arr.shape[dim] - shift, None)
                out[tuple(idx)] = boundary
            elif shift < 0:
                idx[dim] = slice(0, -shift)
                out[tuple(idx)] = boundary
            return out
        if name == "transpose":
            return np.asarray(args[0]).T.copy()
        if name == "spread":
            dim = int(kw.get("dim", args[1]))
            ncopies = int(kw.get("ncopies", args[2]))
            return np.repeat(np.expand_dims(np.asarray(args[0]), dim - 1),
                             ncopies, axis=dim - 1)
        if name in ("sum", "product", "maxval", "minval", "count", "any",
                    "all"):
            arr = np.asarray(args[0])
            dim = kw.get("dim", args[1] if len(args) > 1 else None)
            axis = int(dim) - 1 if dim is not None else None
            fns = {
                "sum": lambda: arr.sum(axis=axis),
                "product": lambda: arr.prod(axis=axis),
                "maxval": lambda: arr.max(axis=axis),
                "minval": lambda: arr.min(axis=axis),
                "count": lambda: np.asarray(arr, bool).sum(axis=axis),
                "any": lambda: np.asarray(arr, bool).any(axis=axis),
                "all": lambda: np.asarray(arr, bool).all(axis=axis),
            }
            out = fns[name]()
            return out.item() if np.ndim(out) == 0 else out
        if name == "size":
            arr = np.asarray(args[0])
            if len(args) > 1:
                return arr.shape[int(args[1]) - 1]
            return arr.size
        raise ReferenceError_(f"intrinsic '{name}' not supported")
