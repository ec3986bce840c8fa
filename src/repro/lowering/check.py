"""Program-level static typechecking and shapechecking of NIR.

"Each complete procedural unit or main program compiles to a single
imperative action which has been typechecked and shapechecked.  Static
shapechecking is an analogous operation to static typechecking, but over
the shape domain.  This step satisfies assertions that in all direct
computations between arrays, the shapes of interacting arrays agree."
(section 4.1)

These passes walk a lowered (or transformed) NIR program, asking
:class:`~repro.lowering.analysis.Inference` for every value's type and
shape and enforcing the imperative-level rules: MOVE targets are
storage references, sources conform to targets, masks are logical,
conditions are scalar, and DO bodies only use domains in scope.  One
compile's walks share its inference memo, which also records the
clauses that passed each mode, so ``recheck`` checks only new clauses.
"""

from __future__ import annotations

from .. import nir
from .analysis import Inference, VInfo
from .environment import Environment


class CheckError(Exception):
    """A type or shape violation found by the program checkers."""


def typecheck(program: nir.Program, env: Environment,
              memo: dict | None = None) -> None:
    """Raise :class:`CheckError` on any type-domain violation."""
    _Checker(env, "type", memo).check(program)


def shapecheck(program: nir.Program, env: Environment,
               memo: dict | None = None) -> None:
    """Raise :class:`CheckError` on any shape-domain violation."""
    _Checker(env, "shape", memo).check(program)


def check_program(program: nir.Program, env: Environment,
                  memo: dict | None = None) -> None:
    """Run both checkers (the order the paper's front end applies them)."""
    memo = memo if memo is not None else {}
    typecheck(program, env, memo)
    shapecheck(program, env, memo)


class _Checker:
    def __init__(self, env: Environment, mode: str,
                 memo: dict | None = None) -> None:
        self.env = env
        self.mode = mode
        # Values -> VInfo, and (mode, clause) -> True once it passed.
        self.memo = memo if memo is not None else {}
        self.domains: dict[str, nir.Shape] = dict(env.domains)
        self.infer = Inference(env, self.domains, self.memo)

    def check(self, node: nir.Imperative) -> None:
        try:
            self._imp(node)
        except (nir.TypeError_, nir.ShapeError) as exc:
            raise CheckError(str(exc)) from exc

    # ------------------------------------------------------------------

    def _value(self, v: nir.Value) -> VInfo:
        return self.infer.infer(v)

    def _imp(self, node: nir.Imperative) -> None:
        if isinstance(node, nir.Program):
            self._imp(node.body)
        elif isinstance(node, nir.WithDomain):
            # Domain scoping: visible to the subtree only.  The memo's
            # facts hold under the current bindings, so a scope changing
            # one (hand-built NIR) drops them on the way in and out.
            prior = self.domains.get(node.name)
            rebinds = node.shape != prior
            if rebinds:
                self.memo.clear()
            self.domains[node.name] = node.shape
            try:
                self._imp(node.body)
            finally:
                if prior is None:
                    self.domains.pop(node.name, None)
                else:
                    self.domains[node.name] = prior
                if rebinds:
                    self.memo.clear()
        elif isinstance(node, nir.WithDecl):
            self._imp(node.body)
        elif isinstance(node, (nir.Sequentially, nir.Concurrently)):
            for a in node.actions:
                self._imp(a)
        elif isinstance(node, nir.Move):
            for clause in node.clauses:
                if (self.mode, clause) not in self.memo:
                    self._move_clause(clause)
                    self.memo[self.mode, clause] = True
        elif isinstance(node, nir.IfThenElse):
            self._condition(node.cond, "IFTHENELSE condition")
            self._imp(node.then)
            self._imp(node.els)
        elif isinstance(node, nir.While):
            self._condition(node.cond, "WHILE condition")
            self._imp(node.body)
        elif isinstance(node, nir.Do):
            nir.resolve(node.shape, self.domains)  # raises if unbound
            self._imp(node.body)
        elif isinstance(node, nir.CallStmt):
            for a in node.args:
                self._value(a)
        elif isinstance(node, (nir.Skip, nir.RefOut, nir.CopyOut)):
            pass
        else:
            raise CheckError(
                f"unknown imperative {type(node).__name__}")

    def _move_clause(self, clause: nir.MoveClause) -> None:
        if not isinstance(clause.tgt, (nir.SVar, nir.AVar)):
            raise CheckError(
                f"MOVE target must reference storage, got {clause.tgt}")
        tinfo = self._value(clause.tgt)
        sinfo = self._value(clause.src)
        minfo = self._value(clause.mask)

        if self.mode == "type":
            if not minfo.elem.is_logical:
                raise CheckError(f"MOVE mask is not logical: {clause.mask}")
            if sinfo.elem.is_logical != tinfo.elem.is_logical:
                raise CheckError(
                    "MOVE mixes logical and arithmetic types: "
                    f"{sinfo.elem} -> {tinfo.elem}")
            return

        # shape mode
        if tinfo.shape is None:
            if sinfo.shape is not None:
                raise CheckError(
                    f"array value stored to scalar target {clause.tgt}")
            if minfo.shape is not None:
                raise CheckError(
                    f"array mask on scalar move to {clause.tgt}")
            return
        if sinfo.shape is not None and not nir.conformable(
                tinfo.shape, sinfo.shape, self.domains):
            raise CheckError(
                f"MOVE shapes do not conform: "
                f"{nir.extents(tinfo.shape, self.domains)} <- "
                f"{nir.extents(sinfo.shape, self.domains)}")
        if minfo.shape is not None and not nir.conformable(
                tinfo.shape, minfo.shape, self.domains):
            raise CheckError(
                f"MOVE mask shape does not conform to target: "
                f"{nir.extents(tinfo.shape, self.domains)} vs "
                f"{nir.extents(minfo.shape, self.domains)}")

    def _condition(self, cond: nir.Value, what: str) -> None:
        info = self._value(cond)
        if self.mode == "type" and not info.elem.is_logical:
            raise CheckError(f"{what} is not logical")
        if self.mode == "shape" and info.shape is not None:
            raise CheckError(f"{what} must be scalar")
