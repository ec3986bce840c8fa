"""The NIR imperative domain (Figure 5) with the shape bridge ``DO``.

Imperative operators model dynamic program behaviours: sequential and
concurrent composition, the store (``MOVE``), control flow, scope
(``WITH_DECL``) and — from the shape facet — iteration over shapes
(``DO(S, I)``) and domain binding (``WITH_DOMAIN``, Figures 8-10).

``MOVE`` is the paper's masked multi-move:
``MOVE [(mask1, (src1, tgt1)), (mask2, (src2, tgt2)), ...]`` moves each
source to its target wherever the corresponding mask holds.  A blocked
``MOVE`` with several clauses compiles to a single PEAC computation burst
(Figure 10).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sourceloc import SourceLoc
from . import decls as d
from . import shapes as sh
from . import values as v


@dataclass(frozen=True)
class Imperative:
    """Base class for imperative-domain constructors."""


@v.hash_once
@dataclass(frozen=True)
class MoveClause(v.Hashed):
    """One ``(mask, (src, tgt))`` element of a ``MOVE``.

    A mask of :data:`~repro.nir.values.TRUE` means the move is
    unconditional, matching the paper's ``(True, (src, tgt))`` notation.
    """

    mask: v.Value
    src: v.Value
    tgt: v.Value
    # Source position of the originating assignment; non-comparing so
    # clause equality stays structural across transform rewrites.
    loc: SourceLoc | None = field(default=None, compare=False, repr=False,
                                  kw_only=True)

    def __str__(self) -> str:
        return f"({self.mask}, ({self.src}, {self.tgt}))"

    @property
    def is_unconditional(self) -> bool:
        return self.mask == v.TRUE


@dataclass(frozen=True)
class Move(Imperative):
    """``MOVE((V*(V*V)) list)`` — move multiple values under masks."""

    clauses: tuple[MoveClause, ...]

    def __str__(self) -> str:
        inner = ",\n      ".join(str(c) for c in self.clauses)
        return f"MOVE[{inner}]"


def move1(src: v.Value, tgt: v.Value, mask: v.Value = v.TRUE,
          loc: SourceLoc | None = None) -> Move:
    """Convenience constructor for a single-clause MOVE."""
    return Move((MoveClause(mask, src, tgt, loc=loc),))


@dataclass(frozen=True)
class Sequentially(Imperative):
    """``SEQUENTIALLY(I list)`` — sequential composition."""

    actions: tuple[Imperative, ...]

    def __str__(self) -> str:
        inner = "; ".join(str(a) for a in self.actions)
        return f"SEQUENTIALLY[{inner}]"


@dataclass(frozen=True)
class Concurrently(Imperative):
    """``CONCURRENTLY(I list)`` — concurrent composition."""

    actions: tuple[Imperative, ...]

    def __str__(self) -> str:
        inner = "; ".join(str(a) for a in self.actions)
        return f"CONCURRENTLY[{inner}]"


@dataclass(frozen=True)
class Skip(Imperative):
    """``SKIP`` — the empty action, defined as ``SEQUENTIALLY nil``."""

    def __str__(self) -> str:
        return "SKIP"


@dataclass(frozen=True)
class IfThenElse(Imperative):
    """``IFTHENELSE(V, I, I)`` — classical scalar-condition branch."""

    cond: v.Value
    then: Imperative
    els: Imperative = field(default_factory=Skip)

    def __str__(self) -> str:
        return f"IFTHENELSE({self.cond}, {self.then}, {self.els})"


@dataclass(frozen=True)
class While(Imperative):
    """``WHILE(V, I)`` — classical while-construct."""

    cond: v.Value
    body: Imperative

    def __str__(self) -> str:
        return f"WHILE({self.cond}, {self.body})"


@dataclass(frozen=True)
class Do(Imperative):
    """``DO(S, I)`` — carry out ``body`` at each point of shape ``shape``.

    Whether the modelled loop executes serially or in parallel depends
    entirely on the shape (section 3.2).  ``index_names`` optionally binds
    loop-index scalar names to the axes of the shape, so serial Fortran DO
    loops keep their induction variables through lowering.
    """

    shape: sh.Shape
    body: Imperative
    index_names: tuple[str, ...] = ()

    def __str__(self) -> str:
        return f"DO({self.shape}, {self.body})"


@dataclass(frozen=True)
class WithDecl(Imperative):
    """``WITH_DECL(D, I)`` — execute ``body`` with ``decl`` visible."""

    decl: d.Declaration
    body: Imperative

    def __str__(self) -> str:
        return f"WITH_DECL({self.decl}, {self.body})"


@dataclass(frozen=True)
class WithDomain(Imperative):
    """``WITH_DOMAIN((name, S), I)`` — bind a named shape domain over body."""

    name: str
    shape: sh.Shape
    body: Imperative

    def __str__(self) -> str:
        return f"WITH_DOMAIN(('{self.name}', {self.shape}), {self.body})"


@dataclass(frozen=True)
class Program(Imperative):
    """``PROGRAM(I)`` — the top-level program action."""

    body: Imperative
    name: str = "main"

    def __str__(self) -> str:
        return f"PROGRAM({self.body})"


@dataclass(frozen=True)
class RefOut(Imperative):
    """``REF_OUT(V)`` — passes a call-by-reference parameter."""

    value: v.Value

    def __str__(self) -> str:
        return f"REF_OUT({self.value})"


@dataclass(frozen=True)
class CopyOut(Imperative):
    """``COPY_OUT(V)`` — passes a call-by-value parameter."""

    value: v.Value

    def __str__(self) -> str:
        return f"COPY_OUT({self.value})"


@dataclass(frozen=True)
class CallStmt(Imperative):
    """A procedure call statement (used for I/O and runtime services)."""

    name: str
    args: tuple[v.Value, ...] = ()

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"CALL('{self.name}', [{inner}])"


def seq(*actions: Imperative) -> Imperative:
    """Smart sequential composition: flattens and drops SKIPs."""
    flat: list[Imperative] = []
    for a in actions:
        if isinstance(a, Skip):
            continue
        if isinstance(a, Sequentially):
            flat.extend(x for x in a.actions if not isinstance(x, Skip))
        else:
            flat.append(a)
    if not flat:
        return Skip()
    if len(flat) == 1:
        return flat[0]
    return Sequentially(tuple(flat))


def child_imperatives(node: Imperative) -> tuple[Imperative, ...]:
    """Immediate imperative-domain children of an imperative node."""
    if isinstance(node, (Sequentially, Concurrently)):
        return node.actions
    if isinstance(node, IfThenElse):
        return (node.then, node.els)
    if isinstance(node, While):
        return (node.body,)
    if isinstance(node, Do):
        return (node.body,)
    if isinstance(node, (WithDecl, WithDomain, Program)):
        return (node.body,)
    return ()


def values_of(node: Imperative) -> tuple[v.Value, ...]:
    """Immediate value-domain children of an imperative node."""
    if isinstance(node, Move):
        out: list[v.Value] = []
        for c in node.clauses:
            out.extend((c.mask, c.src, c.tgt))
        return tuple(out)
    if isinstance(node, (IfThenElse, While)):
        return (node.cond,)
    if isinstance(node, (RefOut, CopyOut)):
        return (node.value,)
    if isinstance(node, CallStmt):
        return node.args
    return ()


def walk(node: Imperative):
    """Pre-order traversal of an imperative tree."""
    yield node
    for c in child_imperatives(node):
        yield from walk(c)
