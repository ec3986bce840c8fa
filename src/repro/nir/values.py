"""The NIR value domain (Figure 5) and field restrictors (Figure 6).

Value-producing operators represent program actions which compute values:
references to the store (``SVAR``/``AVAR``), constants (``SCALAR``),
function calls (``FCNCALL``) and computations parameterized by other
value-producers (``BINARY``/``UNARY``).

The shape facet adds:

* ``AVar(i, F)`` — references storage bound to identifier ``i`` through a
  field action ``F``;
* the field-restrictor domain ``F``: ``Subscript`` (shapewise
  subscripting), ``Everywhere`` (universal selection), and
  ``LocalUnder(S, d)`` (construction of a local coordinate matrix), which
  also appears directly in value position when a computation uses grid
  coordinates (Figure 7).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..sourceloc import SourceLoc
from . import types as ty
from .ops import BinOp, UnOp


class Hashed:
    """A slot for the structural hash, which no pickle carries: ``str``
    hashes differ between processes, and the store moves NIR across
    them.  Default pickling writes ``__dict__`` (the fields) plus the
    slots in ``__slotnames__``, which :func:`hash_once` empties;
    ``__getnewargs__`` (``tuple()`` is ``()``) lets it skip the layout
    check that would refuse the unlisted slot."""

    __slots__ = ("_hash",)
    __getnewargs__ = tuple


def hash_once(cls):
    """Make ``cls`` compute its structural hash once: apply it to each
    concrete class, as ``@dataclass`` generates ``__hash__`` per class."""
    structural = cls.__hash__

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = structural(self)
            object.__setattr__(self, "_hash", h)
            return h

    cls.__hash__ = __hash__
    cls.__slotnames__ = []
    return cls


@dataclass(frozen=True)
class Value(Hashed):
    """Base class for all value-domain constructors.

    ``loc`` is the source position of the Fortran expression this value
    was lowered from (None for synthesized values).  It is excluded from
    equality and hashing, so transforms that rely on structural equality
    (CSE memo tables, mask comparisons) are unaffected by stamping.
    """

    loc: SourceLoc | None = field(default=None, compare=False, repr=False,
                                  kw_only=True)


# ---------------------------------------------------------------------------
# Field restrictor domain (F)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldAction(Hashed):
    """Base class for field restrictors, "an overrestricted form of shapes"."""


@dataclass(frozen=True)
class Everywhere(FieldAction):
    """Universal selection: reference every point of the declared shape.

    ``everywhere`` decouples parallel data movement from the specific shape
    associated with the array variable; the shape is specified by context.
    """

    def __str__(self) -> str:
        return "everywhere"


@dataclass(frozen=True)
class Subscript(FieldAction):
    """Shapewise subscripting: one index value per axis.

    An index may be any scalar-producing :class:`Value` (including
    :class:`LocalUnder` coordinates, as in Figure 9's diagonal access
    ``a(i, i)``) or an :class:`IndexRange` describing a Fortran section
    triplet.
    """

    indices: tuple["Value", ...]

    def __str__(self) -> str:
        inner = ", ".join(str(i) for i in self.indices)
        return f"subscript[{inner}]"


@dataclass(frozen=True)
class LocalUnder(Value, FieldAction):
    """``local_under(S, d)``: the coordinate matrix of axis ``d`` of ``S``.

    Doubles as a value (Figure 7: ``i + j`` becomes the sum of two
    coordinate fields) and as a field restrictor component.  Axes are
    numbered from 1, following the paper.
    """

    shape: object  # sh.Shape; typed loosely to avoid an import cycle
    dim: int

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("local_under axes are numbered from 1")

    def __str__(self) -> str:
        return f"local_under({self.shape},{self.dim})"


# ---------------------------------------------------------------------------
# Value domain (V)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scalar(Value):
    """``SCALAR(T, s_rep)`` — a typed scalar constant."""

    type: ty.ScalarType
    rep: object  # int | float | bool

    def __str__(self) -> str:
        return f"SCALAR({self.type},'{self.rep}')"

    @property
    def pyvalue(self):
        if self.type.is_logical:
            return bool(self.rep)
        if self.type.is_integer:
            return int(self.rep)
        return float(self.rep)


TRUE = Scalar(ty.LOGICAL_32, True)
FALSE = Scalar(ty.LOGICAL_32, False)


def int_const(v: int) -> Scalar:
    return Scalar(ty.INTEGER_32, int(v))


def float_const(v: float, double: bool = True) -> Scalar:
    return Scalar(ty.FLOAT_64 if double else ty.FLOAT_32, float(v))


@dataclass(frozen=True)
class SVar(Value):
    """``SVAR(id)`` — a scalar variable reference."""

    name: str

    def __str__(self) -> str:
        return f"SVAR '{self.name}'"


@dataclass(frozen=True)
class AVar(Value):
    """``AVAR(id, F)`` — an array variable referenced through field action F."""

    name: str
    field: FieldAction = field(default_factory=Everywhere)

    def __str__(self) -> str:
        return f"AVAR('{self.name}', {self.field})"


@dataclass(frozen=True)
class Binary(Value):
    """``BINARY(binop, V, V)`` — a binary computation."""

    op: BinOp
    left: Value
    right: Value

    def __str__(self) -> str:
        return f"BINARY({self.op.name.title()}, {self.left}, {self.right})"


@dataclass(frozen=True)
class Unary(Value):
    """``UNARY(monop, V)`` — a unary computation."""

    op: UnOp
    operand: Value

    def __str__(self) -> str:
        return f"UNARY({self.op.name.title()}, {self.operand})"


@dataclass(frozen=True)
class FcnCall(Value):
    """``FCNCALL(id, args)`` — a (possibly intrinsic) function call.

    Communication intrinsics such as ``cshift`` survive lowering as
    ``FcnCall`` nodes; the FE/NIR compiler replaces them with CM runtime
    library calls (section 5.2).
    """

    name: str
    args: tuple[Value, ...]

    def __str__(self) -> str:
        inner = ", ".join(str(a) for a in self.args)
        return f"FCNCALL('{self.name}', [{inner}])"


@dataclass(frozen=True)
class IndexRange(Value):
    """A Fortran section triplet ``lo:hi:stride`` inside a ``Subscript``.

    ``None`` bounds mean "the declared bound along this axis"; the
    shapechecker resolves them.  Only valid as a ``Subscript`` index.
    """

    lo: Value | None = None
    hi: Value | None = None
    stride: Value | None = None

    def __str__(self) -> str:
        def part(v):
            return "" if v is None else str(v)

        s = f"{part(self.lo)}:{part(self.hi)}"
        if self.stride is not None:
            s += f":{self.stride}"
        return s


@dataclass(frozen=True)
class RefIn(Value):
    """``REF_IN`` — receives a call-by-reference parameter."""

    name: str

    def __str__(self) -> str:
        return f"REF_IN '{self.name}'"


@dataclass(frozen=True)
class CopyIn(Value):
    """``COPY_IN`` — receives a call-by-value parameter."""

    name: str

    def __str__(self) -> str:
        return f"COPY_IN '{self.name}'"


# ---------------------------------------------------------------------------
# Value-tree utilities
# ---------------------------------------------------------------------------


for _cls in (Everywhere, Subscript, LocalUnder, Scalar, SVar, AVar, Binary,
             Unary, FcnCall, IndexRange, RefIn, CopyIn):
    hash_once(_cls)


def children(v: Value) -> tuple[Value, ...]:
    """Immediate value-domain children of a value node."""
    if isinstance(v, Binary):
        return (v.left, v.right)
    if isinstance(v, Unary):
        return (v.operand,)
    if isinstance(v, FcnCall):
        return v.args
    if isinstance(v, AVar) and isinstance(v.field, Subscript):
        return v.field.indices
    if isinstance(v, IndexRange):
        return tuple(x for x in (v.lo, v.hi, v.stride) if x is not None)
    return ()


def walk(v: Value):
    """Pre-order traversal of a value tree."""
    stack = [v]
    while stack:
        v = stack.pop()
        yield v
        stack.extend(reversed(children(v)))


def scalar_vars(v: Value) -> set[str]:
    """Names of all scalar variables referenced in a value tree."""
    return {n.name for n in walk(v) if isinstance(n, SVar)}


def array_vars(v: Value) -> set[str]:
    """Names of all array variables referenced in a value tree."""
    return {n.name for n in walk(v) if isinstance(n, AVar)}


def is_constant(v: Value) -> bool:
    """True when the value tree contains no store references or calls."""
    return all(
        isinstance(n, (Scalar, Binary, Unary, IndexRange)) for n in walk(v)
    )
