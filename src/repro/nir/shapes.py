"""The NIR shape domain (Figure 6 of the paper).

Shapes are "a class of primitive semantic operators which model iteration"
over abstract Cartesian product spaces.  A shape may be *parallel* (its
points carry no dependencies and may be executed concurrently, as on the
CM's processing elements) or *serial* (its points must be visited in
order, as in a Fortran DO loop).

The constructors mirror the paper's shape domain:

* ``Point(i)``                — a single point,
* ``Interval(lo, hi)``        — a parallel vector shape,
* ``SerialInterval(lo, hi)``  — a serial vector shape,
* ``ProdDom([s1, s2, ...])``  — the shape cross-product,
* ``DomainRef(name)``         — a reference to a domain bound by the
  imperative bridge operator ``WITH_DOMAIN`` (Figures 8-10).

Intervals carry an optional stride so that Fortran array sections such as
``A(1:32:2)`` have a direct shape representation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class ShapeError(Exception):
    """Raised for malformed shapes or shape-algebra misuse."""


@dataclass(frozen=True)
class Shape:
    """Base class for all shape-domain constructors."""

    def __post_init__(self) -> None:  # pragma: no cover - abstract guard
        if type(self) is Shape:
            raise ShapeError("Shape is abstract; use a concrete constructor")


@dataclass(frozen=True)
class Point(Shape):
    """A single point of an iteration space."""

    value: int

    def __str__(self) -> str:
        return f"point {self.value}"


@dataclass(frozen=True)
class Interval(Shape):
    """A parallel vector shape covering ``lo..hi`` (inclusive) by ``stride``.

    All points of a parallel interval may be computed concurrently; on the
    CM/2 they are laid out across processing elements.
    """

    lo: int
    hi: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride == 0:
            raise ShapeError("interval stride must be non-zero")

    def __str__(self) -> str:
        if self.stride != 1:
            return f"interval(point {self.lo}..point {self.hi} by {self.stride})"
        return f"interval(point {self.lo}..point {self.hi})"


@dataclass(frozen=True)
class SerialInterval(Shape):
    """A serial vector shape: points must be visited in order."""

    lo: int
    hi: int
    stride: int = 1

    def __post_init__(self) -> None:
        if self.stride == 0:
            raise ShapeError("serial interval stride must be non-zero")

    def __str__(self) -> str:
        if self.stride != 1:
            return (f"serial_interval(point {self.lo}..point {self.hi} "
                    f"by {self.stride})")
        return f"serial_interval(point {self.lo}..point {self.hi})"


@dataclass(frozen=True)
class ProdDom(Shape):
    """The shape cross-product of one or more component shapes."""

    dims: tuple[Shape, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise ShapeError("prod_dom requires at least one dimension")
        if not all(isinstance(d, Shape) for d in self.dims):
            raise ShapeError("prod_dom dimensions must be shapes")

    def __str__(self) -> str:
        inner = ", ".join(str(d) for d in self.dims)
        return f"prod_dom[{inner}]"


@dataclass(frozen=True)
class DomainRef(Shape):
    """A reference to a named domain introduced by ``WITH_DOMAIN``."""

    name: str

    def __str__(self) -> str:
        return f"domain '{self.name}'"


# ---------------------------------------------------------------------------
# Shape algebra
# ---------------------------------------------------------------------------

DomainEnv = dict[str, Shape]
"""Environment mapping domain names to their defining shapes."""


def resolve(shape: Shape, env: DomainEnv | None = None) -> Shape:
    """Chase ``DomainRef`` indirections until a structural shape remains.

    ``ProdDom`` components are resolved recursively, so the result contains
    no ``DomainRef`` nodes at any depth; a shape that holds none is
    returned as it is.
    """
    if isinstance(shape, DomainRef):
        env = env or {}
        seen: set[str] = set()
        while isinstance(shape, DomainRef):
            if shape.name in seen:
                raise ShapeError(f"cyclic domain definition: '{shape.name}'")
            seen.add(shape.name)
            try:
                shape = env[shape.name]
            except KeyError:
                raise ShapeError(f"unbound domain: '{shape.name}'") from None
    if isinstance(shape, ProdDom):
        dims = tuple([resolve(d, env) for d in shape.dims])
        # Equal only if nothing changed: a DomainRef never equals a shape.
        return shape if dims == shape.dims else ProdDom(dims)
    return shape


def dims_of(shape: Shape, env: DomainEnv | None = None) -> tuple[Shape, ...]:
    """Flatten a shape into its one-dimensional components.

    A ``Point`` or interval is a single component; a ``ProdDom`` flattens
    to the concatenation of its (recursively flattened) components, which
    is the interpretation of nested ``dfield`` types the paper mentions.
    """
    shape = resolve(shape, env)
    if isinstance(shape, ProdDom):
        out: list[Shape] = []
        for d in shape.dims:
            out.extend(dims_of(d, env))
        return tuple(out)
    return (shape,)


def rank(shape: Shape, env: DomainEnv | None = None) -> int:
    """Number of one-dimensional components of the shape."""
    return len(dims_of(shape, env))


def _axis_points(dim: Shape) -> list[int]:
    if isinstance(dim, Point):
        return [dim.value]
    if isinstance(dim, (Interval, SerialInterval)):
        if dim.stride > 0:
            return list(range(dim.lo, dim.hi + 1, dim.stride))
        return list(range(dim.lo, dim.hi - 1, dim.stride))
    raise ShapeError(f"not a one-dimensional shape: {dim}")


def axis_extent(dim: Shape) -> int:
    """Number of points along a one-dimensional shape component."""
    if isinstance(dim, Point):
        return 1
    if isinstance(dim, (Interval, SerialInterval)):
        if dim.stride > 0:
            span = dim.hi - dim.lo
        else:
            span = dim.lo - dim.hi
        if span < 0:
            return 0
        return span // abs(dim.stride) + 1
    raise ShapeError(f"not a one-dimensional shape: {dim}")


def extents(shape: Shape, env: DomainEnv | None = None) -> tuple[int, ...]:
    """Per-axis point counts of a shape."""
    return tuple(axis_extent(d) for d in dims_of(shape, env))


def size(shape: Shape, env: DomainEnv | None = None) -> int:
    """Total number of points in the shape."""
    return math.prod(extents(shape, env))


def points(shape: Shape, env: DomainEnv | None = None):
    """Iterate the points of a shape in row-major order.

    Each point is a tuple of axis coordinates.  Used by the serial-loop
    unrolling rules of Figure 4 and by the reference semantics of ``DO``.
    """
    axes = [_axis_points(d) for d in dims_of(shape, env)]

    def rec(prefix: tuple[int, ...], remaining: list[list[int]]):
        if not remaining:
            yield prefix
            return
        for coord in remaining[0]:
            yield from rec(prefix + (coord,), remaining[1:])

    return rec((), axes)


def is_serial(shape: Shape, env: DomainEnv | None = None) -> bool:
    """True if *any* component of the shape demands serial iteration.

    A shape containing a ``SerialInterval`` component cannot be handed to
    the processing elements as a single data-parallel block; the serial
    axis must be iterated by the host (or unrolled, Figure 4).
    """
    return any(isinstance(d, SerialInterval) for d in dims_of(shape, env))


def is_parallel(shape: Shape, env: DomainEnv | None = None) -> bool:
    """True if every component of the shape permits concurrent execution."""
    return not is_serial(shape, env)


def conformable(a: Shape, b: Shape, env: DomainEnv | None = None) -> bool:
    """Shape conformance test used by static shapechecking.

    Two shapes conform when their per-axis extents agree, which is the
    Fortran 90 rule for operands of whole-array operations.  A scalar
    (rank-0) operand conforms with anything by broadcast, but scalars are
    not represented as shapes here, so this test is only for field-field
    interactions.
    """
    return extents(a, env) == extents(b, env)


def same_domain(a: Shape, b: Shape, env: DomainEnv | None = None) -> bool:
    """Stronger test than :func:`conformable`: identical resolved structure.

    The domain-blocking transformation (Figure 9) groups computations
    whose shapes are *identical and identically aligned*, not merely
    conformable, so it relies on this predicate.
    """
    return resolve(a, env) == resolve(b, env)


def serialized(shape: Shape, env: DomainEnv | None = None) -> Shape:
    """Return the shape with every parallel interval made serial."""
    shape = resolve(shape, env)
    if isinstance(shape, ProdDom):
        return ProdDom(tuple(serialized(d, env) for d in shape.dims))
    if isinstance(shape, Interval):
        return SerialInterval(shape.lo, shape.hi, shape.stride)
    return shape


def parallelized(shape: Shape, env: DomainEnv | None = None) -> Shape:
    """Return the shape with every serial interval made parallel."""
    shape = resolve(shape, env)
    if isinstance(shape, ProdDom):
        return ProdDom(tuple(parallelized(d, env) for d in shape.dims))
    if isinstance(shape, SerialInterval):
        return Interval(shape.lo, shape.hi, shape.stride)
    return shape


def interval_of_extent(n: int, *, serial: bool = False) -> Shape:
    """Convenience constructor: the 1-based interval with ``n`` points."""
    if n < 1:
        raise ShapeError("extent must be positive")
    if serial:
        return SerialInterval(1, n)
    return Interval(1, n)


def shape_of_extents(exts: tuple[int, ...] | list[int]) -> Shape:
    """Convenience constructor: a 1-based parallel shape with given extents."""
    dims = tuple(interval_of_extent(int(n)) for n in exts)
    if len(dims) == 1:
        return dims[0]
    return ProdDom(dims)
