"""Array regions: the sections of a base array a MOVE touches.

A region is a per-axis list of arithmetic progressions ``(lo, hi, stride)``
within a base array's 1-based index space.  Regions drive both the
dependence test (may two MOVEs touch a common element?) and the
disjoint-mask grouping of Figure 10 (odd/even strided sections of the
same array provably never collide).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .. import nir


@dataclass(frozen=True)
class Region:
    """A rectangular strided section of a base array.

    ``axes`` holds one ``(lo, hi, stride)`` triple per array axis;
    ``base_extents`` are the declared extents.  ``exact`` is False when
    the region is a conservative over-approximation (e.g. an indirect
    subscript), in which case disjointness may never be concluded.
    """

    base_extents: tuple[int, ...]
    axes: tuple[tuple[int, int, int], ...]
    exact: bool = True

    def __post_init__(self) -> None:
        if len(self.axes) != len(self.base_extents):
            raise ValueError("region rank does not match base rank")

    @property
    def extents(self) -> tuple[int, ...]:
        return tuple(_prog_len(lo, hi, st) for lo, hi, st in self.axes)

    @property
    def is_full(self) -> bool:
        return self.exact and all(
            lo == 1 and hi == n and st == 1
            for (lo, hi, st), n in zip(self.axes, self.base_extents))

    def size(self) -> int:
        return math.prod(self.extents)


@functools.lru_cache(maxsize=1024)
def full_region(extents: tuple[int, ...]) -> Region:
    """The region covering an entire array (immutable, so shared)."""
    return Region(extents, tuple((1, n, 1) for n in extents))


def unknown_region(extents: tuple[int, ...]) -> Region:
    """A conservative whole-array region for unanalyzable subscripts."""
    return Region(extents, tuple((1, n, 1) for n in extents), exact=False)


def _prog_len(lo: int, hi: int, stride: int) -> int:
    if stride > 0:
        span = hi - lo
    else:
        span = lo - hi
    if span < 0:
        return 0
    return span // abs(stride) + 1


def _axes_overlap(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Can two arithmetic progressions share a point?

    Exact for the common cases (unit strides, equal strides); falls back
    to a gcd residue test, conservative where that is inconclusive.
    """
    alo, ahi, ast = a
    blo, bhi, bst = b
    ast, bst = abs(ast), abs(bst)
    if ast < 0 or bst < 0:  # normalized above; defensive
        return True
    a_min, a_max = min(alo, ahi), max(alo, ahi)
    b_min, b_max = min(blo, bhi), max(blo, bhi)
    if a_max < b_min or b_max < a_min:
        return False
    g = math.gcd(ast, bst)
    if (alo - blo) % g != 0:
        return False
    return True


def regions_overlap(a: Region, b: Region) -> bool:
    """May the two regions (of the same base) share an element?

    Conservative: returns True unless disjointness is provable.  Regions
    of different bases never reach this test.
    """
    if a.base_extents != b.base_extents:
        raise ValueError("regions of different bases are incomparable")
    if not (a.exact and b.exact):
        return True
    # Disjoint along ANY axis implies disjoint overall.
    return all(_axes_overlap(x, y) for x, y in zip(a.axes, b.axes))


def regions_equal(a: Region, b: Region) -> bool:
    """Exactly the same set of elements (used for alignment tests)."""
    return (a.exact and b.exact and a.base_extents == b.base_extents
            and a.axes == b.axes)


def region_of_field(field: nir.FieldAction, base_extents: tuple[int, ...],
                    domains: dict[str, nir.Shape]) -> Region:
    """The region a field action selects from an array of ``base_extents``."""
    if isinstance(field, nir.Everywhere):
        return full_region(base_extents)
    if isinstance(field, nir.LocalUnder):
        return full_region(base_extents)
    if isinstance(field, nir.Subscript):
        axes: list[tuple[int, int, int]] = []
        exact = True
        for idx, n in zip(field.indices, base_extents):
            if isinstance(idx, nir.IndexRange):
                lo = _const_or(idx.lo, 1)
                hi = _const_or(idx.hi, n)
                st = _const_or(idx.stride, 1)
                if lo is None or hi is None or st is None or st == 0:
                    axes.append((1, n, 1))
                    exact = False
                else:
                    axes.append((lo, hi, st))
            elif isinstance(idx, nir.Scalar) and idx.type.is_integer:
                axes.append((int(idx.rep), int(idx.rep), 1))
            elif isinstance(idx, nir.LocalUnder):
                # Coordinate-valued subscript: covers exactly the points of
                # the named axis of its shape (Figure 9's diagonal access).
                dim = nir.dims_of(idx.shape, domains)[idx.dim - 1]
                if isinstance(dim, (nir.Interval, nir.SerialInterval)):
                    axes.append((dim.lo, dim.hi, dim.stride))
                elif isinstance(dim, nir.Point):
                    axes.append((dim.value, dim.value, 1))
                else:
                    axes.append((1, n, 1))
                    exact = False
            else:
                # Loop-index or computed subscript: unknown single point.
                axes.append((1, n, 1))
                exact = False
        return Region(base_extents, tuple(axes), exact=exact)
    raise TypeError(f"unknown field action {field}")


def _const_or(v: nir.Value | None, default: int) -> int | None:
    if v is None:
        return default
    if isinstance(v, nir.Scalar) and v.type.is_integer:
        return int(v.rep)
    return None


def region_shape(region: Region) -> nir.Shape:
    """The NIR shape of a region's iteration space."""
    dims = tuple(nir.Interval(lo, hi, st) for lo, hi, st in region.axes)
    if len(dims) == 1:
        return dims[0]
    return nir.ProdDom(dims)
