"""CM runtime geometries: block layout of shapes onto processing elements.

"On the Connection Machine, we currently leave the exact partitioning up
to the runtime system, and generate host and SIMD node code based on
purely local computation over the user's shapes, laid out blockwise to
the CM processing elements" (section 3.3).

A :class:`Geometry` factorizes the machine's PEs into a grid over the
array axes (powers of two, balanced so per-PE subgrids stay as square as
possible) and derives the per-PE subgrid extents and the virtual subgrid
length (``vlen``) that sizes every virtual subgrid loop.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Geometry:
    """Block layout of one array shape across the machine."""

    extents: tuple[int, ...]
    pe_grid: tuple[int, ...]       # PEs along each axis (powers of two)
    subgrid: tuple[int, ...]       # per-PE block extents (ceil division)

    @property
    def vlen(self) -> int:
        """Virtual subgrid length: elements each PE iterates locally."""
        return math.prod(self.subgrid)

    @property
    def pes_used(self) -> int:
        return math.prod(self.pe_grid)

    @property
    def total_elements(self) -> int:
        return math.prod(self.extents)

    def boundary_columns(self, axis: int, shift: int) -> int:
        """Subgrid columns along ``axis`` whose shifted source is off-PE."""
        if self.pe_grid[axis] == 1:
            return 0
        return min(abs(shift), self.subgrid[axis])

    def hops(self, axis: int, shift: int) -> int:
        """PE-grid distance a shift's data travels along ``axis``."""
        if self.pe_grid[axis] == 1:
            return 0
        return max(1, math.ceil(abs(shift) / self.subgrid[axis]))


def _balanced_factorization(extents: tuple[int, ...], n_pes: int,
                            axis_modes: tuple[str, ...] | None = None
                            ) -> tuple[int, ...]:
    """Assign power-of-two PE counts to axes, largest subgrids first.

    ``axis_modes`` (from ``!layout:`` directives) marks axes ``serial``
    — kept entirely in-processor, receiving no PE factor — or ``news``
    (the default spreading).
    """
    pe_grid = [1] * len(extents)
    factors = int(math.log2(n_pes)) if n_pes > 1 else 0
    for _ in range(factors):
        best = None
        best_len = -1.0
        for i, (e, p) in enumerate(zip(extents, pe_grid)):
            if axis_modes is not None and axis_modes[i] == "serial":
                continue
            if p * 2 > e:
                continue  # never more PEs than elements along an axis
            cur = e / p
            if cur > best_len:
                best_len = cur
                best = i
        if best is None:
            break
        pe_grid[best] *= 2
    return tuple(pe_grid)


@lru_cache(maxsize=4096)
def make_geometry(extents: tuple[int, ...], n_pes: int,
                  axis_modes: tuple[str, ...] | None = None) -> Geometry:
    """Build (and cache) the block geometry for a shape."""
    if not extents or any(e < 1 for e in extents):
        raise ValueError(f"invalid extents {extents}")
    if n_pes < 1 or (n_pes & (n_pes - 1)) != 0:
        raise ValueError("n_pes must be a positive power of two")
    if axis_modes is not None and len(axis_modes) != len(extents):
        raise ValueError(
            f"layout directive names {len(axis_modes)} axes but the "
            f"array has rank {len(extents)}")
    pe_grid = _balanced_factorization(extents, n_pes, axis_modes)
    subgrid = tuple(math.ceil(e / p) for e, p in zip(extents, pe_grid))
    return Geometry(extents=extents, pe_grid=pe_grid, subgrid=subgrid)


def coordinate_array(extents: tuple[int, ...], axis: int, lo: int = 1,
                     step: int = 1) -> np.ndarray:
    """The runtime's coordinate subgrid for ``local_under(shape, axis)``.

    Returns the coordinate value of every element along ``axis``: the
    points ``lo, lo+step, ...`` of the shape's axis (1-based full
    domains have ``lo=1, step=1``).
    """
    if not 1 <= axis <= len(extents):
        raise ValueError(f"axis {axis} out of range for {extents}")
    n = extents[axis - 1]
    coords = (np.arange(n, dtype=np.int64) * step + lo).astype(np.int32)
    shape = [1] * len(extents)
    shape[axis - 1] = n
    return np.broadcast_to(coords.reshape(shape), extents).copy()


# id -> (weak reference, 0-based axis) of each shared coordinate array
_COORDINATES: dict[int, tuple] = {}


@lru_cache(maxsize=256)
def shared_coordinate_array(extents: tuple[int, ...], axis: int,
                            lo: int, step: int) -> np.ndarray:
    """Coordinate subgrids, shared across all Machine instances.

    Identical coordinate arrays recur across benchmark reruns and
    baseline comparisons; materializing them once per process (like
    ``make_geometry``) keeps wall-clock flat.  The cached array is
    frozen read-only so no machine can contaminate another's view, and
    registered, so :func:`coordinate_axis` knows it for what it is.
    """
    arr = coordinate_array(extents, axis, lo, step)
    arr.flags.writeable = False
    key = id(arr)
    _COORDINATES[key] = (
        weakref.ref(arr, lambda _: _COORDINATES.pop(key, None)), axis - 1)
    return arr


def coordinate_axis(view: np.ndarray) -> int | None:
    """The 0-based axis along which ``view`` holds coordinates when it
    is a shared coordinate array or a box of one, sliced axis by axis
    (its value then depends on that index alone); None otherwise."""
    root = view
    while isinstance(root.base, np.ndarray):
        root = root.base
    held = _COORDINATES.get(id(root))
    if (held is None or held[0]() is not root or root.ndim != view.ndim
            or any(n > 1 and s % r for n, s, r in zip(
                view.shape, view.strides, root.strides))):
        return None
    return held[1]
