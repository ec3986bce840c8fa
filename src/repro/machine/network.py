"""Hypercube network cost models: NEWS grid, general router, combine trees.

The CM/2's PEs sit on a 12-dimensional boolean hypercube with two wires
per dimension; grid (NEWS) communication embeds a Cartesian grid in the
cube, and the general router handles arbitrary patterns at much higher
cost.  "Many special-purpose communications routines have been
efficiently implemented in microcode, however, and can be substantially
faster than the worst-case router alternative" (section 2.2) — hence
the separate grid and router tariffs.
"""

from __future__ import annotations

import math

from .costs import CostModel
from .geometry import Geometry


def cshift_cycles(model: CostModel, geom: Geometry, axis: int,
                  shift: int) -> int:
    """Cycles for a circular shift along one axis of a block-laid array.

    Only the boundary columns of each PE's subgrid cross the wire; the
    interior of the block moves locally (a subgrid copy).
    """
    if geom.total_elements == 0:
        return 0
    axis0 = axis - 1
    local_copy = math.ceil(geom.vlen / 4) * model.instr.move
    crossing_cols = geom.boundary_columns(axis0, shift)
    if crossing_cols == 0:
        return local_copy
    crossing_elems = (geom.vlen // max(1, geom.subgrid[axis0])) \
        * crossing_cols
    hops = geom.hops(axis0, shift)
    return (model.grid_latency
            + local_copy
            + crossing_elems * model.grid_per_element * hops)


def halo_exchange_cycles(model: CostModel, geom: Geometry, axis: int,
                         shift: int) -> int:
    """Boundary exchange for a halo stream (§5.3.2 neighborhood model).

    Unlike a full CSHIFT, no local block copy is made: only the boundary
    columns cross the wire; interior elements are read in place.
    """
    axis0 = axis - 1
    crossing_cols = geom.boundary_columns(axis0, shift)
    if crossing_cols == 0:
        return 0
    crossing_elems = (geom.vlen // max(1, geom.subgrid[axis0])) \
        * crossing_cols
    hops = geom.hops(axis0, shift)
    return (model.grid_latency
            + crossing_elems * model.grid_per_element * hops)


def router_cycles(model: CostModel, geom: Geometry,
                  elements_per_pe: int | None = None) -> int:
    """Cycles for a general router operation (gather, irregular copy)."""
    per_pe = geom.vlen if elements_per_pe is None else elements_per_pe
    return model.router_latency + per_pe * model.router_per_element


def transpose_cycles(model: CostModel, geom: Geometry) -> int:
    """Transpose is a (microcoded) all-to-all: router tariff."""
    return router_cycles(model, geom)


def section_copy_cycles(model: CostModel, geom: Geometry,
                        region_elements: int,
                        regular: bool) -> int:
    """Copy of a (possibly misaligned) array section.

    Regular offsets use grid communication (a shifted block copy);
    irregular ones fall back to the router.
    """
    per_pe = math.ceil(region_elements / max(1, geom.pes_used))
    if regular:
        return model.grid_latency + per_pe * model.grid_per_element
    return model.router_latency + per_pe * model.router_per_element


def reduction_cycles(model: CostModel, geom: Geometry) -> int:
    """Full reduction: local subgrid pass plus a hypercube combine tree."""
    local = math.ceil(geom.vlen / 4) * model.instr.arith
    tree = int(math.log2(max(2, geom.pes_used))) * model.hop_cycles
    return local + tree + model.grid_latency


def spread_cycles(model: CostModel, geom: Geometry) -> int:
    """SPREAD replicates along a new axis: grid-style block broadcast."""
    return model.grid_latency + geom.vlen * model.grid_per_element
