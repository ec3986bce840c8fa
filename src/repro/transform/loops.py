"""The inductive LOOP rules of Figure 4, plus loop utilities.

Figure 4 defines serial loops over shapes by structural induction:

1. ``LOOP(action, point X)             => action(X)``
2. ``LOOP(action, interval(min..max))  => SEQUENTIALLY[LOOP(action, min);
                                          LOOP(action, interval(succ min..max))]``
3. ``LOOP(action, prod [d1])           => LOOP(action, d1)``
4. ``LOOP(action, prod [d1, d2, ...])  => LOOP(LOOP(action, prod [d2...]), d1)``

``unroll_do`` applies these rules to a serial ``DO(S, I)``, substituting
the bound index names; ``interchange`` permutes the dims of a product-
shape loop (rule 4 read both ways); ``strip_mine`` splits an interval
into blocks, the shape view of the CM's virtual subgrid loop.
"""

from __future__ import annotations

from .. import nir


def unroll_do(node: nir.Do, limit: int | None = None) -> nir.Imperative:
    """Fully unroll a serial DO by the Figure 4 rules.

    The body is replicated once per point with the index names bound to
    scalar constants.  ``limit`` guards against exploding large loops:
    if the shape has more points, the node is returned unchanged.
    """
    shape = node.shape
    try:
        total = nir.size(shape)
    except nir.ShapeError:
        return node
    if limit is not None and total > limit:
        return node
    names = node.index_names
    out: list[nir.Imperative] = []
    for point in nir.points(shape):
        bindings = {
            name: nir.int_const(coord)
            for name, coord in zip(names, point)
        }
        out.append(nir.substitute_svars(node.body, bindings))
    return nir.seq(*out)


def interchange(node: nir.Do, perm: tuple[int, ...]) -> nir.Do:
    """Permute the axes of a product-shape DO (loop interchange).

    ``perm`` gives the new order as 0-based positions into the old dims.
    Index names are permuted alongside, preserving bindings.
    """
    shape = node.shape
    if not isinstance(shape, nir.ProdDom):
        raise nir.ShapeError("interchange requires a product-shape DO")
    if sorted(perm) != list(range(len(shape.dims))):
        raise ValueError(f"invalid permutation {perm}")
    dims = tuple(shape.dims[i] for i in perm)
    names = node.index_names
    if names and len(names) == len(shape.dims):
        names = tuple(names[i] for i in perm)
    return nir.Do(nir.ProdDom(dims), node.body, names)


def strip_mine(interval: nir.Shape, block: int) -> list[nir.Shape]:
    """Split an interval shape into contiguous blocks of ``block`` points.

    This is the shape-level view of subgrid layout: a parallel interval
    laid out blockwise to processors becomes a list of per-processor
    serial subintervals.
    """
    if block < 1:
        raise ValueError("block size must be positive")
    if not isinstance(interval, (nir.Interval, nir.SerialInterval)):
        raise nir.ShapeError("strip_mine requires an interval shape")
    if interval.stride != 1:
        raise nir.ShapeError("strip_mine requires unit stride")
    serial = isinstance(interval, nir.SerialInterval)
    out: list[nir.Shape] = []
    lo = interval.lo
    while lo <= interval.hi:
        hi = min(lo + block - 1, interval.hi)
        out.append(nir.SerialInterval(lo, hi) if serial
                   else nir.Interval(lo, hi))
        lo = hi + 1
    return out


def fuse_do(a: nir.Do, b: nir.Do) -> nir.Do | None:
    """Classical loop fusion: two DOs over the same shape become one.

    Returns ``None`` when the shapes differ (callers must also have
    checked dependences).  This is the serial-loop analogue of the MOVE
    fusion performed by the blocking pass.
    """
    if a.shape != b.shape:
        return None
    if a.index_names != b.index_names and a.index_names and b.index_names:
        # Rename b's indices to a's.
        renames = {
            old: nir.SVar(new)
            for old, new in zip(b.index_names, a.index_names)
        }
        b_body = nir.substitute_svars(b.body, renames)
    else:
        b_body = b.body
    names = a.index_names or b.index_names
    return nir.Do(a.shape, nir.seq(a.body, b_body), names)
