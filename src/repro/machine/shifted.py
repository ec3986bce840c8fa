"""Shifted operands: a CSHIFT read in place instead of copied.

"A more flexible model would allow the compiler to ... perform general
neighborhood computations directly" (section 5.3.2).  The simulator
only has to *price* a whole-array circular shift; the data motion is an
artefact of executing it with numpy.  A :class:`Shifted` operand names
the source array and the per-axis offsets, and every consumer of a
dispatch reads it the cheapest way it can:

* the native C loops (:mod:`repro.machine.ckernel`) index the source
  with a wrapped row pointer and column offset;
* the blocked numpy kernels (:mod:`repro.machine.kernel`) gather it one
  cache-resident block at a time (:class:`BlockGather`);
* everything else — the interpreter oracle, the one path of every
  dispatch that has no kernel — *materialises* it
  into a pooled buffer with :func:`shifted_into`, which is exactly the
  copy the CM runtime used to make and the oracle the other two are
  checked against.

A shifted operand denotes the source's contents **when the dispatch
starts**: a kernel that also stores the source stages that store
through scratch and copies back after its loop
(:func:`repro.machine.loopir.lower`).
"""

from __future__ import annotations

import itertools

import numpy as np

from .pe import ExecutionError, SubgridStream


def _blocks(shape, offsets):
    """(destination index, source index) of each rectangular block of
    a circular shift by ``offsets`` over ``shape`` — ``2**k`` of them,
    ``k`` the axes actually shifted."""
    axes = [(axis, off % n)
            for axis, (off, n) in enumerate(zip(offsets, shape))
            if n and off % n]
    blocks = []
    for wrapped in itertools.product((False, True), repeat=len(axes)):
        oi = [slice(None)] * len(shape)
        si = [slice(None)] * len(shape)
        for (axis, off), wrap in zip(axes, wrapped):
            n = shape[axis]
            if wrap:
                oi[axis], si[axis] = slice(n - off, None), slice(0, off)
            else:
                oi[axis], si[axis] = slice(0, n - off), slice(off, None)
        blocks.append((tuple(oi), tuple(si)))
    return blocks


def shifted_into(out: np.ndarray, src: np.ndarray,
                 offsets: tuple[int, ...]) -> None:
    """``out[i] = src[(i + offsets) mod shape]``, written block by block.

    A circular shift along ``k`` axes is ``2**k`` rectangular block
    copies; nothing is allocated.  ``offsets`` are CSHIFT amounts per
    axis (``np.roll`` by their negation).
    """
    for oi, si in _blocks(src.shape, offsets):
        np.copyto(out[oi], src[si], casting="unsafe")


def one_axis(ndim: int, dim: int, shift: int) -> tuple[int, ...]:
    """Per-axis offsets of ``CSHIFT(.., shift, dim)`` (``dim`` 1-based)."""
    return tuple(shift if axis == dim - 1 else 0 for axis in range(ndim))


class Shifted:
    """A whole array read through per-axis circular offsets.

    ``key`` identifies the operand across the routines of one fused
    group (two readers of the same folded temporary share one stream
    slot, as they shared one temporary); operands made without a key
    are distinct from every other.
    """

    __slots__ = ("base", "offsets", "key")

    def __init__(self, base: np.ndarray, offsets, key=None) -> None:
        if len(offsets) != base.ndim:
            raise ExecutionError(
                f"shifted operand: {len(offsets)} offsets for a "
                f"rank-{base.ndim} array")
        self.base = base
        self.offsets = tuple(int(off) % n if n else 0
                             for off, n in zip(offsets, base.shape))
        self.key = key if key is not None else id(self)

    def materialize(self, out: np.ndarray | None = None) -> np.ndarray:
        """The shifted copy (into ``out``, or freshly allocated)."""
        if out is None:
            out = np.empty_like(self.base)
        shifted_into(out.reshape(self.base.shape), self.base, self.offsets)
        return out


class ShiftedStream:
    """The stream of a :class:`Shifted` operand inside one dispatch.

    Deliberately *not* a :class:`~repro.machine.pe.SubgridStream`: it
    has no ``view``, so every consumer but a kernel must first swap it
    for its materialised copy (:func:`materialize_streams`, counted in
    ``metrics["shifts_materialized"]``) or fail loudly.
    """

    __slots__ = ("operand", "name", "pool", "metrics", "_copy")

    def __init__(self, operand: Shifted, name: str, pool, metrics) -> None:
        self.operand = operand
        self.name = name
        self.pool = pool
        self.metrics = metrics
        self._copy: np.ndarray | None = None

    @property
    def proto(self) -> np.ndarray:
        """An array with the stream's shape and dtype (not its data)."""
        return self.operand.base

    def materialize(self) -> SubgridStream:
        """A plain stream over the shifted copy (pooled, made once)."""
        if self._copy is None:
            self.metrics["shifts_materialized"] += 1
            base = self.operand.base
            self._copy = self.operand.materialize(
                self.pool.acquire(base.shape, base.dtype))
        return SubgridStream(self._copy, name=self.name)

    def release(self) -> None:
        if self._copy is not None:
            self.pool.release(self._copy)
            self._copy = None


def materialize_streams(streams: list) -> None:
    """Swap every shifted stream for its copy, now (tier 3).

    Called before anything that executes stores, so the copy holds the
    source's contents at dispatch start.
    """
    for p, stream in enumerate(streams):
        if isinstance(stream, ShiftedStream):
            streams[p] = stream.materialize()


class BlockGather:
    """Block-at-a-time reader of a shifted operand (blocked kernels).

    Blocks are whole leading-axis slabs ``[a, z)``, the same ones on
    every call.  A shift along axis 0 alone is a plain slice of the
    flat source except in the one block that wraps; anything else is
    gathered into ``buf``, a block buffer of the kernel's that stays
    cache-resident.  Each block's copies are laid out the first time it
    is read — a kernel over small arrays runs thousands of times and
    must not rebuild index tuples per call.
    """

    __slots__ = ("shape", "o0", "plane", "buf", "inner", "blocks")

    def __init__(self, shape, offsets, buf: np.ndarray) -> None:
        self.shape = shape = tuple(shape)
        self.o0 = offsets[0]
        self.plane = int(np.prod(shape[1:], dtype=np.int64))
        self.buf = buf
        # Copies along the trailing axes, shared by every block.
        self.inner = [(oi[1:], si[1:]) for oi, si in
                      _blocks(shape, (0,) + tuple(offsets[1:]))]
        # block start -> (flat lo, flat hi, copies or None for a slice)
        self.blocks: dict[int, tuple] = {}

    def _layout(self, a: int, z: int) -> tuple:
        d0 = self.shape[0]
        plane = self.plane
        rows = z - a
        q = (a + self.o0) % d0
        head = min(rows, d0 - q)
        if head == rows and len(self.inner) == 1:
            return q * plane, (q + rows) * plane, None
        dst = self.buf[:rows * plane].reshape((rows,) + self.shape[1:])
        copies = []
        for oi, si in self.inner:
            copies.append((dst[(slice(0, head),) + oi],
                           (slice(q, q + head),) + si))
            if head < rows:
                copies.append((dst[(slice(head, rows),) + oi],
                               (slice(0, rows - head),) + si))
        return 0, rows * plane, copies

    def __call__(self, flat: np.ndarray, a: int, z: int) -> np.ndarray:
        block = self.blocks.get(a)
        if block is None:
            block = self.blocks[a] = self._layout(a, z)
        lo, hi, copies = block
        if copies is None:
            return flat[lo:hi]
        src = flat.reshape(self.shape)
        for dst, si in copies:
            np.copyto(dst, src[si])
        return self.buf[:hi]
