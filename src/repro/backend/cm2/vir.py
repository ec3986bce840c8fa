"""Vector IR: the PE compiler's three-address form over virtual registers.

The CM/PE compiler "only needs to process procedures whose body is a
single loop containing a sequence of (optionally masked) moves from the
local points of source arrays to the corresponding points in the target"
(section 5.2).  Such a body is straight-line code — "one basic block
with a single back-edge" — so the IR is a flat list of operations over
unlimited virtual registers, later mapped to the eight Weitek vector
registers by the allocator.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class SrcKind(enum.Enum):
    VIRT = "virt"       # virtual vector register
    STREAM = "stream"   # subgrid memory stream (pointer-register operand)
    SCALAR = "scalar"   # broadcast scalar register
    IMM = "imm"         # sequencer immediate


@dataclass(frozen=True)
class Src:
    kind: SrcKind
    index: int = 0         # virt number / stream id / scalar id
    value: float = 0.0     # for IMM

    def __str__(self) -> str:
        if self.kind is SrcKind.VIRT:
            return f"v{self.index}"
        if self.kind is SrcKind.STREAM:
            return f"m{self.index}"
        if self.kind is SrcKind.SCALAR:
            return f"s{self.index}"
        return f"#{self.value}"


def virt(n: int) -> Src:
    return Src(SrcKind.VIRT, n)


def stream_src(n: int) -> Src:
    return Src(SrcKind.STREAM, n)


def scalar_src(n: int) -> Src:
    return Src(SrcKind.SCALAR, n)


def imm(value: float) -> Src:
    return Src(SrcKind.IMM, value=float(value))


@dataclass(frozen=True)
class VOp:
    """One vector operation: ``dst = op(srcs)``.

    ``op`` is a PEAC opcode ("faddv", "fselv", ...), or the pseudo-ops
    ``"load"`` (dst ← stream) and ``"store"`` (stream ← src, dst = -1).
    """

    op: str
    srcs: tuple[Src, ...]
    dst: int = -1           # virtual register number; -1 for stores

    def __str__(self) -> str:
        args = " ".join(str(s) for s in self.srcs)
        if self.dst < 0:
            return f"{self.op} {args}"
        return f"{self.op} {args} -> v{self.dst}"


@dataclass(frozen=True)
class StreamSpec:
    """One memory stream of the routine (a pointer-register binding).

    kinds: ``array`` (a subgrid of a named array, read or written),
    ``coord`` (a runtime coordinate subgrid), ``halo`` (a neighbour-
    shifted view of an array under the §5.3.2 neighborhood model),
    ``spill`` (per-call PE scratch).
    """

    kind: str
    array: str = ""
    region: tuple[tuple[int, int, int], ...] | None = None
    coord_axis: int = 0
    coord_extents: tuple[int, ...] = ()
    coord_lo: int = 1
    coord_stride: int = 1
    halo_shift: int = 0
    halo_dim: int = 0
    direction: str = "r"  # 'r' | 'w'


@dataclass(frozen=True)
class ScalarSpec:
    """One broadcast scalar argument: a host-evaluated NIR value."""

    value: object  # nir.Value


@dataclass
class VProgram:
    """A complete straight-line vector program plus its operand table."""

    ops: list[VOp] = field(default_factory=list)
    streams: list[StreamSpec] = field(default_factory=list)
    scalars: list[ScalarSpec] = field(default_factory=list)
    n_virtuals: int = 0

    def new_virtual(self) -> int:
        n = self.n_virtuals
        self.n_virtuals += 1
        return n

    def add_stream(self, spec: StreamSpec) -> int:
        self.streams.append(spec)
        return len(self.streams) - 1

    def add_scalar(self, spec: ScalarSpec) -> int:
        self.scalars.append(spec)
        return len(self.scalars) - 1

    def emit(self, op: str, srcs: tuple[Src, ...]) -> Src:
        dst = self.new_virtual()
        self.ops.append(VOp(op, srcs, dst))
        return virt(dst)

    def emit_store(self, value: Src, stream: int) -> None:
        self.ops.append(VOp("store", (value, stream_src(stream))))

    def __str__(self) -> str:
        return "\n".join(str(op) for op in self.ops)


def uses_of(ops: list[VOp]) -> dict[int, list[int]]:
    """Map virtual register -> positions of instructions that read it."""
    uses: dict[int, list[int]] = {}
    for pos, op in enumerate(ops):
        for src in op.srcs:
            if src.kind is SrcKind.VIRT:
                uses.setdefault(src.index, []).append(pos)
    return uses
