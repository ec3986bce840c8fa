"""The CM2/PE NIR compiler: computation blocks to PEAC routines.

"The prototype CM/PE node compiler is carefully tuned for optimizing the
loop over local data in each processor, the process known as virtual
subgrid looping.  ...  CM/PE therefore only needs to process procedures
whose body is a single loop containing a sequence of (optionally masked)
moves from the local points of source arrays to the corresponding points
in the target" (section 5.2).

Pipeline: instruction selection (NIR MOVE → vector IR with load/value
memoization), chained multiply-add fusion, load chaining, lifetime-based
register allocation with spill placement, memory-access overlap, and
PEAC encoding.  Every optimization is switchable so the naive encoding
of Figure 12 is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ... import nir
from ...lowering.environment import Environment
from ...peac.isa import (
    NUM_PREGS,
    NUM_SREGS,
    CReg,
    Imm,
    Instr,
    Mem,
    ParamSpec,
    PReg,
    Routine,
    SReg,
    VReg,
)
from ...transform import regions as rg
from .chaining import chain_loads, pair_memory_ops
from .regalloc import AllocationResult, PhysOp, allocate
from .vir import (
    ScalarSpec,
    Src,
    SrcKind,
    StreamSpec,
    VOp,
    VProgram,
    imm,
    scalar_src,
    stream_src,
)


class BackendError(Exception):
    """Raised on uncompilable computation blocks."""


class TooManyStreams(BackendError):
    """The block references more arrays than pointer registers exist."""


@dataclass(frozen=True)
class BackendOptions:
    """PE-compiler switches (the Figure 12 naive/optimized axis)."""

    memoize: bool = True     # value/load CSE across the block
    fma: bool = True         # chained multiply-add fusion
    chaining: bool = True    # in-memory operand substitution
    overlap: bool = True     # dual-issue loads/stores with arithmetic
    neighborhood: bool = False  # §5.3.2: CSHIFT operands as halo streams

    @classmethod
    def naive(cls) -> "BackendOptions":
        """Figure 12's naive encoding: every operand through a register."""
        return cls(memoize=False, fma=False, chaining=False, overlap=False)


@dataclass
class CompiledBlock:
    """A compiled computation phase: routine plus call information."""

    routine: Routine
    arg_info: list[dict]            # ArgBinding construction data
    region_extents: tuple[int, ...]
    real_elements: int
    allocation: AllocationResult | None = None


# ---------------------------------------------------------------------------
# Instruction selection
# ---------------------------------------------------------------------------

_ARITH_OPS = {
    nir.BinOp.ADD: ("iaddv", "faddv"),
    nir.BinOp.SUB: ("isubv", "fsubv"),
    nir.BinOp.MUL: ("imulv", "fmulv"),
    nir.BinOp.DIV: ("idivv", "fdivv"),
    nir.BinOp.MOD: ("imodv", "fmodv"),
    nir.BinOp.POW: ("fpowv", "fpowv"),
    nir.BinOp.MIN: ("fminv", "fminv"),
    nir.BinOp.MAX: ("fmaxv", "fmaxv"),
}

_CMP_OPS = {
    nir.BinOp.EQ: "fceqv",
    nir.BinOp.NE: "fcnev",
    nir.BinOp.LT: "fcltv",
    nir.BinOp.LE: "fclev",
    nir.BinOp.GT: "fcgtv",
    nir.BinOp.GE: "fcgev",
}

_UN_OPS = {
    nir.UnOp.ABS: "fabsv",
    nir.UnOp.SQRT: "fsqrtv",
    nir.UnOp.SIN: "fsinv",
    nir.UnOp.COS: "fcosv",
    nir.UnOp.TAN: "ftanv",
    nir.UnOp.ASIN: "fasinv",
    nir.UnOp.ACOS: "facosv",
    nir.UnOp.ATAN: "fatanv",
    nir.UnOp.EXP: "fexpv",
    nir.UnOp.LOG: "flogv",
    nir.UnOp.LOG10: "flog10v",
    nir.UnOp.FLOOR: "ffloorv",
    nir.UnOp.CEILING: "fceilv",
    nir.UnOp.TO_INT: "fintv",
    nir.UnOp.TO_FLOAT32: "ffltv",
    nir.UnOp.TO_FLOAT64: "fdblv",
}


class Selector:
    """Lowers one computation MOVE to straight-line vector IR."""

    def __init__(self, env: Environment, domains: dict[str, nir.Shape],
                 options: BackendOptions) -> None:
        self.env = env
        self.domains = domains
        self.options = options
        self.program = VProgram()
        self._stream_ids: dict[tuple, int] = {}
        self._scalar_ids: dict[str, int] = {}
        # Value memo: NIR node -> (src, elem, array deps); invalidated on
        # stores to any dependency.
        self._memo: dict[nir.Value, tuple[Src, str, frozenset[str]]] = {}
        self._stored_arrays: set[str] = set()

    # -- streams ---------------------------------------------------------

    def array_stream(self, name: str,
                     region: tuple | None, direction: str) -> int:
        key = ("arr", name, region, direction)
        if key not in self._stream_ids:
            sid = self.program.add_stream(StreamSpec(
                kind="array", array=name, region=region,
                direction=direction))
            self._stream_ids[key] = sid
        return self._stream_ids[key]

    def halo_stream(self, name: str, shift: int, dim: int) -> int:
        key = ("halo", name, shift, dim)
        if key not in self._stream_ids:
            sid = self.program.add_stream(StreamSpec(
                kind="halo", array=name, halo_shift=shift, halo_dim=dim,
                direction="r"))
            self._stream_ids[key] = sid
        return self._stream_ids[key]

    def coord_stream(self, shape: nir.Shape, dim: int) -> int:
        resolved = nir.resolve(shape, self.domains)
        extents = nir.extents(resolved, self.domains)
        axis = nir.dims_of(resolved, self.domains)[dim - 1]
        if isinstance(axis, nir.Point):
            lo, stride = axis.value, 1
        else:
            lo, stride = axis.lo, axis.stride
        key = ("coord", extents, dim, lo, stride)
        if key not in self._stream_ids:
            sid = self.program.add_stream(StreamSpec(
                kind="coord", coord_axis=dim, coord_extents=extents,
                coord_lo=lo, coord_stride=stride, direction="r"))
            self._stream_ids[key] = sid
        return self._stream_ids[key]

    def scalar_id(self, value: nir.Value, key: str) -> int:
        if key not in self._scalar_ids:
            self._scalar_ids[key] = self.program.add_scalar(
                ScalarSpec(value=value))
        return self._scalar_ids[key]

    # -- emission ---------------------------------------------------------

    def emit_move(self, move: nir.Move,
                  region: rg.Region) -> None:
        for clause in move.clauses:
            self.emit_clause(clause, region)

    def emit_clause(self, clause: nir.MoveClause, region: rg.Region) -> None:
        assert isinstance(clause.tgt, nir.AVar)
        tgt_region = self._field_region(clause.tgt)
        wstream = self.array_stream(clause.tgt.name, tgt_region, "w")

        value, velem, vdeps = self.emit_value(clause.src)
        if clause.mask == nir.TRUE:
            out, deps = value, vdeps
        else:
            mask, _, mdeps = self.emit_value(clause.mask)
            old, _, odeps = self.emit_value(
                nir.AVar(clause.tgt.name, clause.tgt.field))
            out = self.program.emit("fselv", (mask, value, old))
            deps = vdeps | mdeps | odeps
        if out.kind is not SrcKind.VIRT:
            out = self.program.emit("fmovv", (out,))
        self.program.emit_store(out, wstream)
        # The stored register now holds the target's memory contents.
        self._invalidate(clause.tgt.name)
        self._stored_arrays.add(clause.tgt.name)
        if self.options.memoize:
            tgt_elem = self.env.lookup(clause.tgt.name).element
            self._memo[nir.AVar(clause.tgt.name, clause.tgt.field)] = (
                out, _elem_code(tgt_elem), deps | {clause.tgt.name})

    def _invalidate(self, array: str) -> None:
        stale = [k for k, (_, _, deps) in self._memo.items()
                 if array in deps]
        for k in stale:
            del self._memo[k]

    def _field_region(self, ref: nir.AVar) -> tuple | None:
        sym = self.env.lookup(ref.name)
        if isinstance(ref.field, nir.Everywhere):
            return None
        region = rg.region_of_field(ref.field, sym.extents, self.domains)
        if not region.exact:
            raise BackendError(
                f"'{ref.name}': non-constant subscripts reached the PE "
                f"compiler")
        if region.is_full:
            return None
        return region.axes

    # -- values -----------------------------------------------------------

    def emit_value(self, value: nir.Value) -> tuple[Src, str, frozenset]:
        if self.options.memoize and value in self._memo:
            return self._memo[value]
        out = self._emit_value(value)
        if self.options.memoize and out[0].kind is SrcKind.VIRT:
            self._memo[value] = out
        return out

    def _emit_value(self, value: nir.Value) -> tuple[Src, str, frozenset]:
        none: frozenset = frozenset()
        if isinstance(value, nir.Scalar):
            if value.type.is_logical:
                return imm(1.0 if value.pyvalue else 0.0), "b", none
            return imm(float(value.pyvalue)), _elem_code(value.type), none
        if isinstance(value, nir.SVar):
            sym = self.env.lookup(value.name)
            sid = self.scalar_id(value, f"svar:{value.name}")
            return scalar_src(sid), _elem_code(sym.element), none
        if isinstance(value, nir.AVar):
            return self._emit_avar(value)
        if isinstance(value, nir.LocalUnder):
            sid = self.coord_stream(value.shape, value.dim)
            out = self.program.emit("load", (stream_src(sid),))
            return out, "i", none
        if isinstance(value, nir.Binary):
            return self._emit_binary(value)
        if isinstance(value, nir.Unary):
            return self._emit_unary(value)
        if isinstance(value, nir.FcnCall) \
                and value.name.lower() == "cshift" \
                and self.options.neighborhood:
            arr, shift, dim = value.args
            if not (isinstance(arr, nir.AVar)
                    and isinstance(arr.field, nir.Everywhere)
                    and isinstance(shift, nir.Scalar)
                    and isinstance(dim, nir.Scalar)):
                raise BackendError(
                    "neighborhood model requires whole-array constant "
                    "shifts")
            if arr.name in self._stored_arrays:
                raise BackendError(
                    f"halo read of '{arr.name}' after a store in the same "
                    f"block (fusion must keep them apart)")
            sym = self.env.lookup(arr.name)
            sid = self.halo_stream(arr.name, int(shift.rep), int(dim.rep))
            out = self.program.emit("load", (stream_src(sid),))
            return out, _elem_code(sym.element), frozenset({arr.name})
        if isinstance(value, nir.FcnCall) and value.name.lower() == "merge":
            t, telem, tdeps = self.emit_value(value.args[0])
            f, felem, fdeps = self.emit_value(value.args[1])
            m, _, mdeps = self.emit_value(value.args[2])
            out = self.program.emit("fselv", (m, t, f))
            elem = "f" if "f" in (telem, felem) else telem
            return out, elem, tdeps | fdeps | mdeps
        raise BackendError(
            f"cannot select code for {type(value).__name__}: {value}")

    def _emit_avar(self, ref: nir.AVar) -> tuple[Src, str, frozenset]:
        sym = self.env.lookup(ref.name)
        region = self._field_region(ref)
        sid = self.array_stream(ref.name, region, "r")
        out = self.program.emit("load", (stream_src(sid),))
        return out, _elem_code(sym.element), frozenset({ref.name})

    def _emit_binary(self, value: nir.Binary) -> tuple[Src, str, frozenset]:
        left, lelem, ldeps = self.emit_value(value.left)
        right, relem, rdeps = self.emit_value(value.right)
        deps = ldeps | rdeps
        op = value.op
        if op in _ARITH_OPS:
            int_op, float_op = _ARITH_OPS[op]
            if lelem == "i" and relem == "i":
                out = self.program.emit(int_op, (left, right))
                return out, "i", deps
            out = self.program.emit(float_op, (left, right))
            return out, "f", deps
        if op in _CMP_OPS:
            out = self.program.emit(_CMP_OPS[op], (left, right))
            return out, "b", deps
        if op is nir.BinOp.AND:
            return self.program.emit("candv", (left, right)), "b", deps
        if op is nir.BinOp.OR:
            return self.program.emit("corv", (left, right)), "b", deps
        if op is nir.BinOp.EQV:
            return self.program.emit("fceqv", (left, right)), "b", deps
        if op is nir.BinOp.NEQV:
            return self.program.emit("cxorv", (left, right)), "b", deps
        raise BackendError(f"no selection for operator {op}")

    def _emit_unary(self, value: nir.Unary) -> tuple[Src, str, frozenset]:
        operand, elem, deps = self.emit_value(value.operand)
        op = value.op
        if op is nir.UnOp.NEG:
            if elem == "i":
                return self.program.emit("inegv", (operand,)), "i", deps
            return self.program.emit("fnegv", (operand,)), "f", deps
        if op is nir.UnOp.NOT:
            return self.program.emit("cnotv", (operand,)), "b", deps
        opcode = _UN_OPS.get(op)
        if opcode is None:
            raise BackendError(f"no selection for operator {op}")
        if op is nir.UnOp.TO_INT or op in (nir.UnOp.FLOOR, nir.UnOp.CEILING):
            out_elem = "i"
        elif op is nir.UnOp.ABS:
            out_elem = elem
        else:
            out_elem = "f"
        return self.program.emit(opcode, (operand,)), out_elem, deps


def _elem_code(elem: nir.ScalarType) -> str:
    if elem.is_logical:
        return "b"
    if elem.is_integer:
        return "i"
    return "f"


# ---------------------------------------------------------------------------
# FMA fusion
# ---------------------------------------------------------------------------


def fuse_multiply_adds(program: VProgram) -> VProgram:
    """Convert ``t = a*b; d = t + c`` (t single-use) to ``d = fmav a b c``.

    Also matches ``d = t - c`` to ``fmsv``.  Integer multiplies are left
    alone (the Weitek chain is a floating-point path).
    """
    from .vir import uses_of

    ops = program.ops
    uses = uses_of(ops)
    def_pos: dict[int, int] = {}
    for pos, op in enumerate(ops):
        if op.dst >= 0:
            def_pos[op.dst] = pos

    fused_defs: set[int] = set()
    out_ops: list[VOp] = []
    replacements: dict[int, VOp] = {}

    for pos, op in enumerate(ops):
        if op.op in ("faddv", "fsubv"):
            for i, src in enumerate(op.srcs):
                if src.kind is not SrcKind.VIRT:
                    continue
                dpos = def_pos.get(src.index)
                if dpos is None:
                    continue
                mul = ops[dpos]
                if mul.op != "fmulv" or len(uses.get(src.index, [])) != 1:
                    continue
                other = op.srcs[1 - i]
                if op.op == "fsubv" and i == 1:
                    continue  # c - a*b has no single-instruction chain
                new_op = "fmav" if op.op == "faddv" else "fmsv"
                replacements[pos] = VOp(new_op,
                                        (mul.srcs[0], mul.srcs[1], other),
                                        op.dst)
                fused_defs.add(dpos)
                break

    out = VProgram(streams=program.streams, scalars=program.scalars,
                   n_virtuals=program.n_virtuals)
    for pos, op in enumerate(ops):
        if pos in fused_defs:
            continue
        out.ops.append(replacements.get(pos, op))
    return out


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------


def encode_routine(name: str, program: VProgram,
                   allocation: AllocationResult,
                   options: BackendOptions, dtype: str) -> Routine:
    """Turn allocated physical ops into a PEAC routine (spills: ``dtype``)."""
    phys_ops = allocation.ops
    if options.overlap:
        phys_ops = pair_memory_ops(phys_ops)

    n_streams = len(program.streams)
    if n_streams + allocation.spill_slots > NUM_PREGS:
        raise TooManyStreams(
            f"{n_streams} operand streams + {allocation.spill_slots} spill "
            f"slots exceed {NUM_PREGS} pointer registers")
    if len(program.scalars) > NUM_SREGS:
        raise BackendError("too many broadcast scalars")

    def spill_mem(slot: int) -> Mem:
        return Mem(PReg(NUM_PREGS - 1 - slot), 0, 0)

    def operand(src: Src):
        if src.kind is SrcKind.VIRT:
            return VReg(src.index)
        if src.kind is SrcKind.STREAM:
            return Mem(PReg(src.index), 0, 1)
        if src.kind is SrcKind.SCALAR:
            return SReg(NUM_SREGS - 1 - src.index)
        return Imm(src.value)

    def encode_one(op: PhysOp) -> Instr:
        if op.op == "load":
            return Instr("flodv", (operand(op.srcs[0]), VReg(op.dst)))
        if op.op == "store":
            return Instr("fstrv", (operand(op.srcs[0]),
                                   operand(op.srcs[1])))
        if op.op == "spill":
            return Instr("fstrv", (operand(op.srcs[0]), spill_mem(op.slot)))
        if op.op == "restore":
            return Instr("flodv", (spill_mem(op.slot), VReg(op.dst)))
        ops_out = tuple(operand(s) for s in op.srcs) + (VReg(op.dst),)
        return Instr(op.op, ops_out)

    body: list[Instr] = []
    for op in phys_ops:
        if op.op.startswith("+"):
            mem_instr = encode_one(PhysOp(op.op[1:], op.srcs, op.dst,
                                          op.slot))
            prev = body[-1]
            body[-1] = Instr(prev.op, prev.operands, paired=mem_instr)
        else:
            body.append(encode_one(op))

    return Routine(name=name, params=_build_params(program), body=body,
                   spill_slots=allocation.spill_slots, dtype=dtype)


def _build_params(program: VProgram) -> list[ParamSpec]:
    params: list[ParamSpec] = []
    for sid, spec in enumerate(program.streams):
        if spec.kind == "array":
            pname = f"{spec.array}.{spec.direction}{sid}"
            kind = "subgrid"
        elif spec.kind == "halo":
            pname = f"{spec.array}.h{spec.halo_dim}s{spec.halo_shift}.{sid}"
            kind = "halo"
        else:
            pname = f"coord{spec.coord_axis}.{sid}"
            kind = "coord"
        params.append(ParamSpec(kind=kind, name=pname, reg=PReg(sid),
                                meta=(sid,)))
    for i, _spec in enumerate(program.scalars):
        params.append(ParamSpec(kind="scalar", name=f"scalar{i}",
                                reg=SReg(NUM_SREGS - 1 - i), meta=(i,)))
    params.append(ParamSpec(kind="vlen", name="vlen", reg=CReg(2)))
    return params


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


_routine_counter = [0]


def compile_block(move: nir.Move, env: Environment,
                  domains: dict[str, nir.Shape],
                  options: BackendOptions | None = None,
                  name: str | None = None) -> CompiledBlock:
    """Compile one computation MOVE into a PEAC routine + call info."""
    options = options or BackendOptions()
    if name is None:
        _routine_counter[0] += 1
        name = f"Pk{_routine_counter[0]}vs1"

    first_tgt = move.clauses[0].tgt
    assert isinstance(first_tgt, nir.AVar)
    sym = env.lookup(first_tgt.name)
    region = rg.region_of_field(first_tgt.field, sym.extents, domains)

    selector = Selector(env, domains, options)
    selector.emit_move(move, region)
    program = selector.program

    if options.fma:
        program = fuse_multiply_adds(program)
    if options.chaining:
        stream_arrays = {
            sid: spec.array for sid, spec in enumerate(program.streams)}
        program = chain_loads(program, stream_arrays)

    allocation = allocate(program)
    # Spill scratch must hold the computation's element type exactly
    # (an integer spill through float64 scratch would change dtypes on
    # restore); the blocked MOVE's target array carries that type.
    routine = encode_routine(name, program, allocation, options,
                             np.dtype(sym.element.dtype).name)

    arg_info: list[dict] = []
    for param in routine.params:
        if param.kind == "vlen":
            continue
        if param.kind == "subgrid":
            spec = program.streams[param.meta[0]]
            arg_info.append({
                "kind": "subgrid", "name": param.name,
                "array": spec.array, "region": spec.region,
            })
        elif param.kind == "halo":
            spec = program.streams[param.meta[0]]
            arg_info.append({
                "kind": "halo", "name": param.name, "array": spec.array,
                "axis": spec.halo_dim, "shift": spec.halo_shift,
            })
        elif param.kind == "coord":
            spec = program.streams[param.meta[0]]
            arg_info.append({
                "kind": "coord", "name": param.name,
                "extents": spec.coord_extents, "axis": spec.coord_axis,
                "lo": spec.coord_lo, "step": spec.coord_stride,
                "region": None,
            })
        else:
            spec = program.scalars[param.meta[0]]
            arg_info.append({
                "kind": "scalar", "name": param.name, "value": spec.value,
            })

    region_extents = region.extents
    return CompiledBlock(
        routine=routine,
        arg_info=arg_info,
        region_extents=region_extents,
        real_elements=math.prod(region_extents),
        allocation=allocation,
    )
