"""SPARC assembly rendering of the front-end program.

"The FE/NIR compiler translates the NIR remainder program into SPARC
assembly code plus runtime system library calls" (section 5.2).  The
executable semantics of the host program live in the host IR
(:mod:`repro.runtime.host`); this module renders that IR as the SPARC
assembly the paper's compiler emitted, using the prototype's own stated
conventions — "a simple memory-to-memory load/store model with little
attention to effective register use or delay slot filling."

Scalar variables live in a frame-pointer-relative spill area; every
operation loads its operands, computes in ``%o`` registers, and stores
back (the memory-to-memory model).  CM runtime services and PEAC
dispatches become ``call`` instructions into ``_CMRT_*`` / ``_CMPE_*``
entry points, with IFIFO argument pushes before each node call; a
batched program's ``_CMPE_flush`` ends each fused batch, and a loop
whose first trip ends its batches elsewhere has that trip peeled off
ahead of it.
"""

from __future__ import annotations

from .. import nir
from . import host as h


def _target_name(clause: nir.MoveClause) -> str:
    tgt = clause.tgt
    if isinstance(tgt, (nir.AVar, nir.SVar)):
        return tgt.name
    return str(tgt)


class SparcRenderer:
    """Renders one host program as SPARC-flavoured assembly text."""

    def __init__(self) -> None:
        self.lines: list[str] = []
        self.slots: dict[str, int] = {}   # scalar name -> %fp offset
        self._label = 0
        self._depth = 0

    # ------------------------------------------------------------------

    def render(self, program: h.HostProgram) -> str:
        self.emit_raw(f"! host program '{program.name}' "
                      f"(FE/NIR output, memory-to-memory model)")
        self.emit_raw(f"        .global _{program.name}")
        self.emit_raw(f"_{program.name}:")
        self.emit("save %sp, -192, %sp")
        for op in program.ops:
            self.render_op(op)
        self.emit("ret")
        self.emit("restore")
        return "\n".join(self.lines)

    def emit(self, text: str) -> None:
        self.lines.append("        " + text)

    def emit_raw(self, text: str) -> None:
        self.lines.append(text)

    def label(self, stem: str) -> str:
        self._label += 1
        return f".L{stem}{self._label}"

    def slot(self, name: str) -> str:
        if name not in self.slots:
            self.slots[name] = -8 * (len(self.slots) + 1)
        return f"[%fp{self.slots[name]}]"

    # ------------------------------------------------------------------

    def render_op(self, op: h.HostOp) -> None:
        if isinstance(op, h.Alloc):
            dims = "x".join(str(e) for e in op.extents)
            self.emit(f"set {dims}_{op.dtype}, %o0")
            if op.layout:
                self.emit(f"set LAYOUT_{'_'.join(op.layout)}, %o1")
            self.emit(f"call _CMRT_allocate_array   ! {op.name}")
            self.emit("nop")
            self.emit(f"st %o0, {self.slot('&' + op.name)}")
        elif isinstance(op, h.ScalarInit):
            self.emit(f"set {op.value}, %o0")
            self.emit(f"st %o0, {self.slot(op.name)}")
        elif isinstance(op, h.ScalarMove):
            self.render_value(op.clause.src, "%o0")
            assert isinstance(op.clause.tgt, nir.SVar)
            self.emit(f"st %o0, {self.slot(op.clause.tgt.name)}")
        elif isinstance(op, h.NodeCall):
            self.render_node_call(op)
        elif isinstance(op, h.FoldedShift):
            self.emit(f"call _CMRT_cshift        "
                      f"! cm_rt cshift (folded) {op.src} -> "
                      f"{', '.join(op.readers)}")
            self.emit("nop")
        elif isinstance(op, h.CommMove):
            self.emit(f"call _CMRT_{op.kind}        "
                      f"! {_target_name(op.clause)}")
            self.emit("nop")
        elif isinstance(op, h.ReduceMove):
            src = op.clause.src
            name = src.name if isinstance(src, nir.FcnCall) else "reduce"
            self.emit(f"call _CMRT_reduce_{name}")
            self.emit("nop")
            if isinstance(op.clause.tgt, nir.SVar):
                self.emit(f"st %o0, {self.slot(op.clause.tgt.name)}")
        elif isinstance(op, h.ElementMove):
            self.emit(f"call _CMRT_element_rw       "
                      f"! {_target_name(op.clause)}")
            self.emit("nop")
        elif isinstance(op, h.Flush):
            self.emit("call _CMPE_flush           ! dispatch the batch")
            self.emit("nop")
        elif isinstance(op, h.Snapshot):
            self.emit(f"call _CMRT_snapshot_halos   "
                      f"! {', '.join(op.arrays)}")
            self.emit("nop")
        elif isinstance(op, h.Loop):
            self.render_loop(op)
        elif isinstance(op, h.WhileOp):
            self.render_while(op)
        elif isinstance(op, h.IfOp):
            self.render_if(op)
        elif isinstance(op, h.Print):
            self.emit("call _printf")
            self.emit("nop")
        elif isinstance(op, h.Stop):
            self.emit("call _exit")
            self.emit("nop")
        else:  # pragma: no cover - future host ops
            self.emit(f"! unrendered host op {type(op).__name__}")

    def render_node_call(self, op: h.NodeCall) -> None:
        self.emit(f"! dispatch {op.routine.name} over "
                  f"{'x'.join(str(e) for e in op.region_extents)}")
        for arg in op.args:
            if arg.kind == "subgrid":
                self.emit(f"ld {self.slot('&' + arg.array)}, %o0")
                self.emit(f"call _CM_push_ififo         ! {arg.name}")
            elif arg.kind == "coord":
                self.emit(f"call _CMRT_coord_subgrid    "
                          f"! axis {arg.axis}")
                self.emit("call _CM_push_ififo")
            elif arg.kind == "halo" and arg.temp is not None:
                self.emit(f"ld {self.slot('&' + arg.array)}, %o0")
                self.emit(f"call _CM_push_ififo         ! {arg.name} = "
                          f"{arg.array} offset {list(arg.offsets)}")
            elif arg.kind == "halo":
                self.emit(f"call _CMRT_halo_exchange    "
                          f"! {arg.array} shift {arg.shift} "
                          f"dim {arg.axis}")
                self.emit("call _CM_push_ififo")
            elif arg.kind == "scalar":
                self.render_value(arg.value, "%o0")
                self.emit(f"call _CM_push_ififo         ! {arg.name}")
            self.emit("nop")
        self.emit("set vlen, %o0")
        self.emit("call _CM_push_ififo")
        self.emit("nop")
        self.emit(f"call _CMPE_{op.routine.name}")
        self.emit("nop")

    def render_loop(self, op: h.Loop) -> None:
        top = self.label("loop")
        done = self.label("done")
        self.emit(f"set {op.lo}, %o0")
        self.emit(f"st %o0, {self.slot(op.var)}")
        if op.first is not None:    # peeled: the bounds say it runs
            self.emit(f"! first trip of {op.var}")
            for inner in op.first:
                self.render_op(inner)
            self.emit(f"ld {self.slot(op.var)}, %o0")
            self.emit(f"add %o0, {op.step}, %o0")
            self.emit(f"st %o0, {self.slot(op.var)}")
        self.emit_raw(top + ":")
        self.emit(f"ld {self.slot(op.var)}, %o0")
        self.emit(f"set {op.hi}, %o1")
        self.emit("cmp %o0, %o1")
        branch = "bg" if op.step > 0 else "bl"
        self.emit(f"{branch} {done}")
        self.emit("nop")
        for inner in op.body:
            self.render_op(inner)
        self.emit(f"ld {self.slot(op.var)}, %o0")
        self.emit(f"add %o0, {op.step}, %o0")
        self.emit(f"st %o0, {self.slot(op.var)}")
        self.emit(f"ba {top}")
        self.emit("nop")
        self.emit_raw(done + ":")

    def render_while(self, op: h.WhileOp) -> None:
        top = self.label("while")
        done = self.label("endw")
        self.emit_raw(top + ":")
        self.render_value(op.cond, "%o0")
        self.emit("tst %o0")
        self.emit(f"bz {done}")
        self.emit("nop")
        for inner in op.body:
            self.render_op(inner)
        self.emit(f"ba {top}")
        self.emit("nop")
        self.emit_raw(done + ":")

    def render_if(self, op: h.IfOp) -> None:
        els = self.label("else")
        done = self.label("endif")
        self.render_value(op.cond, "%o0")
        self.emit("tst %o0")
        self.emit(f"bz {els}")
        self.emit("nop")
        for inner in op.then:
            self.render_op(inner)
        self.emit(f"ba {done}")
        self.emit("nop")
        self.emit_raw(els + ":")
        for inner in op.els:
            self.render_op(inner)
        self.emit_raw(done + ":")

    # ------------------------------------------------------------------

    _BINOPS = {
        nir.BinOp.ADD: "add", nir.BinOp.SUB: "sub", nir.BinOp.MUL: "smul",
        nir.BinOp.DIV: "sdiv", nir.BinOp.AND: "and", nir.BinOp.OR: "or",
    }
    _CMPS = {
        nir.BinOp.EQ: "be", nir.BinOp.NE: "bne", nir.BinOp.LT: "bl",
        nir.BinOp.LE: "ble", nir.BinOp.GT: "bg", nir.BinOp.GE: "bge",
    }

    def render_value(self, value: nir.Value, dest: str) -> None:
        """Memory-to-memory scalar evaluation into ``dest``."""
        if isinstance(value, nir.Scalar):
            self.emit(f"set {value.pyvalue}, {dest}")
        elif isinstance(value, nir.SVar):
            self.emit(f"ld {self.slot(value.name)}, {dest}")
        elif isinstance(value, nir.Binary) and value.op in self._BINOPS:
            self.render_value(value.left, "%o1")
            self.emit(f"st %o1, {self.slot('$tmp' + str(self._depth))}")
            self._depth += 1
            self.render_value(value.right, "%o2")
            self._depth -= 1
            self.emit(f"ld {self.slot('$tmp' + str(self._depth))}, %o1")
            self.emit(f"{self._BINOPS[value.op]} %o1, %o2, {dest}")
        elif isinstance(value, nir.Binary) and value.op in self._CMPS:
            label = self.label("cmp")
            self.render_value(value.left, "%o1")
            self.emit(f"st %o1, {self.slot('$tmp' + str(self._depth))}")
            self._depth += 1
            self.render_value(value.right, "%o2")
            self._depth -= 1
            self.emit(f"ld {self.slot('$tmp' + str(self._depth))}, %o1")
            self.emit("cmp %o1, %o2")
            self.emit(f"mov 1, {dest}")
            self.emit(f"{self._CMPS[value.op]} {label}")
            self.emit(f"mov 0, {dest}     ! annulled on taken branch")
            self.emit_raw(label + ":")
        elif isinstance(value, nir.Unary):
            self.render_value(value.operand, dest)
            if value.op is nir.UnOp.NEG:
                self.emit(f"neg {dest}")
            elif value.op is nir.UnOp.NOT:
                self.emit(f"xor {dest}, 1, {dest}")
            else:
                self.emit(f"call _lib_{value.op.name.lower()}")
                self.emit("nop")
        else:
            # Reductions, array reads, intrinsics: runtime library calls.
            self.emit(f"call _CMRT_eval             ! {str(value)[:50]}")
            self.emit("nop")
            if dest != "%o0":
                self.emit(f"mov %o0, {dest}")


def render_sparc(program: h.HostProgram) -> str:
    """SPARC assembly text for a compiled program's front-end half."""
    return SparcRenderer().render(program)
