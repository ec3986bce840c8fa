"""Back-end tests: selection, fma, chaining, regalloc, partition, CM/5."""

import numpy as np
import pytest

from repro import nir
from repro.backend.cm2 import (
    BackendOptions,
    Cm2Compiler,
    TooManyStreams,
    VProgram,
    allocate,
    chain_loads,
    compile_block,
    fuse_multiply_adds,
)
from repro.backend.cm2.regalloc import AllocationError
from repro.backend.cm2.vir import (
    SrcKind,
    StreamSpec,
    VOp,
    imm,
    scalar_src,
    stream_src,
    virt,
)
from repro.backend.cm5.compiler import Cm5Compiler
from repro.backend.cm5.vector_unit import split_routine, unit_of
from repro.peac import NUM_VREGS, Instr, Mem, PReg, VReg
from repro.runtime import host as h
from repro.transform.pipeline import unwrap_body

from .conftest import lower, transform


def compute_move(src, options=None):
    """Lower+optimize a one-statement program; return (move, env)."""
    tp = transform(src, options)
    body = tp.inner_body()
    actions = body.actions if isinstance(body, nir.Sequentially) else [body]
    moves = [a for a in actions if isinstance(a, nir.Move)
             and isinstance(a.clauses[0].tgt, nir.AVar)]
    return moves[0], tp.env


class TestSelection:
    def test_simple_add(self):
        move, env = compute_move("integer a(8), b(8)\na = b + 1\nend")
        block = compile_block(move, env, env.domains)
        ops = [i.op for i in block.routine.body]
        assert "iaddv" in ops
        assert "fstrv" in ops

    def test_float_ops_selected_for_doubles(self):
        move, env = compute_move(
            "double precision a(8), b(8)\na = b * 2.0d0\nend")
        ops = [i.op for i in compile_block(move, env, env.domains)
               .routine.body]
        assert "fmulv" in ops

    def test_masked_clause_uses_select(self):
        move, env = compute_move(
            "integer a(8), b(8)\nwhere (b > 0) a = 1\nend")
        ops = [i.op for i in compile_block(move, env, env.domains)
               .routine.body]
        assert "fselv" in ops
        assert "fcgtv" in ops

    def test_coordinates_become_streams(self):
        move, env = compute_move(
            "integer a(8)\nforall (i=1:8) a(i) = i\nend")
        block = compile_block(move, env, env.domains)
        kinds = [a["kind"] for a in block.arg_info]
        assert "coord" in kinds

    def test_scalars_become_sreg_args(self):
        move, env = compute_move(
            "integer a(8)\ninteger n\nn = 3\na = a + n\nend")
        block = compile_block(move, env, env.domains)
        scalar_args = [a for a in block.arg_info if a["kind"] == "scalar"]
        assert len(scalar_args) == 1
        assert scalar_args[0]["value"] == nir.SVar("n")

    def test_memoization_reuses_loads(self):
        move, env = compute_move(
            "double precision a(8), b(8)\na = b*b + b\nend")
        block = compile_block(move, env, env.domains)
        loads_of_b = [a for a in block.arg_info
                      if a.get("array") == "b"]
        assert len(loads_of_b) == 1

    def test_naive_mode_no_memoization(self):
        move, env = compute_move(
            "double precision a(8), b(8)\na = b*b + b\nend")
        naive = compile_block(move, env, env.domains,
                              BackendOptions.naive())
        opt = compile_block(move, env, env.domains)
        assert naive.routine.instruction_count() \
            > opt.routine.instruction_count()

    def test_transcendental_selection(self):
        move, env = compute_move(
            "double precision a(8)\na = sin(a) + sqrt(a)\nend")
        ops = [i.op for i in compile_block(move, env, env.domains)
               .routine.body]
        assert "fsinv" in ops and "fsqrtv" in ops

    def test_merge_selection(self):
        move, env = compute_move(
            "integer a(8), b(8), c(8)\nc = merge(a, b, a > b)\nend")
        ops = [i.op for i in compile_block(move, env, env.domains)
               .routine.body]
        assert "fselv" in ops

    def test_region_compute_section_streams(self):
        from repro.transform import Options
        move, env = compute_move(
            "integer a(16), b(16)\n"
            "a(1:8) = b(1:8) + a(1:8)\nend",
            Options(pad_masks=False))
        block = compile_block(move, env, env.domains)
        regions = {a.get("array"): a.get("region")
                   for a in block.arg_info if a["kind"] == "subgrid"}
        assert block.region_extents == (8,)
        assert all(r == ((1, 8, 1),) for r in regions.values())


class TestFmaFusion:
    def build(self, ops, n_virt):
        p = VProgram(n_virtuals=n_virt)
        p.ops = ops
        return p

    def test_mul_add_fuses(self):
        p = self.build([
            VOp("fmulv", (imm(2.0), imm(3.0)), 0),
            VOp("faddv", (virt(0), imm(1.0)), 1),
        ], 2)
        out = fuse_multiply_adds(p)
        assert [o.op for o in out.ops] == ["fmav"]

    def test_mul_sub_fuses(self):
        p = self.build([
            VOp("fmulv", (imm(2.0), imm(3.0)), 0),
            VOp("fsubv", (virt(0), imm(1.0)), 1),
        ], 2)
        out = fuse_multiply_adds(p)
        assert [o.op for o in out.ops] == ["fmsv"]

    def test_sub_from_const_not_fused(self):
        # c - a*b has no single-instruction Weitek chain.
        p = self.build([
            VOp("fmulv", (imm(2.0), imm(3.0)), 0),
            VOp("fsubv", (imm(1.0), virt(0)), 1),
        ], 2)
        out = fuse_multiply_adds(p)
        assert [o.op for o in out.ops] == ["fmulv", "fsubv"]

    def test_multi_use_mul_not_fused(self):
        p = self.build([
            VOp("fmulv", (imm(2.0), imm(3.0)), 0),
            VOp("faddv", (virt(0), imm(1.0)), 1),
            VOp("faddv", (virt(0), imm(5.0)), 2),
        ], 3)
        out = fuse_multiply_adds(p)
        assert [o.op for o in out.ops][0] == "fmulv"


class TestChaining:
    def test_single_use_load_folds(self):
        p = VProgram()
        sid = p.add_stream(StreamSpec(kind="array", array="b"))
        v = p.emit("load", (stream_src(sid),))
        p.emit("faddv", (v, imm(1.0)))
        out = chain_loads(p, {sid: "b"})
        assert [o.op for o in out.ops] == ["faddv"]
        assert any(s.kind is SrcKind.STREAM for s in out.ops[0].srcs)

    def test_double_use_load_kept(self):
        p = VProgram()
        sid = p.add_stream(StreamSpec(kind="array", array="b"))
        v = p.emit("load", (stream_src(sid),))
        p.emit("faddv", (v, v))
        out = chain_loads(p, {sid: "b"})
        assert [o.op for o in out.ops] == ["load", "faddv"]

    def test_no_second_memory_operand(self):
        p = VProgram()
        s1 = p.add_stream(StreamSpec(kind="array", array="a"))
        s2 = p.add_stream(StreamSpec(kind="array", array="b"))
        va = p.emit("load", (stream_src(s1),))
        vb = p.emit("load", (stream_src(s2),))
        p.emit("faddv", (va, vb))
        out = chain_loads(p, {s1: "a", s2: "b"})
        chained = sum(s.kind is SrcKind.STREAM
                      for o in out.ops if o.op != "load" for s in o.srcs)
        assert chained == 1          # only one of the two loads folds
        assert [o.op for o in out.ops][0] == "load"  # the other remains

    def test_load_never_crosses_store_to_same_array(self):
        p = VProgram()
        rd = p.add_stream(StreamSpec(kind="array", array="a",
                                     direction="r"))
        wr = p.add_stream(StreamSpec(kind="array", array="a",
                                     direction="w"))
        v = p.emit("load", (stream_src(rd),))
        w = p.emit("fmovv", (imm(0.0),))
        p.emit_store(w, wr)
        p.emit("faddv", (v, imm(1.0)))
        out = chain_loads(p, {rd: "a", wr: "a"})
        assert [o.op for o in out.ops][0] == "load"


class TestRegalloc:
    def chain_program(self, n):
        """n independent loads then a reduction tree over all of them."""
        p = VProgram()
        vals = []
        for i in range(n):
            sid = p.add_stream(StreamSpec(kind="array", array=f"a{i}"))
            vals.append(p.emit("load", (stream_src(sid),)))
        acc = vals[0]
        for v in vals[1:]:
            acc = p.emit("faddv", (acc, v))
        out = p.add_stream(StreamSpec(kind="array", array="out",
                                      direction="w"))
        p.emit_store(acc, out)
        return p

    def test_no_spills_under_pressure_limit(self):
        result = allocate(self.chain_program(NUM_VREGS))
        assert result.spills == 0

    def test_spills_when_pressure_exceeds(self):
        result = allocate(self.chain_program(NUM_VREGS + 3))
        assert result.spills > 0
        assert result.restores > 0
        assert result.spill_slots > 0

    def test_physical_registers_in_range(self):
        result = allocate(self.chain_program(NUM_VREGS + 4))
        for op in result.ops:
            if op.dst >= 0:
                assert 0 <= op.dst < NUM_VREGS
            for s in op.srcs:
                if s.kind is SrcKind.VIRT:
                    assert 0 <= s.index < NUM_VREGS

    def test_allocation_correctness_via_simulation(self):
        """Allocated code must compute the same value as unallocated."""
        p = self.chain_program(NUM_VREGS + 3)
        # Simulate the PhysOps with a simple register file + slots.
        result = allocate(p)
        regs = {}
        slots = {}
        streams = {i: float(i + 1) for i in range(len(p.streams))}
        stored = None
        for op in result.ops:
            def read(s):
                if s.kind is SrcKind.VIRT:
                    return regs[s.index]
                if s.kind is SrcKind.STREAM:
                    return streams[s.index]
                return s.value
            if op.op == "load":
                regs[op.dst] = read(op.srcs[0])
            elif op.op == "faddv":
                regs[op.dst] = read(op.srcs[0]) + read(op.srcs[1])
            elif op.op == "spill":
                slots[op.slot] = read(op.srcs[0])
            elif op.op == "restore":
                regs[op.dst] = slots[op.slot]
            elif op.op == "store":
                stored = read(op.srcs[0])
        n = NUM_VREGS + 3
        assert stored == sum(range(1, n + 1))

    def test_undefined_virtual_raises(self):
        p = VProgram(n_virtuals=5)
        p.ops = [VOp("faddv", (virt(3), virt(4)), 0)]
        with pytest.raises(AllocationError):
            allocate(p)


class TestPartition:
    def compile(self, src, options=None, transform_options=None):
        tp = transform(src, transform_options)
        compiler = Cm2Compiler(tp.env, options=options)
        return compiler.compile_program(tp.nir), compiler

    def test_host_node_division(self):
        prog, compiler = self.compile(
            "integer a(8), b(8)\ninteger s\n"
            "a = 1\nb = cshift(a, 1)\ns = sum(b)\nprint *, s\nend")
        kinds = [type(op).__name__ for op in prog.ops]
        assert "NodeCall" in kinds
        assert "CommMove" in kinds
        assert "ReduceMove" in kinds
        assert "Print" in kinds
        assert compiler.report.compute_blocks == 1

    def test_allocations_emitted_first(self):
        prog, _ = self.compile("integer a(8)\na = 1\nend")
        assert isinstance(prog.ops[0], h.Alloc)

    def test_serial_loop_becomes_host_loop(self):
        prog, _ = self.compile(
            "integer a(8)\ninteger i\n"
            "do 1 i=2,8\na(i) = a(i-1)\n1 continue\nend")
        loops = [op for op in prog.ops if isinstance(op, h.Loop)]
        assert len(loops) == 1
        assert isinstance(loops[0].body[0], h.ElementMove)

    def test_node_call_region_unpadded(self):
        from repro.transform import Options
        prog, _ = self.compile(
            "integer a(16)\na(1:8) = a(1:8) + 1\nend",
            transform_options=Options(pad_masks=False))
        call = [op for op in prog.ops if isinstance(op, h.NodeCall)][0]
        assert call.region_extents == (8,)
        assert call.real_elements == 8

    def test_node_call_region_padded(self):
        # With Figure 10 padding the block covers the full shape under a
        # coordinate mask.
        prog, _ = self.compile(
            "integer a(16)\na(1:8) = a(1:8) + 1\nend")
        call = [op for op in prog.ops if isinstance(op, h.NodeCall)][0]
        assert call.region_extents == (16,)

    def test_oversized_block_split(self):
        # 20 distinct arrays exceed the 16 pointer registers when fused
        # into one block; the compiler must split rather than fail.
        n = 20
        decls = "integer " + ", ".join(f"a{i}(8)" for i in range(n))
        stmts = "\n".join(f"a{i} = {i}" for i in range(n))
        prog, compiler = self.compile(decls + "\n" + stmts + "\nend")
        assert compiler.report.compute_blocks >= 2

    def test_routine_names_unique(self):
        prog, _ = self.compile(
            "integer a(8), b(9)\na = 1\nb = 2\nend")
        assert len(set(prog.routines)) == len(prog.routines)


class TestCm5:
    def test_three_way_split(self):
        tp = transform("double precision a(8), b(8)\ninteger m(8)\n"
                       "a = b * 2.0d0 + 1.0d0\nm = m + 1\nend")
        compiler = Cm5Compiler(tp.env)
        compiler.compile_program(tp.nir)
        assert compiler.report.node_splits
        total_vu = sum(s.vu_instructions
                       for s in compiler.report.node_splits)
        total_sparc = sum(s.sparc_instructions
                          for s in compiler.report.node_splits)
        assert total_vu > 0
        assert total_sparc > 0  # the integer move runs on the SPARC

    def test_unit_classification(self):
        fmul = Instr("fmulv", (VReg(0), VReg(1), VReg(2)))
        iadd = Instr("iaddv", (VReg(0), VReg(1), VReg(2)))
        assert unit_of(fmul) == "vu"
        assert unit_of(iadd) == "sparc"

    def test_split_counts_paired(self):
        from repro.peac import Routine
        r = Routine("t", body=[
            Instr("fmulv", (VReg(0), VReg(1), VReg(2)),
                  paired=Instr("flodv", (Mem(PReg(0)), VReg(3))))])
        split = split_routine(r)
        assert split.vu_instructions == 2

    def test_cm5_reuses_cm2_partitioning(self):
        src = "integer a(8), b(8)\na = 1\nb = cshift(a, 1)\nend"
        tp = transform(src)
        c5 = Cm5Compiler(tp.env)
        p5 = c5.compile_program(tp.nir)
        tp2 = transform(src)
        c2 = Cm2Compiler(tp2.env)
        p2 = c2.compile_program(tp2.nir)
        assert [type(o).__name__ for o in p5.ops] \
            == [type(o).__name__ for o in p2.ops]
