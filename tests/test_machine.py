"""Machine substrate tests: geometry, costs, PE executor, network."""

import math

import numpy as np
import pytest

from repro.machine import (
    Machine,
    SubgridStream,
    VectorExecutor,
    cycles_per_trip,
    fieldwise_model,
    flops_per_element,
    peak_gflops,
    slicewise_model,
)
from repro.machine.costs import cm5_model
from repro.machine.geometry import coordinate_array, make_geometry
from repro.machine import network
from repro.machine.stats import RunStats
from repro.peac import Imm, Instr, Mem, PReg, Routine, SReg, VReg
from repro.peac.isa import ParamSpec, CReg


class TestGeometry:
    def test_square_grid_balanced(self):
        g = make_geometry((1024, 1024), 2048)
        assert g.pes_used == 2048
        assert g.pe_grid in ((64, 32), (32, 64))
        assert g.vlen == 512

    def test_1d_layout(self):
        g = make_geometry((4096,), 64)
        assert g.pe_grid == (64,)
        assert g.subgrid == (64,)

    def test_small_array_leaves_pes_idle(self):
        g = make_geometry((8,), 64)
        assert g.pe_grid == (8,)
        assert g.vlen == 1

    def test_uneven_extent_ceil_division(self):
        g = make_geometry((100,), 16)
        assert g.subgrid == (7,)

    def test_n_pes_power_of_two_required(self):
        with pytest.raises(ValueError):
            make_geometry((8,), 3)

    def test_boundary_columns(self):
        g = make_geometry((64, 64), 16)
        axis = 0 if g.pe_grid[0] > 1 else 1
        assert g.boundary_columns(axis, 1) == 1
        assert g.boundary_columns(axis, 1000) == g.subgrid[axis]

    def test_no_boundary_when_axis_unsplit(self):
        g = make_geometry((8, 4096), 64)
        unsplit = 0 if g.pe_grid[0] == 1 else 1
        assert g.boundary_columns(unsplit, 1) == 0

    def test_hops(self):
        g = make_geometry((64,), 8)  # subgrid 8
        assert g.hops(0, 1) == 1
        assert g.hops(0, 20) == 3

    def test_coordinate_array_values(self):
        c = coordinate_array((3, 4), 2)
        assert c.shape == (3, 4)
        assert list(c[0]) == [1, 2, 3, 4]
        assert list(c[:, 0]) == [1, 1, 1]

    def test_coordinate_array_lo_step(self):
        c = coordinate_array((4,), 1, lo=2, step=3)
        assert list(c) == [2, 5, 8, 11]


class TestCosts:
    def test_paper_anchor_spill_pair(self):
        m = slicewise_model()
        assert m.instr.load + m.instr.store == 18  # the 18-cycle anchor
        assert 3 * m.instr.arith == 18             # == three vector ops

    def test_chained_operand_free(self):
        m = slicewise_model()
        chained = Instr("fsubv", (VReg(0), Mem(PReg(1)), VReg(1)))
        plain = Instr("fsubv", (VReg(0), VReg(2), VReg(1)))
        assert m.instruction_cycles(chained) == m.instruction_cycles(plain)

    def test_chaining_disabled_costs_load(self):
        m = slicewise_model().with_(chaining=False)
        chained = Instr("fsubv", (VReg(0), Mem(PReg(1)), VReg(1)))
        assert m.instruction_cycles(chained) == \
            m.instr.arith + m.instr.load

    def test_dual_issue_overlap(self):
        m = slicewise_model()
        load = Instr("flodv", (Mem(PReg(1)), VReg(2)))
        paired = Instr("fsubv", (VReg(0), VReg(1), VReg(3)), paired=load)
        assert m.instruction_cycles(paired) == \
            max(m.instr.arith, m.instr.load)

    def test_no_dual_issue_sums(self):
        m = slicewise_model().with_(dual_issue=False)
        load = Instr("flodv", (Mem(PReg(1)), VReg(2)))
        paired = Instr("fsubv", (VReg(0), VReg(1), VReg(3)), paired=load)
        assert m.instruction_cycles(paired) == \
            m.instr.arith + m.instr.load

    def test_fieldwise_has_no_chaining(self):
        m = fieldwise_model()
        assert not m.chaining and not m.dual_issue and not m.fma_supported

    def test_cm5_model_clock(self):
        assert cm5_model().clock_hz == 32.0e6

    def test_peak_gflops_order_of_magnitude(self):
        # CM/2 with chained multiply-adds peaked around 20 GF.
        assert 15 < peak_gflops() < 30


class TestVectorExecutor:
    def run1(self, instrs, pointers=None, scalars=None):
        ex = VectorExecutor()
        for preg, arr in (pointers or {}).items():
            ex.bind_pointer(PReg(preg), SubgridStream(arr))
        for sreg, val in (scalars or {}).items():
            ex.bind_scalar(SReg(sreg), val)
        ex.run(Routine("t", body=instrs))
        return ex

    def test_load_compute_store(self):
        a = np.array([1.0, 2.0, 3.0])
        out = np.zeros(3)
        self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fmulv", (VReg(0), Imm(2.0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ], pointers={0: a, 1: out})
        assert list(out) == [2.0, 4.0, 6.0]

    def test_scalar_broadcast(self):
        a = np.array([1.0, 2.0])
        out = np.zeros(2)
        self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("faddv", (SReg(31), VReg(0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ], pointers={0: a, 1: out}, scalars={31: 10.0})
        assert list(out) == [11.0, 12.0]

    def test_chained_memory_operand(self):
        a = np.array([5.0, 7.0])
        b = np.array([2.0, 3.0])
        out = np.zeros(2)
        self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fsubv", (VReg(0), Mem(PReg(1)), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(2)))),
        ], pointers={0: a, 1: b, 2: out})
        assert list(out) == [3.0, 4.0]

    def test_fma(self):
        out = np.zeros(2)
        self.run1([
            Instr("fmovv", (Imm(3.0), VReg(0))),
            Instr("fmav", (VReg(0), Imm(2.0), Imm(1.0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(0)))),
        ], pointers={0: out})
        assert list(out) == [7.0, 7.0]

    def test_select(self):
        mask = np.array([1.0, 0.0, 1.0])
        t = np.array([10.0, 10.0, 10.0])
        f = np.array([20.0, 20.0, 20.0])
        out = np.zeros(3)
        self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("flodv", (Mem(PReg(1)), VReg(1))),
            Instr("flodv", (Mem(PReg(2)), VReg(2))),
            Instr("fselv", (VReg(0), VReg(1), VReg(2), VReg(3))),
            Instr("fstrv", (VReg(3), Mem(PReg(3)))),
        ], pointers={0: mask, 1: t, 2: f, 3: out})
        assert list(out) == [10.0, 20.0, 10.0]

    def test_comparison_produces_mask(self):
        a = np.array([1.0, 5.0])
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fcgtv", (VReg(0), Imm(3.0), VReg(1))),
        ], pointers={0: a})
        assert list(ex.vregs[1]) == [False, True]

    def test_integer_division_truncates(self):
        a = np.array([-7, 7], dtype=np.int32)
        out = np.zeros(2, dtype=np.int32)
        self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("idivv", (VReg(0), Imm(2), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ], pointers={0: a, 1: out})
        assert list(out) == [-3, 3]

    def test_dual_issue_reads_pre_state(self):
        # The paired load targets a register the main op reads: both
        # halves must see pre-instruction state.
        a = np.array([1.0, 1.0])
        b = np.array([100.0, 100.0])
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("faddv", (VReg(0), Imm(1.0), VReg(1)),
                  paired=Instr("flodv", (Mem(PReg(1)), VReg(0)))),
        ], pointers={0: a, 1: b})
        assert list(ex.vregs[1]) == [2.0, 2.0]  # used old aV0
        assert list(ex.vregs[0]) == [100.0, 100.0]  # then load landed

    def test_store_then_load_sees_update(self):
        a = np.array([1.0, 2.0])
        ex = self.run1([
            Instr("fmovv", (Imm(9.0), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(0)))),
            Instr("flodv", (Mem(PReg(1)), VReg(1))),
        ], pointers={0: a, 1: a})
        assert list(ex.vregs[1]) == [9.0, 9.0]

    def test_undefined_register_read_raises(self):
        from repro.machine.pe import ExecutionError
        with pytest.raises(ExecutionError):
            self.run1([Instr("faddv", (VReg(0), VReg(1), VReg(2)))])

    def test_strided_view_write_back(self):
        base = np.zeros(8)
        view = base[1::2]
        self.run1([
            Instr("fmovv", (Imm(5.0), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(0)))),
        ], pointers={0: view})
        assert list(base) == [0, 5, 0, 5, 0, 5, 0, 5]


class TestCyclesAndFlops:
    def routine(self):
        return Routine("t", body=[
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fmav", (VReg(0), SReg(31), Imm(1.0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ])

    def test_cycles_per_trip(self):
        m = slicewise_model()
        r = self.routine()
        expected = m.instr.loop_overhead + m.instr.load + m.instr.fma \
            + m.instr.store
        assert cycles_per_trip(r, m) == expected

    def test_flops_per_element(self):
        assert flops_per_element(self.routine()) == 2  # one fma

    def test_paired_flops_counted(self):
        r = Routine("t", body=[
            Instr("faddv", (VReg(0), VReg(1), VReg(2)),
                  paired=Instr("flodv", (Mem(PReg(0)), VReg(3))))])
        assert flops_per_element(r) == 1


class TestNetwork:
    def test_cshift_local_when_axis_unsplit(self):
        m = slicewise_model()
        g = make_geometry((8, 4096), 64)
        unsplit_axis = 1 if g.pe_grid[0] == 1 else 2
        local = network.cshift_cycles(m, g, unsplit_axis, 1)
        split_axis = 3 - unsplit_axis
        remote = network.cshift_cycles(m, g, split_axis, 1)
        assert local < remote

    def test_cshift_cost_grows_with_shift(self):
        m = slicewise_model()
        g = make_geometry((4096,), 64)
        assert network.cshift_cycles(m, g, 1, 1) \
            < network.cshift_cycles(m, g, 1, 16)

    def test_router_dearer_than_grid(self):
        m = slicewise_model()
        g = make_geometry((4096,), 64)
        assert network.router_cycles(m, g) \
            > network.cshift_cycles(m, g, 1, 1)

    def test_reduction_logarithmic_tree(self):
        m = slicewise_model()
        g64 = make_geometry((4096,), 64)
        g1024 = make_geometry((65536,), 1024)
        r64 = network.reduction_cycles(m, g64)
        r1024 = network.reduction_cycles(m, g1024)
        # Same vlen (64), deeper tree.
        assert r1024 - r64 == m.hop_cycles * (10 - 6)


class TestMachine:
    def test_alloc_and_view(self):
        m = Machine(slicewise_model(64))
        m.alloc("a", (8, 8), np.dtype(np.float64))
        m.set_array("a", np.arange(64, dtype=float).reshape(8, 8))
        v = m.view("a", ((2, 6, 2), (1, 8, 1)))
        assert v.shape == (3, 8)

    def test_double_alloc_rejected(self):
        m = Machine(slicewise_model(64))
        m.alloc("a", (4,), np.dtype(np.int32))
        with pytest.raises(Exception):
            m.alloc("a", (4,), np.dtype(np.int32))

    def test_call_routine_accounting(self):
        m = Machine(slicewise_model(64))
        m.alloc("a", (64,), np.dtype(np.float64))
        r = Routine("t", params=[
            ParamSpec("subgrid", "a.w0", PReg(0)),
            ParamSpec("vlen", "vlen", CReg(2)),
        ], body=[
            Instr("fmovv", (Imm(1.0), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(0)))),
        ])
        m.call_routine(r, {"a.w0": m.view("a", None)}, (64,))
        assert m.stats.node_calls == 1
        assert m.stats.ififo_pushes == 2
        assert m.stats.node_cycles > 0
        assert np.all(m.home("a").data == 1.0)

    def test_missing_argument_raises(self):
        from repro.machine import MachineError
        m = Machine(slicewise_model(64))
        r = Routine("t", params=[ParamSpec("subgrid", "x", PReg(0))])
        with pytest.raises(MachineError):
            m.call_routine(r, {}, (8,))

    def test_coord_subgrid_cached(self):
        m = Machine(slicewise_model(64))
        c1 = m.coord_subgrid((8, 8), 1, None)
        cycles_after_first = m.stats.node_cycles
        c2 = m.coord_subgrid((8, 8), 1, None)
        assert c1 is c2
        assert m.stats.node_cycles == cycles_after_first


class TestStats:
    def test_gflops(self):
        s = RunStats(node_cycles=7_000_000, flops=14_000_000)
        assert s.gflops(7.0e6) == pytest.approx(0.014)

    def test_merge(self):
        a = RunStats(node_cycles=10, flops=5, per_routine={"x": 10})
        b = RunStats(comm_cycles=3, flops=2, per_routine={"x": 1, "y": 2})
        a.merge(b)
        assert a.total_cycles == 13
        assert a.flops == 7
        assert a.per_routine == {"x": 11, "y": 2}

    def test_breakdown_sums_to_one(self):
        s = RunStats(node_cycles=50, call_cycles=25, comm_cycles=20,
                     host_cycles=5)
        assert math.isclose(sum(s.breakdown().values()), 1.0)
