"""Fast-path execution engine: plans, buffer pool, kernels, equivalence.

The compiled-plan engine (:mod:`repro.machine.plan` and
:mod:`repro.machine.kernel`) must be observationally identical to the
:class:`VectorExecutor` oracle: bit-identical arrays and identical
:class:`RunStats` for every routine and binding.  These tests pin the
plan cache, the buffer pool, dual-issue commit semantics, spill-scratch
dtypes, the shared coordinate cache, and — via hypothesis — random
routine/binding equivalence through the full ``Machine`` dispatch.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.machine import (
    Machine,
    MachineError,
    SubgridStream,
    VectorExecutor,
    cycles_per_trip,
    flops_per_element,
    slicewise_model,
)
from repro.machine import ckernel, execplan, kernel, pe
from repro.machine.ckernel import _compiler
from repro.machine.loopir import _C_DECLINED, _C_FORMS
from repro.machine.plan import (
    _UNBOUND,
    BufferPool,
    get_plan,
    invalidate_plan,
)
from repro.peac import Imm, Instr, Mem, PReg, Routine, SReg, VReg
from repro.peac.isa import NUM_PREGS, NUM_SREGS, CReg, ParamSpec


def make_routine(instrs, dtype="float64", spill_slots=0):
    r = Routine("t")
    r.body = list(instrs)
    r.dtype = dtype
    r.spill_slots = spill_slots
    return r


def run_interp(routine, pointers, scalars=None):
    ex = VectorExecutor()
    for preg, arr in (pointers or {}).items():
        ex.bind_pointer(PReg(preg), SubgridStream(arr))
    for sreg, val in (scalars or {}).items():
        ex.bind_scalar(SReg(sreg), val)
    ex.run(routine)
    return ex


def run_fast(routine, pointers, scalars=None):
    streams = [None] * NUM_PREGS
    for preg, arr in (pointers or {}).items():
        streams[preg] = SubgridStream(arr)
    svals = [_UNBOUND] * NUM_SREGS
    for sreg, val in (scalars or {}).items():
        svals[sreg] = val
    plan = get_plan(routine)
    plan.execute(streams, svals)
    return plan


def both_engines(instrs, arrays, scalars=None, dtype="float64"):
    """Run interp and the *specialized* fast path from identical inputs.

    Returns ``(interp_arrays, fast_arrays)`` dicts keyed like
    ``arrays``.  The fast path runs once on scratch copies (the
    signature's first trip, on the oracle) and once on the measured
    copies so the comparison exercises the kernel, not the oracle.
    """
    routine = make_routine(instrs, dtype=dtype)
    ai = {k: np.array(v, copy=True) for k, v in arrays.items()}
    run_interp(routine, ai, scalars)
    warm = {k: np.array(v, copy=True) for k, v in arrays.items()}
    run_fast(routine, warm, scalars)
    af = {k: np.array(v, copy=True) for k, v in arrays.items()}
    run_fast(routine, af, scalars)
    return ai, af


def assert_bit_identical(ai, af):
    for key in ai:
        assert ai[key].dtype == af[key].dtype, key
        assert ai[key].tobytes() == af[key].tobytes(), key


class TestPlanCache:
    def body(self):
        return [
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fmulv", (VReg(0), Imm(2.0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ]

    def test_plan_compiled_once_per_routine(self):
        r = make_routine(self.body())
        assert get_plan(r) is get_plan(r)

    def test_in_place_body_edit_invalidates(self):
        r = make_routine(self.body())
        first = get_plan(r)
        r.body = self.body() + [Instr("fstrv", (VReg(0), Mem(PReg(1))))]
        assert get_plan(r) is not first

    def test_explicit_invalidation(self):
        r = make_routine(self.body())
        first = get_plan(r)
        invalidate_plan(r)
        assert get_plan(r) is not first

    def test_plan_cost_matches_oracle_accounting(self):
        # The hoisted per-plan costs must agree with the per-dispatch
        # functions the interpreter path uses.
        model = slicewise_model()
        load = Instr("flodv", (Mem(PReg(1)), VReg(2)))
        r = make_routine(self.body() + [
            Instr("fmav", (VReg(0), VReg(1), Imm(1.0), VReg(2)),
                  paired=load),
        ])
        plan = get_plan(r)
        assert plan.cycles_per_trip(model) == cycles_per_trip(r, model)
        assert plan.flops_per_element == flops_per_element(r)
        # Second lookup hits the per-plan cache and stays consistent.
        assert plan.cycles_per_trip(model) == cycles_per_trip(r, model)


class TestBufferPool:
    def test_acquire_prefers_released_buffer(self):
        pool = BufferPool()
        a = pool.acquire((32,), np.float64)
        addr = a.__array_interface__["data"][0]
        pool.release(a)
        b = pool.acquire((32,), np.float64)
        assert b.__array_interface__["data"][0] == addr
        assert pool.hits == 1

    def test_reshape_round_trip(self):
        pool = BufferPool()
        a = pool.acquire((4, 8), np.float32)
        assert a.shape == (4, 8) and a.dtype == np.float32
        pool.release(a)
        b = pool.acquire((32,), np.float32)  # same element count
        assert b.shape == (32,)
        assert pool.hits == 1

    def test_dtype_buckets_are_distinct(self):
        pool = BufferPool()
        a = pool.acquire((16,), np.float64)
        pool.release(a)
        b = pool.acquire((16,), np.int32)
        assert b.dtype == np.int32
        assert pool.misses == 2

    def test_per_key_cap_drops_excess(self):
        pool = BufferPool(per_key=1)
        a = pool.acquire((8,), np.float64)
        b = pool.acquire((8,), np.float64)
        pool.release(a)
        pool.release(b)  # over the bucket cap: dropped
        pool.acquire((8,), np.float64)
        assert pool.hits == 1
        pool.acquire((8,), np.float64)
        assert pool.misses == 3

    def test_max_bytes_bounds_pool(self):
        pool = BufferPool(max_bytes=100)
        a = pool.acquire((64,), np.float64)  # 512 bytes > max
        pool.release(a)
        pool.acquire((64,), np.float64)
        assert pool.hits == 0


class TestExecModeSelection:
    def test_invalid_mode_rejected(self):
        with pytest.raises(MachineError):
            Machine(slicewise_model(64), exec_mode="bogus")


class TestDualIssueCommitSemantics:
    """Both halves of a dual-issue pair read pre-instruction state."""

    def case_paired_load_overwrites_main_source(self):
        # The paired load retargets aV0, which the main add reads: the
        # add must see the OLD aV0; the load lands afterwards.
        return [
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("faddv", (VReg(0), Imm(1.0), VReg(1)),
                  paired=Instr("flodv", (Mem(PReg(1)), VReg(0)))),
            Instr("fstrv", (VReg(1), Mem(PReg(2)))),
            Instr("fstrv", (VReg(0), Mem(PReg(3)))),
        ]

    def case_pair_reads_register_main_writes(self):
        # The main add writes aV1; the paired store reads aV1 and must
        # push the value from BEFORE the instruction to memory.
        return [
            Instr("flodv", (Mem(PReg(0)), VReg(1))),
            Instr("faddv", (VReg(1), Imm(10.0), VReg(1)),
                  paired=Instr("fstrv", (VReg(1), Mem(PReg(3))))),
            Instr("fstrv", (VReg(1), Mem(PReg(2)))),
        ]

    def test_interp_paired_load(self):
        a = np.array([1.0, 2.0])
        b = np.array([100.0, 200.0])
        out = {2: np.zeros(2), 3: np.zeros(2)}
        run_interp(make_routine(self.case_paired_load_overwrites_main_source()),
                   {0: a, 1: b, 2: out[2], 3: out[3]})
        assert list(out[2]) == [2.0, 3.0]      # pre-state aV0 + 1
        assert list(out[3]) == [100.0, 200.0]  # then the load landed

    def test_interp_pair_reads_pre_write(self):
        a = np.array([3.0, 5.0])
        out = {2: np.zeros(2), 3: np.zeros(2)}
        run_interp(make_routine(self.case_pair_reads_register_main_writes()),
                   {0: a, 2: out[2], 3: out[3]})
        assert list(out[2]) == [13.0, 15.0]  # main result committed
        assert list(out[3]) == [3.0, 5.0]    # pair stored pre-state aV1

    @pytest.mark.parametrize("case", ["paired_load_overwrites_main_source",
                                      "pair_reads_register_main_writes"])
    def test_fast_path_mirrors_interp(self, case):
        instrs = getattr(self, f"case_{case}")()
        arrays = {0: np.array([1.0, 2.0]), 1: np.array([100.0, 200.0]),
                  2: np.zeros(2), 3: np.zeros(2)}
        ai, af = both_engines(instrs, arrays)
        assert_bit_identical(ai, af)

    @pytest.mark.parametrize("case", ["paired_load_overwrites_main_source",
                                      "pair_reads_register_main_writes"])
    def test_fast_path_mirrors_interp_without_kernels(self, case):
        """Strided views: the probe rejects them, so the second run is
        the oracle again and no kernel is ever built."""
        routine = make_routine(getattr(self, f"case_{case}")())

        def bases():
            wide = {0: np.zeros(4), 1: np.zeros(4), 2: np.zeros(4),
                    3: np.zeros(4)}
            wide[0][::2] = [1.0, 2.0]
            wide[1][::2] = [100.0, 200.0]
            return wide

        bi, bf = bases(), bases()
        run_interp(routine, {k: v[::2] for k, v in bi.items()})
        run_fast(routine, {k: v[::2] for k, v in bases().items()})
        plan = run_fast(routine, {k: v[::2] for k, v in bf.items()})
        assert_bit_identical(bi, bf)
        assert len(plan.seen) == 1
        assert not any(plan.serial in key[0]
                       for key in execplan._MEGA_KERNELS)


class TestSpillScratchDtype:
    def spill_routine(self, dtype):
        # Spill 1e8 to scratch, restore, add 1, subtract 1e8.  In
        # float32 the add is absorbed (spacing at 1e8 is 8), so the
        # result is exactly 0.  A float64 scratch would leak precision
        # back in and yield 1 instead.
        r = make_routine([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(NUM_PREGS - 1)))),
            Instr("flodv", (Mem(PReg(NUM_PREGS - 1)), VReg(1))),
            Instr("faddv", (VReg(1), Imm(1.0), VReg(2))),
            Instr("fsubv", (VReg(2), Imm(1.0e8), VReg(3))),
            Instr("fstrv", (VReg(3), Mem(PReg(0)))),
        ], dtype=dtype, spill_slots=1)
        r.params = [ParamSpec("subgrid", "a.w0", PReg(0)),
                    ParamSpec("vlen", "vlen", CReg(2))]
        return r

    @pytest.mark.parametrize("mode", ["fast", "interp"])
    def test_float32_spill_keeps_float32_rounding(self, mode):
        m = Machine(slicewise_model(16), exec_mode=mode)
        m.alloc("a", (8,), np.dtype(np.float32))
        m.set_array("a", np.full(8, 1.0e8, dtype=np.float32))
        m.call_routine(self.spill_routine("float32"),
                       {"a.w0": m.view("a", None)}, (8,))
        assert m.home("a").data.dtype == np.float32
        assert np.all(m.home("a").data == 0.0)

    @pytest.mark.parametrize("mode", ["fast", "interp"])
    def test_spill_scratch_starts_zeroed(self, mode):
        # Reading an untouched spill slot yields zeros, even when the
        # pooled buffer was dirtied by an earlier call.
        r = make_routine([
            Instr("flodv", (Mem(PReg(NUM_PREGS - 1)), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(0)))),
        ], spill_slots=1)
        r.params = [ParamSpec("subgrid", "a.w0", PReg(0))]
        m = Machine(slicewise_model(16), exec_mode=mode)
        m.alloc("a", (8,), np.dtype(np.float64))
        m.set_array("a", np.full(8, 7.0))
        dirty = self.spill_routine("float64")
        m.call_routine(dirty, {"a.w0": m.view("a", None)}, (8,))
        m.set_array("a", np.full(8, 7.0))
        m.call_routine(r, {"a.w0": m.view("a", None)}, (8,))
        assert np.all(m.home("a").data == 0.0)


class TestSharedCoordinateCache:
    def test_coordinate_array_shared_across_machines(self):
        m1 = Machine(slicewise_model(64))
        m2 = Machine(slicewise_model(64))
        c1 = m1.coord_subgrid((8, 8), 1, None)
        c2 = m2.coord_subgrid((8, 8), 1, None)
        assert c1 is c2
        assert not c1.flags.writeable

    def test_each_machine_still_charges_once(self):
        m1 = Machine(slicewise_model(64))
        m1.coord_subgrid((8, 8), 1, None)
        first = m1.stats.node_cycles
        assert first > 0
        m1.coord_subgrid((8, 8), 1, None)
        assert m1.stats.node_cycles == first  # cached per machine
        m2 = Machine(slicewise_model(64))
        m2.coord_subgrid((8, 8), 1, None)
        assert m2.stats.node_cycles == first  # fresh meter, same charge


class TestKernelCodegen:
    def saxpy(self):
        return [
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("flodv", (Mem(PReg(1)), VReg(1))),
            Instr("fmulv", (VReg(0), Imm(3.0), VReg(2))),
            Instr("faddv", (VReg(2), VReg(1), VReg(3))),
            Instr("fstrv", (VReg(3), Mem(PReg(2)))),
        ]

    def test_specialized_run_compiles_a_kernel(self):
        r = make_routine(self.saxpy())
        arrays = {0: np.arange(8.0), 1: np.ones(8), 2: np.zeros(8)}
        run_fast(r, arrays)
        plan = run_fast(r, arrays)
        # The one kernel cache holds an entry naming this plan's serial.
        assert any(callable(kern)
                   for key, kern in execplan._MEGA_KERNELS.items()
                   if plan.serial in key[0])

    def test_blocked_loop_matches_interp(self):
        # Several cache blocks (16384 elements each) over a size that
        # does not divide evenly.
        n = 40001
        rng = np.random.default_rng(7)
        arrays = {0: rng.normal(size=n), 1: rng.normal(size=n),
                  2: np.zeros(n)}
        ai, af = both_engines(self.saxpy(), arrays)
        assert_bit_identical(ai, af)

    def test_overlapping_store_views_fall_back(self):
        # Output overlaps the input: the kernel prober must refuse and
        # the fallback must still match the oracle exactly.
        instrs = [
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("faddv", (VReg(0), Imm(1.0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ]
        base_i = np.arange(10.0)
        base_f = np.arange(10.0)
        routine = make_routine(instrs)
        run_interp(routine, {0: base_i[0:8], 1: base_i[1:9]})
        warm = np.arange(10.0)
        run_fast(routine, {0: warm[0:8], 1: warm[1:9]})
        run_fast(routine, {0: base_f[0:8], 1: base_f[1:9]})
        assert base_i.tobytes() == base_f.tobytes()

    def test_float32_imm_coercion(self):
        arrays = {0: np.linspace(0.1, 0.9, 16, dtype=np.float32),
                  1: np.ones(16, dtype=np.float32),
                  2: np.zeros(16, dtype=np.float32)}
        ai, af = both_engines(self.saxpy(), arrays, dtype="float32")
        assert_bit_identical(ai, af)

    def test_select_and_compare_kernel(self):
        instrs = [
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("flodv", (Mem(PReg(1)), VReg(1))),
            Instr("fcgtv", (VReg(0), VReg(1), VReg(2))),
            Instr("fselv", (VReg(2), VReg(0), VReg(1), VReg(3))),
            Instr("fstrv", (VReg(3), Mem(PReg(2)))),
        ]
        rng = np.random.default_rng(3)
        arrays = {0: rng.normal(size=32), 1: rng.normal(size=32),
                  2: np.zeros(32)}
        ai, af = both_engines(instrs, arrays)
        assert_bit_identical(ai, af)
        assert list(ai[2]) == list(np.maximum(arrays[0], arrays[1]))


# ---------------------------------------------------------------------------
# The fallback: dispatches no kernel may run take the oracle again
# ---------------------------------------------------------------------------

_ADD_ONE = [
    Instr("flodv", (Mem(PReg(0)), VReg(0))),
    Instr("faddv", (VReg(0), Imm(1.0), VReg(1))),
    Instr("fstrv", (VReg(1), Mem(PReg(1)))),
]
#: Why a dispatch stays off the kernels -> (body, arrays to allocate,
#: the ``(array, region)`` bound to each pointer register, scalars).
#: Every binding is eight elements long.
FALLBACKS = {
    "non-contiguous stream": (
        _ADD_ONE, {"a": (16, "float64"), "b": (16, "float64")},
        [("a", ((1, 16, 2),)), ("b", ((1, 16, 2),))], {}),
    "stored view overlaps a distinct stream": (
        _ADD_ONE, {"a": (9, "float64")},
        [("a", ((1, 8, 1),)), ("a", ((2, 9, 1),))], {}),
    "conversion op": (
        [Instr("flodv", (Mem(PReg(0)), VReg(0))),
         Instr("fintv", (VReg(0), VReg(1))),
         Instr("fstrv", (VReg(1), Mem(PReg(1))))],
        {"a": (8, "float64"), "b": (8, "int32")},
        [("a", None), ("b", None)], {}),
    "scalar-shaped compute": (
        [Instr("faddv", (SReg(0), Imm(1.0), VReg(0))),
         Instr("fstrv", (VReg(0), Mem(PReg(0))))],
        {"a": (8, "float64")}, [("a", None)], {0: 2.5}),
}


@pytest.mark.parametrize("engine", ["fast", "fused", "host"])
@pytest.mark.parametrize("reason", sorted(FALLBACKS))
def test_dispatch_no_kernel_may_run_takes_the_recording_walk(reason, engine):
    """Five trips of one site: the first is the signature's first trip,
    the other four fall back to the same oracle path
    (``execplan.run_oracle``) — the interp engine's bytes and
    ``RunStats``, one signature seen, and never a launch record to
    replay."""
    from repro.backend.host import HostMachine

    body, allocs, bound, scalars = FALLBACKS[reason]

    def run(make):
        m = make()
        routine = make_routine(body)
        routine.params = [ParamSpec("subgrid", f"p{i}", PReg(i))
                          for i in range(len(bound))]
        routine.params += [ParamSpec("scalar", f"k{k}", SReg(k))
                           for k in scalars]
        for name, (extent, dtype) in allocs.items():
            m.alloc(name, (extent,), np.dtype(dtype))
            m.set_array(name, np.linspace(-3.0, 3.0, extent))
        args = {f"p{i}": m.view(name, region)
                for i, (name, region) in enumerate(bound)}
        args.update({f"k{k}": v for k, v in scalars.items()})
        plan = get_plan(routine)
        sigs = []       # of the oracle runs standing in for a kernel
        run_oracle = execplan.run_oracle

        def counted(d, sig=None):
            if d.plan is plan and sig is not None:
                sigs.append(sig)
            run_oracle(d, sig)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(execplan, "run_oracle", counted)
            for _ in range(5):
                m.call_routine(routine, args, (8,), site="here")
        return m, plan, sigs

    if engine == "host":
        oracle, _, _ = run(lambda: HostMachine(exec_mode="interp"))
        got, plan, sigs = run(HostMachine)
        assert got.exec_mode == "fused"
        assert got.host_metrics["steps_dispatches"] == 5
    else:
        oracle, _, _ = run(lambda: Machine(slicewise_model(16),
                                           exec_mode="interp"))
        got, plan, sigs = run(lambda: Machine(slicewise_model(16),
                                               exec_mode=engine))
    assert got.stats.to_dict() == oracle.stats.to_dict()
    for name in allocs:
        assert (got.home(name).data.tobytes()
                == oracle.home(name).data.tobytes()), name
    assert len(sigs) == 5 and len(set(sigs)) == 1
    assert list(plan.seen) == [sigs[0]]
    assert got.launch_metrics["records"] == 0 and not got._launches


# ---------------------------------------------------------------------------
# Property test: random routines through the full Machine dispatch
# ---------------------------------------------------------------------------

OPS = ["faddv", "fsubv", "fmulv", "fdivv", "fmaxv", "fminv"]
#: The subset the C emitter takes (float64 streams only).
C_OPS = ["faddv", "fsubv", "fmulv", "fdivv"]


@st.composite
def routine_case(draw, ops=OPS, dtypes=("float64", "float32")):
    n = draw(st.sampled_from([4, 16, 33]))
    dtype = draw(st.sampled_from(dtypes))
    n_in = draw(st.integers(1, 3))
    finite = st.floats(-1e6, 1e6, allow_nan=False, width=32).map(float)
    body = [Instr("flodv", (Mem(PReg(i)), VReg(i))) for i in range(n_in)]
    defined = list(range(n_in))
    nxt = n_in
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(ops))
        a = VReg(draw(st.sampled_from(defined)))
        b_reg = draw(st.one_of(st.none(), st.sampled_from(defined)))
        b = VReg(b_reg) if b_reg is not None else Imm(draw(finite))
        dst = nxt % 8
        nxt += 1
        paired = None
        if draw(st.booleans()):
            paired = Instr("flodv", (Mem(PReg(draw(st.integers(0, n_in - 1)))),
                                     VReg(draw(st.sampled_from(defined)))))
        body.append(Instr(kind, (a, b, VReg(dst)), paired=paired))
        if dst not in defined:
            defined.append(dst)
    body.append(Instr("fstrv", (VReg(defined[-1]), Mem(PReg(n_in)))))
    if draw(st.booleans()):
        body.append(Instr("fstrv",
                          (VReg(draw(st.sampled_from(defined))), Mem(PReg(0)))))
    inputs = [draw(st.lists(finite, min_size=n, max_size=n))
              for _ in range(n_in)]
    return n, dtype, n_in, body, inputs


def _dispatch(mode, case, repeats=2, stride=1, site=None):
    """``stride`` > 1 binds every ``stride``-th element of arrays that
    much longer: streams the probe rejects."""
    n, dtype, n_in, body, inputs = case
    m = Machine(slicewise_model(16), exec_mode=mode)
    r = make_routine(body, dtype=dtype)
    r.params = [ParamSpec("subgrid", f"a{i}.w0", PReg(i))
                for i in range(n_in + 1)]
    for i in range(n_in):
        m.alloc(f"a{i}", (n * stride,), np.dtype(dtype))
        m.set_array(f"a{i}", np.repeat(np.asarray(inputs[i], dtype=dtype),
                                       stride))
    m.alloc(f"a{n_in}", (n * stride,), np.dtype(dtype))
    region = None if stride == 1 else ((1, n * stride, stride),)
    args = {f"a{i}.w0": m.view(f"a{i}", region) for i in range(n_in + 1)}
    for _ in range(repeats):
        m.call_routine(r, args, (n,), site=site)
    return m, n_in


@given(case=routine_case())
@settings(max_examples=40, deadline=None)
def test_random_routines_bit_identical_and_stats_equal(case):
    mi, n_in = _dispatch("interp", case)
    mf, _ = _dispatch("fast", case)
    for i in range(n_in + 1):
        assert (mi.home(f"a{i}").data.tobytes()
                == mf.home(f"a{i}").data.tobytes())
    assert mi.stats.to_dict() == mf.stats.to_dict()


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
@given(case=routine_case(ops=C_OPS, dtypes=("float64",)))
# ``0 / 0 * -1.0``: numpy's multiply keeps the NaN's sign, and ``cc``
# would fold the multiply into a negation, which flips it.
@example(case=(4, "float64", 1, [
    Instr("flodv", (Mem(PReg(0)), VReg(0))),
    Instr("fdivv", (VReg(0), VReg(0), VReg(1))),
    Instr("fmulv", (VReg(1), Imm(-1.0), VReg(4))),
    Instr("fstrv", (VReg(4), Mem(PReg(1))))], [[0.0] * 4]))
@settings(max_examples=12, deadline=None)
def test_random_routines_bit_identical_as_lone_c_kernels(case):
    """The same property with every kernel hot at birth, so the second
    dispatch of each routine runs the C emitter's lone kernel on a CM
    machine (each new text is one ``cc`` run: fewer examples)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_TIER_UP", 0)
        mi, n_in = _dispatch("interp", case)
        mf, _ = _dispatch("fast", case)
    assert mf.fusion_metrics["tier_ups"] == 1
    for i in range(n_in + 1):
        assert (mi.home(f"a{i}").data.tobytes()
                == mf.home(f"a{i}").data.tobytes())
    assert mi.stats.to_dict() == mf.stats.to_dict()


@given(case=routine_case())
@settings(max_examples=15, deadline=None)
def test_random_routines_match_with_kernels_disabled(case):
    """No kernel may run a strided section: every trip runs on the
    oracle, and the site never gets a launch record."""
    mi, n_in = _dispatch("interp", case, repeats=3, stride=2, site="here")
    mf, _ = _dispatch("fast", case, repeats=3, stride=2, site="here")
    for i in range(n_in + 1):
        assert (mi.home(f"a{i}").data.tobytes()
                == mf.home(f"a{i}").data.tobytes())
    assert mi.stats.to_dict() == mf.stats.to_dict()
    assert mf.launch_metrics["records"] == 0


# ---------------------------------------------------------------------------
# The integer half of PEAC: numpy's integer semantics, in both emitters
# ---------------------------------------------------------------------------

INT_MIN, INT_MAX = -2**31, 2**31 - 1
INT_EDGES = [INT_MIN, INT_MIN + 1, -2, -1, 0, 1, 2, 3, 2**16, INT_MAX - 1,
             INT_MAX]
#: Constants a plan keeps as weak Python ints (``plan._reader``:
#: ``INT_MIN`` itself would stay a float and promote the stream).
INT_CONSTS = [-INT_MAX, -7, -2, -1, 0, 1, 2, 3, 11, 2**16, INT_MAX]
DIVISORS = [-7, -2, 2, 3, 11, INT_MAX]
TRAPPING = [0, -1]      # SIGFPE in C: the emitter must decline
CMPS = ["fceqv", "fcnev", "fcltv", "fclev", "fcgtv", "fcgev"]


@st.composite
def int_routine_case(draw):
    """``routine_case``'s integer family: ``int32`` streams through
    wrapping arithmetic, constant ``div``/``mod``, comparisons, logic
    and selects, stored back to ``int32``.  The sixth item is the
    reason the C emitter must decline the routine, or None."""
    n = draw(st.sampled_from([4, 16, 33]))
    n_in = draw(st.integers(1, 3))
    element = st.one_of(st.sampled_from(INT_EDGES),
                        st.integers(INT_MIN, INT_MAX))
    body = [Instr("flodv", (Mem(PReg(i)), VReg(i))) for i in range(n_in)]
    kinds = {i: "i32" for i in range(n_in)}     # register -> what it holds
    nxt = n_in
    decline = None
    const = st.sampled_from(INT_CONSTS).map(lambda c: Imm(float(c)))

    def reg(*want):
        return draw(st.sampled_from(
            sorted(r for r, k in kinds.items() if k in want)))

    for _ in range(draw(st.integers(1, 7))):
        family = draw(st.sampled_from(
            ["arith", "arith", "neg", "div", "mod", "cmp", "cmp", "logic",
             "not", "select"]))
        if family == "arith":
            # A bool operand counts 0/1 in the other's width; two weak
            # operands never meet (one side is always a stream).
            a = reg("i32", "i64")
            b = draw(st.one_of(const, st.sampled_from(sorted(kinds))))
            op = draw(st.sampled_from(["iaddv", "isubv", "imulv"]))
            out = "i64" if "i64" in (kinds[a], kinds.get(b)) else "i32"
            sources = (VReg(a), b if isinstance(b, Imm) else VReg(b))
        elif family == "neg":
            a = reg("i32", "i64")
            op, sources, out = "inegv", (VReg(a),), kinds[a]
        elif family in ("div", "mod"):
            # The oracle divides through float64: exact for 32 bits only.
            a = reg("i32") if family == "div" else reg("i32", "i64")
            by = draw(st.sampled_from(DIVISORS + TRAPPING))
            if by in TRAPPING and decline is None:
                decline = f"divisor {by}"
            op = "idivv" if family == "div" else "imodv"
            sources, out = (VReg(a), Imm(float(by))), "i32"
        elif family == "cmp":
            b = draw(st.one_of(
                const, st.sampled_from([-0.5, 0.5, 2.5, 1e10]).map(Imm),
                st.sampled_from(sorted(kinds)).map(VReg)))
            op = draw(st.sampled_from(CMPS))
            sources, out = (VReg(reg("i32", "i64")), b), "bool"
        elif family == "logic":     # a non-bool operand means ``!= 0``
            op = draw(st.sampled_from(["candv", "corv", "cxorv"]))
            sources = (VReg(reg("i32", "i64", "bool")),
                       VReg(reg("i32", "i64", "bool")))
            out = "bool"
        elif family == "not":
            op, out = "cnotv", "bool"
            sources = (VReg(reg("i32", "i64", "bool")),)
        else:   # two weak constants select as int64, a stream as itself
            f = draw(st.one_of(const, st.just(reg("i32", "i64"))))
            op = "fselv"
            sources = (VReg(reg("i32", "i64", "bool")), draw(const),
                       f if isinstance(f, Imm) else VReg(f))
            out = "i64" if isinstance(f, Imm) else kinds[f]
        dst = nxt % 8
        nxt += 1
        paired = None
        into = draw(st.one_of(st.none(), st.sampled_from(sorted(kinds))))
        if into is not None and into != dst:
            paired = Instr("flodv", (Mem(PReg(draw(
                st.integers(0, n_in - 1)))), VReg(into)))
            kinds[into] = "i32"
        body.append(Instr(op, (*sources, VReg(dst)), paired=paired))
        kinds[dst] = out
    body.append(Instr("fstrv", (VReg(dst), Mem(PReg(n_in)))))
    if draw(st.booleans()):
        body.append(Instr("fstrv", (VReg(draw(st.sampled_from(
            sorted(kinds)))), Mem(PReg(0)))))
    inputs = [draw(st.lists(element, min_size=n, max_size=n))
              for _ in range(n_in)]
    return n, "int32", n_in, body, inputs, decline


def _assert_same_machines(mi, mf, n_in):
    for i in range(n_in + 1):
        assert (mi.home(f"a{i}").data.tobytes()
                == mf.home(f"a{i}").data.tobytes())
    assert mi.stats.to_dict() == mf.stats.to_dict()


NOTHING_DECLINED = {"c": {}, "blocked": {}}


@given(case=int_routine_case())
@settings(max_examples=40, deadline=None)
def test_int_routines_bit_identical_as_blocked_numpy(case):
    mi, n_in = _dispatch("interp", case[:5])
    mf, _ = _dispatch("fast", case[:5])
    _assert_same_machines(mi, mf, n_in)
    # Integer division is an ordinary blocked kernel, not a fallback
    # to the oracle: nothing of the family is beyond the builder.
    assert mf.fusion_summary()["declined"] == NOTHING_DECLINED


#: An integer ``/`` or ``%`` and its right operand.
_INT_DIVISION = re.compile(r"[/%] \(?(-?\w+)")


def _integer_divisions(texts) -> int:
    """SIGFPE is a dead worker, not a wrong number: every integer ``/``
    and ``%`` (any outside a ``double`` statement) of every C text has
    a literal divisor outside {0, -1}.  Returns how many it saw."""
    seen = 0
    for text in texts:
        for line in text.splitlines():
            if line.lstrip().startswith(("const double", "#include")):
                continue
            found = _INT_DIVISION.findall(line)
            assert len(found) == line.count("/") + line.count("%"), line
            for divisor in found:
                assert re.fullmatch(r"-?\d+", divisor), line
                assert int(divisor) not in (0, -1), line
            seen += len(found)
    return seen


needs_cc = pytest.mark.skipif(_compiler() is None, reason="no C compiler")


@needs_cc
def test_int_routines_bit_identical_as_lone_c_kernels():
    """The same family with every kernel hot at birth: the second
    dispatch of each routine runs the C emitter's lone kernel — or,
    for a divisor C would trap on, the blocked kernel it stays on."""
    declined = []

    def by_constant(op, by):    # always tried, whatever is drawn
        body = [Instr("flodv", (Mem(PReg(0)), VReg(0))),
                Instr(op, (VReg(0), Imm(float(by)), VReg(1))),
                Instr("fstrv", (VReg(1), Mem(PReg(1))))]
        return (11, "int32", 1, body, [INT_EDGES],
                f"divisor {by}" if by in TRAPPING else None)

    # gcc 12's value numbering took ``(-x) / -7`` beside ``x / -7`` for
    # ``-(x / -7)``, which is wrong at INT_MIN (ckernel's -fno-tree-fre).
    negated = [Instr("flodv", (Mem(PReg(0)), VReg(0))),
               Instr("inegv", (VReg(0), VReg(1))),
               Instr("idivv", (VReg(0), Imm(-7.0), VReg(2))),
               Instr("idivv", (VReg(1), Imm(-7.0), VReg(3))),
               Instr("fstrv", (VReg(3), Mem(PReg(1))))]

    @given(case=int_routine_case())
    @example(case=(11, "int32", 1, negated, [INT_EDGES], None))
    @example(case=by_constant("idivv", 0))
    @example(case=by_constant("idivv", -1))
    @example(case=by_constant("imodv", 0))
    @example(case=by_constant("imodv", -1))
    @example(case=by_constant("idivv", -7))
    @example(case=by_constant("imodv", INT_MAX))
    @settings(max_examples=60, deadline=None)
    def prop(case):
        mi, n_in = _dispatch("interp", case[:5])
        mf, _ = _dispatch("fast", case[:5])
        _assert_same_machines(mi, mf, n_in)
        summary = mf.fusion_summary()
        if case[5] is None:
            assert summary["tier_ups"] == 1, summary["declined"]
            assert summary["declined"] == NOTHING_DECLINED
        else:
            declined.append(case[5])
            assert summary["tier_ups"] == 0
            assert summary["declined"] == {"c": {case[5]: 1}, "blocked": {}}

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_TIER_UP", 0)
        prop()
    assert len(declined) >= 4
    assert _integer_divisions(ckernel._SO_CACHE) >= 2


def _check_routine(body, arrays, scalars=None, declined=None, tier="c"):
    """``body`` over ``arrays`` (in parameter order; the last is the
    output) on ``interp``, as blocked numpy and as a lone C kernel —
    unless ``tier`` declines it, for the reason ``declined``: the same
    bytes and ``RunStats``.  Returns the C run's output."""
    routine = make_routine(body)
    routine.params = [ParamSpec("subgrid", f"a{i}.w0", PReg(i))
                      for i in range(len(arrays))]
    for k in sorted(scalars or {}):
        routine.params.append(ParamSpec("scalar", f"k{k}", SReg(k)))
    n = len(arrays[0])

    def run(mode, budget):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_TIER_UP", budget)
            m = Machine(slicewise_model(16), exec_mode=mode)
            for i, data in enumerate(arrays):
                m.alloc(f"a{i}", (n,), data.dtype)
                m.set_array(f"a{i}", data)
            args = {f"a{i}.w0": m.view(f"a{i}", None)
                    for i in range(len(arrays))}
            args.update({f"k{k}": v for k, v in (scalars or {}).items()})
            for _ in range(3):
                m.call_routine(routine, args, (n,))
            invalidate_plan(routine)    # the next engine builds its own
        return m

    oracle = run("interp", kernel._TIER_UP)
    blocked = run("fast", kernel._TIER_UP)
    native = run("fast", 0)
    for got in (blocked, native):
        for i in range(len(arrays)):
            assert (got.home(f"a{i}").data.tobytes()
                    == oracle.home(f"a{i}").data.tobytes()), i
        assert got.stats.to_dict() == oracle.stats.to_dict()
    want = {"c": {}, "blocked": {}}
    if declined is not None:
        want[tier][declined] = 1
    summary = native.fusion_summary()
    assert summary["declined"] == want
    assert summary["tier_ups"] == (declined is None)
    assert blocked.fusion_summary()["declined"] == {**want, "c": {}}
    return native.home(f"a{len(arrays) - 1}").data


@needs_cc
class TestMixedKinds:
    """Routines whose streams, intermediates and stores differ in kind:
    the type of every value is the recorded one, never the op's name."""

    coords = [np.arange(1, 41, dtype=np.int32),
              np.arange(40, 0, -1, dtype=np.int32)]

    def test_int32_coordinates_stored_as_float64(self):
        # heat's init: ``mod(i*7 + j*3, 11) * 1.0d0`` — the ``fmulv``
        # by a weak 1 is an *integer* multiply; the store casts.
        out = _check_routine([
            Instr("imulv", (Mem(PReg(0)), Imm(7.0), VReg(0))),
            Instr("imulv", (Mem(PReg(1)), Imm(3.0), VReg(1))),
            Instr("iaddv", (VReg(0), VReg(1), VReg(1))),
            Instr("imodv", (VReg(1), Imm(11.0), VReg(1))),
            Instr("fmulv", (VReg(1), Imm(1.0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(2)))),
        ], [*self.coords, np.zeros(40)])
        i, j = (c.astype(np.int64) for c in self.coords)
        assert out.dtype == np.float64
        assert list(out) == list(np.fmod(i * 7 + j * 3, 11) * 1.0)

    def test_float64_compare_selects_int32(self):
        x = np.linspace(-1.0, 1.0, 40)
        x[7] = np.nan
        out = _check_routine([
            Instr("fcgtv", (Mem(PReg(0)), Imm(0.25), VReg(0))),
            Instr("fselv", (VReg(0), Imm(1.0), Imm(0.0), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ], [x, np.full(40, 9, dtype=np.int32)])
        assert out.dtype == np.int32
        assert list(out) == [int(v > 0.25) for v in x]

    def test_integer_true_divide_abs_and_sqrt(self):
        a = np.array(INT_EDGES + [7] * 5, dtype=np.int32)
        _check_routine([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fdivv", (VReg(0), Imm(3.0), VReg(1))),
            Instr("fabsv", (VReg(0), VReg(2))),     # int32: INT_MIN stays
            Instr("fsqrtv", (VReg(2), VReg(2))),    # float64 from here
            Instr("faddv", (VReg(1), VReg(2), VReg(1))),
            Instr("fstrv", (VReg(1), Mem(PReg(1)))),
        ], [a, np.zeros(16)])

    def test_logical_constant_selected_and_stored(self):
        # ``_literal`` of a bool is a truth value, not ``1.0``.
        assert ckernel._literal(True) == ("1", "bool")
        assert ckernel._literal(np.False_) == ("0", "bool")
        a = np.array([3, -1, 0, 8] * 4, dtype=np.int32)
        for dtype in (np.bool_, np.int32, np.float64):
            out = _check_routine([
                Instr("fcgtv", (Mem(PReg(0)), Imm(0.0), VReg(0))),
                Instr("cnotv", (VReg(0), VReg(1))),
                Instr("fselv", (VReg(0), VReg(1), Imm(1.0), VReg(2))),
                Instr("fstrv", (VReg(2), Mem(PReg(1)))),
            ], [a, np.zeros(16, dtype=dtype)])
            assert list(out) == [0 if v > 0 else 1 for v in a]

    def test_float_to_int_store_declines(self):
        _check_routine([
            Instr("fmulv", (Mem(PReg(0)), Imm(0.5), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(1)))),
        ], [np.array([3.0, -7.5, np.nan, 1e300]),
            np.zeros(4, dtype=np.int32)], declined="float->int store")

    @pytest.mark.parametrize("value,declined", [
        (np.int32(-5), None), (2.5, None), (np.bool_(True), None),
        (7, "scalar int"), (np.int64(7), "scalar int64"),
        (np.float32(2.5), "scalar float32")])
    def test_scalar_register_into_an_integer_stream(self, value, declined):
        """The scalar block is ``double``: a type it cannot carry
        exactly declines rather than round.  (A Python ``int`` is weak:
        here it computes in ``int32``, at a value C would only have as
        a ``double``.)"""
        a = np.array(INT_EDGES, dtype=np.int32)
        out = np.zeros(11, dtype=np.float64 if isinstance(value, float)
                       else np.int32)
        _check_routine([
            Instr("imulv", (Mem(PReg(0)), SReg(0), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(1)))),
        ], [a, out], scalars={0: value}, declined=declined)

    def test_python_int_scalar_is_exact_among_float64(self):
        _check_routine([
            Instr("fmulv", (Mem(PReg(0)), SReg(0), VReg(0))),
            Instr("fcltv", (VReg(0), SReg(0), VReg(1))),
            Instr("fselv", (VReg(1), VReg(0), SReg(0), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(1)))),
        ], [np.linspace(-2.0, 2.0, 9), np.zeros(9)],
            scalars={0: 2**60 + 1})


def test_routine_with_imodv_is_an_ordinary_cache_entry():
    """``idivv``/``imodv`` used to make a routine ``"ineligible"``: no
    kernel on any launch, uncounted, never offered to C."""
    routine = make_routine([
        Instr("imodv", (Mem(PReg(0)), Imm(3.0), VReg(0))),
        Instr("idivv", (VReg(0), Imm(2.0), VReg(0))),
        Instr("fstrv", (VReg(0), Mem(PReg(1)))),
    ], dtype="int32")
    a = np.arange(-20, 20, dtype=np.int32)
    out = np.zeros(40, dtype=np.int32)
    run_fast(routine, {0: a, 1: out})           # the first trip
    plan = get_plan(routine)
    streams = [None] * NUM_PREGS
    streams[0], streams[1] = SubgridStream(a), SubgridStream(out)
    launches = [plan.execute(streams, [_UNBOUND] * NUM_SREGS)
                for _ in range(2)]
    (entry,) = [kern for key, kern in execplan._MEGA_KERNELS.items()
                if plan.serial in key[0]]
    assert not isinstance(entry, kernel.NoKernel) and entry.declined is None
    assert all(launch.kern is entry for launch in launches)
    assert entry.streamed == 2 * launches[0].work > 0
    assert list(out) == list(np.trunc(np.fmod(a, 3) / 2).astype(np.int32))


def test_variable_zero_divisor_answers_as_the_oracle_does():
    """``x / 0`` is INT_MIN in the oracle and ``x % 0`` is 0; in C both
    are SIGFPE.  A whole process, so that a trap would be seen as one."""
    code = """
from repro.driver.compiler import compile_source
from repro.machine import kernel
from repro.targets import build_machine

kernel._TIER_UP = 0
exe = compile_source('''
program zdiv
integer, array(8) :: a, b
forall (i=1:8) a(i) = i
b = mod(a, a - 3) + a / (a - 3)
end program zdiv
''', cache=False, incremental=False)
oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
for _ in range(3):
    machine = build_machine("cm2", exec_mode="fast")
    got = exe.run(machine=machine)
assert got.arrays["b"].tobytes() == oracle.arrays["b"].tobytes()
print(int(got.arrays["b"][2]), machine.fusion_summary()["declined"])
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    value, declined = done.stdout.split(" ", 1)
    assert int(value) == INT_MIN
    if _compiler() is not None:
        assert "divisor variable" in declined


# ---------------------------------------------------------------------------
# One decision per op
# ---------------------------------------------------------------------------


def test_every_op_is_in_exactly_one_c_table():
    assert set(_C_FORMS) | set(_C_DECLINED) == set(pe._APPLY)
    assert not set(_C_FORMS) & set(_C_DECLINED)


@needs_cc
@pytest.mark.parametrize("op", sorted(_C_DECLINED))
def test_declined_op_really_declines(op):
    """One tiny routine per op, every kernel hot at birth: the entry is
    not native and says which op stopped it, at the tier that bailed."""
    arity = pe._APPLY[op].__code__.co_argcount
    sources = (Mem(PReg(0)), Imm(0.75))[:arity]
    _check_routine([Instr(op, (*sources, VReg(0))),
                    Instr("fstrv", (VReg(0), Mem(PReg(1))))],
                   [np.linspace(0.1, 0.9, 8), np.zeros(8)],
                   declined=f"op {op}",
                   tier=("blocked" if _C_DECLINED[op].startswith("conversion")
                         else "c"))


class TestEndToEndModes:
    def test_compiled_program_modes_agree(self):
        from repro.driver.compiler import compile_source
        from repro.programs.swe import swe_source

        exe = compile_source(swe_source(n=16, itmax=2))
        ri = exe.run(machine=Machine(slicewise_model(64),
                                     exec_mode="interp"))
        rf = exe.run(machine=Machine(slicewise_model(64),
                                     exec_mode="fast"))
        assert set(ri.arrays) == set(rf.arrays)
        for name in ri.arrays:
            assert ri.arrays[name].tobytes() == rf.arrays[name].tobytes()
        assert ri.stats.to_dict() == rf.stats.to_dict()
        assert ri.gflops() == rf.gflops()
