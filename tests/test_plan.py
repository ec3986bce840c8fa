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

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.machine import (
    Machine,
    MachineError,
    SubgridStream,
    VectorExecutor,
    cycles_per_trip,
    flops_per_element,
    slicewise_model,
)
from repro.machine import execplan, kernel
from repro.machine.ckernel import _compiler
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
    recording pass) and once on the measured copies so the comparison
    exercises the compiled steps / kernel, not the recorder.
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

    def test_env_selects_engine(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "interp")
        assert Machine(slicewise_model(64)).exec_mode == "interp"

    def test_argument_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXEC", "interp")
        m = Machine(slicewise_model(64), exec_mode="fast")
        assert m.exec_mode == "fast"


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
    def test_fast_path_mirrors_interp_without_kernels(self, case,
                                                      monkeypatch):
        monkeypatch.setenv("REPRO_FAST_KERNEL", "0")
        instrs = getattr(self, f"case_{case}")()
        arrays = {0: np.array([1.0, 2.0]), 1: np.array([100.0, 200.0]),
                  2: np.zeros(2), 3: np.zeros(2)}
        ai, af = both_engines(instrs, arrays)
        assert_bit_identical(ai, af)


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

    def test_kernel_env_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAST_KERNEL", "0")
        r = make_routine(self.saxpy())
        arrays = {0: np.arange(8.0), 1: np.ones(8), 2: np.zeros(8)}
        run_fast(r, arrays)
        plan = run_fast(r, arrays)
        assert not any(plan.serial in key[0]
                       for key in execplan._MEGA_KERNELS)
        assert list(arrays[2]) == [3.0 * i + 1.0 for i in range(8)]

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
        # the step engine must still match the oracle exactly.
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


def _dispatch(mode, case, repeats=2):
    n, dtype, n_in, body, inputs = case
    m = Machine(slicewise_model(16), exec_mode=mode)
    r = make_routine(body, dtype=dtype)
    r.params = [ParamSpec("subgrid", f"a{i}.w0", PReg(i))
                for i in range(n_in + 1)]
    for i in range(n_in):
        m.alloc(f"a{i}", (n,), np.dtype(dtype))
        m.set_array(f"a{i}", np.asarray(inputs[i], dtype=dtype))
    m.alloc(f"a{n_in}", (n,), np.dtype(dtype))
    args = {f"a{i}.w0": m.view(f"a{i}", None) for i in range(n_in + 1)}
    for _ in range(repeats):
        m.call_routine(r, args, (n,))
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
    old = os.environ.get("REPRO_FAST_KERNEL")
    os.environ["REPRO_FAST_KERNEL"] = "0"
    try:
        mi, n_in = _dispatch("interp", case)
        mf, _ = _dispatch("fast", case)
    finally:
        if old is None:
            os.environ.pop("REPRO_FAST_KERNEL", None)
        else:
            os.environ["REPRO_FAST_KERNEL"] = old
    for i in range(n_in + 1):
        assert (mi.home(f"a{i}").data.tobytes()
                == mf.home(f"a{i}").data.tobytes())
    assert mi.stats.to_dict() == mf.stats.to_dict()


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
