"""Cross-routine execution-plan fusion: equivalence, caching, eviction.

The fused engine (``exec_mode="fused"``) must be observationally
identical to the fast engine and the interpreter oracle: bit-identical
arrays for every program, identical invariant counters (flops, elements,
comm, reductions, dispatch counts), and a total cycle count that is
never *higher* than fast — fusion only removes modeled dispatch and
argument-push work.  These tests pin that contract with hypothesis
programs across both targets, mixed-shape fusability edges, mega-kernel
cache reuse and eviction with the plans kernels were built over, the
native-C/Python kernel agreement, and every fusion kill switch (transform option,
executor argument).  The last section pins the launch
records (``docs/PIPELINE.md`` §16): what replays, everything that must
drop a record, and that a replaying run cannot be told from one that
never replays.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import Machine, get_plan, slicewise_model
from repro.machine import execplan, kernel
from repro.machine.ckernel import _compiler
from repro.machine.kernel import SlotTable
from repro.machine.shifted import Shifted
from repro.peac import Imm, Instr, Mem, PReg, Routine, SReg, VReg
from repro.peac.isa import NUM_PREGS, CReg, ParamSpec
from repro.programs.kernels import (heat_source, life_source,
                                    redblack_source)
from repro.programs.swe import swe_source
from repro.targets import build_machine
from repro.transform import Options as TransformOptions

# Tier-1 programs are too short to earn a ``cc`` run: see conftest.
pytestmark = pytest.mark.usefixtures("eager_c")

ENGINES = ("interp", "fast", "fused")

#: Counters fusion must not change: it elides dispatch/push/loop
#: cycles (so ``node_calls``/``call_cycles`` legitimately shrink) but
#: never the useful work, the traffic, or the host's share.
INVARIANTS = ("flops", "elements_computed", "comm_ops",
              "comm_cycles", "reductions", "host_cycles")

# Alternating same-flat-size (a: 4x4 = b: 16) and odd-size (c: 9)
# statements: adjacent a/b calls fuse across ranks, c breaks trips.
MIXED_SHAPES = """\
double precision a(4, 4), b(16), c(9)
forall (i=1:4, j=1:4) a(i, j) = i * 2.0d0 + j
forall (i=1:16) b(i) = i * 0.5d0
forall (i=1:9) c(i) = i * 0.25d0
a = a * 2.0d0 + 1.0d0
b = b * 3.0d0 - 2.0d0
c = c * c
a = a - 1.5d0
b = b + 0.5d0
end
"""


def run_engines(exe, target="cm2"):
    """{engine: (RunResult, Machine)} for one executable."""
    out = {}
    for mode in ENGINES:
        machine = build_machine(target, exec_mode=mode)
        out[mode] = (exe.run(machine=machine), machine)
    return out


def assert_contract(out):
    """The three-engine contract over one program's results."""
    ref = out["interp"][0]
    for mode in ("fast", "fused"):
        res = out[mode][0]
        for name in ref.arrays:
            assert ref.arrays[name].dtype == res.arrays[name].dtype
            assert (ref.arrays[name].tobytes()
                    == res.arrays[name].tobytes()), (mode, name)
    # Fast is cycle-exact against the oracle; fused only sheds modeled
    # dispatch work, so the invariant counters stay equal and the total
    # never rises.
    assert ref.stats.to_dict() == out["fast"][0].stats.to_dict()
    sf, su = out["fast"][0].stats, out["fused"][0].stats
    for field in INVARIANTS:
        assert getattr(su, field) == getattr(sf, field), field
    assert su.total_cycles <= sf.total_cycles


# ---------------------------------------------------------------------------
# Random programs, both targets
# ---------------------------------------------------------------------------

_ARRAYS = ["a", "b", "c"]


@st.composite
def real_exprs(draw, depth=0):
    if depth > 2 or draw(st.booleans()):
        leaf = draw(st.sampled_from(_ARRAYS + ["lit"]))
        if leaf == "lit":
            # Dyadic literals: exact in binary, so engine comparisons
            # are bit-for-bit meaningful.
            return draw(st.sampled_from(
                ["0.5d0", "2.0d0", "0.25d0", "1.5d0", "3.0d0"]))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(real_exprs(depth=depth + 1))
    right = draw(real_exprs(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def real_programs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    lines = [f"double precision a({n}), b({n}), c({n})",
             f"forall (i=1:{n}) a(i) = i * 0.5d0",
             f"forall (i=1:{n}) b(i) = ({n} - i) * 0.25d0",
             f"forall (i=1:{n}) c(i) = i * i * 0.125d0"]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        tgt = draw(st.sampled_from(_ARRAYS))
        if draw(st.integers(min_value=0, max_value=3)) == 0:
            src = draw(st.sampled_from(_ARRAYS))
            shift = draw(st.integers(min_value=-2, max_value=2))
            lines.append(f"{tgt} = cshift({src}, {shift}, 1)")
        else:
            lines.append(f"{tgt} = {draw(real_exprs())}")
    lines.append("end")
    return "\n".join(lines)


@settings(max_examples=15, deadline=None)
@given(real_programs(), st.sampled_from(["cm2", "cm5"]))
def test_fused_matches_oracle_on_random_programs(source, target):
    exe = compile_source(source, CompilerOptions(target=target))
    assert_contract(run_engines(exe, target))


def test_fused_contract_on_swe():
    exe = compile_source(swe_source(n=16, itmax=3))
    out = run_engines(exe)
    assert_contract(out)
    # SWE's comm-separated phases are the motivating fusion shape: the
    # engine must actually fuse here, not just stay correct.
    summary = out["fused"][1].fusion_summary()
    assert summary["fused_groups"] > 0
    assert summary["fused_routines"] > summary["fused_groups"]
    assert out["fused"][0].stats.fused_groups == summary["fused_groups"]


def test_fused_contract_on_heat_timestep_loop():
    exe = compile_source(heat_source(8, 3))
    assert_contract(run_engines(exe))


def test_fused_contract_on_mixed_shapes():
    exe = compile_source(MIXED_SHAPES)
    assert_contract(run_engines(exe))


def test_fused_runs_are_deterministic():
    exe = compile_source(swe_source(n=16, itmax=2))
    runs = []
    for _ in range(2):
        machine = build_machine("cm2", exec_mode="fused")
        runs.append(exe.run(machine=machine))
    assert runs[0].stats.to_dict() == runs[1].stats.to_dict()
    for name in runs[0].arrays:
        assert (runs[0].arrays[name].tobytes()
                == runs[1].arrays[name].tobytes())


# ---------------------------------------------------------------------------
# Mega-kernel cache: reuse, invalidation, native/Python agreement
# ---------------------------------------------------------------------------


def test_megakernels_are_reused_across_machines():
    exe = compile_source(swe_source(n=16, itmax=2))
    # Warm runs: the first records binding specs (stepwise), the
    # second compiles the mega-kernels from them.
    built = 0
    for _ in range(2):
        machine = build_machine("cm2", exec_mode="fused")
        exe.run(machine=machine)
        built += machine.fusion_metrics["megakernel_builds"]
    assert built > 0
    third = build_machine("cm2", exec_mode="fused")
    exe.run(machine=third)
    # Plans (and their serials) live on the executable, so a fresh
    # machine hits the process-wide mega-kernel cache without building.
    assert third.fusion_metrics["megakernel_builds"] == 0
    assert third.fusion_metrics["megakernel_hits"] > 0


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
def test_native_and_python_megakernels_agree(monkeypatch):
    exe = compile_source(swe_source(n=16, itmax=2))
    native_m = build_machine("cm2", exec_mode="fused")
    native = exe.run(machine=native_m)
    assert native_m.fusion_metrics["megakernel_native"] > 0

    execplan._MEGA_KERNELS.clear()
    monkeypatch.setenv("REPRO_FUSED_CC", "0")
    python_m = build_machine("cm2", exec_mode="fused")
    plain = exe.run(machine=python_m)
    assert python_m.fusion_metrics["megakernel_builds"] > 0
    assert python_m.fusion_metrics["megakernel_native"] == 0

    for name in native.arrays:
        assert (native.arrays[name].tobytes()
                == plain.arrays[name].tobytes()), name
    assert native.stats.to_dict() == plain.stats.to_dict()
    execplan._MEGA_KERNELS.clear()  # rebuild native for later tests


# ---------------------------------------------------------------------------
# Kill switches
# ---------------------------------------------------------------------------


def _fused_summary(exe):
    machine = build_machine("cm2", exec_mode="fused")
    result = exe.run(machine=machine)
    return result, machine.fusion_summary()


def test_transform_option_disables_fusion():
    source = swe_source(n=16, itmax=2)
    options = CompilerOptions(
        transform=TransformOptions(fuse_exec=False))
    result, summary = _fused_summary(compile_source(source, options))
    assert summary["fused_groups"] == 0
    baseline = compile_source(source).run(
        machine=build_machine("cm2", exec_mode="fast"))
    for name in baseline.arrays:
        assert (baseline.arrays[name].tobytes()
                == result.arrays[name].tobytes()), name


def test_naive_options_disable_fusion():
    exe = compile_source(swe_source(n=16, itmax=2),
                         CompilerOptions.naive())
    _, summary = _fused_summary(exe)
    assert summary["fused_groups"] == 0


# ---------------------------------------------------------------------------
# Launch records: steady-state replay and everything that must drop one
# ---------------------------------------------------------------------------

N = 8


def _axpy(name="axpy", op="faddv", spill=False):
    """``y = k * x (op) y`` — through a spill slot when asked."""
    body = [Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("flodv", (Mem(PReg(1)), VReg(1))),
            Instr("fmulv", (VReg(0), SReg(0), VReg(2)))]
    if spill:
        top = Mem(PReg(NUM_PREGS - 1))
        # Accumulate into the scratch first: a slot that is not drawn
        # zeroed on every trip would leak the previous trip's product.
        body += [Instr("flodv", (top, VReg(3))),
                 Instr("faddv", (VReg(2), VReg(3), VReg(2))),
                 Instr("fstrv", (VReg(2), top)),
                 Instr("flodv", (top, VReg(2)))]
    body += [Instr(op, (VReg(2), VReg(1), VReg(4))),
             Instr("fstrv", (VReg(4), Mem(PReg(1))))]
    return Routine(name, [ParamSpec("subgrid", "x", PReg(0)),
                          ParamSpec("subgrid", "y", PReg(1)),
                          ParamSpec("scalar", "k", SReg(0)),
                          ParamSpec("vlen", "vlen", CReg(2))],
                   body, spill_slots=int(spill))


def _scale(name="scale"):
    """``x = x * 0.5`` (fuses after ``_axpy``: same flat length)."""
    return Routine(name, [ParamSpec("subgrid", "x", PReg(0)),
                          ParamSpec("vlen", "vlen", CReg(2))],
                   [Instr("flodv", (Mem(PReg(0)), VReg(0))),
                    Instr("fmulv", (VReg(0), Imm(0.5), VReg(1))),
                    Instr("fstrv", (VReg(1), Mem(PReg(0))))])


class _Trips:
    """One dispatch site driven trip by trip on an engine and on the
    ``interp`` oracle, compared after every trip.

    ``fused`` drives a two-call batch through ``call_fused`` (site
    ``("s", "t")``); otherwise one call through ``call_routine`` (site
    ``"s"``).  ``bind`` maps parameter names to array names or scalars;
    ``region`` gives an array a section.  ``Machine.view`` of a whole
    array is the array object itself, of a section a fresh view per
    call — ``hold_views`` keeps the views across trips, as the host
    executor's binding cache does.
    """

    def __init__(self, mode, fused=False, routine=None, host=False):
        self.fused = fused
        self.routine = routine or _axpy()
        self.tail = _scale()
        self.bind = {"x": "x", "y": "y", "k": 3}
        self.region = {}
        self.held = None
        self.machines = [build_machine("host", exec_mode=m) if host
                         else Machine(slicewise_model(16), exec_mode=m)
                         for m in (mode, "interp")]
        for m in self.machines:
            for name in ("x", "y", "z"):
                m.alloc(name, (N,), np.dtype(np.float64))
                m.set_array(name, np.arange(N) + len(name) * 0.25)

    @property
    def engine(self):
        return self.machines[0]

    def hold_views(self):
        self.held = [{name: m.view(name, self.region.get(name))
                      for name in m.arrays} for m in self.machines]

    def _view(self, m, name):
        if self.held is not None:
            return self.held[self.machines.index(m)][name]
        return m.view(name, self.region.get(name))

    def _bindings(self, m, names):
        return {p: self._view(m, v) if isinstance(v, str) else v
                for p, v in self.bind.items() if p in names}

    def trip(self, count=1):
        for _ in range(count):
            for m in self.machines:
                extents = self._view(m, "x").shape
                head = (self.routine, self._bindings(m, "xyk"), extents)
                if self.fused:
                    tail = (self.tail, self._bindings(m, "x"), extents)
                    m.call_fused([head, tail], site=("s", "t"))
                else:
                    m.call_routine(*head, site="s")
            got, want = self.machines
            for name in want.arrays:
                assert (got.home(name).data.tobytes()
                        == want.home(name).data.tobytes()), name
            if not self.fused:   # a fused group is charged as one call
                assert got.stats.to_dict() == want.stats.to_dict()
        return self.engine.launch_metrics


SITES = pytest.mark.parametrize("mode,fused", [("fast", False),
                                               ("fused", True)])


@SITES
def test_steady_trips_replay_the_record(mode, fused):
    t = _Trips(mode, fused)
    got = t.trip(6)
    # Trip 1 records binding specs stepwise, trip 2 runs (and records)
    # the kernel, trips 3-6 replay it.
    assert (got["records"], got["replays"], got["drops"]) == (1, 4, 0)


def test_interp_never_records():
    t = _Trips("interp")
    t.trip(4)
    for m in t.machines:
        assert not m._launches
        assert not any(m.launch_metrics.values())


@SITES
def test_realloc_between_trips_drops_the_record(mode, fused):
    t = _Trips(mode, fused)
    t.trip(3)
    for m in t.machines:
        data = m.home("y").data.copy()
        del m.arrays["y"]
        m.alloc("y", (N,), np.dtype(np.float64))
        m.set_array("y", data)
    got = t.trip()
    assert (got["drops"], got["binding"]) == (1, 1)
    # The dropping trip re-recorded on its way through the kernel.
    assert t.trip(2)["replays"] == 1 + 2


@SITES
def test_a_replaced_routine_drops_the_record(mode, fused):
    """A routine is never edited: every field, and every item of its
    tuples, refuses assignment.  A changed routine is a new one with a
    plan of its own, which the site's record and template refuse
    (reason ``plan``), so the site is probed again."""
    t = _Trips(mode, fused)
    t.trip(3)
    old = t.routine
    for f in dataclasses.fields(Routine):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(old, f.name, getattr(old, f.name))
    assert isinstance(old.body, tuple) and isinstance(old.params, tuple)
    with pytest.raises(TypeError):
        old.body[-2] = old.body[0]
    with pytest.raises(TypeError):
        old.params[0] = old.params[1]
    body = list(old.body)
    body[-2] = dataclasses.replace(body[-2], op="fsubv")
    t.routine = dataclasses.replace(old, body=body)
    assert get_plan(t.routine).serial != get_plan(old).serial
    probes = [0]
    probe = execplan.LaunchTemplate.probe.__func__

    def counted(cls, *args, **kwargs):
        probes[0] += 1
        return probe(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execplan.LaunchTemplate, "probe", classmethod(counted))
        got = t.trip()
    assert (got["drops"], got["plan"]) == (1, 1)
    assert probes[0] >= 1
    t.trip(3)


@SITES
def test_scalar_type_change_drops_the_record(mode, fused):
    t = _Trips(mode, fused)
    t.trip(3)
    t.bind["k"] = 2.5          # int -> float: another kernel signature
    got = t.trip()
    assert (got["drops"], got["scalar_type"]) == (1, 1)
    t.bind["k"] = 4.5          # same type, new value: replays
    t.trip(3)
    assert got["drops"] == 1 and got["replays"] >= 2


def test_array_scalar_never_records():
    t = _Trips("fast")
    t.bind["k"] = np.full(N, 2.0)
    got = t.trip(4)
    assert got["records"] == 0


@SITES
def test_spill_slots_are_redrawn_zeroed_on_replay(mode, fused):
    t = _Trips(mode, fused, routine=_axpy(spill=True))
    got = t.trip(2)   # compared with interp after every trip
    # The record's launch keeps its scratch: the same buffers on every
    # replay, the spill slots zeroed at kernel entry whatever the last
    # run left in them.
    (record,) = t.engine._launches.values()
    launch = record.launch
    owned = list(launch.S)
    assert launch.spills
    kern = launch.kern
    zero_at_entry = []

    def probe(S, X, n):
        zero_at_entry.append(all(not S[slot].any() for slot in launch.spills))
        kern(S, X, n)

    probe.native, probe.declined, probe.streamed = (kern.native,
                                                    kern.declined, 0)
    launch.kern = probe
    for _ in range(4):
        for slot in launch.spills:
            launch.S[slot].fill(7)
        t.trip()
        assert len(launch.S) == len(owned)
        assert all(now is then for now, then in zip(launch.S, owned))
    assert got["replays"] == 4
    assert zero_at_entry == [True] * 4


@SITES
def test_strided_section_never_records(mode, fused):
    t = _Trips(mode, fused)
    t.region = {"x": ((1, N, 2),), "y": ((1, N, 2),)}
    t.hold_views()             # identical objects every trip, and still
    got = t.trip(5)            # nothing to replay: no kernel ever ran
    assert got["records"] == 0 and got["drops"] == 0


def test_section_view_made_per_trip_drops_every_trip():
    t = _Trips("fast")
    t.region = {"x": ((1, 4, 1),), "y": ((5, 8, 1),)}
    got = t.trip(5)
    assert got["replays"] == 0
    assert got["drops"] == got["binding"] == 3   # trips 3, 4 and 5


def test_site_reused_for_another_routine_runs_that_routine():
    """A recycled ``id(op)`` is a site key naming a different call: the
    record compares the routine (and plan) objects it holds, so it
    cannot answer for anything else."""
    t = _Trips("fast")
    t.trip(3)
    t.routine = _axpy(name="other", op="fsubv")
    got = t.trip()             # same site, same bindings, other routine
    assert (got["drops"], got["plan"]) == (1, 1)
    t.trip(3)


# -- a batch no kernel may run together is its calls -------------------------

#: ``RunStats`` of ``redblack_source(32, 8)`` with ``pad_masks=False``
#: as captured at the commit before a rejected batch's calls became
#: sites of their own (cm2: every field; host: the counts, its cycles
#: are calibrated per process).
_REDBLACK_COUNTS = {"node_calls": 33, "ififo_pushes": 165, "flops": 87040,
                    "elements_computed": 25600, "comm_ops": 64,
                    "fused_groups": 0, "fused_routines": 0}
_REDBLACK_CM2 = {**_REDBLACK_COUNTS, "node_cycles": 1296,
                 "call_cycles": 19800, "comm_cycles": 22144,
                 "host_cycles": 126, "total_cycles": 43366, "reductions": 0,
                 "per_routine": {"Pk1vs1": 164, "Pk2vs1": 400, "Pk3vs1": 160,
                                 "Pk4vs1": 400, "Pk5vs1": 160}}


@pytest.mark.parametrize("target,pinned", [("cm2", _REDBLACK_CM2),
                                           ("host", _REDBLACK_COUNTS)])
def test_rejected_batch_dispatches_like_fast(target, pinned):
    """Figure 10's ablation sends strided sections to the dispatcher:
    every batch of a sweep is rejected (trip counts differ), so
    ``fused`` must account — and replay — call by call, as ``fast``."""
    options = CompilerOptions(target=target,
                              transform=TransformOptions(pad_masks=False))
    exe = compile_source(redblack_source(32, 8), options)
    # Once for the plans' specs: the engines compared then all start
    # warm, and a site records on its first trip.
    exe.run(machine=build_machine(target, exec_mode="fast"))
    out = run_engines(exe, target)
    ref = out["interp"][0]
    for mode in ("fast", "fused"):
        res, machine = out[mode]
        for name in ref.arrays:
            assert (ref.arrays[name].tobytes()
                    == res.arrays[name].tobytes()), (mode, name)
        stats = res.stats.to_dict()
        assert {key: stats[key] for key in pinned} == pinned, mode
    fast, fused = (out[mode][1].fusion_summary()
                   for mode in ("fast", "fused"))
    assert out["fused"][0].stats.to_dict() == out["fast"][0].stats.to_dict()
    assert fused["launch_replays"] == fast["launch_replays"] == 14
    for key in ("launch_records", "launch_drops", "shifts_folded",
                "shifts_staged", "shifts_materialized"):
        assert fused[key] == fast[key], key


def _add_shifted(name="addsh"):
    """``y = y + s`` with ``s`` bound to a shifted operand."""
    return Routine(name, [ParamSpec("halo", "s", PReg(0)),
                          ParamSpec("subgrid", "y", PReg(1)),
                          ParamSpec("vlen", "vlen", CReg(2))],
                   [Instr("flodv", (Mem(PReg(0)), VReg(0))),
                    Instr("flodv", (Mem(PReg(1)), VReg(1))),
                    Instr("faddv", (VReg(0), VReg(1), VReg(2))),
                    Instr("fstrv", (VReg(2), Mem(PReg(1))))])


@pytest.mark.parametrize("mode", ENGINES)
@pytest.mark.parametrize("legal", [True, False])
def test_shifted_operand_means_its_source_at_batch_start(mode, legal):
    """The first call of a batch stores the array the second reads
    through a shifted operand: whether the batch runs as one group
    (the store staged) or is rejected and runs as its calls (``y``
    strided), the second call sees the source as the batch found it."""
    m = Machine(slicewise_model(16), exec_mode=mode)
    m.alloc("x", (N,), np.dtype(np.float64))
    m.alloc("y", (2 * N,), np.dtype(np.float64))
    m.set_array("x", np.arange(N) + 1.0)
    x = m.view("x", None)
    y = m.view("y", ((1, N, 1),) if legal else ((1, 2 * N, 2),))
    scale, add = _scale(), _add_shifted()
    shifted = Shifted(x, (1,))
    want_y = np.zeros(N)
    for _ in range(4):      # recording walk, kernel, replays
        want_y += np.roll(x, -1)
        want_x = x * 0.5
        m.call_fused([(scale, {"x": x}, (N,)),
                      (add, {"s": shifted, "y": y}, (N,))],
                     site=("scale", "add"))
        assert x.tobytes() == want_x.tobytes()
        assert y.tobytes() == want_y.tobytes()
    fused = legal and mode == "fused"
    assert m.stats.fused_groups == (4 if fused else 0)
    if mode != "interp":
        # One record either way: the legal batch's, or the first call's
        # — the second ran over a copy, which nothing can replay.
        assert m.launch_metrics["records"] == 1
        assert m.launch_metrics["replays"] == 2
        assert (("scale", "add"), 0) in m._launches or fused


def test_a_group_reads_its_shifted_operands_in_one_shape():
    """A kernel's blocks are slabs (and its C loop rows) of one shape:
    two shifted operands of one flat length in two shapes, (4, 6) and
    (6, 4), are a legal batch that no kernel takes together.  The group
    declines once, for that reason, and runs as its calls."""
    arrays = {}
    for mode in ("interp", "fused"):
        m = Machine(slicewise_model(16), exec_mode=mode)
        for name, shape in (("a", (4, 6)), ("b", (6, 4)), ("y", (24,)),
                            ("z", (24,))):
            m.alloc(name, shape, np.dtype(np.float64))
            m.set_array(name, np.arange(24.0).reshape(shape) * len(name))
        calls = [(_add_shifted("across"),
                  {"s": Shifted(m.view("a", None), (1, 0)),
                   "y": m.view("y", None)}, (24,)),
                 (_add_shifted("down"),
                  {"s": Shifted(m.view("b", None), (0, 1)),
                   "y": m.view("z", None)}, (24,))]
        for _ in range(3):      # recording walk, then the group is asked
            m.call_fused(calls, site=("across", "down"))
        arrays[mode] = [m.home(name).data.tobytes() for name in "abyz"]
    assert arrays["fused"] == arrays["interp"]
    # Without a compiler each call's own hot kernel is refused C too.
    assert m.fusion_summary()["declined"] == {
        "blocked": {"shift shapes": 1},
        "c": {} if _compiler() else {"no compiler": 2}}


def test_a_read_paired_with_the_first_staged_store_reads_the_slot():
    """A staged store's scratch holds the new value only once the store
    commits: a plain read of the slot in the store's own dual-issue
    group still sees the slot, as the oracle's read does."""
    routine = Routine("pairstage", [ParamSpec("halo", "s", PReg(0)),
                                    ParamSpec("subgrid", "y", PReg(1)),
                                    ParamSpec("subgrid", "z", PReg(2)),
                                    ParamSpec("vlen", "vlen", CReg(2))], [
        Instr("flodv", (Mem(PReg(0)), VReg(0))),
        Instr("flodv", (Mem(PReg(1)), VReg(1))),
        Instr("faddv", (VReg(0), VReg(1), VReg(2))),
        Instr("fstrv", (VReg(2), Mem(PReg(1))),
              paired=Instr("flodv", (Mem(PReg(1)), VReg(3)))),
        Instr("fmulv", (VReg(3), Imm(2.0), VReg(4))),
        Instr("fstrv", (VReg(4), Mem(PReg(2)))),
    ])
    arrays = {}
    for mode in ("interp", "fast"):
        m = Machine(slicewise_model(16), exec_mode=mode)
        for name in ("y", "z"):
            m.alloc(name, (N,), np.dtype(np.float64))
            m.set_array(name, np.arange(N) + 1.5)
        y, z = m.view("y", None), m.view("z", None)
        for _ in range(4):      # recording walk, kernel, replays
            m.call_routine(routine, {"s": Shifted(y, (1,)), "y": y, "z": z},
                           (N,), site="s")
            y *= -0.5   # the scratch copied back last trip is stale now
        arrays[mode] = (y.tobytes(), z.tobytes())
    assert arrays["fast"] == arrays["interp"]
    assert m.fusion_summary()["shifts_staged"] > 0


# -- whole programs: replay against a machine that never replays ------------


def _forgetful(machine):
    """``machine``, dropping every record before every dispatch, so
    each trip takes the ordinary path (test-side: no product switch)."""
    base = type(machine)

    class Forgetful(base):
        def call_routine(self, *args, **kwargs):
            self._launches.clear()
            return base.call_routine(self, *args, **kwargs)

        def call_fused(self, *args, **kwargs):
            self._launches.clear()
            return base.call_fused(self, *args, **kwargs)

    return Forgetful(machine.model, exec_mode=machine.exec_mode)


def _config_machine(config):
    if config == "host":
        return build_machine("host")
    return build_machine("cm2", exec_mode=config)


def _warm(exe, mode):
    """Run ``exe`` on fresh machines until a run promotes nothing, so
    two later runs can be compared counter for counter.  A routine
    launched once per run (a ``mod`` init block) is only recorded by
    the first run; the second builds its kernel, hot at birth under
    ``eager_c``."""
    exe.run(machine=build_machine("cm2", exec_mode=mode))
    while exe.run(machine=build_machine(
            "cm2", exec_mode=mode)).machine.fusion_summary()["tier_ups"]:
        pass


def _assert_same_run(got, want):
    assert got.output == want.output
    for name, data in want.arrays.items():
        assert got.arrays[name].dtype == data.dtype, name
        assert got.arrays[name].tobytes() == data.tobytes(), name
    assert got.stats.to_dict() == want.stats.to_dict()
    fs, ws = got.machine.fusion_summary(), want.machine.fusion_summary()
    for key in ws:
        if not key.startswith("launch_"):
            assert fs[key] == ws[key], key


_SOURCES = {"swe": lambda trips: swe_source(n=8, itmax=trips),
            "heat": lambda trips: heat_source(8, trips),
            "life": lambda trips: life_source(8, trips),
            "redblack": lambda trips: redblack_source(8, trips)}
_EXES: dict = {}


def _exe(prog, trips, config):
    key = (prog, trips, config == "host")
    if key not in _EXES:
        options = CompilerOptions(
            target="host" if config == "host" else "cm2")
        _EXES[key] = compile_source(_SOURCES[prog](trips), options)
    return _EXES[key]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(_SOURCES)), st.integers(4, 12),
       st.sampled_from(["fast", "fused", "host"]))
def test_replay_is_indistinguishable_from_the_ordinary_path(prog, trips,
                                                            config):
    exe = _exe(prog, trips, config)
    # Two warm runs: binding specs, then the kernels of sites that make
    # one trip per run (builds are counted, and must not differ below).
    for _ in range(2):
        exe.run(machine=_config_machine(config))
    want = exe.run(machine=_forgetful(_config_machine(config)))
    got = exe.run(machine=_config_machine(config))
    _assert_same_run(got, want)
    assert want.machine.launch_metrics["replays"] == 0
    if prog != "redblack":      # strided sections: nothing to replay
        assert got.machine.launch_metrics["replays"] > 0


@pytest.mark.parametrize("config", ["fast", "fused", "host"])
def test_reused_machine_cannot_replay_a_dead_programs_record(config):
    """Records are keyed by ``id(op)``; after the first executable is
    collected the second one's ops may sit at the same addresses."""
    options = CompilerOptions(target="host" if config == "host" else "cm2")
    machines = [_config_machine(config),
                _forgetful(_config_machine(config))]
    results = []
    for machine in machines:
        exe_a = compile_source(heat_source(8, 6), options, cache=False)
        exe_a.run(machine=machine)
        del exe_a
        gc.collect()
        # Same arrays (they stay allocated), same shapes, other code.
        exe_b = compile_source(
            heat_source(8, 6).replace("0.125d0", "0.0625d0"), options,
            cache=False)
        results.append(exe_b.run(machine=machine))
    _assert_same_run(*results)
    assert results[0].machine.launch_metrics["replays"] > 0


def test_hoisted_store_snapshot_drops_the_pending_calls_record():
    """Each trip ``a(2:6) = c(1:5)`` is hoisted over the pending call
    reading ``cshift(a)``, which gets a copy in the halo's place — a
    binding no record can have seen."""
    src = ("double precision a(6), b(6), c(6)\ninteger k\n"
           "forall (i=1:6) a(i) = mod(i*7, 5) + i\nb = 1\nc = 2\n"
           "do k = 1, 6\nb = cshift(a, 1) * 2\na(2:6) = c(1:5)\n"
           "c = b + a\nend do\nend\n")
    exe = compile_source(src)
    _warm(exe, "fused")
    want = exe.run(machine=_forgetful(
        build_machine("cm2", exec_mode="fused")))
    got = exe.run(machine=build_machine("cm2", exec_mode="fused"))
    _assert_same_run(got, want)
    assert got.machine.fusion_summary()["shifts_materialized"] == 6
    metrics = got.machine.launch_metrics
    assert metrics["binding"] == 5 and metrics["replays"] == 0
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for name, data in oracle.arrays.items():
        assert got.arrays[name].tobytes() == data.tobytes(), name


@pytest.mark.parametrize("mode", ["fast", "fused"])
def test_neighborhood_halo_bound_per_trip_never_replays(mode):
    """A §5.3.2 halo stream is priced — and made — at every bind."""
    exe = compile_source(heat_source(8, 6), CompilerOptions.neighborhood())
    _warm(exe, mode)
    want = exe.run(machine=_forgetful(build_machine("cm2",
                                                    exec_mode=mode)))
    got = exe.run(machine=build_machine("cm2", exec_mode=mode))
    _assert_same_run(got, want)
    metrics = got.machine.launch_metrics
    assert metrics["replays"] == 0
    assert metrics["drops"] == metrics["binding"] == 5
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for name, data in oracle.arrays.items():
        assert got.arrays[name].tobytes() == data.tobytes(), name
    if mode == "fast":
        assert got.stats.to_dict() == oracle.stats.to_dict()


# ---------------------------------------------------------------------------
# The fold: every dispatch is a group, one kernel cache, plan-lifetime
# eviction (docs/PIPELINE.md section 6)
# ---------------------------------------------------------------------------


def _cached_serials():
    return {s for key in execplan._MEGA_KERNELS for s in key[0]}


@pytest.mark.parametrize("config", ["fast", "fused", "host"])
def test_kernels_die_with_the_plans_they_were_compiled_over(config):
    options = CompilerOptions(target="host" if config == "host" else "cm2")
    exe = compile_source(heat_source(8, 6), options, cache=False,
                         incremental=False)
    for _ in range(2):
        exe.run(machine=_config_machine(config))
    serials = {get_plan(r).serial for r in exe.routines.values()}
    assert serials & _cached_serials()
    del exe
    gc.collect()
    assert not serials & _cached_serials()


def test_stepwise_constituents_never_build_native(eager_c, monkeypatch):
    """A group whose signature is not recorded yet runs its calls one by
    one; a constituent launched once has earned nothing, so the host
    never ``cc``-builds kernels the group's own kernel supersedes one
    trip later."""
    monkeypatch.setattr(kernel, "_TIER_UP", eager_c)
    exe = compile_source(swe_source(32, 6), CompilerOptions(target="host"),
                         cache=False, incremental=False)
    machine = build_machine("host")
    exe.run(machine=machine)
    summary = machine.fusion_summary()
    assert summary["stepwise_groups"] > 0
    assert summary["host_native_builds"] == 0
    # The lone set-up dispatch's first trip, and each stepwise group.
    assert (summary["host_steps_dispatches"]
            == 1 + summary["stepwise_groups"])


@pytest.mark.parametrize("host", [False, True])
def test_lone_dispatch_pushes_every_parameter(host):
    """The same array behind two stream parameters is one slot of the
    group, but a lone dispatch is charged per parameter like interp
    (``_Trips`` compares RunStats after every trip)."""
    t = _Trips("fast", host=host)
    t.bind["y"] = "x"
    t.trip(4)
    assert t.engine.launch_metrics["replays"] == 2


# -- the C build directory ---------------------------------------------------


@pytest.mark.skipif(_compiler() is None or not hasattr(os, "fork"),
                    reason="needs a C compiler and fork")
def test_forked_workers_each_run_the_kernel_they_built():
    """Workers forked after a build inherit the build cache; building
    their next kernels at the same moment, each must get its own."""
    from repro.machine import ckernel

    def source(value):
        return ("void kernel(void **SP, const double *X, long n) {\n"
                "  double *s0 = (double *)SP[0];\n"
                f"  for (long i = 0; i < n; i++) s0[i] = {value};\n}}\n")

    def run(value):
        out = np.zeros(4)
        S = SlotTable([out])
        ckernel._load(source(value), 1, ())(S, [], 4)
        return out

    assert run("0.5")[0] == 0.5          # the parent's build
    go_r, go_w = os.pipe()
    children = []
    for value in (1.0, 2.0):
        done_r, done_w = os.pipe()
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                os.read(go_r, 1)         # both build at the same moment
                got = run(repr(value))
                os.write(done_w, b"y" if (got == value).all() else b"n")
                status = 0
            finally:
                if ckernel._WORKDIR[0] == os.getpid():
                    ckernel._remove_workdir(*ckernel._WORKDIR)
                os._exit(status)
        os.close(done_w)
        children.append((pid, done_r))
    os.write(go_w, b"gg")
    for pid, done_r in children:
        assert os.read(done_r, 1) == b"y"
        assert os.waitpid(pid, 0)[1] == 0
        os.close(done_r)
    os.close(go_r)
    os.close(go_w)
    assert os.path.isdir(ckernel._WORKDIR[1])   # the parent's is its own


# -- a build that fails is a decline -------------------------------------------


def _break_the_build(monkeypatch, failure):
    """Make the next ``cc`` run fail the way ``failure`` names."""
    from repro.machine import ckernel

    def refuse(exc):
        def raiser(*args, **kwargs):
            raise exc
        return raiser

    monkeypatch.setattr(ckernel, "_SO_CACHE", {})   # no text built before
    if failure == "noexec_tmp":
        monkeypatch.setattr(ckernel.ctypes, "CDLL", refuse(OSError(
            "failed to map segment from shared object")))
    elif failure == "compiler_vanished":
        monkeypatch.setattr(ckernel.subprocess, "run",
                            refuse(FileNotFoundError(2, "No such file")))
    elif failure == "full_tmp":
        monkeypatch.setattr(ckernel.tempfile, "mkstemp",
                            refuse(OSError(28, "No space left on device")))
    else:
        monkeypatch.setattr(
            ckernel.subprocess, "run",
            lambda argv, **kwargs: subprocess.CompletedProcess(
                argv, 1, b"", b"internal compiler error"))


BUILD_FAILURES = pytest.mark.parametrize(
    "failure", ["noexec_tmp", "compiler_vanished", "full_tmp", "cc_exits_1"])


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
@BUILD_FAILURES
def test_a_build_failing_mid_run_stays_on_the_blocked_kernel(failure,
                                                             monkeypatch):
    """The crossing falls on trip 5 of a run that was fine on numpy, and
    nothing of the build can be had: the trip and every later one run
    the blocked kernel (``_Trips`` compares with ``interp`` per trip),
    the failure is counted once and the entry is never asked about
    again."""
    _break_the_build(monkeypatch, failure)
    monkeypatch.setattr(kernel, "_TIER_UP", 3 * (N + kernel._LAUNCH_COST))
    t = _Trips("fast", routine=_axpy(name=f"unbuildable_{failure}"))
    got = t.trip(9)
    summary = t.engine.fusion_summary()
    assert summary["native_build_failures"] == 1
    assert summary["tier_ups"] == summary["native_builds"] == 0
    assert summary["launch_drop_reasons"]["tier_up"] == got["drops"] == 1
    assert got["replays"] == 2 + 4      # trips 3-4, then 6-9
    (record,) = t.engine._launches.values()
    kern = record.launch.kern
    assert not kern.native and kern.declined == ("c", "build failed")
    assert summary["declined"] == {"c": {"build failed": 1}, "blocked": {}}


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
@BUILD_FAILURES
def test_a_program_whose_every_build_fails_matches_interp(failure,
                                                          monkeypatch):
    _break_the_build(monkeypatch, failure)
    exe = compile_source(swe_source(n=8, itmax=4), cache=False,
                         incremental=False)
    machine = build_machine("cm2", exec_mode="fused")
    fused = exe.run(machine=machine)
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for name, data in oracle.arrays.items():
        assert fused.arrays[name].tobytes() == data.tobytes(), name
    summary = machine.fusion_summary()
    assert summary["native_build_failures"] > 0
    assert summary["megakernel_native"] == summary["tier_ups"] == 0
    assert summary["megakernel_hits"] > 0


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
def test_build_directory_is_removed_at_exit():
    code = ("import numpy as np\n"
            "from repro.machine import ckernel\n"
            "from repro.machine.kernel import SlotTable\n"
            "src = ('void kernel(void **SP, const double *X, long n)'\n"
            "       '{ ((double *)SP[0])[0] = 7.0; }')\n"
            "out = np.zeros(1)\n"
            "ckernel._load(src, 1, ())(SlotTable([out]), [], 1)\n"
            "assert out[0] == 7.0\n"
            "print(ckernel._WORKDIR[1])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    workdir = proc.stdout.strip()
    assert "repro-ckernel-" in workdir
    assert not os.path.exists(workdir)


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
def test_two_builders_of_one_text_compile_sources_of_their_own(monkeypatch):
    """Two threads build one fresh text at once: each hands ``cc`` a
    ``.c`` of its own, removed after the build, so a second writer never
    truncates the file the first one's compiler reads; both libraries
    are whole."""
    import threading

    from repro.machine import ckernel

    src = ("void kernel(void **SP, const double *X, long n)"
           "{ ((double *)SP[0])[0] = 11.0; }")
    monkeypatch.setattr(ckernel, "_SO_CACHE", {})   # no text built before
    ckernel._workdir()      # one build directory for both
    both = threading.Barrier(2)
    sources = []
    run = subprocess.run

    def recorded(argv, **kwargs):
        sources.extend(arg for arg in argv if arg.endswith(".c"))
        both.wait(timeout=60)       # both builders are past the cache
        return run(argv, **kwargs)

    monkeypatch.setattr(ckernel.subprocess, "run", recorded)
    libs, errors = [None, None], []

    def build(k):
        try:
            libs[k] = ckernel._library(src)[0]
        except Exception as exc:
            errors.append(exc)

    threads = [threading.Thread(target=build, args=(k,)) for k in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not errors
    assert len(sources) == 2 and sources[0] != sources[1]
    assert not any(os.path.exists(path) for path in sources)
    for lib in libs:
        assert lib.kernel is not None


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("failure", ["compiler_vanished", "cc_exits_1"])
def test_a_failed_build_leaves_no_file_behind(failure, monkeypatch):
    """However ``cc`` fails, the build's private ``.c`` and partial
    ``.so`` are gone: a build retried after a decline adds none."""
    from repro.machine import ckernel

    _break_the_build(monkeypatch, failure)
    workdir = ckernel._workdir()
    before = set(os.listdir(workdir))
    with pytest.raises(ckernel.BuildFailed):
        ckernel._library(f"void kernel(void) {{}} /* {failure} */")
    assert set(os.listdir(workdir)) == before
