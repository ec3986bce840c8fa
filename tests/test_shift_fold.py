"""Shift folding: a CSHIFT read in place must be indistinguishable
from the copy it replaced.

The oracle is the host program *as partitioned* (``assemble``: every
CSHIFT still a copy into its temporary, executed by the CM runtime as
before): for every program, target and engine the folded program must
leave byte-identical arrays, the same output and the same accounting.
The three consumers of a shifted operand — native C loops, blocked
numpy kernels, materialised copies — are all driven: ``interp`` always
materialises, ``fast``/``fused``/``host`` read in place once a binding
signature has been recorded, and ``REPRO_FUSED_CC=0`` takes the C
emitter away.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import nir
from repro.backend.cm2.shiftfold import fold_shifts
from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import execplan
from repro.machine.ckernel import _compiler
from repro.machine.plan import get_plan
from repro.machine.shifted import BlockGather, Shifted, shifted_into
from repro.programs.kernels import ALL_KERNELS, heat_source, life_source
from repro.programs.swe import swe_source
from repro.runtime import host as h
from repro.targets import build_machine, get_target

# Tier-1 programs are too short to earn a ``cc`` run: see conftest.
pytestmark = pytest.mark.usefixtures("eager_c")

TARGETS = ("cm2", "cm5", "host")
MODES = ("interp", "fast", "fused")
STAT_FIELDS = ("total_cycles", "comm_cycles", "comm_ops", "node_calls",
               "fused_groups", "ififo_pushes")


def unfolded(exe):
    """The same compile with shift folding skipped (the oracle)."""
    backend = get_target(exe.options.target).compiler()(
        exe.transformed.env, options=exe.options.backend)
    return dataclasses.replace(
        exe, host_program=backend.assemble(exe.transformed.nir))


def walk(ops):
    for op in ops:
        yield op
        for body in ("body", "then", "els"):
            yield from walk(getattr(op, body, ()))


def folded_temps(exe) -> set[str]:
    return {op.temp for op in walk(exe.host_program.ops)
            if isinstance(op, h.FoldedShift)}


def copied_temps(exe) -> set[str]:
    return {op.clause.tgt.name for op in walk(exe.host_program.ops)
            if isinstance(op, h.CommMove)
            and not isinstance(op, h.FoldedShift) and op.kind == "cshift"}


def check(src: str, targets=TARGETS, modes=MODES, in_place=False):
    """Folded ≡ unfolded on every target × engine; returns the cm2 exe.

    A routine's first dispatch per binding signature is a recording
    pass over materialised copies, so one warm-up run comes first: the
    compared ``fast``/``fused`` runs then read shifted operands in
    place (``in_place`` asserts that they did).
    """
    first = None
    for target in targets:
        exe = compile_source(src, CompilerOptions(target=target))
        first = first or exe
        oracle = unfolded(exe)
        exe.run(machine=build_machine(target, exec_mode="fast"))
        reference = None
        for mode in modes:
            got = exe.run(machine=build_machine(target, exec_mode=mode))
            if in_place and mode != "interp":
                paths = got.machine.fusion_summary()
                assert paths["shifts_folded"] + paths["shifts_staged"] > 0
                assert paths["shifts_materialized"] == 0
            want = oracle.run(machine=build_machine(target, exec_mode=mode))
            where = f"{target}/{mode}"
            assert got.output == want.output, where
            assert got.scalars == want.scalars, where
            gone = set(want.arrays) - set(got.arrays)
            assert gone == folded_temps(exe) - copied_temps(exe), where
            for name, data in got.arrays.items():
                assert data.dtype == want.arrays[name].dtype, where
                assert data.tobytes() == want.arrays[name].tobytes(), \
                    f"{where}: {name}"
            for field in STAT_FIELDS:
                assert getattr(got.stats, field) \
                    == getattr(want.stats, field), f"{where}: {field}"
            if reference is None:
                reference = got.arrays
            for name, data in got.arrays.items():
                assert data.tobytes() == reference[name].tobytes(), \
                    f"{where} vs interp: {name}"
    return first


# -- the shifted-operand primitives -----------------------------------------


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_shifted_into_is_roll(data):
    shape = tuple(data.draw(st.lists(st.integers(1, 6), min_size=1,
                                     max_size=3)))
    offsets = tuple(data.draw(st.integers(-8, 8)) for _ in shape)
    dtype = data.draw(st.sampled_from([np.float64, np.int32]))
    src = np.arange(int(np.prod(shape)), dtype=dtype).reshape(shape)
    want = src
    for axis, off in enumerate(offsets):
        want = np.roll(want, -off, axis=axis)
    out = np.empty_like(src)
    shifted_into(out, src, offsets)
    assert np.array_equal(out, want)
    assert np.array_equal(Shifted(src, offsets).materialize(), want)
    # The blocked reader, at every block size, sees the same elements.
    slabs = data.draw(st.integers(1, shape[0]))
    plane = src.size // shape[0]
    gather = BlockGather(shape, Shifted(src, offsets).offsets,
                         np.empty(slabs * plane, dtype))
    flat = src.reshape(-1)
    for a in range(0, shape[0], slabs):
        z = min(shape[0], a + slabs)
        assert np.array_equal(gather(flat, a, z)[:(z - a) * plane],
                              want.reshape(-1)[a * plane:z * plane])


# -- named shapes -------------------------------------------------------------

HEAD = {
    1: ("{ty} a(6), b(6), c(6)\ninteger k\n{ty} s\n"
        "forall (i=1:6) a(i) = mod(i*7, 5) + i\n"),
    2: ("{ty} a(6,5), b(6,5), c(6,5)\ninteger k\n{ty} s\n"
        "forall (i=1:6, j=1:5) a(i,j) = mod(i*7 + j*3, 11) + i\n"),
    3: ("{ty} a(4,3,5), b(4,3,5), c(4,3,5)\ninteger k\n{ty} s\n"
        "forall (i=1:4, j=1:3, l=1:5) a(i,j,l) = mod(i*7 + j*3 + l, 11)\n"),
}
INIT = "b = 1\nc = 2\nk = 1\n"

CASES = {
    "both_axes": (2, "b = a + cshift(a, 1, 1) - cshift(a, -1, 2)\n"),
    "big_shift": (2, "b = cshift(a, 4, 1) + cshift(a, -3, 2)\n"),
    "zero_mod_extent": (2, "b = a + cshift(a, 6, 1) + cshift(a, -5, 2)\n"),
    "nested": (2, "b = cshift(cshift(a, -1, 1), 2, 2) + cshift(a, -1, 1)\n"),
    "one_d": (1, "b = cshift(a, 2) - cshift(a, -1)\n"),
    "three_d": (3, "b = cshift(a, 1, 1) + cshift(a, -1, 2) "
                   "+ cshift(cshift(a, 1, 3), 2, 1)\n"),
    "heat_shape": (2, "b = a + cshift(a, 1, 1) + cshift(a, -1, 2)\n"
                      "a = b\n"),
    "heat_read_after_store": (
        2, "b = a + cshift(a, 1, 1)\na = b\n"
           "if (k > 0) then\n  c = a * 2 + cshift(b, 1, 2)\nend if\n"),
    "self_update": (2, "a = a + cshift(a, 1, 2)\n"),
    "under_if": (2, "if (k > 0) then\n  b = a + cshift(a, -1, 2)\nelse\n"
                    "  b = cshift(a, 2, 1) * 2\nend if\n"),
    "under_while": (2, "k = 0\ndo while (k < 3)\n"
                       "  a = a + cshift(a, 1, 1)\n  k = k + 1\nend do\n"),
    "loop_stencil": (2, "do k = 1, 3\n  b = a + cshift(a, 1, 1)\n"
                        "  a = b - cshift(b, -1, 2)\nend do\n"),
}


@pytest.mark.parametrize("ty", ["double precision", "integer"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_named_shape_folds_and_matches(case, ty):
    rank, body = CASES[case]
    exe = check(HEAD[rank].format(ty=ty) + INIT + body + "end\n",
                in_place=True)
    assert folded_temps(exe) and not copied_temps(exe)


#: Every (dim, amount) the generated programs draw over ``a(6,5)``.
DIRECTIONS = [(dim, amount) for dim, extent in ((1, 6), (2, 5))
              for amount in range(-extent - 1, extent + 2)]


@pytest.mark.skipif(_compiler() is None, reason="no C compiler")
@pytest.mark.parametrize("dim,amount", DIRECTIONS)
def test_integer_store_to_a_shifted_source_is_staged_in_c(dim, amount):
    """Life's shape — ``int32`` neighbours read in place, a mask, a
    select, the store to the shifted source staged — as one native
    kernel in every direction (a shift of 0 mod the extent is the
    source itself: nothing to fold)."""
    shift = f"cshift(a, {amount}, {dim})"
    src = (HEAD[2].format(ty="integer") + INIT + "do k = 1, 3\n"
           f"  a = merge(1, a + {shift}, (a == 3) .or. ({shift} > 4))\n"
           "end do\nend\n")
    exe = check(src, targets=("cm2",), in_place=amount % (6, 5)[dim - 1] != 0)
    serials = {get_plan(r).serial for r in exe.routines.values()}
    entries = [kern for key, kern in execplan._MEGA_KERNELS.items()
               if serials & set(key[0])]
    assert entries and all(kern.native for kern in entries)
    run = exe.run(machine=build_machine("cm2", exec_mode="fast"))
    paths = run.machine.fusion_summary()
    assert paths["declined"] == {"c": {}, "blocked": {}}
    if amount % (6, 5)[dim - 1]:
        assert paths["shifts_staged"] == 3 and paths["shifts_folded"] == 0


def test_hoisted_write_behind_a_pending_halo_snapshots_it():
    """``a(2:6) = c(1:5)`` is hoisted over the pending call that reads
    ``cshift(a)`` in place: the call must keep the old ``a`` and the
    batch must not break where it did not break before."""
    src = (HEAD[1].format(ty="double precision") + INIT
           + "b = cshift(a, 1) * 2\na(2:6) = c(1:5)\nc = b + a\nend\n")
    exe = check(src)
    assert folded_temps(exe)
    run = exe.run(machine=build_machine("cm2", exec_mode="fused"))
    paths = run.machine.fusion_summary()
    assert paths["shifts_materialized"] == 1
    assert paths["shifts_folded"] == paths["shifts_staged"] == 0


KEPT = {
    "print": "print *, cshift(a, 1, 1)\n",
    "sum": "s = sum(cshift(a, 1, 1))\nb = a * s\n",
    "sum_and_call": "s = sum(cshift(a, 2, 2))\nb = a + cshift(a, 1, 1)\n",
    "while_condition": "do while (sum(cshift(a, 1, 1)) < 400)\n"
                       "  a = a + cshift(a, 1, 1)\nend do\n",
}


@pytest.mark.parametrize("case", sorted(KEPT))
def test_temporary_with_a_real_reader_stays_materialised(case):
    exe = check(HEAD[2].format(ty="double precision") + INIT
                + KEPT[case] + "end\n", targets=("cm2", "host"))
    # The shift feeding PRINT / SUM / the condition is still a copy.
    assert copied_temps(exe)
    for name in copied_temps(exe):
        assert name in exe.run().arrays


# -- legality on the host program itself ------------------------------------


def _assembled(body: str):
    exe = compile_source(HEAD[1].format(ty="double precision") + INIT
                         + body + "end\n")
    return exe, unfolded(exe).host_program


def _run_ops(exe, ops):
    program = h.HostProgram(name="t", ops=tuple(ops),
                            routines=exe.host_program.routines)
    out = {}
    for folded in (False, True):
        prog = fold_shifts(program, exe.env) if folded else program
        for mode in MODES:
            out[folded, mode] = dataclasses.replace(
                exe, host_program=prog).run(
                    machine=build_machine("cm2", exec_mode=mode))
    base = out[False, "interp"]
    for (folded, mode), got in out.items():
        for name, data in got.arrays.items():
            assert data.tobytes() == base.arrays[name].tobytes(), \
                (folded, mode, name)
        want = out[False, mode].stats
        for field in STAT_FIELDS:
            assert getattr(got.stats, field) == getattr(want, field), \
                (folded, mode, field)
    return fold_shifts(program, exe.env)


def test_source_written_between_shift_and_reader_is_not_folded():
    exe, program = _assembled("a = c + 1\nb = a + cshift(a, 1)\n")
    ops = list(program.ops)
    calls = [i for i, op in enumerate(ops) if isinstance(op, h.NodeCall)]
    shift = next(i for i, op in enumerate(ops)
                 if isinstance(op, h.CommMove))
    writer = calls[-2]            # a = c + 1
    assert writer < shift < calls[-1]
    # Move the shift above the call that writes its source: the reader
    # must now see the *old* a, which only the copy preserves.
    ops.insert(writer, ops.pop(shift))
    folded = _run_ops(exe, ops)
    assert not [op for op in folded.ops if isinstance(op, h.FoldedShift)]
    # In program order the same shift folds.
    assert folded_temps(exe)


def test_temporary_read_by_a_section_copy_stays_materialised():
    exe, program = _assembled("b = a + cshift(a, 1)\n")
    ops = list(program.ops)
    shift = next(i for i, op in enumerate(ops)
                 if isinstance(op, h.CommMove))
    temp = ops[shift].clause.tgt.name
    one = nir.Scalar(nir.INTEGER_32, 1)

    def section(name, lo, hi):
        return nir.AVar(name, nir.Subscript((nir.IndexRange(
            nir.Scalar(nir.INTEGER_32, lo), nir.Scalar(nir.INTEGER_32, hi),
            one),)))

    copy = h.CommMove(clause=nir.MoveClause(
        nir.TRUE, section(temp, 1, 5), section("c", 2, 6)), kind="copy")
    ops.insert(shift + 1, copy)
    folded = _run_ops(exe, ops)
    assert not [op for op in folded.ops if isinstance(op, h.FoldedShift)]
    assert [op for op in folded.ops if isinstance(op, h.Alloc)
            and op.name == temp][0].resident


def test_reader_across_a_join_is_not_folded():
    exe, program = _assembled("b = a + cshift(a, 1)\n")
    ops = list(program.ops)
    reader = ops.pop()            # the call reading the temporary
    assert isinstance(reader, h.NodeCall)
    ops.append(h.IfOp(cond=nir.TRUE, then=(reader,)))
    folded = _run_ops(exe, ops)
    assert not [op for op in walk(folded.ops)
                if isinstance(op, h.FoldedShift)]


def test_folding_is_all_or_nothing():
    exe = compile_source(swe_source(8, 1))
    for op in walk(exe.host_program.ops):
        if isinstance(op, h.Alloc):
            assert op.resident == (op.name not in folded_temps(exe))
        if isinstance(op, h.NodeCall):
            for arg in op.args:
                assert arg.array not in folded_temps(exe)


# -- generated programs -----------------------------------------------------


@st.composite
def programs(draw):
    rank = draw(st.sampled_from([1, 2, 2, 3]))
    ty = draw(st.sampled_from(["double precision", "integer"]))
    extents = {1: (6,), 2: (6, 5), 3: (4, 3, 5)}[rank]
    names = ("a", "b", "c")

    def shift(array):
        dim = draw(st.integers(1, rank))
        amount = draw(st.integers(-extents[dim - 1] - 1,
                                  extents[dim - 1] + 1))
        return f"cshift({array}, {amount}, {dim})"

    def stencil():
        src = draw(st.sampled_from(names))
        terms = [draw(st.sampled_from(
            [shift(src), shift(shift(src)), src, f"{shift(src)} * 2"]))
            for _ in range(draw(st.integers(1, 3)))]
        if not any("cshift" in term for term in terms):
            terms.append(shift(src))
        return src, " + ".join(terms)

    lines = []
    for _ in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(
            ["assign", "assign", "heat", "if", "while", "do", "sum",
             "section", "plain"]))
        tgt = draw(st.sampled_from(names))
        src, expr = stencil()
        if kind == "assign":
            lines.append(f"{tgt} = {expr}")
        elif kind == "heat":
            other = draw(st.sampled_from([n for n in names if n != src]))
            lines += [f"{other} = {expr}", f"{src} = {other}"]
        elif kind == "if":
            lines += [f"if (k > {draw(st.integers(0, 1))}) then",
                      f"  {tgt} = {expr}", "end if"]
        elif kind == "while":
            lines += ["k = 0", "do while (k < 2)", f"  {tgt} = {expr}",
                      "  k = k + 1", "end do", "k = 1"]
        elif kind == "do":
            lines += ["do k = 1, 2", f"  {tgt} = {expr}", "end do",
                      "k = 1"]
        elif kind == "sum":
            lines.append(f"s = sum({shift(src)})")
        elif kind == "section" and rank == 1:
            lines.append(f"{tgt}(2:6) = {src}(1:5)")
        else:
            lines.append(f"{tgt} = {src} * 2 + {tgt}")
    return HEAD[rank].format(ty=ty) + INIT + "\n".join(lines) + "\nend\n"


@given(programs())
@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_programs_fold_transparently(src):
    check(src, targets=("cm2",))


@given(programs())
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_generated_programs_without_a_c_compiler(src):
    """Blocked numpy kernels and materialised copies alone (tiers 2/3)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_FUSED_CC", "0")
        check(src)


# -- accounting did not move ------------------------------------------------

# RunStats (total_cycles, comm_cycles, comm_ops, node_calls, fused_groups,
# ififo_pushes) recorded at the parent commit (382c6c9), before any shift
# was folded.
GOLDEN = {
    "swe/cm2/interp": (40955, 18338, 53, 27, 0, 258),
    "swe/cm2/fast": (40955, 18338, 53, 27, 0, 258),
    "swe/cm2/fused": (29436, 18338, 53, 8, 7, 163),
    "swe/cm5/interp": (56728, 28514, 53, 27, 0, 258),
    "swe/cm5/fast": (56728, 28514, 53, 27, 0, 258),
    "swe/cm5/fused": (41020, 28514, 53, 8, 7, 163),
    "heat/cm2/interp": (7253, 4152, 12, 4, 0, 31),
    "heat/cm2/fast": (7253, 4152, 12, 4, 0, 31),
    "heat/cm2/fused": (7253, 4152, 12, 4, 0, 31),
    "heat/cm5/interp": (10434, 6456, 12, 4, 0, 31),
    "heat/cm5/fast": (10434, 6456, 12, 4, 0, 31),
    "heat/cm5/fused": (10434, 6456, 12, 4, 0, 31),
    "life/cm2/interp": (11834, 8304, 24, 4, 0, 40),
    "life/cm2/fast": (11834, 8304, 24, 4, 0, 40),
    "life/cm2/fused": (11834, 8304, 24, 4, 0, 40),
    "life/cm5/interp": (17308, 12912, 24, 4, 0, 40),
    "life/cm5/fast": (17308, 12912, 24, 4, 0, 40),
    "life/cm5/fused": (17308, 12912, 24, 4, 0, 40),
    "redblack/cm2/interp": (19706, 12578, 33, 9, 0, 77),
    "redblack/cm2/fast": (19706, 12578, 33, 9, 0, 77),
    "redblack/cm2/fused": (19706, 12578, 33, 9, 0, 77),
    "redblack/cm5/interp": (28942, 19884, 33, 9, 0, 77),
    "redblack/cm5/fast": (28942, 19884, 33, 9, 0, 77),
    "redblack/cm5/fused": (28942, 19884, 33, 9, 0, 77),
}


def _golden_source(name: str) -> str:
    if name == "redblack":
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "examples", "redblack.f90")
        with open(path) as f:
            return f.read()
    return {"swe": swe_source, "heat": heat_source,
            "life": life_source}[name](16, 3)


@pytest.mark.parametrize("name", ["swe", "heat", "life", "redblack"])
def test_accounting_matches_the_parent_commit(name):
    src = _golden_source(name)
    for target in ("cm2", "cm5"):
        exe = compile_source(src, CompilerOptions(target=target))
        assert folded_temps(exe) and not copied_temps(exe)
        for mode in MODES:
            stats = exe.run(
                machine=build_machine(target, exec_mode=mode)).stats
            assert tuple(getattr(stats, f) for f in STAT_FIELDS) \
                == GOLDEN[f"{name}/{target}/{mode}"], (target, mode)


# -- cache and store safety -------------------------------------------------


def test_pre_fold_artifacts_are_purged_not_run(tmp_path, monkeypatch):
    """Host programs are pickled into ``backend``/``exe`` artifacts; one
    written before shift folding must be a miss, never run against the
    new binding kinds."""
    from repro.service import store as store_mod
    from repro.service.store import ArtifactStore

    assert store_mod.SCHEMA_VERSION >= 5
    src = heat_source(8, 2)
    with monkeypatch.context() as patch:
        patch.setattr(store_mod, "SCHEMA_VERSION", 4)
        old = ArtifactStore(str(tmp_path))
        compile_source(src, incremental=True, store=old)
        assert old.stats()["entries"] > 0
        key = store_mod.cache_key(src)
    assert key != store_mod.cache_key(src)
    store = ArtifactStore(str(tmp_path))
    assert store.stats()["entries"] == 0
    exe = compile_source(src, incremental=True, store=store)
    assert exe.transformed.trace.artifacts["backend"] == "miss"
    assert folded_temps(exe)
    # A straggler written by an old process after the purge is skewed
    # entry by entry.
    store.put("backend", "k", "obj")
    (path,) = [os.path.join(store.objects, name)
               for name in os.listdir(store.objects) if ".backend." in name
               and name.startswith("k")]
    with open(path, "rb") as f:
        _tag, rest = f.read().split(b"\n", 1)
    with open(path, "wb") as f:
        f.write(b"4:1.0.0\n" + rest)
    assert store.get("backend", "k") is None


# -- which path ran -------------------------------------------------------------


def test_fusion_summary_says_which_path_ran():
    src = heat_source(16, 4)
    exe = compile_source(src)
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    shifts = oracle.machine.fusion_summary()
    # interp can only materialise: 4 shifted operands x 4 steps.
    assert (shifts["shifts_folded"], shifts["shifts_staged"],
            shifts["shifts_materialized"]) == (0, 0, 16)
    fast = exe.run(machine=build_machine("cm2", exec_mode="fast"))
    shifts = fast.machine.fusion_summary()
    # The first step records the binding signature over copies; from
    # then on the stencil reads t in place, and because the same routine
    # stores t that store is staged.
    assert shifts["shifts_materialized"] == 4
    assert shifts["shifts_staged"] == 12 and shifts["shifts_folded"] == 0
    src = ("double precision a(8,8), b(8,8)\ninteger k\n"
           "forall (i=1:8, j=1:8) a(i,j) = i + j\n"
           "do k = 1, 3\n  b = a + cshift(a, 1, 1)\nend do\nend\n")
    run = compile_source(src).run(
        machine=build_machine("cm2", exec_mode="fast"))
    shifts = run.machine.fusion_summary()
    assert shifts["shifts_folded"] == 2 and shifts["shifts_staged"] == 0


#: Shifted operands per run, ``shifts_folded + shifts_staged +
#: shifts_materialized``, of the corpus programs that shift.
SHIFTS = {"heat": 16, "life": 16, "redblack": 16, "cg": 8, "swe8": 162,
          "swe20": 402}
CORPUS = {**ALL_KERNELS, "swe8": lambda: swe_source(32, 8),
          "swe20": lambda: swe_source(32, 20)}


@pytest.mark.parametrize("program", sorted(CORPUS))
def test_shift_counters_are_conserved_across_engines(program):
    """Each path counts the shifted operands it consumes where it
    consumes them — a kernel's launch, a materialised copy, a snapshot —
    so a run's sum is the program's, whichever engine ran it."""
    sums = {}
    for target, mode in (("cm2", "interp"), ("cm2", "fast"),
                         ("cm2", "fused"), ("host", "fused")):
        exe = compile_source(CORPUS[program](),
                             CompilerOptions(target=target), cache=False)
        for run in range(3):
            summary = exe.run(machine=build_machine(
                target, exec_mode=mode)).machine.fusion_summary()
            if run != 1:
                sums[target, mode, run] = sum(
                    summary[f"shifts_{how}"]
                    for how in ("folded", "staged", "materialized"))
    assert set(sums.values()) == {SHIFTS.get(program, 0)}, sums


def test_folded_shift_is_printed_not_dropped():
    from repro.runtime.sparc import render_sparc

    exe = compile_source(swe_source(8, 1))
    text = h.format_host_program(exe.host_program)
    assert "cm_rt cshift (folded) p -> Pk4vs1.r2" in text
    assert "(folded)" in render_sparc(exe.host_program)


def test_traced_comm_wrapper_never_sees_an_unallocated_target():
    """bench/ wraps cmrt.execute_comm and asks the clause for its
    target's home; a folded shift must not hand it a dropped temporary."""
    from repro.runtime import cmrt

    seen = []
    inner = cmrt.execute_comm

    def traced(machine, evaluator, clause, *rest):
        if isinstance(clause.tgt, nir.AVar):
            seen.append(machine.home(clause.tgt.name).data.nbytes)
        else:
            seen.append(0)
        return inner(machine, evaluator, clause, *rest)

    cmrt.execute_comm = traced
    try:
        compile_source(heat_source(8, 2)).run()
    finally:
        cmrt.execute_comm = inner
    assert seen == [0] * 8
