"""Property-based tests (hypothesis) on core invariants.

* random whole-array expression programs: compiled == reference;
* random shapes: extents/points/size agree; strip-mine partitions;
* random vector IR: allocation preserves dataflow under any pressure;
* PEAC assembler round-trips; region overlap is sound vs enumeration.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nir
from repro.backend.cm2.regalloc import allocate
from repro.backend.cm2.vir import (
    SrcKind,
    StreamSpec,
    VProgram,
    imm,
    stream_src,
    virt,
)
from repro.driver.compiler import CompilerOptions, compile_source
from repro.driver.reference import run_reference
from repro.frontend.parser import parse_program
from repro.machine import Machine, slicewise_model
from repro.peac import Routine, format_routine, parse_routine
from repro.transform import regions as rg

# ---------------------------------------------------------------------------
# Random expression programs
# ---------------------------------------------------------------------------

_ARRAYS = ["a", "b", "c"]


@st.composite
def int_exprs(draw, depth=0):
    """A random integer-elemental expression over arrays a, b, c."""
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(
            _ARRAYS + ["lit"]))
        if leaf == "lit":
            return str(draw(st.integers(min_value=1, max_value=9)))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*"]))
    left = draw(int_exprs(depth=depth + 1))
    right = draw(int_exprs(depth=depth + 1))
    return f"({left} {op} {right})"


@st.composite
def expr_programs(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    lines = [f"integer a({n}), b({n}), c({n})",
             f"forall (i=1:{n}) a(i) = i",
             f"forall (i=1:{n}) b(i) = 2*i - {n}",
             f"forall (i=1:{n}) c(i) = mod(i, 3)"]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        tgt = draw(st.sampled_from(_ARRAYS))
        expr = draw(int_exprs())
        lines.append(f"{tgt} = {expr}")
    lines.append("end")
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(expr_programs())
def test_random_programs_match_reference(source):
    exe = compile_source(source)
    result = exe.run(Machine(slicewise_model(64)))
    ref = run_reference(parse_program(source))
    for name, expected in ref.arrays.items():
        np.testing.assert_array_equal(result.arrays[name], expected)


@settings(max_examples=20, deadline=None)
@given(expr_programs())
def test_naive_and_optimized_agree(source):
    opt = compile_source(source).run(Machine(slicewise_model(64)))
    naive = compile_source(source, CompilerOptions.naive()).run(
        Machine(slicewise_model(64)))
    for name in opt.arrays:
        np.testing.assert_array_equal(opt.arrays[name],
                                      naive.arrays[name])


# ---------------------------------------------------------------------------
# Shapes
# ---------------------------------------------------------------------------


@st.composite
def intervals(draw):
    lo = draw(st.integers(min_value=-5, max_value=20))
    span = draw(st.integers(min_value=0, max_value=30))
    stride = draw(st.integers(min_value=1, max_value=4))
    return nir.Interval(lo, lo + span, stride)


@settings(max_examples=100, deadline=None)
@given(intervals())
def test_interval_extent_matches_point_enumeration(interval):
    pts = list(nir.points(interval))
    assert len(pts) == nir.size(interval)
    assert nir.extents(interval) == (len(pts),)
    # Points are exactly the arithmetic progression.
    assert [p[0] for p in pts] == list(
        range(interval.lo, interval.hi + 1, interval.stride))


@settings(max_examples=50, deadline=None)
@given(st.lists(intervals(), min_size=1, max_size=3))
def test_prod_dom_size_is_product(dims):
    s = nir.ProdDom(tuple(dims))
    assert nir.size(s) == math.prod(nir.size(d) for d in dims)
    assert len(list(nir.points(s))) == nir.size(s)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=64),
       st.integers(min_value=1, max_value=16))
def test_strip_mine_partitions(n, block):
    from repro.transform import strip_mine
    blocks = strip_mine(nir.Interval(1, n), block)
    covered = [p[0] for b in blocks for p in nir.points(b)]
    assert covered == list(range(1, n + 1))
    assert all(nir.size(b) <= block for b in blocks)


# ---------------------------------------------------------------------------
# Regions
# ---------------------------------------------------------------------------


@st.composite
def region_axes(draw, n):
    lo = draw(st.integers(min_value=1, max_value=n))
    hi = draw(st.integers(min_value=lo, max_value=n))
    st_ = draw(st.integers(min_value=1, max_value=3))
    return (lo, hi, st_)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_region_overlap_sound(data):
    """If the analyzer says disjoint, enumeration must agree."""
    n = data.draw(st.integers(min_value=1, max_value=24))
    a = rg.Region((n,), (data.draw(region_axes(n)),))
    b = rg.Region((n,), (data.draw(region_axes(n)),))

    def pts(r):
        lo, hi, step = r.axes[0]
        return set(range(lo, hi + 1, step))

    truly_overlap = bool(pts(a) & pts(b))
    if not rg.regions_overlap(a, b):
        assert not truly_overlap  # "disjoint" must never be wrong


# ---------------------------------------------------------------------------
# Register allocation under pressure
# ---------------------------------------------------------------------------


@st.composite
def vir_programs(draw):
    """Random straight-line programs over a few input streams."""
    p = VProgram()
    n_inputs = draw(st.integers(min_value=1, max_value=4))
    vals = []
    for i in range(n_inputs):
        sid = p.add_stream(StreamSpec(kind="array", array=f"in{i}"))
        vals.append(p.emit("load", (stream_src(sid),)))
    n_ops = draw(st.integers(min_value=1, max_value=24))
    for _ in range(n_ops):
        op = draw(st.sampled_from(["faddv", "fsubv", "fmulv"]))
        a = draw(st.sampled_from(vals))
        b = draw(st.sampled_from(vals + [imm(float(
            draw(st.integers(min_value=1, max_value=5))))]))
        vals.append(p.emit(op, (a, b)))
    out = p.add_stream(StreamSpec(kind="array", array="out",
                                  direction="w"))
    p.emit_store(vals[-1], out)
    return p


def _simulate_vir(ops, streams):
    """Interpret VOps or PhysOps over float stream values."""
    regs, slots = {}, {}
    stored = None
    for op in ops:
        def read(s):
            if s.kind is SrcKind.VIRT:
                return regs[s.index]
            if s.kind is SrcKind.STREAM:
                return streams[s.index]
            return s.value

        name = op.op
        if name == "load":
            regs[op.dst] = read(op.srcs[0])
        elif name == "store":
            stored = read(op.srcs[0])
        elif name == "spill":
            slots[op.slot] = read(op.srcs[0])
        elif name == "restore":
            regs[op.dst] = slots[op.slot]
        elif name == "faddv":
            regs[op.dst] = read(op.srcs[0]) + read(op.srcs[1])
        elif name == "fsubv":
            regs[op.dst] = read(op.srcs[0]) - read(op.srcs[1])
        elif name == "fmulv":
            regs[op.dst] = read(op.srcs[0]) * read(op.srcs[1])
        else:  # pragma: no cover
            raise AssertionError(name)
    return stored


@settings(max_examples=80, deadline=None)
@given(vir_programs(), st.integers(min_value=2, max_value=8))
def test_allocation_preserves_dataflow(program, num_regs):
    streams = {i: float(i * 3 + 1) for i in range(len(program.streams))}
    want = _simulate_vir(program.ops, streams)
    result = allocate(program, num_regs=num_regs)
    got = _simulate_vir(result.ops, streams)
    assert got == want
    # Physical registers stay in range.
    for op in result.ops:
        if op.dst >= 0:
            assert 0 <= op.dst < num_regs


@settings(max_examples=40, deadline=None)
@given(vir_programs())
def test_chaining_preserves_dataflow(program):
    from repro.backend.cm2.chaining import chain_loads
    streams = {i: float(i * 7 + 2) for i in range(len(program.streams))}
    want = _simulate_vir(program.ops, streams)
    arrays = {i: s.array for i, s in enumerate(program.streams)}
    chained = chain_loads(program, arrays)
    got = _simulate_vir(chained.ops, streams)
    assert got == want


# ---------------------------------------------------------------------------
# Assembler round-trip
# ---------------------------------------------------------------------------


@st.composite
def routines(draw):
    from repro.peac import Imm, Instr, Mem, PReg, SReg, VReg

    name = f"Pk{draw(st.integers(min_value=0, max_value=99))}vs1"
    n = draw(st.integers(min_value=1, max_value=10))
    body = []
    for _ in range(n):
        choice = draw(st.integers(min_value=0, max_value=3))
        v = lambda: VReg(draw(st.integers(min_value=0, max_value=7)))
        mem = lambda: Mem(PReg(draw(st.integers(min_value=0, max_value=15))),
                          0, draw(st.sampled_from([0, 1])))
        if choice == 0:
            body.append(Instr("flodv", (mem(), v())))
        elif choice == 1:
            body.append(Instr("fstrv", (v(), mem())))
        elif choice == 2:
            op = draw(st.sampled_from(["faddv", "fsubv", "fmulv",
                                       "fdivv"]))
            body.append(Instr(op, (v(), v(), v())))
        else:
            body.append(Instr(
                "fmav", (v(), SReg(draw(st.integers(min_value=0,
                                                    max_value=31))),
                         Imm(float(draw(st.integers(min_value=0,
                                                    max_value=9)))),
                         v())))
    return Routine(name, body=body)


@settings(max_examples=60, deadline=None)
@given(routines())
def test_assembler_round_trip(routine):
    text = format_routine(routine)
    again = parse_routine(text)
    assert again.name == routine.name
    assert again.body == routine.body


# ---------------------------------------------------------------------------
# Reference interpreter: vectorized FORALL path == per-point path
# ---------------------------------------------------------------------------


@st.composite
def forall_programs(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    body = draw(st.sampled_from([
        "a(i,j) = i*10 + j",
        "a(j,i) = i - j",
        "a(i,j) = b(i,j) * 2",
        "a(i,j) = b(j,i) + i",
        "a(i,j) = mod(i*j, 4)",
    ]))
    mask = draw(st.sampled_from(["", ", i > j", ", mod(i+j, 2) == 0"]))
    return "\n".join([
        f"integer, array({n},{n}) :: a, b",
        f"forall (i=1:{n}, j=1:{n}) b(i,j) = i + j*j",
        f"forall (i=1:{n}, j=1:{n}{mask}) {body}",
        "end",
    ])


@settings(max_examples=40, deadline=None)
@given(forall_programs())
def test_forall_vectorized_matches_per_point(source):
    from repro.driver.reference import Interpreter

    unit = parse_program(source)
    slow = Interpreter(unit)
    # Force the defining per-point path by disabling the fast path.
    slow._exec_forall_vectorized = lambda *a, **k: (_ for _ in ()).throw(
        RuntimeError())
    slow.run()

    fast = Interpreter(unit)
    for stmt in unit.body:
        names = [t.var for t in stmt.triplets]
        ranges = [range(int(fast.eval(t.lo)), int(fast.eval(t.hi)) + 1,
                        int(fast.eval(t.stride)) if t.stride else 1)
                  for t in stmt.triplets]
        fast._exec_forall_vectorized(stmt, names, ranges)

    for name in slow.arrays:
        np.testing.assert_array_equal(slow.arrays[name],
                                      fast.arrays[name])


# ---------------------------------------------------------------------------
# Random strided-section programs: the Figure 10 padding path
# ---------------------------------------------------------------------------


@st.composite
def section_programs(draw):
    n = draw(st.integers(min_value=6, max_value=20))
    lines = [f"integer a({n}), b({n})",
             f"forall (i=1:{n}) a(i) = i * 3 - {n}",
             f"forall (i=1:{n}) b(i) = {n} - i"]
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        lo = draw(st.integers(min_value=1, max_value=n // 2))
        hi = draw(st.integers(min_value=lo, max_value=n))
        stride = draw(st.integers(min_value=1, max_value=3))
        tgt, src = draw(st.sampled_from([("a", "b"), ("b", "a"),
                                         ("a", "a"), ("b", "b")]))
        rhs = draw(st.sampled_from([
            f"{src}({lo}:{hi}:{stride}) + 1",
            f"2 * {src}({lo}:{hi}:{stride})",
            f"{tgt}({lo}:{hi}:{stride}) - {src}({lo}:{hi}:{stride})",
        ]))
        lines.append(f"{tgt}({lo}:{hi}:{stride}) = {rhs}")
    lines.append("end")
    return "\n".join(lines)


@settings(max_examples=40, deadline=None)
@given(section_programs())
def test_random_section_programs_match_reference(source):
    exe = compile_source(source)
    result = exe.run(Machine(slicewise_model(64)))
    ref = run_reference(parse_program(source))
    for name, expected in ref.arrays.items():
        np.testing.assert_array_equal(result.arrays[name], expected)


# ---------------------------------------------------------------------------
# Random stencil programs: standard vs neighborhood model equality
# ---------------------------------------------------------------------------


@st.composite
def stencil_programs(draw):
    n = draw(st.integers(min_value=4, max_value=12))
    lines = [f"integer u({n},{n}), v({n},{n})",
             f"forall (i=1:{n}, j=1:{n}) u(i,j) = i*{n} + j",
             f"forall (i=1:{n}, j=1:{n}) v(i,j) = i - j"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        tgt, src = draw(st.sampled_from([("u", "v"), ("v", "u"),
                                         ("u", "u")]))
        terms = []
        for _ in range(draw(st.integers(min_value=1, max_value=3))):
            shift = draw(st.integers(min_value=-2, max_value=2))
            dim = draw(st.integers(min_value=1, max_value=2))
            terms.append(f"cshift({src}, {shift}, {dim})")
        lines.append(f"{tgt} = {' + '.join(terms)} + {src}")
    lines.append("end")
    return "\n".join(lines)


@settings(max_examples=30, deadline=None)
@given(stencil_programs())
def test_neighborhood_model_agrees_with_standard(source):
    standard = compile_source(source).run(Machine(slicewise_model(64)))
    nbhd = compile_source(source, CompilerOptions.neighborhood()).run(
        Machine(slicewise_model(64)))
    ref = run_reference(parse_program(source))
    for name, expected in ref.arrays.items():
        np.testing.assert_array_equal(standard.arrays[name], expected)
        np.testing.assert_array_equal(nbhd.arrays[name], expected)


# ---------------------------------------------------------------------------
# NIR abstract machine agrees with the compiled machine on random programs
# ---------------------------------------------------------------------------


@settings(max_examples=25, deadline=None)
@given(expr_programs())
def test_nir_interpreter_agrees(source):
    from repro.lowering import check_program, lower_program
    from repro.nir.interp import run_nir
    from repro.transform import optimize

    lowered = lower_program(parse_program(source))
    check_program(lowered.nir, lowered.env)
    optimized = optimize(lowered)
    nir_result = run_nir(optimized.nir, optimized.env)
    compiled = compile_source(source).run(Machine(slicewise_model(64)))
    for name in compiled.arrays:
        if name.startswith(("tmp", "stmp")):
            continue
        np.testing.assert_array_equal(nir_result.arrays[name],
                                      compiled.arrays[name])


# ---------------------------------------------------------------------------
# Front-end robustness: arbitrary text never crashes with a foreign error
# ---------------------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
               max_size=120))
def test_parser_total_on_ascii_garbage(text):
    from repro.frontend.lexer import LexError
    from repro.frontend.parser import ParseError
    from repro.frontend.inline import InlineError

    try:
        parse_program(text)
    except (LexError, ParseError, InlineError):
        pass  # rejecting with a diagnostic is the contract


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from([
    "integer a(8)", "a = 1", "do i = 1, 4", "end do", "end", "where (m)",
    "end where", "forall (i=1:4) a(i) = i", "if (x) then", "endif",
    "call f(a)", "print *, a", "10 continue", "a(1:4) = a(5:8)",
]), max_size=10))
def test_parser_total_on_shuffled_statements(lines):
    from repro.frontend.lexer import LexError
    from repro.frontend.parser import ParseError
    from repro.frontend.inline import InlineError

    try:
        parse_program("\n".join(lines))
    except (LexError, ParseError, InlineError):
        pass


# ---------------------------------------------------------------------------
# Geometry invariants
# ---------------------------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=300), min_size=1,
                max_size=3),
       st.sampled_from([1, 2, 8, 64, 512, 2048]))
def test_geometry_invariants(extents, n_pes):
    from repro.machine.geometry import make_geometry

    g = make_geometry(tuple(extents), n_pes)
    # Never more PEs along an axis than elements.
    for e, p in zip(g.extents, g.pe_grid):
        assert 1 <= p <= e
    # The PE grid is a power-of-two factorization within budget.
    assert g.pes_used <= n_pes
    assert g.pes_used & (g.pes_used - 1) == 0
    # Subgrids cover the array: ceil division exactly (trailing PEs may
    # sit idle when the extent doesn't divide, but never a smaller block).
    for e, p, s in zip(g.extents, g.pe_grid, g.subgrid):
        assert p * s >= e
        assert s == -(-e // p)
    assert g.vlen >= 1
