"""Runtime tests: NIR evaluator, CM runtime services, host executor."""

import numpy as np
import pytest

from repro import nir
from repro.machine import Machine, slicewise_model
from repro.runtime import cmrt
from repro.runtime.host import (
    Alloc,
    HostExecutor,
    HostProgram,
    IfOp,
    Loop,
    Print,
    ScalarInit,
    ScalarMove,
    Stop,
    WhileOp,
    format_host_program,
)
from repro.runtime.nir_eval import EvalError, NirEvaluator


def evaluator(arrays=None, scalars=None, domains=None):
    arrays = arrays or {}
    return NirEvaluator(read_array=lambda n: arrays[n],
                        scalars=scalars or {}, domains=domains or {})


class TestNirEvaluator:
    def test_scalar_constant(self):
        assert evaluator().eval(nir.int_const(5)) == 5

    def test_svar(self):
        assert evaluator(scalars={"x": 2.5}).eval(nir.SVar("x")) == 2.5

    def test_unbound_svar_raises(self):
        with pytest.raises(EvalError):
            evaluator().eval(nir.SVar("nope"))

    def test_avar_everywhere(self):
        a = np.arange(6).reshape(2, 3)
        out = evaluator({"a": a}).eval(nir.AVar("a"))
        np.testing.assert_array_equal(out, a)

    def test_section_subscript(self):
        a = np.arange(10)
        field = nir.Subscript((nir.IndexRange(nir.int_const(2),
                                              nir.int_const(8),
                                              nir.int_const(2)),))
        out = evaluator({"a": a}).eval(nir.AVar("a", field))
        np.testing.assert_array_equal(out, [1, 3, 5, 7])

    def test_scalar_subscript_drops_axis(self):
        a = np.arange(12).reshape(3, 4)
        field = nir.Subscript((nir.int_const(2),
                               nir.IndexRange(None, None)))
        out = evaluator({"a": a}).eval(nir.AVar("a", field))
        np.testing.assert_array_equal(out, a[1])

    def test_gather_diagonal(self):
        a = np.arange(16).reshape(4, 4)
        lu = nir.LocalUnder(nir.Interval(1, 4), 1)
        field = nir.Subscript((lu, lu))
        out = evaluator({"a": a}).eval(nir.AVar("a", field))
        np.testing.assert_array_equal(out, [0, 5, 10, 15])

    def test_local_under_coordinates(self):
        shape = nir.ProdDom((nir.Interval(1, 2), nir.Interval(1, 3)))
        out = evaluator().eval(nir.LocalUnder(shape, 2))
        np.testing.assert_array_equal(out, [[1, 2, 3], [1, 2, 3]])

    def test_local_under_through_domain(self):
        out = evaluator(domains={"alpha": nir.Interval(2, 8, 2)}).eval(
            nir.LocalUnder(nir.DomainRef("alpha"), 1))
        np.testing.assert_array_equal(out, [2, 4, 6, 8])

    def test_binary_integer_division(self):
        v = nir.Binary(nir.BinOp.DIV, nir.int_const(-7), nir.int_const(2))
        assert evaluator().eval(v) == -3

    def test_float_division(self):
        v = nir.Binary(nir.BinOp.DIV, nir.float_const(7.0),
                       nir.int_const(2))
        assert evaluator().eval(v) == 3.5

    def test_cshift_semantics(self):
        # CSHIFT(v, SHIFT=s): result(i) = v(i+s), circular.
        a = np.array([1, 2, 3, 4])
        call = nir.FcnCall("cshift", (nir.AVar("a"), nir.int_const(1),
                                      nir.int_const(1)))
        out = evaluator({"a": a}).eval(call)
        np.testing.assert_array_equal(out, [2, 3, 4, 1])

    def test_cshift_negative(self):
        a = np.array([1, 2, 3, 4])
        call = nir.FcnCall("cshift", (nir.AVar("a"), nir.int_const(-1),
                                      nir.int_const(1)))
        out = evaluator({"a": a}).eval(call)
        np.testing.assert_array_equal(out, [4, 1, 2, 3])

    def test_eoshift_boundary(self):
        a = np.array([1, 2, 3, 4])
        call = nir.FcnCall("eoshift", (nir.AVar("a"), nir.int_const(1),
                                       nir.int_const(0), nir.int_const(1)))
        out = evaluator({"a": a}).eval(call)
        np.testing.assert_array_equal(out, [2, 3, 4, 0])

    def test_transpose(self):
        a = np.arange(6).reshape(2, 3)
        out = evaluator({"a": a}).eval(nir.FcnCall("transpose",
                                                   (nir.AVar("a"),)))
        np.testing.assert_array_equal(out, a.T)

    def test_spread(self):
        a = np.array([1, 2, 3])
        call = nir.FcnCall("spread", (nir.AVar("a"), nir.int_const(1),
                                      nir.int_const(2)))
        out = evaluator({"a": a}).eval(call)
        assert out.shape == (2, 3)

    def test_reductions(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        ev = evaluator({"a": a})
        assert ev.eval(nir.FcnCall("sum", (nir.AVar("a"),))) == 10.0
        assert ev.eval(nir.FcnCall("maxval", (nir.AVar("a"),))) == 4.0
        assert ev.eval(nir.FcnCall("minval", (nir.AVar("a"),))) == 1.0
        cnt = ev.eval(nir.FcnCall(
            "count", (nir.Binary(nir.BinOp.GT, nir.AVar("a"),
                                 nir.float_const(1.5)),)))
        assert cnt == 3

    def test_dimensional_reduction(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = evaluator({"a": a}).eval(
            nir.FcnCall("sum", (nir.AVar("a"), nir.int_const(1))))
        np.testing.assert_array_equal(out, [4.0, 6.0])

    def test_merge(self):
        out = evaluator({"m": np.array([True, False])}).eval(
            nir.FcnCall("merge", (nir.int_const(1), nir.int_const(0),
                                  nir.AVar("m"))))
        np.testing.assert_array_equal(out, [1, 0])

    def test_eval_scalar_rejects_arrays(self):
        with pytest.raises(EvalError):
            evaluator({"a": np.arange(4)}).eval_scalar(nir.AVar("a"))


class TestCmrtServices:
    def machine(self):
        m = Machine(slicewise_model(64))
        m.alloc("a", (8,), np.dtype(np.float64))
        m.alloc("b", (8,), np.dtype(np.float64))
        m.set_array("a", np.arange(8.0))
        return m

    def ev(self, m, scalars=None):
        return NirEvaluator(read_array=lambda n: m.home(n).data,
                            scalars=scalars or {})

    def test_cshift_executes_and_charges(self):
        m = self.machine()
        clause = nir.MoveClause(
            nir.TRUE,
            nir.FcnCall("cshift", (nir.AVar("a"), nir.int_const(2),
                                   nir.int_const(1))),
            nir.AVar("b"))
        cmrt.execute_comm(m, self.ev(m), clause, "cshift")
        np.testing.assert_array_equal(m.home("b").data,
                                      np.roll(np.arange(8.0), -2))
        assert m.stats.comm_cycles > 0
        assert m.stats.comm_ops == 1

    def test_copy_into_section(self):
        m = self.machine()
        tgt = nir.AVar("b", nir.Subscript((
            nir.IndexRange(nir.int_const(1), nir.int_const(4)),)))
        src = nir.AVar("a", nir.Subscript((
            nir.IndexRange(nir.int_const(5), nir.int_const(8)),)))
        cmrt.execute_comm(m, self.ev(m), nir.MoveClause(nir.TRUE, src, tgt),
                          "copy")
        np.testing.assert_array_equal(m.home("b").data[:4], [4, 5, 6, 7])

    def test_gather_charges_router(self):
        m = Machine(slicewise_model(64))
        m.alloc("a", (4, 4), np.dtype(np.float64))
        m.alloc("c", (4,), np.dtype(np.float64))
        m.set_array("a", np.arange(16.0).reshape(4, 4))
        lu = nir.LocalUnder(nir.Interval(1, 4), 1)
        src = nir.AVar("a", nir.Subscript((lu, lu)))
        cmrt.execute_comm(m, self.ev(m),
                          nir.MoveClause(nir.TRUE, src, nir.AVar("c")),
                          "gather")
        np.testing.assert_array_equal(m.home("c").data, [0, 5, 10, 15])
        assert m.stats.comm_cycles >= m.model.router_latency

    def test_reduce_into_scalar(self):
        m = self.machine()
        scalars = {}
        clause = nir.MoveClause(
            nir.TRUE, nir.FcnCall("sum", (nir.AVar("a"),)), nir.SVar("s"))
        cmrt.execute_reduce(m, self.ev(m, scalars), clause, scalars)
        assert scalars["s"] == 28.0
        assert m.stats.reductions == 1

    def test_masked_comm_rejected(self):
        m = self.machine()
        clause = nir.MoveClause(
            nir.FALSE, nir.AVar("a"), nir.AVar("b"))
        with pytest.raises(cmrt.RuntimeError_):
            cmrt.execute_comm(m, self.ev(m), clause, "copy")


class TestHostExecutor:
    def run(self, ops, machine=None):
        m = machine or Machine(slicewise_model(64))
        ex = HostExecutor(m)
        ex.run(HostProgram(name="t", ops=tuple(ops)))
        return ex, m

    def test_alloc_and_scalar_init(self):
        ex, m = self.run([
            Alloc("a", (4,), "float64"),
            ScalarInit("x", 3),
        ])
        assert "a" in m.arrays
        assert ex.scalars["x"] == 3

    def test_scalar_move(self):
        ex, _ = self.run([
            ScalarInit("x", 3),
            ScalarMove(nir.MoveClause(
                nir.TRUE,
                nir.Binary(nir.BinOp.MUL, nir.SVar("x"), nir.int_const(2)),
                nir.SVar("y"))),
        ])
        assert ex.scalars["y"] == 6

    def test_loop_binds_index(self):
        ex, _ = self.run([
            ScalarInit("acc", 0),
            Loop("i", 1, 4, 1, (
                ScalarMove(nir.MoveClause(
                    nir.TRUE,
                    nir.Binary(nir.BinOp.ADD, nir.SVar("acc"),
                               nir.SVar("i")),
                    nir.SVar("acc"))),
            )),
        ])
        assert ex.scalars["acc"] == 10
        assert ex.scalars["i"] == 5  # Fortran's exit value: lo + trips*step

    def test_while_loop(self):
        ex, _ = self.run([
            ScalarInit("x", 0),
            WhileOp(nir.Binary(nir.BinOp.LT, nir.SVar("x"),
                               nir.int_const(5)), (
                ScalarMove(nir.MoveClause(
                    nir.TRUE,
                    nir.Binary(nir.BinOp.ADD, nir.SVar("x"),
                               nir.int_const(2)),
                    nir.SVar("x"))),
            )),
        ])
        assert ex.scalars["x"] == 6

    def test_if_branches(self):
        ex, _ = self.run([
            ScalarInit("x", 10),
            IfOp(nir.Binary(nir.BinOp.GT, nir.SVar("x"), nir.int_const(5)),
                 (ScalarInit("y", 1),), (ScalarInit("y", 2),)),
        ])
        assert ex.scalars["y"] == 1

    def test_print_captures_output(self):
        ex, _ = self.run([
            ScalarInit("x", 7),
            Print((nir.SVar("x"),)),
        ])
        assert ex.output == ["7"]

    def test_stop_halts(self):
        ex, _ = self.run([
            ScalarInit("x", 1),
            Stop(),
            ScalarInit("x", 2),
        ])
        assert ex.scalars["x"] == 1

    def test_format_host_program(self):
        prog = HostProgram(name="t", ops=(
            Alloc("a", (4,), "float64"),
            Loop("i", 1, 2, 1, (Print((nir.SVar("i"),)),)),
        ))
        text = format_host_program(prog)
        assert "alloc a[4]" in text
        assert "for i = 1, 2, 1:" in text
        assert "print" in text


@pytest.mark.parametrize("target", ["cm2", "host"])
def test_a_finished_run_frees_its_machine_by_refcount(target):
    """Nothing a run leaves behind may hold its machine in a cycle: the
    simulated arrays of a 512² run are hundreds of MB, and a cycle keeps
    them until the next *full* collection."""
    import gc
    import weakref

    from repro.driver.compiler import CompilerOptions, compile_source

    exe = compile_source("integer a(8)\na = 1\na = a + cshift(a, 1)\nend",
                         CompilerOptions(target=target))
    gc.collect()
    gc.disable()
    try:
        result = exe.run()
        ref = weakref.ref(result.machine)
        del result
        assert ref() is None
    finally:
        gc.enable()
