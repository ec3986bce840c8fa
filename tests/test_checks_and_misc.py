"""Checker error paths, environment details, executor opcode coverage."""

import numpy as np
import pytest

from repro import nir
from repro.frontend.parser import parse_program
from repro.lowering import CheckError, build_environment, check_program
from repro.lowering.environment import Environment, Symbol
from repro.machine import SubgridStream, VectorExecutor, slicewise_model
from repro.machine.costs import cm5_model
from repro.peac import Imm, Instr, Mem, PReg, Routine, SReg, VReg


def program_with(body: nir.Imperative, env: Environment) -> nir.Program:
    from repro.transform.pipeline import wrap_body

    return wrap_body(body, env, "t")


@pytest.fixture
def env():
    return build_environment(parse_program(
        "integer a(8), b(8)\ninteger x\nlogical m(8)\nend"))


class TestCheckerErrors:
    def check(self, body, env):
        check_program(program_with(body, env), env)

    def test_valid_program_passes(self, env):
        self.check(nir.move1(nir.int_const(1), nir.AVar("a")), env)

    def test_nonlogical_mask_rejected(self, env):
        move = nir.move1(nir.int_const(1), nir.AVar("a"),
                         mask=nir.int_const(1))
        with pytest.raises(CheckError, match="mask"):
            self.check(move, env)

    def test_move_target_must_be_storage(self, env):
        move = nir.Move((nir.MoveClause(
            nir.TRUE, nir.int_const(1), nir.int_const(2)),))
        with pytest.raises(CheckError, match="storage"):
            self.check(move, env)

    def test_logical_arith_mix_rejected(self, env):
        move = nir.move1(nir.AVar("m"), nir.AVar("a"))
        with pytest.raises(CheckError, match="logical"):
            self.check(move, env)

    def test_array_to_scalar_rejected(self, env):
        move = nir.move1(nir.AVar("a"), nir.SVar("x"))
        with pytest.raises(CheckError, match="scalar"):
            self.check(move, env)

    def test_array_mask_on_scalar_move_rejected(self, env):
        mask = nir.Binary(nir.BinOp.GT, nir.AVar("a"), nir.int_const(0))
        move = nir.move1(nir.int_const(1), nir.SVar("x"), mask=mask)
        with pytest.raises(CheckError, match="mask"):
            self.check(move, env)

    def test_nonscalar_condition_rejected(self, env):
        cond = nir.Binary(nir.BinOp.GT, nir.AVar("a"), nir.int_const(0))
        node = nir.IfThenElse(cond, nir.Skip())
        with pytest.raises(CheckError, match="scalar"):
            self.check(node, env)

    def test_nonlogical_condition_rejected(self, env):
        node = nir.While(nir.SVar("x"), nir.Skip())
        with pytest.raises(CheckError, match="logical"):
            self.check(node, env)

    def test_unbound_domain_in_do_rejected(self, env):
        node = nir.Do(nir.DomainRef("ghost"), nir.Skip())
        with pytest.raises(CheckError, match="unbound"):
            self.check(node, env)

    def test_mask_shape_must_conform(self, env):
        # 8-element mask on a scalar-subscript (single-element) target.
        mask = nir.Binary(nir.BinOp.GT, nir.AVar("a"), nir.int_const(0))
        tgt = nir.AVar("a", nir.Subscript((nir.int_const(1),)))
        with pytest.raises(CheckError):
            self.check(nir.move1(nir.int_const(1), tgt, mask=mask), env)


def two_domain_env() -> Environment:
    """``a`` on alpha, ``b`` on beta: both 8 long, so ``a = b`` conforms
    until a scope rebinds one of the domains."""
    env = Environment()
    env.domains.update(alpha=nir.Interval(1, 8), beta=nir.Interval(1, 8))
    for name, dom in (("a", "alpha"), ("b", "beta")):
        env.declare(Symbol(name, nir.DField(nir.DomainRef(dom),
                                            nir.INTEGER_32),
                           extents=(8,), domain=dom))
    return env


class TestMemoisedChecks:
    """The compile's inference memo must never vouch for a fact that no
    longer holds (docs/PIPELINE.md §9, "Each fact once")."""

    COPY = nir.move1(nir.AVar("b"), nir.AVar("a"))

    def test_shape_error_injected_by_a_pass_is_caught_by_recheck(self):
        """A pass rewires a clause the first check passed to a target of
        another shape: its values are memo hits, the clause is not."""
        import dataclasses

        from repro.lowering import lower_program
        from repro.pipeline import Memos, PassManager
        from repro.transform import Options
        from repro.transform.passes import default_pipeline
        from repro.transform.pipeline import TransformReport

        memos = Memos()
        lowered = lower_program(parse_program(
            "real u(8), v(8), w(4)\nu = v + 1.0\nw = 2.0\nend"),
            memos.infer)
        check_program(lowered.nir, lowered.env, memos.infer)
        passed = [key[1] for key in memos.infer
                  if isinstance(key, tuple) and key[0] == "shape"]
        assert len(passed) == 2 and all(
            ("type", clause) in memos.infer for clause in passed)

        def retarget(clause):
            if clause.tgt == nir.AVar("u"):
                return dataclasses.replace(clause, tgt=nir.AVar("w"))
            return clause

        def corrupt(ctx):  # a body pass over the two statements
            return nir.seq(*(nir.Move(tuple(map(retarget, move.clauses)))
                             for move in ctx.node.actions))

        passes = [dataclasses.replace(p, run=corrupt) if p.name == "dse"
                  else p for p in default_pipeline()]
        src = next(c.src for c in passed if c.tgt == nir.AVar("u"))
        assert src in memos.infer and nir.AVar("w") in memos.infer
        with pytest.raises(CheckError,
                           match=r"do not conform: \(4,\) <- \(8,\)"):
            PassManager(passes, memos=memos).run(
                lowered.nir, lowered.env, Options(), TransformReport())

    def test_passed_clause_is_rejected_where_a_binding_breaks_it(self):
        env = two_domain_env()
        body = nir.seq(self.COPY,
                       nir.WithDomain("beta", nir.Interval(1, 4), self.COPY))
        with pytest.raises(CheckError) as info:
            check_program(program_with(body, env), env)
        assert str(info.value) == "MOVE shapes do not conform: (8,) <- (4,)"

    def test_rebinding_a_domain_drops_remembered_shapes(self):
        """``a``'s shape is remembered under alpha = 8 before the scope
        narrows alpha to 4; the clause inside is new, its target not."""
        env = two_domain_env()
        body = nir.seq(self.COPY, nir.WithDomain(
            "alpha", nir.Interval(1, 4), nir.move1(
                nir.Binary(nir.BinOp.ADD, nir.AVar("b"), nir.int_const(0)),
                nir.AVar("a"))))
        with pytest.raises(CheckError) as info:
            check_program(program_with(body, env), env)
        assert str(info.value) == "MOVE shapes do not conform: (4,) <- (8,)"

    def test_hand_built_rebinding_keeps_todays_message(self):
        env = two_domain_env()
        body = nir.WithDomain("alpha", nir.Interval(1, 4), self.COPY)
        with pytest.raises(CheckError) as info:
            check_program(program_with(body, env), env)
        assert str(info.value) == "MOVE shapes do not conform: (4,) <- (8,)"


class TestEnvironmentDetails:
    def test_fresh_temp_registers_domain(self, env):
        sym = env.fresh_temp((5, 5), nir.FLOAT_64)
        assert sym.name.startswith("tmp")
        assert sym.domain in env.domains
        assert nir.extents(env.domains[sym.domain]) == (5, 5)

    def test_fresh_temps_unique(self, env):
        names = {env.fresh_temp((4,), nir.FLOAT_64).name
                 for _ in range(5)}
        assert len(names) == 5

    def test_fresh_scalar_temp(self, env):
        sym = env.fresh_scalar_temp(nir.INTEGER_32)
        assert not sym.is_array
        assert sym.element == nir.INTEGER_32

    def test_domain_reused_for_same_extents(self, env):
        d1 = env.domain_for((9, 9))
        d2 = env.domain_for((9, 9))
        assert d1 == d2

    def test_many_domains_roll_past_greek(self):
        env = Environment()
        names = [env.domain_for((i + 1,)) for i in range(30)]
        assert len(set(names)) == 30
        assert names[0] == "alpha"
        assert any(n.startswith("dom") for n in names)

    def test_nir_declarations_initialized_scalars(self):
        env = build_environment(parse_program(
            "integer, parameter :: n = 3\ndouble precision :: t = 1.5\n"
            "end"))
        decls = env.nir_declarations()
        inits = nir.initial_values(decls)
        assert inits["n"] == nir.Scalar(nir.INTEGER_32, 3)
        assert inits["t"] == nir.Scalar(nir.FLOAT_64, 1.5)


class TestExecutorOpcodes:
    def run1(self, instrs, pointers=None, scalars=None):
        ex = VectorExecutor()
        for preg, arr in (pointers or {}).items():
            ex.bind_pointer(PReg(preg), SubgridStream(arr))
        for sreg, val in (scalars or {}).items():
            ex.bind_scalar(SReg(sreg), val)
        ex.run(Routine("t", body=instrs))
        return ex

    def test_transcendentals(self):
        a = np.array([0.0, np.pi / 2])
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fsinv", (VReg(0), VReg(1))),
            Instr("fcosv", (VReg(0), VReg(2))),
            Instr("fexpv", (VReg(0), VReg(3))),
        ], pointers={0: a})
        np.testing.assert_allclose(ex.vregs[1], np.sin(a))
        np.testing.assert_allclose(ex.vregs[2], np.cos(a))
        np.testing.assert_allclose(ex.vregs[3], np.exp(a))

    def test_sqrt_abs_neg(self):
        a = np.array([4.0, -9.0])
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fabsv", (VReg(0), VReg(1))),
            Instr("fsqrtv", (VReg(1), VReg(2))),
            Instr("fnegv", (VReg(2), VReg(3))),
        ], pointers={0: a})
        np.testing.assert_allclose(ex.vregs[3], [-2.0, -3.0])

    def test_conversions(self):
        a = np.array([2.7, -2.7])
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("fintv", (VReg(0), VReg(1))),   # truncation toward 0
            Instr("ffloorv", (VReg(0), VReg(2))),
            Instr("fceilv", (VReg(0), VReg(3))),
            Instr("fdblv", (VReg(1), VReg(4))),
        ], pointers={0: a})
        np.testing.assert_array_equal(ex.vregs[1], [2, -2])
        np.testing.assert_array_equal(ex.vregs[2], [2, -3])
        np.testing.assert_array_equal(ex.vregs[3], [3, -2])
        assert ex.vregs[4].dtype == np.float64

    def test_min_max_mod_pow(self):
        a = np.array([5.0, 2.0])
        b = np.array([3.0, 8.0])
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("flodv", (Mem(PReg(1)), VReg(1))),
            Instr("fminv", (VReg(0), VReg(1), VReg(2))),
            Instr("fmaxv", (VReg(0), VReg(1), VReg(3))),
            Instr("fmodv", (VReg(0), VReg(1), VReg(4))),
            Instr("fpowv", (VReg(0), Imm(2.0), VReg(5))),
        ], pointers={0: a, 1: b})
        np.testing.assert_array_equal(ex.vregs[2], [3.0, 2.0])
        np.testing.assert_array_equal(ex.vregs[3], [5.0, 8.0])
        np.testing.assert_array_equal(ex.vregs[4], [2.0, 2.0])
        np.testing.assert_array_equal(ex.vregs[5], [25.0, 4.0])

    def test_logical_ops(self):
        m1 = np.array([True, True, False])
        m2 = np.array([True, False, False])
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("flodv", (Mem(PReg(1)), VReg(1))),
            Instr("candv", (VReg(0), VReg(1), VReg(2))),
            Instr("corv", (VReg(0), VReg(1), VReg(3))),
            Instr("cxorv", (VReg(0), VReg(1), VReg(4))),
            Instr("cnotv", (VReg(0), VReg(5))),
        ], pointers={0: m1, 1: m2})
        np.testing.assert_array_equal(ex.vregs[2], [True, False, False])
        np.testing.assert_array_equal(ex.vregs[3], [True, True, False])
        np.testing.assert_array_equal(ex.vregs[4], [False, True, False])
        np.testing.assert_array_equal(ex.vregs[5], [False, False, True])

    def test_integer_mod_sign(self):
        a = np.array([-7, 7], dtype=np.int32)
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("imodv", (VReg(0), Imm(3), VReg(1))),
        ], pointers={0: a})
        # Fortran MOD takes the dividend's sign.
        np.testing.assert_array_equal(ex.vregs[1], [-1, 1])

    def test_integer_immediate_stays_integer(self):
        a = np.array([2_000_000_000], dtype=np.int32)
        ex = self.run1([
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("iaddv", (VReg(0), Imm(2_000_000_000), VReg(1))),
        ], pointers={0: a})
        # int32 wraparound, not float64 rounding.
        assert ex.vregs[1].dtype == np.int32

    def test_fmovv_immediate(self):
        ex = self.run1([Instr("fmovv", (Imm(3.5), VReg(0)))])
        assert float(np.asarray(ex.vregs[0])) == 3.5


class TestCostModels:
    def test_cm5_model_parameters(self):
        m = cm5_model()
        assert m.clock_hz == 32e6
        assert m.n_pes == 256
        assert m.fma_supported

    def test_with_override(self):
        m = slicewise_model().with_(n_pes=128)
        assert m.n_pes == 128
        assert slicewise_model().n_pes == 2048  # original untouched

    def test_unknown_kind_cost_raises(self):
        with pytest.raises(KeyError):
            slicewise_model().instr.for_kind("teleport")


def test_every_environment_switch_is_in_the_docs_table():
    """A new ``REPRO_*`` knob has to be written down to pass: the names
    read under ``src/`` are exactly the rows of the switch table in
    ``docs/PIPELINE.md``."""
    import pathlib
    import re

    root = pathlib.Path(__file__).resolve().parent.parent
    in_src = set()
    for path in (root / "src").rglob("*.py"):
        in_src |= set(re.findall(r"REPRO_[A-Z_]+", path.read_text()))
    pipeline = (root / "docs" / "PIPELINE.md").read_text()
    table = pipeline[pipeline.index("## Environment switches"):]
    table = table[:table.index("\n## ", 1)]
    documented = set(re.findall(r"^\| `(REPRO_[A-Z_]+)` \|", table,
                                flags=re.MULTILINE))
    assert in_src == documented
