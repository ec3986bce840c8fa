"""The verifier suite: NIR well-formedness, dependence audits, PEAC
invariants, inter-pass hooks, and the service/machine verify plumbing."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nir
from repro.analysis import VerifyError
from repro.analysis.dep_audit import audit_fusion, audit_schedule
from repro.analysis.nir_verifier import (assert_valid, region_of_mask,
                                         verify_program)
from repro.analysis.peac_verifier import verify_routine
from repro.driver.compiler import CompilerOptions, compile_source
from repro.frontend.parser import parse_program
from repro.lowering.lower import lower_program
from repro.machine import Machine, slicewise_model
from repro.peac.isa import (NUM_PREGS, CReg, Instr, Mem, ParamSpec, PReg,
                            Routine, SReg, VReg)
from repro.programs.kernels import heat_source
from repro.service.jobs import execute_request
from repro.service.metrics import ServiceMetrics
from repro.transform import regions as rg
from repro.transform.masking import MaskPadder
from repro.transform.phases import PhaseClassifier
from repro.transform.pipeline import Options, optimize

SWE = open("examples/swe.f90").read()

SMALL = """
program small
  real :: a(8), b(8), c(8)
  real :: s
  a = 1.0
  b = a * 2.0
  c = cshift(a, 1) + b
  s = sum(c)
  print *, s
end program small
"""


def lower(source):
    return lower_program(parse_program(source))


# ---------------------------------------------------------------------------
# Level 1: NIR verifier
# ---------------------------------------------------------------------------


class TestNirVerifier:
    def test_lowered_program_is_clean(self):
        low = lower(SMALL)
        assert verify_program(low.nir, low.env) == []

    def test_optimized_program_is_clean(self):
        low = lower(SWE)
        opt = optimize(low, Options())
        assert verify_program(opt.nir, opt.env) == []

    def test_undeclared_reference_is_v301(self):
        low = lower(SMALL)
        bad = nir.move1(nir.SVar("ghost"), nir.SVar("s"))
        codes = [d.code for d in verify_program(bad, low.env)]
        assert codes == ["V301"]

    def test_shape_mismatch_is_v303(self):
        low = lower(SMALL)
        # 'a' has 8 elements, 's' is scalar: array value into scalar.
        bad = nir.move1(nir.AVar("a", nir.Everywhere()), nir.SVar("s"))
        codes = [d.code for d in verify_program(bad, low.env)]
        assert "V303" in codes

    def test_arith_mask_is_v302(self):
        low = lower(SMALL)
        bad = nir.move1(nir.SVar("s"), nir.SVar("s"),
                        mask=nir.int_const(1))
        codes = [d.code for d in verify_program(bad, low.env)]
        assert "V302" in codes

    def test_nested_program_is_v305(self):
        low = lower(SMALL)
        bad = nir.Program(nir.Program(nir.Skip()))
        codes = [d.code for d in verify_program(bad, low.env)]
        assert "V305" in codes

    def test_assert_valid_raises_with_stage(self):
        low = lower(SMALL)
        bad = nir.move1(nir.SVar("ghost"), nir.SVar("s"))
        with pytest.raises(VerifyError) as exc:
            assert_valid(bad, low.env, "unit-test-stage")
        assert exc.value.stage == "unit-test-stage"
        assert "unit-test-stage" in str(exc.value)

    def test_region_mask_reverse_parses(self):
        low = lower(SMALL)
        sym = low.env.lookup("a")
        shape = low.env.domains[sym.domain]
        padder = MaskPadder(low.env)
        region = rg.Region(sym.extents, axes=((2, 7, 1),))
        mask = padder.region_mask(shape, sym.extents, region)
        assert region_of_mask(mask, sym.extents) == [(2, 7, 1)]

    def test_out_of_bounds_region_mask_is_v307(self):
        low = lower(SMALL)
        sym = low.env.lookup("a")
        shape = low.env.domains[sym.domain]
        padder = MaskPadder(low.env)
        # Selects 2:12 on an 8-element axis: outside declared bounds.
        # (Build the mask against a 13-wide base so both bound
        # conditions are emitted, then apply it to the 8-wide array.)
        region = rg.Region((13,), axes=((2, 12, 1),))
        mask = padder.region_mask(shape, (13,), region)
        bad = nir.move1(nir.AVar("b", nir.Everywhere()),
                        nir.AVar("a", nir.Everywhere()), mask=mask)
        codes = [d.code for d in verify_program(bad, low.env)]
        assert "V307" in codes

    def test_user_masks_are_not_region_masks(self):
        # A data-dependent mask must parse to None, never a region.
        mask = nir.Binary(nir.BinOp.GT, nir.AVar("a", nir.Everywhere()),
                          nir.Scalar(nir.FLOAT_32, 0.0))
        assert region_of_mask(mask, (8,)) is None


# ---------------------------------------------------------------------------
# Level 2: dependence audit
# ---------------------------------------------------------------------------


def split_phases(source):
    low = lower(source)
    opt = optimize(low, Options(block=False, fuse=False, pad_masks=False))
    body = opt.inner_body()
    assert isinstance(body, nir.Sequentially)
    classifier = PhaseClassifier(low.env)
    return classifier.split(body), low.env


class TestDepAudit:
    def test_identity_schedule_is_clean(self):
        phases, env = split_phases(SMALL)
        assert audit_schedule(phases, phases, env) == []

    def test_reversal_violates_dependences(self):
        phases, env = split_phases(SMALL)
        diags = audit_schedule(phases, list(reversed(phases)), env)
        assert diags and all(d.code == "D402" for d in diags)

    def test_dropped_phase_is_d401(self):
        phases, env = split_phases(SMALL)
        diags = audit_schedule(phases, phases[:-1], env)
        assert [d.code for d in diags] == ["D401"]

    def test_identity_fusion_is_clean(self):
        phases, _env = split_phases(SMALL)
        assert audit_fusion(phases, phases) == []

    def test_dropped_clause_is_d403(self):
        phases, _env = split_phases(SMALL)
        assert any(isinstance(p.node, nir.Move) for p in phases)
        chopped = phases[:-1]
        diags = audit_fusion(phases, chopped)
        assert diags and diags[0].code == "D403"


# ---------------------------------------------------------------------------
# Level 3: PEAC verifier
# ---------------------------------------------------------------------------


def make_routine(body, spill_slots=0, n_streams=2, n_scalars=0):
    params = [ParamSpec(kind="subgrid", name=f"arr{i}", reg=PReg(i))
              for i in range(n_streams)]
    params += [ParamSpec(kind="scalar", name=f"s{i}", reg=SReg(31 - i))
               for i in range(n_scalars)]
    return Routine(name="t", params=params, body=body,
                   spill_slots=spill_slots)


class TestPeacVerifier:
    def test_compiled_routines_are_clean(self):
        exe = compile_source(SWE, CompilerOptions.optimized())
        assert exe.routines
        for routine in exe.routines.values():
            assert verify_routine(routine) == []

    def test_read_before_def_is_p501(self):
        r = make_routine([
            Instr("faddv", (VReg(3), VReg(4), VReg(0))),
        ])
        codes = [d.code for d in verify_routine(r)]
        assert codes.count("P501") == 2

    def test_spill_slot_out_of_range_is_p502(self):
        r = make_routine([
            Instr("flodv", (Mem(PReg(0), 0, 1), VReg(0))),
            Instr("fstrv", (VReg(0), Mem(PReg(NUM_PREGS - 1), 0, 0))),
        ], spill_slots=0)
        codes = [d.code for d in verify_routine(r)]
        assert "P502" in codes

    def test_restore_before_spill_is_p503(self):
        r = make_routine([
            Instr("flodv", (Mem(PReg(NUM_PREGS - 1), 0, 0), VReg(0))),
        ], spill_slots=1)
        codes = [d.code for d in verify_routine(r)]
        assert "P503" in codes

    def test_unbound_stream_is_p504(self):
        r = make_routine([
            Instr("flodv", (Mem(PReg(9), 0, 1), VReg(0))),
        ], n_streams=2)
        codes = [d.code for d in verify_routine(r)]
        assert "P504" in codes

    def test_unbound_scalar_is_p505(self):
        r = make_routine([
            Instr("flodv", (Mem(PReg(0), 0, 1), VReg(0))),
            Instr("fmulv", (SReg(5), VReg(0), VReg(1))),
        ], n_scalars=0)
        codes = [d.code for d in verify_routine(r)]
        assert "P505" in codes

    def test_chained_mem_on_move_is_p506(self):
        r = make_routine([
            Instr("fmovv", (Mem(PReg(0), 0, 1), VReg(0))),
        ])
        codes = [d.code for d in verify_routine(r)]
        assert "P506" in codes

    def test_paired_load_clobbering_dest_is_p507(self):
        load = Instr("flodv", (Mem(PReg(1), 0, 1), VReg(2)))
        r = make_routine([
            Instr("flodv", (Mem(PReg(0), 0, 1), VReg(0))),
            Instr("flodv", (Mem(PReg(1), 0, 1), VReg(1))),
            Instr("faddv", (VReg(0), VReg(1), VReg(2)), paired=load),
        ])
        codes = [d.code for d in verify_routine(r)]
        assert "P507" in codes

    def test_legal_pair_is_clean(self):
        load = Instr("flodv", (Mem(PReg(1), 0, 1), VReg(3)))
        r = make_routine([
            Instr("flodv", (Mem(PReg(0), 0, 1), VReg(0))),
            Instr("flodv", (Mem(PReg(1), 0, 1), VReg(1))),
            Instr("faddv", (VReg(0), VReg(1), VReg(2)), paired=load),
        ])
        assert verify_routine(r) == []


# ---------------------------------------------------------------------------
# Inter-pass hooks: a corrupted transform is caught and named
# ---------------------------------------------------------------------------


class TestPipelineHooks:
    def test_corrupted_dse_pass_is_named(self, monkeypatch):
        import repro.transform.passes as pl

        orig = pl._eliminate_dead_scalar_stores

        def corrupt(node, candidates):
            node = orig(node, candidates)

            def rename(n):
                if isinstance(n, nir.Move):
                    return nir.Move(tuple(
                        nir.MoveClause(
                            c.mask, c.src,
                            nir.SVar("bogus_xyz")
                            if isinstance(c.tgt, nir.SVar) else c.tgt)
                        for c in n.clauses))
                if isinstance(n, nir.Sequentially):
                    return nir.seq(*[rename(a) for a in n.actions])
                return n

            return rename(node)

        monkeypatch.setattr(pl, "_eliminate_dead_scalar_stores", corrupt)
        with pytest.raises(VerifyError) as exc:
            optimize(lower(SWE), Options(), verify=True)
        assert exc.value.stage == "dse"
        assert any(d.code == "V301" for d in exc.value.diagnostics)

    def test_corrupted_schedule_is_named(self, monkeypatch):
        import repro.transform.passes as pl

        orig = pl.schedule_phases

        def reverse(phases, report=None):
            return list(reversed(orig(phases, report)))

        monkeypatch.setattr(pl, "schedule_phases", reverse)
        with pytest.raises(VerifyError) as exc:
            optimize(lower(SWE), Options(), verify=True)
        assert exc.value.stage == "block/schedule"
        assert all(d.code == "D402" for d in exc.value.diagnostics)

    def test_verify_off_misses_the_corruption(self, monkeypatch):
        # The same corrupted schedule sails through unverified — the
        # audit, not luck, is what catches it.
        import repro.transform.passes as pl

        orig = pl.schedule_phases
        monkeypatch.setattr(
            pl, "schedule_phases",
            lambda phases, report=None: list(
                reversed(orig(phases, report))))
        optimize(lower(SWE), Options(), verify=False)

    def test_repro_verify_env_enables_hooks(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        opt = optimize(lower(SWE))
        assert verify_program(opt.nir, opt.env) == []

    def test_end_to_end_verified_compile_and_run(self):
        exe = compile_source(
            SWE, CompilerOptions(verify=True), cache=False)
        result = exe.run(Machine(slicewise_model(64)))
        assert result.arrays and result.stats.node_calls > 0


# ---------------------------------------------------------------------------
# Property: verifier-clean programs stay clean through the pipeline
# ---------------------------------------------------------------------------


@st.composite
def array_programs(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    lines = [f"integer a({n}), b({n}), c({n})",
             f"forall (i=1:{n}) a(i) = i",
             "b = a * 2",
             "c = a + b"]
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        tgt, src1, src2 = (draw(st.sampled_from(["a", "b", "c"]))
                           for _ in range(3))
        op = draw(st.sampled_from(["+", "-", "*"]))
        lines.append(f"{tgt} = {src1} {op} {src2}")
    if draw(st.booleans()):
        lines.append(f"a = cshift(b, {draw(st.integers(-2, 2))})")
    lines.append("end")
    return "\n".join(lines)


@settings(max_examples=25, deadline=None)
@given(array_programs())
def test_verifier_clean_survives_optimization(source):
    low = lower(source)
    assert verify_program(low.nir, low.env) == []
    opt = optimize(low, Options(), verify=True)  # hooks raise on failure
    assert verify_program(opt.nir, opt.env) == []


# ---------------------------------------------------------------------------
# Service and machine plumbing
# ---------------------------------------------------------------------------


class TestServiceVerify:
    def test_verified_compile_request(self):
        r = execute_request({"op": "compile", "source": SWE,
                             "verify": True})
        assert r["ok"]

    def test_verify_failure_is_structured(self, monkeypatch):
        import repro.transform.passes as pl

        orig = pl.schedule_phases
        monkeypatch.setattr(
            pl, "schedule_phases",
            lambda phases, report=None: list(
                reversed(orig(phases, report))))
        metrics = ServiceMetrics()
        r = execute_request({"op": "compile", "source": SWE,
                             "verify": True})
        metrics.observe(r)
        assert not r["ok"]
        assert r["error"]["type"] == "VerifyError"
        assert r["error"]["stage"] == "block/schedule"
        assert r["diagnostics"]
        assert all(d["code"] == "D402" for d in r["diagnostics"])
        snap = metrics.snapshot()
        assert snap["verify_failures"] == 1
        assert "verify failures 1" in metrics.summary()

    def test_unverified_compile_skips_the_suite(self, monkeypatch):
        import repro.transform.passes as pl

        orig = pl.schedule_phases
        monkeypatch.setattr(
            pl, "schedule_phases",
            lambda phases, report=None: list(
                reversed(orig(phases, report))))
        metrics = ServiceMetrics()
        r = execute_request({"op": "compile", "source": SMALL})
        metrics.observe(r)
        assert metrics.snapshot()["verify_failures"] == 0

    def test_machine_dispatch_check(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "1")
        exe = compile_source(SWE, cache=False)
        name, routine = next(iter(exe.routines.items()))
        # Corrupt a compiled routine behind its frozen front, as a
        # damaged artifact would, before its plan is built.
        object.__setattr__(routine, "body", (
            Instr("faddv", (VReg(5), VReg(6), VReg(7))), *routine.body))
        with pytest.raises(VerifyError) as exc:
            exe.run(Machine(slicewise_model(64)))
        assert exc.value.stage == "machine/dispatch"
        assert any(d.code == "P501" for d in exc.value.diagnostics)

    def test_launches_made_without_prepare_are_verified(self, monkeypatch):
        """A second run launches every site from its template without
        ``Machine._prepare``; each plan serial is still verified once."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        exe = compile_source(heat_source(32, 8), cache=False)
        first = exe.run(Machine(slicewise_model(64))).machine
        prepared = []
        prepare = Machine._prepare

        def counted(self, *call):
            prepared.append(call)
            return prepare(self, *call)

        monkeypatch.setattr(Machine, "_prepare", counted)
        second = exe.run(Machine(slicewise_model(64))).machine
        assert not prepared
        assert second._verified_routines == first._verified_routines
        assert second._verified_routines

    def test_machine_dispatch_check_is_not_fooled_by_a_name(
            self, monkeypatch):
        """Every program calls its routines ``Pk<N>vs<M>``: on a reused
        machine the second program's routine must still be checked."""
        monkeypatch.setenv("REPRO_VERIFY", "1")
        machine = Machine(slicewise_model(64))
        machine.alloc("x", (8,), np.dtype(np.float64))

        def routine(*head):
            return Routine("Pk2vs1", params=[
                ParamSpec("subgrid", "x", PReg(0)),
                ParamSpec("vlen", "vlen", CReg(2))], body=[
                *head,
                Instr("flodv", (Mem(PReg(0)), VReg(0))),
                Instr("fstrv", (VReg(0), Mem(PReg(0))))])

        def call(r):
            machine.call_routine(r, {"x": machine.view("x", None)}, (8,))

        call(routine())
        with pytest.raises(VerifyError) as exc:
            call(routine(Instr("faddv", (VReg(5), VReg(6), VReg(7)))))
        assert exc.value.stage == "machine/dispatch"
