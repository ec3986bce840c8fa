"""PEAC ISA and assembler tests (Figure 12 syntax)."""

import pytest

from repro.peac import (
    NUM_PREGS,
    NUM_VREGS,
    CReg,
    Imm,
    Instr,
    Mem,
    ParamSpec,
    PeacError,
    PReg,
    Routine,
    SReg,
    VReg,
    format_instr,
    format_routine,
    parse_instr,
    parse_routine,
)


class TestOperands:
    def test_register_ranges(self):
        VReg(NUM_VREGS - 1)
        with pytest.raises(PeacError):
            VReg(NUM_VREGS)
        with pytest.raises(PeacError):
            PReg(NUM_PREGS)
        with pytest.raises(PeacError):
            SReg(-1)

    def test_operand_syntax(self):
        assert str(VReg(3)) == "aV3"
        assert str(SReg(28)) == "aS28"
        assert str(Mem(PReg(7), 0, 1)) == "[aP7+0]1++"
        assert str(CReg(2)) == "ac2"
        assert str(Imm(5)) == "#5"

    def test_spill_mem_no_increment(self):
        assert str(Mem(PReg(15), 0, 0)) == "[aP15+0]0++"


class TestInstr:
    def test_unknown_opcode(self):
        with pytest.raises(PeacError):
            Instr("fzapv", (VReg(0), VReg(1)))

    def test_arity_checked(self):
        with pytest.raises(PeacError):
            Instr("faddv", (VReg(0), VReg(1)))

    def test_one_memory_operand_max(self):
        ok = Instr("faddv", (Mem(PReg(0)), VReg(1), VReg(2)))
        assert ok.has_chained_mem
        with pytest.raises(PeacError):
            Instr("faddv", (Mem(PReg(0)), Mem(PReg(1)), VReg(2)))

    def test_paired_must_be_memory(self):
        load = Instr("flodv", (Mem(PReg(1)), VReg(2)))
        Instr("fsubv", (VReg(0), VReg(1), VReg(3)), paired=load)
        with pytest.raises(PeacError):
            Instr("fsubv", (VReg(0), VReg(1), VReg(3)),
                  paired=Instr("faddv", (VReg(0), VReg(1), VReg(2))))

    def test_pairs_cannot_nest(self):
        load = Instr("flodv", (Mem(PReg(1)), VReg(2)))
        paired = Instr("fstrv", (VReg(0), Mem(PReg(2))), paired=load)
        with pytest.raises(PeacError):
            Instr("fsubv", (VReg(0), VReg(1), VReg(3)), paired=paired)

    def test_dest_and_sources(self):
        i = Instr("fmav", (VReg(0), VReg(1), VReg(2), VReg(3)))
        assert i.dest == VReg(3)
        assert i.sources == (VReg(0), VReg(1), VReg(2))
        store = Instr("fstrv", (VReg(0), Mem(PReg(1))))
        assert store.dest is None

    def test_kind_classification(self):
        assert Instr("fdivv", (VReg(0), VReg(1), VReg(2))).kind == "div"
        assert Instr("flodv", (Mem(PReg(0)), VReg(1))).kind == "load"
        assert Instr("fmav", (VReg(0), VReg(1), VReg(2), VReg(3))).kind \
            == "fma"


class TestAssembler:
    FIGURE12_NAIVE = """Pk51vs1_
    flodv [aP7+0]1++ aV3
    flodv [aP4+0]1++ aV2
    fsubv aV3 aV2 aV1
    fmulv aS28 aV1 aV3
    flodv [aP8+0]1++ aV4
    flodv [aP3+0]1++ aV2
    fsubv aV4 aV2 aV2
    fmulv aS29 aV2 aV4
    fsubv aV3 aV4 aV1
    flodv [aP5+0]1++ aV2
    flodv [aP2+0]1++ aV3
    faddv aV2 aV3 aV3
    fdivv aV1 aV3 aV3
    fstrv aV3 [aP6+0]1++
    jnz ac2 Pk51vs1_"""

    def test_parse_figure12_naive(self):
        routine = parse_routine(self.FIGURE12_NAIVE)
        assert routine.name == "Pk51vs1"
        assert routine.instruction_count() == 14

    def test_roundtrip_figure12(self):
        routine = parse_routine(self.FIGURE12_NAIVE)
        text = format_routine(routine)
        again = parse_routine(text)
        assert again.body == routine.body

    def test_parse_dual_issue(self):
        i = parse_instr("fsubv aV3 aV4 aV1, flodv [aP5+0]1++ aV2")
        assert i.op == "fsubv"
        assert i.paired is not None and i.paired.op == "flodv"

    def test_format_dual_issue(self):
        load = Instr("flodv", (Mem(PReg(5)), VReg(2)))
        i = Instr("fsubv", (VReg(3), VReg(4), VReg(1)), paired=load)
        assert format_instr(i) == \
            "fsubv aV3 aV4 aV1, flodv [aP5+0]1++ aV2"

    def test_parse_chained_memory_operand(self):
        i = parse_instr("fsubv aV3 [aP4+0]1++ aV1")
        assert i.has_chained_mem

    def test_parse_immediate(self):
        i = parse_instr("imulv #5 aV0 aV0")
        assert Imm(5.0) in i.operands

    def test_jnz_label_must_match(self):
        text = "Pk1vs1_\n    flodv [aP0+0]1++ aV0\n    jnz ac2 Other_"
        with pytest.raises(PeacError):
            parse_routine(text)

    def test_empty_routine_rejected(self):
        with pytest.raises(PeacError):
            parse_routine("")

    def test_comments_stripped(self):
        i = parse_instr("faddv aV0 aV1 aV2 ; add them")
        assert i.op == "faddv"


class TestRoutine:
    def test_memory_refs_counts_all_forms(self):
        r = Routine("t", body=[
            Instr("flodv", (Mem(PReg(0)), VReg(0))),
            Instr("faddv", (VReg(0), Mem(PReg(1)), VReg(1)),
                  paired=Instr("flodv", (Mem(PReg(2)), VReg(2)))),
            Instr("fstrv", (VReg(1), Mem(PReg(3)))),
        ])
        assert r.memory_refs() == 4
        assert r.instruction_count() == 3

    def test_param_kind_validated(self):
        with pytest.raises(PeacError):
            ParamSpec(kind="banana", name="x", reg=PReg(0))

    def test_label(self):
        assert Routine("Pk1vs1").label == "Pk1vs1_"
