"""Blocking (Fig. 9), masking (Fig. 10), promotion and loop-rule tests."""

import pytest

from repro import nir
from repro.programs.kernels import blocking_source, deck_source, where_source
from repro.transform import (
    MaskPadder,
    Options,
    PhaseClassifier,
    PhaseKind,
    fuse_phases,
    masks_disjoint,
    schedule_phases,
    unroll_do,
    interchange,
    strip_mine,
    fuse_do,
)
from repro.transform.promotion import LoopPromoter
from repro.transform.pipeline import unwrap_body

from .conftest import lower, transform


def phases_of(tp):
    body = tp.inner_body()
    actions = (body.actions if isinstance(body, nir.Sequentially)
               else [body])
    return actions


class TestFigure9Blocking:
    def test_three_moves_become_two_phases(self):
        tp = transform(blocking_source(64))
        actions = phases_of(tp)
        moves = [a for a in actions if isinstance(a, nir.Move)]
        assert len(moves) == 2

    def test_like_domain_moves_fused(self):
        tp = transform(blocking_source(64))
        assert tp.report.blocking.fused_blocks == 1
        assert 2 in tp.report.blocking.block_lengths

    def test_diagonal_becomes_gather(self):
        tp = transform(blocking_source(64))
        text = nir.pretty(tp.nir)
        # Figure 9's canonical diagonal access notation.
        assert "subscript[local_under" in text

    def test_blocking_off_keeps_phases(self):
        tp = transform(blocking_source(64),
                       Options(block=False, fuse=False, pad_masks=False))
        moves = [a for a in phases_of(tp) if isinstance(a, nir.Move)]
        assert len(moves) >= 3

    def test_scheduler_respects_dependences(self):
        src = ("integer a(8), b(8), c(9)\n"
               "a = 1\nc = 2\nb = a + 1\na = b\nend")
        tp = transform(src)
        # a=1 must precede b=a+1 must precede a=b, whatever c does.
        moves = [a for a in phases_of(tp) if isinstance(a, nir.Move)]
        flat = []
        for m in moves:
            for cl in m.clauses:
                flat.append((cl.tgt.name, str(cl.src)))
        a_first = next(i for i, (t, s) in enumerate(flat) if t == "a")
        b_pos = next(i for i, (t, s) in enumerate(flat) if t == "b")
        a_last = max(i for i, (t, s) in enumerate(flat) if t == "a")
        assert a_first < b_pos < a_last

    def test_fusion_leaves_memoised_effects_alone(self):
        """A compile's phase memo hands out one ``Effects`` per node:
        fusing two phases must not grow the first one's."""
        lowered = lower("real a(8), b(8), c(8)\na = 1.0\nb = a + 2.0\n"
                        "c = b * a\nend")
        body = unwrap_body(lowered.nir)
        classifier = PhaseClassifier(lowered.env, memo={})
        phases = classifier.split(body)
        fused = fuse_phases(phases)
        assert len(fused) == 1
        fresh = PhaseClassifier(lowered.env)
        for action in body.actions:
            assert classifier.effects(action) == fresh.effects(action)


class TestFigure10Masking:
    def test_sections_padded(self):
        tp = transform(where_source(32))
        assert tp.report.masking.padded == 2

    def test_padded_block_fuses_three_clauses(self):
        tp = transform(where_source(32))
        assert max(tp.report.blocking.block_lengths) == 3

    def test_two_compute_blocks_total(self):
        # The paper: "This fragment could be compiled into two PEAC
        # routines" (the alpha block and the 1-D C move).
        tp = transform(where_source(32))
        classifier = PhaseClassifier(tp.env)
        kinds = [p.kind for p in classifier.split(tp.inner_body())]
        assert kinds.count(PhaseKind.COMPUTE) == 2

    def test_mask_uses_mod_on_coordinates(self):
        tp = transform(where_source(32))
        text = nir.pretty(tp.nir)
        assert "BINARY(Mod" in text
        assert "local_under" in text

    def test_padding_preserves_region_mask_structure(self):
        lowered = lower("integer a(8), b(8)\nb(2:7:2) = a(2:7:2)\nend")
        padder = MaskPadder(lowered.env)
        body = padder.pad_program(unwrap_body(lowered.nir))
        (move,) = [a for a in nir.imperatives.walk(body)
                   if isinstance(a, nir.Move)]
        clause = move.clauses[0]
        assert isinstance(clause.tgt.field, nir.Everywhere)
        assert not clause.is_unconditional

    def test_full_sections_not_padded(self):
        lowered = lower("integer a(8), b(8)\nb(1:8) = a(1:8)\nend")
        padder = MaskPadder(lowered.env)
        padder.pad_program(unwrap_body(lowered.nir))
        assert padder.report.padded == 0

    def test_masks_disjoint_complement(self):
        m = nir.Binary(nir.BinOp.GT, nir.AVar("a"), nir.int_const(0))
        c1 = nir.MoveClause(m, nir.int_const(1), nir.AVar("b"))
        c2 = nir.MoveClause(nir.Unary(nir.UnOp.NOT, m), nir.int_const(2),
                            nir.AVar("b"))
        assert masks_disjoint(c1, c2, None, {})

    def test_masks_disjoint_residues(self):
        tp = transform(where_source(32))
        block = next(a for a in phases_of(tp)
                     if isinstance(a, nir.Move) and len(a.clauses) == 3)
        odd, even = block.clauses[1], block.clauses[2]
        # The odd-row and even-row masks never select the same point.
        # (even's mask is an AND including the residue; extract check via
        # the disjointness helper on the raw residue forms is covered by
        # the complement/residue unit tests; here just sanity-run it.)
        assert odd.mask != even.mask


class TestPromotion:
    def test_deck_fully_vectorizes(self):
        tp = transform(deck_source(16, 8))
        assert tp.report.promotion.promoted >= 3

    def test_promoted_deck_first_nest_everywhere(self):
        tp = transform("INTEGER K(8,4)\nINTEGER I, J\n"
                       "DO 10 I=1,8\nDO 20 J=1,4\nK(I,J) = 2*K(I,J)+5\n"
                       "20 CONTINUE\n10 CONTINUE\nEND")
        moves = [a for a in phases_of(tp) if isinstance(a, nir.Move)]
        targets = [c.tgt for m in moves for c in m.clauses
                   if isinstance(c.tgt, nir.AVar)]
        assert any(isinstance(t.field, nir.Everywhere) for t in targets)

    def test_loop_carried_dependence_rejected(self):
        tp = transform("integer a(8)\ninteger i\n"
                       "do 1 i=2,8\na(i) = a(i-1)\n1 continue\nend")
        assert tp.report.promotion.promoted == 0
        assert tp.report.promotion.rejected >= 1

    def test_reduction_style_loop_rejected(self):
        tp = transform("integer a(8)\ninteger i, s\ns = 0\n"
                       "do 1 i=1,8\na(i) = i\n1 continue\nend")
        # writing a slice-local target is promotable
        assert tp.report.promotion.promoted == 1

    def test_index_value_becomes_coordinate(self):
        tp = transform("integer a(8)\ninteger i\n"
                       "do 1 i=1,8\na(i) = i*i\n1 continue\nend")
        (move,) = [a for a in phases_of(tp) if isinstance(a, nir.Move)
                   and isinstance(a.clauses[0].tgt, nir.AVar)]
        assert nir.collect(move.clauses[0].src, nir.LocalUnder)

    def test_do_variable_final_value_preserved(self):
        # 'i' is observed after the loop, so its Fortran exit value must
        # survive promotion (9 = one step past the last iteration).
        tp = transform("integer a(8)\ninteger i\n"
                       "do 1 i=1,8\na(i) = 1\n1 continue\nprint *, i\nend")
        scalar_moves = [
            a for a in phases_of(tp) if isinstance(a, nir.Move)
            and isinstance(a.clauses[0].tgt, nir.SVar)]
        assert scalar_moves
        assert scalar_moves[0].clauses[0].src == nir.int_const(9)

    def test_unobserved_do_variable_store_eliminated(self):
        tp = transform("integer a(8)\ninteger i\n"
                       "do 1 i=1,8\na(i) = 1\n1 continue\nend")
        scalar_moves = [
            a for a in phases_of(tp) if isinstance(a, nir.Move)
            and isinstance(a.clauses[0].tgt, nir.SVar)]
        assert not scalar_moves

    def test_strided_loop_promotes(self):
        tp = transform("integer a(9)\ninteger i\n"
                       "do 1 i=1,9,2\na(i) = 7\n1 continue\nend")
        assert tp.report.promotion.promoted == 1

    def test_diagonal_write_rejected(self):
        tp = transform("integer a(8,8)\ninteger i\n"
                       "do 1 i=1,8\na(i,i) = 1\n1 continue\nend")
        assert tp.report.promotion.promoted == 0


class TestFigure4LoopRules:
    def body_move(self):
        return nir.move1(nir.SVar("i"),
                         nir.AVar("a", nir.Subscript((nir.SVar("i"),))))

    def test_unroll_point(self):
        do = nir.Do(nir.Point(3), self.body_move(), index_names=("i",))
        out = unroll_do(do)
        assert isinstance(out, nir.Move)
        assert out.clauses[0].src == nir.int_const(3)

    def test_unroll_interval(self):
        do = nir.Do(nir.SerialInterval(1, 3), self.body_move(),
                    index_names=("i",))
        out = unroll_do(do)
        assert isinstance(out, nir.Sequentially)
        assert len(out.actions) == 3

    def test_unroll_product_space(self):
        body = nir.move1(
            nir.Binary(nir.BinOp.ADD, nir.SVar("i"), nir.SVar("j")),
            nir.SVar("x"))
        do = nir.Do(nir.ProdDom((nir.SerialInterval(1, 2),
                                 nir.SerialInterval(1, 2))),
                    body, index_names=("i", "j"))
        out = unroll_do(do)
        assert len(out.actions) == 4
        first = out.actions[0].clauses[0].src
        assert first == nir.Binary(nir.BinOp.ADD, nir.int_const(1),
                                   nir.int_const(1))

    def test_unroll_respects_limit(self):
        do = nir.Do(nir.SerialInterval(1, 100), self.body_move(),
                    index_names=("i",))
        assert unroll_do(do, limit=10) is do

    def test_interchange(self):
        do = nir.Do(nir.ProdDom((nir.SerialInterval(1, 2),
                                 nir.SerialInterval(1, 3))),
                    nir.Skip(), index_names=("i", "j"))
        out = interchange(do, (1, 0))
        assert nir.extents(out.shape) == (3, 2)
        assert out.index_names == ("j", "i")

    def test_interchange_requires_product(self):
        do = nir.Do(nir.SerialInterval(1, 4), nir.Skip())
        with pytest.raises(nir.ShapeError):
            interchange(do, (0,))

    def test_strip_mine(self):
        blocks = strip_mine(nir.Interval(1, 10), 4)
        assert [nir.extents(b) for b in blocks] == [(4,), (4,), (2,)]
        assert blocks[0] == nir.Interval(1, 4)
        assert blocks[-1] == nir.Interval(9, 10)

    def test_strip_mine_preserves_seriality(self):
        blocks = strip_mine(nir.SerialInterval(1, 8), 3)
        assert all(isinstance(b, nir.SerialInterval) for b in blocks)

    def test_fuse_do_same_shape(self):
        a = nir.Do(nir.SerialInterval(1, 4),
                   nir.move1(nir.int_const(1), nir.SVar("x")),
                   index_names=("i",))
        b = nir.Do(nir.SerialInterval(1, 4),
                   nir.move1(nir.int_const(2), nir.SVar("y")),
                   index_names=("i",))
        fused = fuse_do(a, b)
        assert fused is not None
        assert len(fused.body.actions) == 2

    def test_fuse_do_renames_indices(self):
        a = nir.Do(nir.SerialInterval(1, 4),
                   nir.move1(nir.SVar("i"), nir.SVar("x")),
                   index_names=("i",))
        b = nir.Do(nir.SerialInterval(1, 4),
                   nir.move1(nir.SVar("j"), nir.SVar("y")),
                   index_names=("j",))
        fused = fuse_do(a, b)
        assert "j" not in nir.scalar_vars(fused.body.actions[1].clauses[0].src)

    def test_fuse_do_different_shapes_none(self):
        a = nir.Do(nir.SerialInterval(1, 4), nir.Skip())
        b = nir.Do(nir.SerialInterval(1, 5), nir.Skip())
        assert fuse_do(a, b) is None
