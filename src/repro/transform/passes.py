"""The NIR transform pipeline, declared as registered passes.

This module *is* the default pipeline: registration order defines the
pass order (racecheck → promote → normalize → pad_masks → dse → block
→ recheck → commaudit; the two analysis passes are report-only and off
by default),
each pass names the :class:`~repro.transform.pipeline.Options` switch
that enables it, and ``config`` projects the option subset that changes
its output (the compile cache keys on exactly that projection, so
reordering, disabling, or reconfiguring a pass invalidates stale
artifacts).  Adding a pass is one :func:`register` call here — the
manager, CLI introspection, cache key, and service metrics all pick it
up from the registry.
"""

from __future__ import annotations

from .. import nir
from ..lowering.check import check_program
from ..pipeline import Pass, PassContext, PassRegistry
from .blocking import BlockingReport, fuse_phases, rebuild, schedule_phases
from .masking import MaskPadder
from .normalize import Normalizer
from .phases import PhaseClassifier
from .promotion import LoopPromoter

#: The process-wide transform pass registry (ordered = default pipeline).
PASSES = PassRegistry()


def register(p: Pass) -> Pass:
    return PASSES.register(p)


def default_pipeline() -> list[Pass]:
    """The declarative default pipeline, in registration order."""
    return PASSES.pipeline()


def pipeline_identity(options) -> list[dict]:
    """Ordered ``{name, config}`` of the enabled passes — the pipeline's
    contribution to the compile-cache key."""
    return PASSES.identity(options)


# -- pass bodies ------------------------------------------------------------


def _run_racecheck(ctx: PassContext) -> nir.Imperative:
    """Report-only: parallel-semantics race detection (``R6xx``).

    Runs first — on the freshly lowered program — so its diagnostics
    carry original source structure, before promotion rewrites loops.
    """
    from ..analysis.racecheck import check_program as racecheck_program
    ctx.report.racecheck = racecheck_program(ctx.node, ctx.env)
    return ctx.node


def _run_commaudit(ctx: PassContext) -> nir.Imperative:
    """Report-only: static communication audit (``C7xx``).

    Runs last — on the transformed body the backend will compile — so
    the entry list prices exactly the communication the runtime meters
    will charge.
    """
    from ..analysis.commaudit import audit_program
    ctx.report.commaudit = audit_program(ctx.node, ctx.env)
    return ctx.node


def _run_promote(ctx: PassContext) -> nir.Imperative:
    promoter = LoopPromoter(ctx.env)
    program = promoter.promote(ctx.node)
    ctx.report.promotion = promoter.report
    return program


def _run_normalize(ctx: PassContext) -> nir.Imperative:
    normalizer = Normalizer(ctx.env, comm_cse=ctx.options.comm_cse,
                            neighborhood=ctx.options.neighborhood,
                            memo=ctx.memos.infer)
    program = normalizer.normalize(ctx.node)
    ctx.report.normalize = normalizer.report
    return program


def _run_pad_masks(ctx: PassContext) -> nir.Imperative:
    padder = MaskPadder(ctx.env)
    body = padder.pad_program(ctx.node)
    ctx.report.masking = padder.report
    return body


def _run_dse(ctx: PassContext) -> nir.Imperative:
    return _eliminate_dead_scalar_stores(
        ctx.node, ctx.report.promotion.promoted_indices)


def _run_block(ctx: PassContext) -> nir.Imperative:
    return _block_recursive(ctx.node, ctx.env, ctx.options,
                            ctx.report.blocking, verify=ctx.verify,
                            memo=ctx.memos.phases)


def _run_recheck(ctx: PassContext) -> nir.Imperative:
    check_program(ctx.node, ctx.env, ctx.memos.infer)
    return ctx.node


# -- the default pipeline (registration order is execution order) -----------


register(Pass(
    name="racecheck", scope="program", run=_run_racecheck,
    enabled=lambda o: getattr(o, "analyze", False),
    report_slot="racecheck",
    description="report-only parallel-semantics race detection (R6xx)"))

register(Pass(
    name="promote", scope="program", run=_run_promote,
    enabled=lambda o: o.promote_loops,
    report_slot="promotion",
    description="serial DO axes become parallel MOVE dimensions"))

register(Pass(
    name="normalize", scope="program", run=_run_normalize,
    config=lambda o: {"comm_cse": o.comm_cse,
                      "neighborhood": o.neighborhood},
    report_slot="normalize",
    description="communication/reduction extraction, alignment copies"))

register(Pass(
    name="pad_masks", scope="body", run=_run_pad_masks,
    enabled=lambda o: o.pad_masks,
    report_slot="masking",
    description="Figure 10 section padding of disjoint masked moves"))

register(Pass(
    name="dse", scope="body", run=_run_dse,
    description="drop dead exit-value stores to promoted DO variables"))

register(Pass(
    name="block", scope="body", run=_run_block,
    enabled=lambda o: o.block or o.fuse,
    config=lambda o: {"block": o.block, "fuse": o.fuse,
                      "neighborhood": o.neighborhood},
    report_slot="blocking",
    description="Figure 9 domain blocking and like-domain MOVE fusion"))

register(Pass(
    name="recheck", scope="program", run=_run_recheck,
    enabled=lambda o: o.recheck,
    description="re-run type/shape checks on the optimized program"))

register(Pass(
    name="commaudit", scope="body", run=_run_commaudit,
    enabled=lambda o: getattr(o, "analyze", False),
    report_slot="commaudit",
    description="report-only static communication-cost audit (C7xx)"))


# -- transformation helpers -------------------------------------------------


def _scalar_reads(node: nir.Imperative) -> set[str]:
    """Every scalar name the program can observe (reads, conditions, IO)."""
    reads: set[str] = set()
    for n in nir.imperatives.walk(node):
        if isinstance(n, nir.Move):
            # A move READS its mask, source, and target subscripts — the
            # stored-to scalar itself is a write, not a read.
            for clause in n.clauses:
                reads |= nir.scalar_vars(clause.mask)
                reads |= nir.scalar_vars(clause.src)
                if isinstance(clause.tgt, nir.AVar) \
                        and isinstance(clause.tgt.field, nir.Subscript):
                    for idx in clause.tgt.field.indices:
                        if not isinstance(idx, nir.IndexRange):
                            reads |= nir.scalar_vars(idx)
        else:
            for value in nir.imperatives.values_of(n):
                reads |= nir.scalar_vars(value)
    return reads


def _eliminate_dead_scalar_stores(node: nir.Imperative,
                                  candidates: set[str]) -> nir.Imperative:
    """Drop dead exit-value stores to promoted DO variables.

    Loop promotion preserves each DO variable's Fortran exit value with a
    constant scalar move; when nothing ever reads the variable again the
    store is dead front-end work and is removed.  Only promotion-
    generated index stores are candidates — user scalar assignments are
    observable program state and always survive.
    """
    if not candidates:
        return node
    live = _scalar_reads(node)

    def clean(n: nir.Imperative) -> nir.Imperative:
        if isinstance(n, nir.Move):
            kept = tuple(
                c for c in n.clauses
                if not (isinstance(c.tgt, nir.SVar)
                        and c.tgt.name in candidates
                        and c.tgt.name not in live
                        and nir.is_constant(c.src)
                        and c.mask == nir.TRUE))
            if not kept:
                return nir.Skip()
            if len(kept) != len(n.clauses):
                return nir.Move(kept)
            return n
        if isinstance(n, nir.Sequentially):
            return nir.seq(*[clean(a) for a in n.actions])
        if isinstance(n, nir.Do):
            return nir.Do(n.shape, clean(n.body), n.index_names)
        if isinstance(n, nir.While):
            return nir.While(n.cond, clean(n.body))
        if isinstance(n, nir.IfThenElse):
            return nir.IfThenElse(n.cond, clean(n.then), clean(n.els))
        return n

    return clean(node)


def _block_recursive(node: nir.Imperative, env, options,
                     report: BlockingReport, verify: bool = False,
                     memo: dict | None = None) -> nir.Imperative:
    """Apply schedule+fuse to every statement sequence, bottom-up.

    Under ``verify``, each sequence's reordering is audited against
    dependences recomputed on the pre-schedule phases, and fusion is
    checked to be pure clause concatenation.  ``memo`` is the compile's
    phase memo.
    """
    classifier = PhaseClassifier(env, neighborhood=options.neighborhood,
                                 memo=memo)

    def block(node: nir.Imperative) -> nir.Imperative:
        if isinstance(node, nir.Sequentially):
            seq = nir.seq(*[block(a) for a in node.actions])
            if not isinstance(seq, nir.Sequentially):
                return seq
            phases = classifier.split(seq)
            report.phases_in += len(phases)
            if options.block:
                before = list(phases)
                phases = schedule_phases(phases, report)
                if verify:
                    from ..analysis.dep_audit import assert_schedule
                    assert_schedule(before, phases, env, "block/schedule")
            if options.fuse:
                before = list(phases)
                phases = fuse_phases(phases, report)
                if verify:
                    from ..analysis.dep_audit import assert_fusion
                    assert_fusion(before, phases, "block/fuse")
            else:
                report.phases_out += len(phases)
            return rebuild(phases)
        if isinstance(node, nir.Do):
            return nir.Do(node.shape, block(node.body), node.index_names)
        if isinstance(node, nir.While):
            return nir.While(node.cond, block(node.body))
        if isinstance(node, nir.IfThenElse):
            return nir.IfThenElse(node.cond, block(node.then),
                                  block(node.els))
        if isinstance(node, nir.Concurrently):
            return nir.Concurrently(tuple(block(a) for a in node.actions))
        return node

    return block(node)
