"""The NIR optimization pipeline (the paper's target-independent phase).

The pipeline itself is declarative: :mod:`repro.transform.passes`
registers the default pass order (promote → normalize → pad_masks →
dse → block/fuse → recheck) and the
:class:`~repro.pipeline.manager.PassManager` drives it — timing every
pass, measuring IR-size deltas, running the NIR verifier between
passes, and capturing ``--dump-after`` snapshots into the
:class:`~repro.pipeline.trace.PipelineTrace` that
:class:`TransformedProgram` carries.  Each pass is individually
switchable for the ablation experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import nir
from ..lowering.environment import Environment
from ..lowering.lower import LoweredProgram
from ..pipeline import (Memos, PassManager, PipelineTrace, unwrap_body,
                        wrap_body)
from .blocking import BlockingReport
from .masking import MaskingReport
from .normalize import NormalizeReport
from .promotion import PromotionReport

__all__ = [
    "Options", "TransformReport",
    "TransformedProgram", "optimize", "unwrap_body", "wrap_body",
]


@dataclass(frozen=True)
class Options:
    """Optimization switches (each is a DESIGN.md ablation point)."""

    promote_loops: bool = True  # serial DO axes to parallel MOVE dims
    comm_cse: bool = True    # reuse identical communication results
    neighborhood: bool = False  # §5.3.2: CSHIFT operands stay in blocks
    block: bool = True       # reorder phases to group like domains
    fuse: bool = True        # merge adjacent like-domain MOVEs
    pad_masks: bool = True   # Figure 10 section padding
    recheck: bool = True     # re-run type/shape checks afterwards
    fuse_exec: bool = True   # batch node calls into fused dispatches
    analyze: bool = False    # report-only racecheck + comm audit passes

    @classmethod
    def naive(cls) -> "Options":
        """Promotion and normalization only — the per-statement comparison
        point (loops still vectorize, but no cross-statement blocking)."""
        return cls(comm_cse=False, block=False, fuse=False,
                   pad_masks=False, fuse_exec=False)


def _racecheck_report():
    from ..analysis.racecheck import RacecheckReport
    return RacecheckReport()


def _commaudit_report():
    from ..analysis.commaudit import CommAuditReport
    return CommAuditReport()


@dataclass
class TransformReport:
    promotion: PromotionReport = field(default_factory=PromotionReport)
    normalize: NormalizeReport = field(default_factory=NormalizeReport)
    masking: MaskingReport = field(default_factory=MaskingReport)
    blocking: BlockingReport = field(default_factory=BlockingReport)
    # Report-only dataflow analyses (``Options.analyze``; `repro analyze`).
    racecheck: object = field(default_factory=_racecheck_report)
    commaudit: object = field(default_factory=_commaudit_report)


@dataclass
class TransformedProgram:
    """An optimized NIR program ready for the target-specific phase."""

    nir: nir.Program
    env: Environment
    options: Options
    report: TransformReport
    trace: PipelineTrace = field(default_factory=PipelineTrace)

    @property
    def domains(self) -> dict[str, nir.Shape]:
        return self.env.domains

    def inner_body(self) -> nir.Imperative:
        node: nir.Imperative = self.nir.body
        while isinstance(node, (nir.WithDomain, nir.WithDecl)):
            node = node.body
        return node


def optimize(lowered: LoweredProgram,
             options: Options | None = None,
             verify: bool | None = None,
             dump_after: tuple[str, ...] = (),
             store=None, context: dict | None = None,
             input_hash: str | None = None,
             memos: Memos | None = None) -> TransformedProgram:
    """Apply the target-independent NIR transformations.

    With ``verify`` on (default: the ``REPRO_VERIFY=1`` environment
    switch) the NIR verifier runs on the input and after every pass, and
    the blocking stage's schedule and fusion are audited against freshly
    recomputed dependences; a :class:`~repro.analysis.diagnostics.
    VerifyError` names the pass whose output first went wrong.

    ``dump_after`` names passes whose output should be pretty-printed
    into the trace's ``dumps`` (the CLI ``--dump-after`` surface); an
    unknown name raises :class:`~repro.pipeline.registry.
    UnknownPassError` listing the registered passes.

    ``store`` (an :class:`~repro.service.store.ArtifactStore`) makes
    the manager's one loop look each pass up before running it, keyed
    from ``input_hash`` (the lowered state's name; computed when not
    given) and ``context`` (the resolved target and ``fuse_exec``) —
    the same store-optional path the driver's walk takes for its front
    and backend stages.  ``memos`` are the walk's (fresh if absent).
    """
    from .passes import default_pipeline

    options = options or Options()
    if verify is None:
        from ..analysis import verify_enabled
        verify = verify_enabled()
    report = TransformReport()
    manager = PassManager(default_pipeline(), verify=verify,
                          dump_after=dump_after, store=store,
                          context=context, input_hash=input_hash,
                          memos=memos)
    program, trace = manager.run(lowered.nir, lowered.env, options,
                                 report, input_stage="lower")
    return TransformedProgram(nir=program, env=lowered.env,
                              options=options, report=report, trace=trace)
