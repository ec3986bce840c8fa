"""Level-2 verifier: dependence preservation audit (the ``D4xx`` namespace).

The blocking stage reorders phases (list scheduling) and fuses adjacent
compute phases into multi-clause MOVEs.  Both are only correct if they
preserve every statement-level dependence of the pre-transform program.
This module recomputes those dependences *from scratch* — fresh
:class:`~repro.transform.dependence.EffectAnalyzer` walks over the phase
nodes, never the ``Phase.effects`` the compile memoised, so a wrong
memo entry cannot vouch for itself — and asserts:

* ``D401`` — the scheduled output is a permutation of the input phases
  (nothing dropped, nothing duplicated),
* ``D402`` — every dependent pair keeps its original relative order,
* ``D403`` — fusion only concatenates MOVE clauses; the flattened clause
  sequence is unchanged.
"""

from __future__ import annotations

from .. import nir
from ..lowering.environment import Environment
from ..transform.dependence import EffectAnalyzer, may_depend
from ..transform.phases import Phase
from .diagnostics import Diagnostic, DiagnosticSink, VerifyError


def audit_schedule(before: list[Phase], after: list[Phase],
                   env: Environment,
                   domains: dict[str, nir.Shape] | None = None
                   ) -> list[Diagnostic]:
    """D4xx violations introduced by reordering ``before`` into ``after``."""
    sink = DiagnosticSink()
    analyzer = EffectAnalyzer(env, domains)

    if sorted(p.index for p in after) != sorted(p.index for p in before):
        missing = {p.index for p in before} - {p.index for p in after}
        extra = {p.index for p in after} - {p.index for p in before}
        sink.error(
            "D401", "schedule is not a permutation of the input phases"
            + (f"; dropped {sorted(missing)}" if missing else "")
            + (f"; duplicated or invented {sorted(extra)}" if extra else ""))
        return sink.diagnostics

    # Dependences of the ORIGINAL program, from freshly computed effects.
    by_index = {p.index: p for p in before}
    effects = {p.index: analyzer.effects(p.node) for p in before}
    ordered = sorted(by_index)
    position = {p.index: pos for pos, p in enumerate(after)}
    for i, a in enumerate(ordered):
        for b in ordered[i + 1:]:
            if may_depend(effects[a], effects[b]) \
                    and position[b] < position[a]:
                sink.error(
                    "D402",
                    f"schedule violates dependence: phase {b} "
                    f"({by_index[b].kind.name}) moved before phase {a} "
                    f"({by_index[a].kind.name}) it depends on")
    return sink.diagnostics


def audit_fusion(before: list[Phase], after: list[Phase]
                 ) -> list[Diagnostic]:
    """D403 violations introduced by fusing ``before`` into ``after``.

    Fusion may only concatenate adjacent MOVEs: flattening every phase
    node to its clause sequence must yield identical programs.
    """
    sink = DiagnosticSink()
    flat_before = _flatten(before)
    flat_after = _flatten(after)
    if len(flat_before) != len(flat_after):
        sink.error(
            "D403", "fusion changed the number of atomic actions: "
            f"{len(flat_before)} before, {len(flat_after)} after")
        return sink.diagnostics
    for pos, (x, y) in enumerate(zip(flat_before, flat_after)):
        if x != y:
            sink.error(
                "D403",
                f"fusion altered atomic action {pos}: {_describe(x)} "
                f"became {_describe(y)}")
    return sink.diagnostics


def assert_schedule(before: list[Phase], after: list[Phase],
                    env: Environment, stage: str,
                    domains: dict[str, nir.Shape] | None = None) -> None:
    diagnostics = audit_schedule(before, after, env, domains)
    if diagnostics:
        raise VerifyError(stage, diagnostics)


def assert_fusion(before: list[Phase], after: list[Phase],
                  stage: str) -> None:
    diagnostics = audit_fusion(before, after)
    if diagnostics:
        raise VerifyError(stage, diagnostics)


def _flatten(phases: list[Phase]) -> list[object]:
    """Phase nodes flattened to MOVE clauses plus opaque non-MOVE nodes."""
    out: list[object] = []
    for p in phases:
        if isinstance(p.node, nir.Move):
            out.extend(p.node.clauses)
        else:
            out.append(p.node)
    return out


def _describe(item: object) -> str:
    if isinstance(item, nir.MoveClause):
        return f"move to {item.tgt}"
    return type(item).__name__
