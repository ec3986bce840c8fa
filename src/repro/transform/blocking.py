"""Domain blocking: the Figure 9 transformation.

"[The compiler] attempts to rearrange these phases so as to maximize the
length of the blocks of aligned computation between successive
communications.  Successive loops over common, aligned domains appear in
NIR as DO- or MOVE-constructs with common shapes, and as such are easily
recognized and their actions composed sequentially — the shape
equivalent of loop fusion."

The scheduler performs greedy dependence-respecting list scheduling that
prefers to continue the current shape-and-alignment class; the fuser
merges adjacent like-class MOVEs into single multi-clause MOVEs (one
PEAC computation burst each).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import nir
from .dependence import Effects, may_depend
from .phases import Phase, PhaseKind


def _halo_read_arrays(node: nir.Imperative) -> set[str]:
    """Arrays read through un-hoisted CSHIFT operands (neighborhood mode).

    A halo read observes *other* points of its array, so a MOVE that
    halo-reads an array may not fuse after a MOVE that writes it — the
    pointwise-locality argument that makes fusion always legal does not
    cover it.
    """
    if not isinstance(node, nir.Move):
        return set()
    out: set[str] = set()
    for clause in node.clauses:
        for v in (clause.src, clause.mask):
            for n in nir.values.walk(v):
                if isinstance(n, nir.FcnCall) and n.name.lower() == "cshift":
                    out |= nir.array_vars(n.args[0])
    return out


@dataclass
class BlockingReport:
    phases_in: int = 0
    phases_out: int = 0
    moves_reordered: int = 0
    fused_blocks: int = 0
    compute_blocks: int = 0
    block_lengths: list[int] = field(default_factory=list)


def schedule_phases(phases: list[Phase],
                    report: BlockingReport | None = None) -> list[Phase]:
    """Reorder phases to group like-domain computations, respecting deps.

    Greedy list scheduling: repeatedly emit a ready phase (all
    predecessors emitted), preferring one whose domain key matches the
    previously emitted compute phase; ties break on original order, so
    the result is a dependence-safe permutation that is stable when no
    grouping is possible.
    """
    n = len(phases)
    preds: list[set[int]] = [set() for _ in range(n)]
    succs: list[set[int]] = [set() for _ in range(n)]
    for j in range(n):
        for i in range(j):
            if may_depend(phases[i].effects, phases[j].effects):
                preds[j].add(i)
                succs[i].add(j)

    emitted: list[Phase] = []
    done: set[int] = set()
    ready = [i for i in range(n) if not preds[i]]
    last_key = None
    moved = 0
    while ready:
        pick = None
        if last_key is not None:
            for i in sorted(ready):
                p = phases[i]
                if p.is_compute and p.key == last_key:
                    pick = i
                    break
        if pick is None:
            pick = min(ready)
        if emitted and phases[pick].index < emitted[-1].index:
            moved += 1
        ready.remove(pick)
        done.add(pick)
        emitted.append(phases[pick])
        last_key = phases[pick].key if phases[pick].is_compute else None
        for j in sorted(succs[pick]):
            if j not in done and preds[j] <= done and j not in ready:
                if all(k in done for k in preds[j]):
                    ready.append(j)
    if len(emitted) != n:  # pragma: no cover - dependence graph is a DAG
        raise RuntimeError("phase scheduling failed to emit all phases")
    if report is not None:
        report.moves_reordered += moved
    return emitted


def fuse_phases(phases: list[Phase],
                report: BlockingReport | None = None) -> list[Phase]:
    """Merge adjacent compute phases of one domain key into single MOVEs.

    Fusing aligned pointwise MOVEs is always semantics-preserving: every
    point is independent of every other, and clauses within a MOVE apply
    in order at each point, preserving the original statement order.
    """
    out: list[Phase] = []
    for p in phases:
        if (out and p.is_compute and out[-1].is_compute
                and p.key == out[-1].key
                and isinstance(p.node, nir.Move)
                and isinstance(out[-1].node, nir.Move)
                and not (_halo_read_arrays(p.node)
                         & set(out[-1].effects.array_writes))):
            prev = out[-1]
            merged_move = nir.Move(prev.node.clauses + p.node.clauses)
            # A fresh footprint: a phase's effects may be memoised ones.
            merged_eff = Effects()
            merged_eff.merge(prev.effects)
            merged_eff.merge(p.effects)
            out[-1] = Phase(merged_move, PhaseKind.COMPUTE, p.key,
                            merged_eff, prev.index)
            if report is not None:
                report.fused_blocks += 1
        else:
            out.append(p)
    if report is not None:
        report.phases_out += len(out)
        for p in out:
            if p.is_compute and isinstance(p.node, nir.Move):
                report.compute_blocks += 1
                report.block_lengths.append(len(p.node.clauses))
    return out


def rebuild(phases: list[Phase]) -> nir.Imperative:
    """Reassemble a phase list into a SEQUENTIALLY."""
    return nir.seq(*[p.node for p in phases])
