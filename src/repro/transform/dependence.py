"""Dependence analysis over NIR imperatives.

The blocking transformation (Figure 9) may only move like-domain phases
together "where control dependencies allow".  This module computes, for
any imperative, the sets of scalar and array locations it reads and
writes (arrays with :class:`~repro.transform.regions.Region` precision)
and provides the conservative ``may_depend`` test used by the scheduler:
two phases are dependent when one writes a location the other touches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import nir
from ..lowering.environment import Environment
from . import regions as rg


@dataclass
class Effects:
    """Read/write footprint of an imperative fragment."""

    scalar_reads: set[str] = field(default_factory=set)
    scalar_writes: set[str] = field(default_factory=set)
    array_reads: dict[str, list[rg.Region]] = field(default_factory=dict)
    array_writes: dict[str, list[rg.Region]] = field(default_factory=dict)
    # Opaque actions (I/O, STOP) are barriers: they depend on everything.
    barrier: bool = False

    def add_array_read(self, name: str, region: rg.Region) -> None:
        self.array_reads.setdefault(name, []).append(region)

    def add_array_write(self, name: str, region: rg.Region) -> None:
        self.array_writes.setdefault(name, []).append(region)

    def merge(self, other: "Effects") -> None:
        self.scalar_reads |= other.scalar_reads
        self.scalar_writes |= other.scalar_writes
        for name, regs in other.array_reads.items():
            self.array_reads.setdefault(name, []).extend(regs)
        for name, regs in other.array_writes.items():
            self.array_writes.setdefault(name, []).extend(regs)
        self.barrier = self.barrier or other.barrier


class EffectAnalyzer:
    """Computes :class:`Effects` given a unit's environment."""

    def __init__(self, env: Environment,
                 domains: dict[str, nir.Shape] | None = None) -> None:
        self.env = env
        self.domains = domains if domains is not None else env.domains

    # -- values -------------------------------------------------------------

    def value_effects(self, value: nir.Value, eff: Effects) -> None:
        for node in nir.values.walk(value):
            if isinstance(node, nir.SVar):
                eff.scalar_reads.add(node.name)
            elif isinstance(node, nir.AVar):
                sym = self.env.lookup(node.name)
                eff.add_array_read(
                    node.name,
                    rg.region_of_field(node.field, sym.extents, self.domains))

    def target_effects(self, target: nir.Value, eff: Effects) -> None:
        if isinstance(target, nir.SVar):
            eff.scalar_writes.add(target.name)
            return
        if isinstance(target, nir.AVar):
            sym = self.env.lookup(target.name)
            eff.add_array_write(
                target.name,
                rg.region_of_field(target.field, sym.extents, self.domains))
            # Subscript index expressions are reads.
            if isinstance(target.field, nir.Subscript):
                for idx in target.field.indices:
                    if not isinstance(idx, nir.IndexRange):
                        self.value_effects(idx, eff)
            return
        raise TypeError(f"invalid MOVE target {target}")

    # -- imperatives ---------------------------------------------------------

    def effects(self, node: nir.Imperative, child=None) -> Effects:
        """The footprint of ``node``; ``child(action, eff)`` adds a
        nested action's (by default, walking it)."""
        eff = Effects()
        self._imp(node, eff, child)
        return eff

    def _imp(self, node: nir.Imperative, eff: Effects, child=None) -> None:
        child = child or self._imp
        if isinstance(node, nir.Move):
            for clause in node.clauses:
                self.value_effects(clause.mask, eff)
                self.value_effects(clause.src, eff)
                self.target_effects(clause.tgt, eff)
        elif isinstance(node, (nir.Sequentially, nir.Concurrently)):
            for a in node.actions:
                child(a, eff)
        elif isinstance(node, nir.IfThenElse):
            self.value_effects(node.cond, eff)
            child(node.then, eff)
            child(node.els, eff)
        elif isinstance(node, nir.While):
            self.value_effects(node.cond, eff)
            child(node.body, eff)
        elif isinstance(node, nir.Do):
            for name in node.index_names:
                eff.scalar_writes.add(name)
            child(node.body, eff)
        elif isinstance(node, nir.CallStmt):
            for a in node.args:
                self.value_effects(a, eff)
            eff.barrier = True
        elif isinstance(node, (nir.WithDecl, nir.WithDomain, nir.Program)):
            child(node.body, eff)
        elif isinstance(node, (nir.Skip, nir.RefOut, nir.CopyOut)):
            pass
        else:
            eff.barrier = True


def _array_conflict(writes: dict[str, list[rg.Region]],
                    touches: dict[str, list[rg.Region]]) -> bool:
    for name, wregs in writes.items():
        for treg in touches.get(name, ()):
            for wreg in wregs:
                if rg.regions_overlap(wreg, treg):
                    return True
    return False


def may_depend(a: Effects, b: Effects) -> bool:
    """Conservative dependence test between two phases in program order.

    True if reordering ``a`` and ``b`` could change behaviour: flow
    (a writes, b reads), anti (a reads, b writes) or output (both write)
    dependence on any scalar or overlapping array region, or either is a
    barrier.
    """
    if a.barrier or b.barrier:
        return True
    if not (a.scalar_writes.isdisjoint(b.scalar_reads)
            and a.scalar_writes.isdisjoint(b.scalar_writes)
            and b.scalar_writes.isdisjoint(a.scalar_reads)):
        return True
    return (_array_conflict(a.array_writes, b.array_reads)
            or _array_conflict(b.array_writes, a.array_reads)
            or _array_conflict(a.array_writes, b.array_writes))
