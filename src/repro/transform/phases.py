"""Execution-partition analysis: classifying NIR actions into phases.

After normalization every top-level action in a sequence is a *phase*:
a computation over a common shape and alignment, a communication, a
reduction, or serial front-end work.  The classification here is shared
by the blocking scheduler (Figure 9), the mask padder (Figure 10) and
the CM2/NIR partitioner (Figure 11).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .. import nir
from ..frontend import intrinsics as intr
from ..lowering.environment import Environment
from . import regions as rg
from .dependence import EffectAnalyzer, Effects


class PhaseKind(enum.Enum):
    COMPUTE = "compute"      # PEAC virtual subgrid loop material
    COMM = "comm"            # CM runtime communication
    REDUCE = "reduce"        # CM runtime reduction (scalar to front end)
    SERIAL = "serial"        # front-end scalar/element work
    CONTROL = "control"      # loops/branches/calls containing sub-phases


DomainKey = tuple
"""Hashable key identifying a computation's shape-and-alignment class:
``(base_extents, region_axes)``.  Phases fuse only within one class."""


@dataclass
class Phase:
    """One schedulable unit plus its classification and footprint."""

    node: nir.Imperative
    kind: PhaseKind
    key: DomainKey | None
    effects: Effects
    index: int  # original position, for stable scheduling

    @property
    def is_compute(self) -> bool:
        return self.kind is PhaseKind.COMPUTE


def _is_gather_field(field: nir.FieldAction) -> bool:
    if not isinstance(field, nir.Subscript):
        return False
    return any(
        not isinstance(i, (nir.IndexRange, nir.Scalar, nir.SVar))
        for i in field.indices)


class PhaseClassifier:
    """Classifies actions into phases, each node once per compile.

    ``memo`` is the compile's phase memo (docs/PIPELINE.md §9): effects
    under ``"effects"`` (a control node's composed from its children's;
    shared, so never mutated), kind and key under the ``neighborhood``
    flag they depend on.  Both are keyed by node identity; an entry holds
    its node, so the id is not reused while the memo lives.
    """

    def __init__(self, env: Environment,
                 domains: dict[str, nir.Shape] | None = None,
                 neighborhood: bool = False,
                 memo: dict | None = None) -> None:
        self.env = env
        self.domains = domains if domains is not None else env.domains
        self.analyzer = EffectAnalyzer(env, self.domains)
        self.neighborhood = neighborhood
        memo = {} if memo is None else memo
        self._effects = memo.setdefault("effects", {})
        self._kinds = memo.setdefault(neighborhood, {})

    def split(self, node: nir.Imperative) -> list[Phase]:
        """Phase list of a sequence (or a single action)."""
        actions = (list(node.actions) if isinstance(node, nir.Sequentially)
                   else [node])
        return [self.classify(a, i) for i, a in enumerate(actions)]

    def classify(self, node: nir.Imperative, index: int = 0) -> Phase:
        return Phase(node, *self.kind(node), self.effects(node), index)

    def kind(self, node: nir.Imperative
             ) -> tuple[PhaseKind, DomainKey | None]:
        """The phase kind and domain key of ``node``."""
        held = self._kinds.get(id(node))
        if held is not None:
            return held[1]
        if isinstance(node, nir.Move):
            fact = self._classify_move(node)
        elif isinstance(node, (nir.CallStmt, nir.Skip, nir.RefOut,
                               nir.CopyOut)):
            fact = PhaseKind.SERIAL, None
        else:
            fact = PhaseKind.CONTROL, None
        self._kinds[id(node)] = node, fact
        return fact

    def effects(self, node: nir.Imperative) -> Effects:
        """The footprint of ``node``, composed from its children's."""
        held = self._effects.get(id(node))
        if held is not None:
            return held[1]
        eff = self.analyzer.effects(
            node, lambda child, eff: eff.merge(self.effects(child)))
        self._effects[id(node)] = node, eff
        return eff

    # ------------------------------------------------------------------

    def _classify_move(self, move: nir.Move
                       ) -> tuple[PhaseKind, DomainKey | None]:
        kinds_keys = [self._classify_clause(c) for c in move.clauses]
        kind, key = kinds_keys[0]
        for k2, key2 in kinds_keys[1:]:
            if k2 is not kind or key2 != key:
                # Mixed move (shouldn't arise after normalization).
                return PhaseKind.CONTROL, None
        return kind, key

    def _classify_clause(self, clause: nir.MoveClause
                         ) -> tuple[PhaseKind, DomainKey | None]:
        if isinstance(clause.tgt, nir.SVar):
            if isinstance(clause.src, nir.FcnCall) \
                    and clause.src.name.lower() in intr.REDUCTIONS:
                return PhaseKind.REDUCE, None
            return PhaseKind.SERIAL, None

        assert isinstance(clause.tgt, nir.AVar)
        sym = self.env.lookup(clause.tgt.name)
        tregion = rg.region_of_field(clause.tgt.field, sym.extents,
                                     self.domains)
        if not tregion.exact:
            # Element store through computed subscripts: front-end code.
            return PhaseKind.SERIAL, None
        key: DomainKey = (tregion.base_extents, tregion.axes)

        if isinstance(clause.src, nir.FcnCall) \
                and clause.src.name.lower() in intr.COMMUNICATION:
            return PhaseKind.COMM, key
        if isinstance(clause.src, nir.FcnCall) \
                and clause.src.name.lower() in intr.REDUCTIONS:
            # Dimensional reduction into an array target.
            return PhaseKind.REDUCE, key
        if isinstance(clause.src, nir.AVar) and clause.mask == nir.TRUE:
            ssym = self.env.lookup(clause.src.name)
            sregion = rg.region_of_field(clause.src.field, ssym.extents,
                                         self.domains)
            if not sregion.exact:
                return PhaseKind.SERIAL, None
            aligned = (rg.regions_equal(sregion, tregion)
                       or (sregion.is_full and tregion.is_full
                           and sregion.base_extents == tregion.base_extents))
            if not aligned:
                return PhaseKind.COMM, key
            return PhaseKind.COMPUTE, key

        # General elemental computation: all operands were aligned by the
        # normalizer, so this is PEAC material unless an operand retains a
        # serial (inexact) access.
        for v in (clause.src, clause.mask):
            for node in nir.values.walk(v):
                if isinstance(node, nir.AVar):
                    if _is_gather_field(node.field):
                        # Un-hoisted coordinate gather: host fallback.
                        return PhaseKind.SERIAL, None
                    osym = self.env.lookup(node.name)
                    oreg = rg.region_of_field(node.field, osym.extents,
                                              self.domains)
                    if not oreg.exact:
                        return PhaseKind.SERIAL, None
                elif isinstance(node, nir.FcnCall) and \
                        node.name.lower() not in intr.SPECIAL_ELEMENTAL:
                    if self.neighborhood and node.name.lower() == "cshift":
                        continue  # a halo stream of the node program
                    return PhaseKind.CONTROL, None
        return PhaseKind.COMPUTE, key
