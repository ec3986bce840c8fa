"""The CM5/NIR compiler.

"The CM/5 NIR compiler retains the majority of its structure and,
therefore, its specification from the CM/2 version. ... The host
subcompiler remains relatively unchanged from the CM/2 implementation,
but the node subcompiler partitions its input into subprograms for the
SPARC and the four vector pipelines, instead of performing direct
compilation.  Porting effort is thus concentrated on taking advantage of
the additional powers of the processing node.  Most importantly, the new
compiler can still take advantage of the machine-independent blocking
and vectorizing NIR transformations defined in the front end"
(section 5.3.1).

Accordingly, this compiler *inherits* the CM/2 partitioning and PE
compilation and adds the node-level three-way split: each computation
block is divided between the SPARC scalar unit and the vector datapaths.
Programs it produces run against the :func:`repro.machine.costs.cm5_model`
cost model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ... import nir
from ..cm2.partition import Cm2Compiler, PartitionReport
from ...runtime import host as h
from .vector_unit import NodeSplit, split_routine


@dataclass
class Cm5Report(PartitionReport):
    """CM/2 partition stats plus the per-block node splits."""

    node_splits: list[NodeSplit] = field(default_factory=list)

    @property
    def vu_fraction(self) -> float:
        total = sum(s.total for s in self.node_splits)
        if not total:
            return 0.0
        return sum(s.vu_instructions for s in self.node_splits) / total


class Cm5Compiler(Cm2Compiler):
    """Three-level target: control processor / SPARC node / vector units."""

    target_name = "cm5"

    def __init__(self, env, **kwargs) -> None:
        super().__init__(env, **kwargs)
        self.report = Cm5Report()

    def compile_compute(self, move: nir.Move) -> list[h.HostOp]:
        ops = super().compile_compute(move)
        for op in ops:
            if isinstance(op, h.NodeCall):
                self.report.node_splits.append(split_routine(op.routine))
        return ops
