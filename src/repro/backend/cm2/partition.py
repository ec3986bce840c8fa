"""The top-level CM2/NIR compiler: host/node partitioning (Figure 11).

"The source NIR program has been restructured by the optimization phase
to consist of blocked computation and communication phases.  The CM2/NIR
compiler just cuts out the computation phases and patches the remaining
program to include appropriate NIR calling code.  Each computation phase
will be compiled as a single node procedure, and the remainder will
become supporting host code" (section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ... import nir
from ...lowering.environment import Environment
from ...runtime import host as h
from ...transform.phases import PhaseClassifier, PhaseKind
from . import fe_compiler as fe
from .batches import place_batches
from .shiftfold import fold_shifts
from .pe_compiler import (
    BackendError,
    BackendOptions,
    CompiledBlock,
    TooManyStreams,
    compile_block,
)


@dataclass
class PartitionReport:
    """The host/node division, for Figure 11's program graphs."""

    compute_blocks: int = 0
    comm_phases: int = 0
    reductions: int = 0
    serial_moves: int = 0
    node_instructions: int = 0
    block_clause_counts: list[int] = field(default_factory=list)


class Cm2Compiler:
    """Drives the host/node split and the sibling FE and PE compilers."""

    #: The target-registry name this backend serves
    #: (see :mod:`repro.targets`).
    target_name = "cm2"

    def __init__(self, env: Environment,
                 domains: dict[str, nir.Shape] | None = None,
                 options: BackendOptions | None = None,
                 layouts: dict[str, tuple[str, ...]] | None = None,
                 phases: dict | None = None) -> None:
        self.env = env
        self.domains = domains if domains is not None else env.domains
        self.options = options or BackendOptions()
        self.layouts = layouts or {}
        self.classifier = PhaseClassifier(
            env, self.domains,
            neighborhood=self.options.neighborhood, memo=phases)
        self.routines: dict[str, object] = {}
        self.report = PartitionReport()
        self.blocks: list[CompiledBlock] = []
        self._counter = 0

    # ------------------------------------------------------------------

    def compile_program(self, program: nir.Program,
                        name: str | None = None,
                        fuse_exec: bool = True) -> h.HostProgram:
        """The host program, with every legal CSHIFT folded into its
        readers (:mod:`.shiftfold`) and, under ``fuse_exec``, the end of
        every batch of node calls marked (:mod:`.batches`)."""
        program = fold_shifts(self.assemble(program, name), self.env)
        return place_batches(program) if fuse_exec else program

    def assemble(self, program: nir.Program,
                 name: str | None = None) -> h.HostProgram:
        """The host program as partitioned: every CSHIFT still a copy
        into its temporary — the oracle shift folding is tested against."""
        body = program.body
        while isinstance(body, (nir.WithDomain, nir.WithDecl)):
            body = body.body
        ops = fe.allocation_ops(self.env, self.layouts) \
            + self.compile_imperative(body)
        return h.HostProgram(name=name or program.name, ops=tuple(ops),
                             routines=dict(self.routines))

    # ------------------------------------------------------------------

    def compile_imperative(self, node: nir.Imperative) -> list[h.HostOp]:
        if isinstance(node, nir.Sequentially):
            out: list[h.HostOp] = []
            for action in node.actions:
                out.extend(self.compile_imperative(action))
            return out
        if isinstance(node, nir.Concurrently):
            out = []
            for action in node.actions:
                out.extend(self.compile_imperative(action))
            return out
        if isinstance(node, nir.Move):
            return self.compile_move(node)
        if isinstance(node, nir.Do):
            return self.compile_do(node)
        if isinstance(node, nir.While):
            return [h.WhileOp(cond=node.cond, body=tuple(
                self.compile_imperative(node.body)))]
        if isinstance(node, nir.IfThenElse):
            return [h.IfOp(cond=node.cond,
                           then=tuple(self.compile_imperative(node.then)),
                           els=tuple(self.compile_imperative(node.els)))]
        if isinstance(node, nir.CallStmt):
            return fe.call_ops(node)
        if isinstance(node, nir.Skip):
            return []
        if isinstance(node, (nir.WithDecl, nir.WithDomain)):
            return self.compile_imperative(node.body)
        raise BackendError(
            f"cannot partition imperative {type(node).__name__}")

    def compile_do(self, node: nir.Do) -> list[h.HostOp]:
        shape = nir.resolve(node.shape, self.domains)
        if isinstance(shape, nir.SerialInterval) and node.index_names:
            return [h.Loop(var=node.index_names[0], lo=shape.lo,
                           hi=shape.hi, step=shape.stride,
                           body=tuple(self.compile_imperative(node.body)))]
        if isinstance(shape, nir.Point) and node.index_names:
            return [h.Loop(var=node.index_names[0], lo=shape.value,
                           hi=shape.value, step=1,
                           body=tuple(self.compile_imperative(node.body)))]
        raise BackendError(
            f"cannot compile DO over {shape} on the front end")

    # ------------------------------------------------------------------

    def compile_move(self, move: nir.Move) -> list[h.HostOp]:
        kind, _key = self.classifier.kind(move)
        if kind is PhaseKind.COMPUTE:
            return self.compile_compute(move)
        if kind is PhaseKind.COMM:
            self.report.comm_phases += len(move.clauses)
            return [h.CommMove(clause=c, kind=fe.comm_kind(c))
                    for c in move.clauses]
        if kind is PhaseKind.REDUCE:
            self.report.reductions += len(move.clauses)
            return [h.ReduceMove(clause=c) for c in move.clauses]
        if kind is PhaseKind.SERIAL:
            ops = fe.serial_ops(move)
            self.report.serial_moves += len(ops)
            return ops
        # Mixed move: recover by compiling each clause on its own.
        if len(move.clauses) > 1:
            out: list[h.HostOp] = []
            for clause in move.clauses:
                out.extend(self.compile_move(nir.Move((clause,))))
            return out
        raise BackendError(f"unpartitionable MOVE: {move}")

    def compile_compute(self, move: nir.Move) -> list[h.HostOp]:
        """Excise one computation block; split it if it exhausts pointers."""
        self._counter += 1
        try:
            block = compile_block(move, self.env, self.domains, self.options,
                                  name=f"Pk{self._counter}vs1")
        except TooManyStreams:
            if len(move.clauses) == 1:
                raise
            mid = len(move.clauses) // 2
            return (self.compile_compute(nir.Move(move.clauses[:mid]))
                    + self.compile_compute(nir.Move(move.clauses[mid:])))
        self.blocks.append(block)
        self.routines[block.routine.name] = block.routine
        self.report.compute_blocks += 1
        self.report.block_clause_counts.append(len(move.clauses))
        self.report.node_instructions += block.routine.instruction_count()
        args = tuple(h.ArgBinding(**info) for info in block.arg_info)
        first_tgt = move.clauses[0].tgt
        layout = (self.layouts.get(first_tgt.name)
                  if isinstance(first_tgt, nir.AVar) else None)
        return [h.NodeCall(routine=block.routine, args=args,
                           region_extents=block.region_extents,
                           real_elements=block.real_elements,
                           layout=layout)]
