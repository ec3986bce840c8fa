"""The host/NIR compiler: the CM/2 structure, retargeted to the CPU.

The retargeting recipe of §5.3.1, applied a second time: the host
backend *inherits* the CM/2 partitioning — phase classification, the
Figure 9/10 blocker output, PE code generation, the host-program
structure — and changes only what the node actually is.  Where the
CM/5 port split each computation block three ways for the SPARC and
vector units, the host port lowers each block's routine plan onto the
compiled kernel tiers (:mod:`.kernels`) and audits, at compile time,
which phases can reach the native per-element C loop.

The PEAC routines themselves are kept as the portable node ISA (they
are the input the kernel codegen consumes and the oracle the
bit-identity tests replay), so ``--verify`` still runs the routine
verifier over the backend output, ``--emit peac`` still prints it, and
the compile cache is shared with cm2 byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ... import nir
from ...runtime import host as h
from ..cm2.partition import Cm2Compiler, PartitionReport
from .kernels import audit_routine


@dataclass
class PhaseLowering:
    """One blocked computation phase as the host backend lowers it."""

    routine: str
    instructions: int
    #: All compute ops inside the bit-exact native whitelist (the
    #: structural, compile-time half of the eligibility decision).
    native_eligible: bool
    blockers: tuple[str, ...] = ()


@dataclass
class HostReport(PartitionReport):
    """CM/2 partition stats plus the per-phase kernel lowering audit."""

    lowerings: list[PhaseLowering] = field(default_factory=list)

    @property
    def native_fraction(self) -> float:
        if not self.lowerings:
            return 0.0
        return (sum(1 for lw in self.lowerings if lw.native_eligible)
                / len(self.lowerings))


class HostCompiler(Cm2Compiler):
    """Two-level target: front-end program / compiled CPU kernels."""

    target_name = "host"

    def __init__(self, env, **kwargs) -> None:
        super().__init__(env, **kwargs)
        self.report = HostReport()

    def compile_compute(self, move: nir.Move) -> list[h.HostOp]:
        ops = super().compile_compute(move)
        for op in ops:
            if isinstance(op, h.NodeCall):
                count, eligible, blockers = audit_routine(op.routine)
                self.report.lowerings.append(PhaseLowering(
                    routine=op.routine.name, instructions=count,
                    native_eligible=eligible, blockers=blockers))
        return ops
