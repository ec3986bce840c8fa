"""The Weitek WTL3164 floating-point datapath model.

Each slicewise PE couples 32 bit-serial processors with one Weitek
WTL3164 64-bit floating-point ALU (Figure 1).  PEAC programs the chip as
a four-wide vector processor over its 32-word register file, giving
eight four-wide vector registers; scalar broadcast values occupy words
allocated downward from the top of the file (hence Figure 12's ``aS28``,
``aS29``).

The numbers here document the datapath behind
:mod:`repro.machine.costs`; they are exposed for tests and for the
spill-cost experiment (a spill/restore pair = 18 cycles = 3 vector ops).
"""

from __future__ import annotations

from dataclasses import dataclass

REGISTER_FILE_WORDS = 32
VECTOR_WIDTH = 4
VECTOR_REGISTERS = REGISTER_FILE_WORDS // VECTOR_WIDTH  # = 8


@dataclass(frozen=True)
class WeitekTimings:
    """Anchor timings used to derive the instruction cost table."""

    vector_op_cycles: int = 6          # one 4-wide add/sub/mul
    spill_restore_pair_cycles: int = 18  # == 3 vector ops (paper, §5.2)
    chained_multiply_add_cycles: int = 6  # same slot as one vector op

    def flops_per_cycle_peak(self) -> float:
        """Peak per-PE flops/cycle with chained multiply-adds."""
        return 2 * VECTOR_WIDTH / self.chained_multiply_add_cycles


def peak_gflops(n_pes: int = 2048, clock_hz: float = 7.0e6) -> float:
    """Machine peak with every PE issuing chained multiply-adds."""
    t = WeitekTimings()
    return n_pes * t.flops_per_cycle_peak() * clock_hz / 1.0e9
