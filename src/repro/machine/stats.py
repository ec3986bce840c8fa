"""Execution statistics for simulated runs."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunStats:
    """Cycle and flop accounting for one program execution.

    Cycles are machine (sequencer) cycles.  The CM is modelled as
    globally synchronous: node, communication and host cycles add up to
    wall-clock time.
    """

    node_cycles: int = 0        # PEAC virtual subgrid loops
    call_cycles: int = 0        # dispatch + IFIFO argument pushes
    comm_cycles: int = 0        # grid/router/reduction traffic
    host_cycles: int = 0        # front-end (SPARC) work
    flops: int = 0              # useful floating-point operations
    node_calls: int = 0         # PEAC routine invocations
    ififo_pushes: int = 0
    comm_ops: int = 0
    reductions: int = 0
    elements_computed: int = 0
    fused_groups: int = 0       # cross-routine fused dispatches
    fused_routines: int = 0     # constituent routines inside fused groups
    per_routine: dict[str, int] = field(default_factory=dict)

    @property
    def total_cycles(self) -> int:
        return (self.node_cycles + self.call_cycles + self.comm_cycles
                + self.host_cycles)

    def charge_call(self, node: int, call: int, pushes: int, flops: int,
                    elements: int, per_routine, fused: int = 0) -> None:
        """Account one node dispatch from its pre-summed charge.

        ``per_routine`` attributes ``node`` as ``(name, cycles)`` pairs;
        ``fused`` is the number of routines a fused group covered.  The
        ordinary path and a launch-record replay both charge through
        here, from the same tuple.
        """
        self.node_cycles += node
        self.call_cycles += call
        self.node_calls += 1
        self.ififo_pushes += pushes
        self.flops += flops
        self.elements_computed += elements
        if fused:
            self.fused_groups += 1
            self.fused_routines += fused
        per = self.per_routine
        for name, cycles in per_routine:
            per[name] = per.get(name, 0) + cycles

    def seconds(self, clock_hz: float) -> float:
        return self.total_cycles / clock_hz

    def gflops(self, clock_hz: float) -> float:
        secs = self.seconds(clock_hz)
        if secs == 0:
            return 0.0
        return self.flops / secs / 1.0e9

    def merge(self, other: "RunStats") -> None:
        self.node_cycles += other.node_cycles
        self.call_cycles += other.call_cycles
        self.comm_cycles += other.comm_cycles
        self.host_cycles += other.host_cycles
        self.flops += other.flops
        self.node_calls += other.node_calls
        self.ififo_pushes += other.ififo_pushes
        self.comm_ops += other.comm_ops
        self.reductions += other.reductions
        self.elements_computed += other.elements_computed
        self.fused_groups += other.fused_groups
        self.fused_routines += other.fused_routines
        for name, cycles in other.per_routine.items():
            self.per_routine[name] = self.per_routine.get(name, 0) + cycles

    def to_dict(self) -> dict:
        """JSON-ready snapshot (for ``--stats-json`` perf tracking)."""
        return {
            "node_cycles": self.node_cycles,
            "call_cycles": self.call_cycles,
            "comm_cycles": self.comm_cycles,
            "host_cycles": self.host_cycles,
            "total_cycles": self.total_cycles,
            "flops": self.flops,
            "node_calls": self.node_calls,
            "ififo_pushes": self.ififo_pushes,
            "comm_ops": self.comm_ops,
            "reductions": self.reductions,
            "elements_computed": self.elements_computed,
            "fused_groups": self.fused_groups,
            "fused_routines": self.fused_routines,
            "per_routine": dict(self.per_routine),
        }

    def breakdown(self) -> dict[str, float]:
        """Fractions of total time by category (for the effort profile)."""
        total = self.total_cycles or 1
        return {
            "node": self.node_cycles / total,
            "call": self.call_cycles / total,
            "comm": self.comm_cycles / total,
            "host": self.host_cycles / total,
        }
