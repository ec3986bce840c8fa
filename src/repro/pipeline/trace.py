"""Pipeline observability: per-pass wall time and IR-size deltas.

Every :meth:`PassManager.run <repro.pipeline.manager.PassManager.run>`
produces one :class:`PipelineTrace`.  It is plain picklable data — it
rides inside cached executables, flows into ``repro run --stats-json``
under ``"pipeline"``, and is folded per-pass into the service metrics
rollup — so any perf PR can see exactly where compile time goes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class PassTiming:
    """One pass's execution record (disabled passes are recorded too).

    ``cached`` marks a pass satisfied from the artifact store: its
    effect was applied (state chained, report slot restored) without
    running the pass, so its timings and IR sizes are zero.
    """

    name: str
    seconds: float = 0.0
    ir_before: int = 0
    ir_after: int = 0
    enabled: bool = True
    cached: bool = False

    @property
    def ir_delta(self) -> int:
        return self.ir_after - self.ir_before

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "enabled": self.enabled,
            "cached": self.cached,
            "seconds": self.seconds,
            "ir_before": self.ir_before,
            "ir_after": self.ir_after,
            "ir_delta": self.ir_delta,
        }


@dataclass
class PipelineTrace:
    """The full run: ordered timings, totals, and dump snapshots."""

    passes: list[PassTiming] = field(default_factory=list)
    total_seconds: float = 0.0
    verify_seconds: float = 0.0
    #: ``--dump-after`` snapshots: pass name -> pretty-printed IR.
    dumps: dict[str, str] = field(default_factory=dict)
    #: Store accounting: per-stage artifact hit/miss records
    #: (``front``, ``passes``, ``backend``) plus the final state's
    #: name, ``state_hash``.  Empty when the walk had no store, so
    #: legacy payload shapes are unchanged.
    artifacts: dict = field(default_factory=dict)

    def timing(self, name: str) -> PassTiming | None:
        for t in self.passes:
            if t.name == name:
                return t
        return None

    def executed(self) -> list[str]:
        """Names of the passes that actually ran, in order."""
        return [t.name for t in self.passes if t.enabled]

    def to_dict(self) -> dict:
        payload = {
            "total_seconds": self.total_seconds,
            "verify_seconds": self.verify_seconds,
            "passes": [t.to_dict() for t in self.passes],
        }
        if self.artifacts:
            payload["artifacts"] = dict(self.artifacts)
        return payload

    def summary_lines(self) -> list[str]:
        """The ``--stats`` rendering: one line per executed pass."""
        lines = []
        for t in self.passes:
            if not t.enabled:
                continue
            lines.append(f"  {t.name:<12} {t.seconds * 1e3:8.2f}ms  "
                         f"ir {t.ir_before:>5d} -> {t.ir_after:<5d} "
                         f"({t.ir_delta:+d})"
                         + ("  [cached]" if t.cached else ""))
        lines.append(f"  {'total':<12} {self.total_seconds * 1e3:8.2f}ms")
        return lines
