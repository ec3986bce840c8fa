"""The host machine: the CM dispatch contract over compiled kernels.

:class:`HostMachine` keeps the whole :class:`~repro.machine.cm2.Machine`
contract — storage and geometry, ``call_routine``/``call_fused``, the
deterministic :class:`~repro.machine.stats.RunStats` accounting, the
dispatch-time verifier hook — and the whole dispatch path, kernel cache
and emitter rule included: a C text a CM machine built is the one this
machine runs.  It counts which tier ran each dispatch and charges
cycles under the measured :func:`~repro.machine.costs.host_model`
(1 cycle = 1 ns), so ``stats.seconds()`` is a calibrated wallclock
estimate rather than a simulated Weitek figure.

``exec_mode="interp"`` still runs the :class:`VectorExecutor` oracle —
the bit-identity tests hold across all three engines on this target
exactly as they do on cm2/cm5.  The default engine is ``"fused"``:
with no simulated machine to stay faithful to, there is no reason not
to batch adjacent calls into mega-kernels.
"""

from __future__ import annotations

from ...machine.cm2 import Machine
from ...machine.costs import CostModel, host_model


class HostMachine(Machine):
    """A native-host execution engine behind the Machine contract."""

    default_exec = "fused"

    def __init__(self, model: CostModel | None = None,
                 exec_mode: str | None = None) -> None:
        super().__init__(model or host_model(), exec_mode)
        self.host_metrics: dict[str, int] = dict.fromkeys((
            "native_dispatches", "native_builds", "blocked_dispatches",
            "steps_dispatches"), 0)

    def _tier(self, kern) -> tuple:
        """Every dispatch — lone or a fused group — and each trip
        through its launch counted by the tier that ran it
        (``native_builds``: entries this machine moved to C, its
        tier-ups)."""
        self.host_metrics["native_builds"] = self.fusion_metrics["tier_ups"]
        return ((self.host_metrics, "steps_dispatches" if kern is None
                 else "native_dispatches" if kern.native
                 else "blocked_dispatches"),)

    def fusion_summary(self) -> dict:
        out = super().fusion_summary()
        out.update({f"host_{key}": value
                    for key, value in self.host_metrics.items()})
        return out
