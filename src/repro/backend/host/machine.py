"""The host machine: the CM dispatch contract over compiled kernels.

:class:`HostMachine` keeps the whole :class:`~repro.machine.cm2.Machine`
contract — storage and geometry, ``call_routine``/``call_fused``, the
deterministic :class:`~repro.machine.stats.RunStats` accounting, the
dispatch-time verifier hook — and the whole dispatch path, kernel cache
and emitter rule included: a C text a CM machine built is the one this
machine runs.  It counts which tier ran each lone dispatch and charges
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
        self.host_metrics: dict[str, int] = {
            "native_dispatches": 0,
            "native_builds": 0,
            "blocked_dispatches": 0,
            "steps_dispatches": 0,
        }

    def _execute_dispatch(self, dispatches, group):
        """The shared path, a lone dispatch counted by the tier that ran
        it (``native_builds``: lone entries this machine moved to C)."""
        tier_ups = self.fusion_metrics["tier_ups"]
        launch = super()._execute_dispatch(dispatches, group)
        if self.exec_mode != "interp" and len(dispatches) == 1:
            counter = ("steps_dispatches" if launch is None
                       else "native_dispatches" if launch.kern.native
                       else "blocked_dispatches")
            self.host_metrics[counter] += 1
            self.host_metrics["native_builds"] += (
                self.fusion_metrics["tier_ups"] - tier_ups)
            if launch is not None:
                launch.counters.append((self.host_metrics, counter))
        return launch

    def fusion_summary(self) -> dict:
        out = super().fusion_summary()
        out.update({f"host_{key}": value
                    for key, value in self.host_metrics.items()})
        return out
