"""The host target: NIR lowered straight to native vector kernels.

The third first-class backend, and the second retargeting of the
CM/2 specification (§5.3.1 done again, this time onto the CPU running
the process).  The package supplies:

* :class:`~repro.backend.host.compiler.HostCompiler` — inherits the
  whole CM/2 partitioning pipeline and audits each blocked phase for
  native-kernel eligibility;
* :mod:`~repro.backend.host.kernels` — the compile-time audit of
  which routines the C emitter's bit-exact whitelist covers (the
  shared dispatch path runs cache-blocked numpy kernels first, C once
  a kernel has streamed enough to repay the build, else the step
  engine);
* :class:`~repro.backend.host.machine.HostMachine` — the Machine
  contract (storage, dispatch, RunStats) over that shared path, costed
  by the measured :func:`~repro.machine.costs.host_model`.

There is no ``HostExecutable`` subclass on purpose: the shared
:class:`~repro.driver.compiler.Executable` runs host programs
unchanged, which is the retargeting thesis stated as code — the
executable/driver layer needed zero new lines for this port.
"""

from .compiler import HostCompiler, HostReport, PhaseLowering
from .machine import HostMachine

#: The host executable *is* the shared driver executable (see above).
from ...driver.compiler import Executable as HostExecutable

__all__ = ["HostCompiler", "HostExecutable", "HostMachine",
           "HostReport", "PhaseLowering"]
