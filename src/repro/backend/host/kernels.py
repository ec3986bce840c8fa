"""The host kernel engine: every dispatch runs compiled, never stepped.

The CM targets treat native C (:mod:`repro.machine.ckernel`) as a
*fast path* for fused groups bolted onto a simulated dispatch loop.  On
the host target it **is** the execution model.  A host dispatch runs
the one path every machine runs (:mod:`repro.machine.execplan`: group
-> probe -> kernel for key -> launch); what this module adds is the
emitter :class:`~repro.backend.host.machine.HostMachine` supplies to it:

* the first call with a new binding signature runs the plan's recording
  pass (plain numpy ufuncs capturing intermediate shapes/dtypes — PEAC
  is never interpreted instruction by instruction);
* every later call compiles — once — to a **native per-element C loop**
  (:func:`emit_native`: lone dispatches included, built for the CPU
  actually running) when the group stays inside the IEEE-exact
  whitelist, giving one memory pass over the operands with all
  intermediates in registers;
* groups outside that whitelist (transcendentals, integer division,
  allocating conversions) run through the cache-blocked Python kernel,
  and bindings the prover cannot clear (overlapping distinct views,
  non-contiguous streams) fall back to the plan's step engine.

All three tiers are bit-identical by construction: the native emitter
declines anything whose C semantics are not an exact match of the numpy
ufunc, and the blocked kernel replays the interpreter's own ufunc
sequence.  ``REPRO_FAST_KERNEL=0`` and ``REPRO_FUSED_CC=0`` degrade the
tiers exactly as they do for the CM targets.
"""

from __future__ import annotations

from ...machine.ckernel import (
    _BINOPS,
    _CMPOPS,
    _FMAOPS,
    retune,
    try_native,
)
from ...machine.plan import _ComputeStep, get_plan

#: ComputeStep ops the native emitter can prove IEEE-exact (the
#: structural half of the whitelist; dtypes are checked at build time).
NATIVE_OPS = (frozenset(_BINOPS) | frozenset(_CMPOPS) | frozenset(_FMAOPS)
              | frozenset({"fselv", "fnegv", "fabsv", "fsqrtv"}))

#: Extra compiler flags for host-native kernels.  The CM targets build
#: for the portable baseline ISA; the host target compiles for the CPU
#: actually running — ``-ffp-contract=off`` stays in force from the
#: base flags, so wider vector units change throughput, not results
#: (each lane is still the scalar IEEE operation).
TUNE_FLAGS = ("-march=native", "-funroll-loops")


def tune(kern) -> object:
    """A host-tuned rebuild of a native kernel (the untuned one when
    the flags fail to compile)."""
    return retune(kern, TUNE_FLAGS)


def emit_native(merged, spec, n, S, shifts):
    """Tuned C for a group's merged plan of any size, or None."""
    kern = try_native(merged, spec, n, S, shifts)
    return None if kern is None else tune(kern)


# -- static lowering audit (compile time) -----------------------------------


def audit_routine(routine) -> tuple[int, bool, tuple[str, ...]]:
    """(instruction count, native-eligible, blocking ops) for a routine.

    The structural half of the native whitelist, decided at compile
    time: which compute ops the C emitter handles.  Dtype and aliasing
    eligibility is a per-binding decision made at dispatch.
    """
    plan = get_plan(routine)
    blockers: list[str] = []
    count = 0
    for steps in plan.groups:
        for step in steps:
            count += 1
            if isinstance(step, _ComputeStep) and step.op not in NATIVE_OPS:
                blockers.append(step.op)
    return count, not blockers, tuple(sorted(set(blockers)))
