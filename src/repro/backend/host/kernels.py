"""The host kernel engine: every dispatch runs compiled, never stepped.

The CM targets treat the generated blocked kernels
(:mod:`repro.machine.kernel`) and the native C mega-kernels
(:mod:`repro.machine.ckernel`) as *fast paths* bolted onto a simulated
dispatch loop.  On the host target they **are** the execution model:

* the first call with a new binding signature runs the plan's recording
  pass (plain numpy ufuncs capturing intermediate shapes/dtypes — PEAC
  is never interpreted instruction by instruction);
* every later call compiles — once — to a **native per-element C loop**
  when the routine stays inside the IEEE-exact whitelist, giving one
  memory pass over the operands with all intermediates in registers;
* routines outside that whitelist (transcendentals, integer division,
  allocating conversions) run through the cache-blocked Python kernel,
  and bindings the prover cannot clear (overlapping distinct views,
  non-contiguous streams) fall back to the plan's step engine.

All three tiers are bit-identical by construction: the native emitter
declines anything whose C semantics are not an exact match of the numpy
ufunc, and the blocked kernel replays the interpreter's own ufunc
sequence.  ``REPRO_FAST_KERNEL=0`` and ``REPRO_FUSED_CC=0`` degrade the
tiers exactly as they do for the CM fast paths.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from ...machine.ckernel import (
    _BINOPS,
    _CMPOPS,
    _FMAOPS,
    retune,
    try_native,
)
from ...machine.kernel import (Launch, _probe, kernels_enabled,
                               mark_in_place, try_kernel)
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

_NO_NATIVE = "no-native"
_NATIVE_CACHE: OrderedDict[tuple, object] = OrderedDict()
_NATIVE_CAP = 64

#: Placeholder stream for unused slots below the kernel's slot count —
#: the pointer is passed but never dereferenced.
_DUMMY = np.zeros(1)


def tuning_enabled() -> bool:
    return os.environ.get("REPRO_HOST_TUNE") != "0"


def tune(kern) -> object:
    """A host-tuned rebuild of a native kernel (no-op when disabled)."""
    if not tuning_enabled():
        return kern
    return retune(kern, TUNE_FLAGS)


def _slot_table(S, classes) -> list:
    nslots = max(classes) + 1
    return [a if a is not None else _DUMMY for a in S[:nslots]]


def _native_kernel(machine, plan, sig, spec, classes, n, S, shifts):
    """The cached per-routine native kernel, ``None`` when declined."""
    key = (plan.serial, sig, classes, n, tuning_enabled(), shifts)
    kern = _NATIVE_CACHE.get(key)
    if kern is None:
        kern = try_native(plan, spec, classes, n, _slot_table(S, classes),
                          shifts)
        if kern is None:
            kern = _NO_NATIVE
        else:
            kern = tune(kern)
            machine.host_metrics["native_builds"] += 1
        if len(_NATIVE_CACHE) >= _NATIVE_CAP:
            _NATIVE_CACHE.popitem(last=False)
        _NATIVE_CACHE[key] = kern
    else:
        _NATIVE_CACHE.move_to_end(key)
    return None if kern is _NO_NATIVE else kern


def run_dispatch(machine, d) -> tuple[str, Launch | None]:
    """Execute one prepared dispatch through the best available tier.

    Returns the tier used (``"native"``, ``"blocked"`` or ``"steps"``)
    so the machine can report lowering coverage, and the launch when a
    kernel ran over the operands as bound.
    """
    plan = d.plan
    if kernels_enabled():
        sig = plan._signature(d.streams, d.scalars)
        spec = plan.specs.get(sig)
        if spec is not None:
            probe = _probe(plan, d.streams)
            if probe is not None:
                classes, n, S, shifts = probe
                kern = _native_kernel(machine, plan, sig, spec,
                                      classes, n, S, shifts)
                if kern is not None:
                    launch = Launch(kern, _slot_table(S, classes), n)
                    launch.run(d.scalars, machine.pool)
                    mark_in_place(d.streams, plan.used_pregs, classes, shifts)
                    return "native", launch
            launch = try_kernel(plan, sig, spec, d.streams, d.scalars,
                                machine.pool)
            if launch is not None:
                return "blocked", launch
    # Recording pass (first call per signature) or prover fallback:
    # plan.execute records the spec / runs the general step engine.
    plan.execute(d.streams, d.scalars, machine.pool)
    return "steps", None


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
