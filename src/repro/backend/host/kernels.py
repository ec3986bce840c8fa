"""The host target's view of the kernel tiers, and its lowering audit.

A host dispatch runs the one path every machine runs
(:mod:`repro.machine.execplan`: group -> probe -> kernel for key ->
launch), with the one rule for which emitter a kernel gets:

* the first call with a new binding signature runs on the interpreter
  oracle (``execplan.run_oracle``), and the plan remembers the
  signature: the kernel is typed from it;
* every later call runs a compiled kernel: cache-blocked numpy first,
  then — once the kernel has streamed enough to repay a ``cc`` run,
  and if it stays inside the bit-exact whitelist — a **native
  per-element C loop**, one memory pass over the operands with all
  intermediates in registers, built once per process whichever
  machine asked first;
* bindings the prover cannot clear (overlapping distinct views,
  non-contiguous streams) run on the oracle again.

All three tiers are bit-identical by construction: the native emitter
declines anything whose C semantics are not an exact match of the numpy
ufunc, and the blocked kernel replays the interpreter's own ufunc
sequence.  ``REPRO_FUSED_CC=0`` keeps every kernel blocked numpy,
exactly as it does for the CM targets.

What this module owns is the compile-time half: :func:`audit_routine`
says which routines the C emitter could take.
"""

from __future__ import annotations

# The two names marked F401 are not used here: bench/grid.py
# (``_BuildTimer.SITES``) wraps them on this module at set-up.
from ...machine.ckernel import (
    retune,  # noqa: F401
    try_native,  # noqa: F401
)
from ...machine.loopir import _C_FORMS
from ...machine.plan import _ComputeStep, get_plan

#: ComputeStep ops the native emitter has a form for (the structural
#: half of the whitelist; dtypes, scalar types and divisors are checked
#: at build time).
NATIVE_OPS = frozenset(_C_FORMS)


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
