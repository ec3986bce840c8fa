"""Pins of what the dispatch path observes over the corpus.

Twelve programs (``ALL_KERNELS`` and ``swe_source(32, 8)``), each
compiled fresh for three configurations — cm2 ``fast``, cm2 ``fused``
and host ``fused`` — and run twice on fresh machines:

* **kernel types**: per routine and binding signature met, the rank and
  dtype of every compute step's result (and of a multiply-add's
  product), which is what a kernel is typed by
  (:func:`repro.machine.loopir.lower`);
* **runs**: ``RunStats.to_dict()``, printed output, array bytes, and
  the counters of ``fusion_summary()`` that do not depend on what other
  tests built before (kernel groups and builds, launch and trip records,
  declines, host dispatches by tier).

Both are sha256 digests per program, so a change to how the engines
run a dispatch must leave every one of them as it was.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import ckernel, costs
from repro.machine.loopir import step_types
from repro.programs.kernels import ALL_KERNELS
from repro.programs.swe import swe_source
from repro.targets import build_machine

PROGRAMS = {**ALL_KERNELS, "swe": lambda: swe_source(32, 8)}
CONFIGS = (("cm2", "fast"), ("cm2", "fused"), ("host", "fused"))

#: ``fusion_summary()`` keys whose values are this run's alone.
COUNTERS = ("fused_groups", "fused_routines", "megakernel_builds",
            "stepwise_groups", "launch_records", "launch_replays",
            "launch_drops", "launch_drop_reasons", "trip_records",
            "trip_replays", "trip_exits", "trip_native",
            "trip_exit_reasons", "trip_declined", "trip_native_declined",
            "declined", "host_steps_dispatches", "host_blocked_dispatches")


def _types(plan) -> dict:
    """{signature: [(rank, dtype) of each compute step's result, plus
    its product's for a multiply-add]} of every signature the plan has
    met."""
    return {sig: [(r.ndim, r.dtype.str)
                  + (() if p is None else (p.ndim, p.dtype.str))
                  for r, p in step_types(plan, sig)]
            for sig in plan.seen}


def _sha(value) -> str:
    return hashlib.sha256(
        json.dumps(value, sort_keys=True, default=repr).encode()).hexdigest()


def _machine(target: str, mode: str):
    """A fresh machine.  The host's cost model comes from the canned
    table, not from this process's calibration, so its cycles are the
    same on every run of the suite."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(costs, "_host_calibration",
                      lambda: dict(costs._HOST_CANNED))
        return build_machine(target, exec_mode=mode)


@functools.lru_cache(maxsize=None)
def _pins(program: str) -> tuple[str, str]:
    """(kernel types digest, runs digest) of one program: the two tests
    share its runs."""
    source = PROGRAMS[program]()
    tables, seen = [], []
    for target, mode in CONFIGS:
        exe = compile_source(source, CompilerOptions(target=target))
        for _ in range(2):
            result = exe.run(machine=_machine(target, mode))
            summary = result.machine.fusion_summary()
            seen.append({
                "stats": result.stats.to_dict(),
                "output": result.output,
                "arrays": {name: [str(data.dtype), hashlib.sha256(
                    np.ascontiguousarray(data).tobytes()).hexdigest()]
                           for name, data in result.arrays.items()},
                "counters": {key: summary[key] for key in COUNTERS
                             if key in summary},
            })
        tables.append({
            name: {repr(sig): types for sig, types in _types(plan).items()}
            for name, routine in sorted(exe.routines.items())
            if (plan := getattr(routine, "_plan", None)) is not None})
    return _sha(tables), _sha(seen)


@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_kernel_types_are_pinned(program):
    assert _pins(program)[0] == KERNEL_TYPES[program]


@pytest.mark.skipif(ckernel._compiler() is None,
                    reason="trip_native_declined names the missing compiler")
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_runs_are_pinned(program):
    assert _pins(program)[1] == RUNS[program]


KERNEL_TYPES = {
    "blocking":
        "46c5e4aca5022aa92de9e1079ed5226bf067d83db1adfc3d9935e9521b2572eb",
    "cg":
        "98210dc9ce10e4d1cdc0dbc53cd626b6549a4a6dfb6a861db2aac99011c4b8c9",
    "deck":
        "5555a9ec1d6b0b31ea314f0412e97d8cd2c31922c9673f677bacfd54561d66cc",
    "forall":
        "a2395f73ddb6b340378953151be9aa6939df5064bb9e15ce94c364780a639387",
    "heat":
        "1ab8dc9f2448158d1248774fcb088264eb6f1897fd7943b2ca856b68acad13e4",
    "life":
        "5dcb553a15291d38fb1b9c1982acf10c38a0cb43e29502fd5fab0ca1b306bd63",
    "matmul":
        "da8b54af368c4909cab2e7a079c9136a69a93ea1cbe5678970f2d1761211794c",
    "redblack":
        "269123efdb3ed9e57152c9d68edac8d60627ff72b53dd4a0ae2e2b49c848f549",
    "reduction":
        "3dd2de536fa79cc2b9d02dae9b2447228181a77d20bb3f253bf3efd15e573677",
    "saxpy":
        "29580d2a84fa9fef8ce0bfa654fe7788f7f97c8d7df354321c2747dd057a56e7",
    "swe":
        "2dc1084aef0644e23415b4722478495bd97bc28ffae851ec914c2cdb005506bd",
    "where":
        "c888215543826ed52a4eb9842ab3153d36ab1a3977829a00269fc610ad5bf1e4",
}
RUNS = {
    "blocking":
        "24f41a9696f6231a4e84b51460d11d0f0d7cbe9a9219b42c3f36844342fff58b",
    "cg":
        "34d930097418914712a47aa61815409b9ef1e77883146aab20e326fcbff96624",
    "deck":
        "ed147091dce00f7451932e98172e4c9cc65569345c54416dd0350b25607b7e73",
    "forall":
        "8322fc8cab91b9f32ecd5f4f6464f359eb94cbfb758dd9e0d530509828440f5c",
    "heat":
        "b6f8462fe83ec0926358eff05659e4f998cefbff09e3da80a99ba1129c1ef832",
    "life":
        "157b78d951d4a514d1ae106a881edb00c8423d4ed2fcb6c26ea24005eb908c30",
    "matmul":
        "55186628d7ce01305afcdb15cc70df894f567c258f5e173581e697b1e3c8a9ff",
    "redblack":
        "86348c446f69326cdf68e3de312c750639cb0eb77748a972ea686dd0d36aadb8",
    "reduction":
        "5391396cddb2cc78db63dc4db9f25e37aded27c41d5ea9c42c511a215017b2a1",
    "saxpy":
        "eea0b6710b8bcb73f76d376b0c00bb54632bdeebaf6ccd5c1f2b1af7b736ce5d",
    "swe":
        "6ed483366d8b0f849bdb2bfaa02f80658c08ab2c81c1fbcb647b111be057a709",
    "where":
        "eb4997a80e858865ae83631f8f0a42f06184472503a98a3cbd5ba6fdcf4dcbe5",
}
