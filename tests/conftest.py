"""Shared fixtures for the test suite."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import settings

from repro.driver.compiler import CompilerOptions, compile_source
from repro.driver.reference import run_reference
from repro.frontend.parser import parse_program
from repro.lowering import check_program, lower_program
from repro.machine import Machine, ckernel, fieldwise_model, slicewise_model
from repro.machine import execplan
from repro.machine import kernel as blocked
from repro.runtime.host import HostExecutor
from repro.transform import optimize

# Tier-1 draws the same examples on every run and neither reads nor
# writes the example database, so one tree gives one outcome.
# ``--hypothesis-profile explore`` draws fresh ones instead (the
# scheduled CI job); a failure it finds becomes an explicit ``@example``.
settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False, database=None,
                          print_blob=True)
settings.load_profile("tier1")


@pytest.fixture
def small_machine() -> Machine:
    """A CM/2 with 64 PEs: identical semantics, smaller geometries."""
    return Machine(slicewise_model(n_pes=64))


# -- the C emitter's share of tier-1 ------------------------------------------
#
# A kernel gets C once it has streamed enough to repay the ``cc`` run, and
# no tier-1 program runs that long: left to the rule, the suite would
# compare blocked numpy with the oracle and the C emitter with nothing.
# The modules that carry the emitter's equivalence tests ask for
# ``eager_c``; the session counts what ``ckernel._load`` hands out per
# module, prints it, and — with a C compiler — fails when one of them
# falls below its floor.
#
# The other way round for the fallback: an oracle run that stands in for
# a kernel (``execplan.run_oracle`` under a non-``interp`` engine) over a
# signature the plan has already seen is a dispatch no kernel ran.  Only
# the engine modules send such dispatches on purpose, so the session
# counts them per module beside the loads and fails when any other
# module sends a different number than its pin — real traffic routed to
# the oracle shows up here.
#
# The same trap one level up: a loop gets a trip record only when it is
# long enough to repay one, and tier-1 loops are short.  The session
# counts the trips run from a record per module — in Python or by the
# native trip driver — and fails when the module that carries their
# equivalence tests falls below its floor, or (with a C compiler) runs
# fewer trips through the driver than its floor there.  It counts the
# records runs bound to their homes the same way (``HostExecutor._bind``,
# every kept record a run runs from), so that path cannot go unused.


@pytest.fixture(scope="module")
def eager_c():
    """Every blocked kernel is hot at birth: the C emitter is asked at
    once, for lone dispatches and groups, on every machine.  Yields the
    rule's own budget for the tests that put it back."""
    with pytest.MonkeyPatch.context() as patch:
        earned = blocked._TIER_UP
        patch.setattr(blocked, "_TIER_UP", 0)
        yield earned


# Floors per module, under what five runs of the suite handed out
# (hypothesis draws move the first three): 609-675, 213-279, 58-77,
# 114, 35; 1046-1154 in all.  Before the emitter took integer streams:
# 174 / 185 / 12 / 52 / 35, 458 in all.
C_MODULE_FLOOR = {"test_shift_fold.py": 500, "test_execplan.py": 180,
                  "test_plan.py": 45, "test_tier_up.py": 100,
                  "test_host_backend.py": 30}
C_TOTAL_FLOOR = 950
ENGINE_MODULES = frozenset(C_MODULE_FLOOR) - {"test_host_backend.py"}
# The text pin and the vectorisation check run the corpus's declined
# entries (the fallback's own traffic) on purpose: their fallbacks
# count under their own names, beside the engine modules, and the rest
# of their modules is held to its pin.
FALLBACK_EXEMPT = frozenset(
    {"test_ckernel_split.py::test_every_emitted_text_is_pinned",
     "test_vectorised.py::test_every_element_loop_is_vectorised"})
# Outside them, the exact count per module; every other module sends 0.
FALLBACK_PINS = {"test_dispatch_pins.py": 6, "test_end_to_end.py": 2,
                 "test_language_corners.py": 1}
# Threads racing over one executable, on purpose: what these tests count
# depends on the interleaving (a first trip runs on the oracle after
# another thread saw its signature, a record one run learned is
# replaced), so they count nowhere and the session's line is the same
# run to run.  Their own assertions hold them.
UNCOUNTED = frozenset(
    {"test_trip_records.py::test_threads_bind_one_executable_at_once"})
# Under what five runs counted (hypothesis draws the trip counts):
# 3411-3770 — 6820-7730 once every equivalence also ran with the
# driver off, 3681-4049 of them by the driver (0 with no compiler:
# that floor is then not checked).
TRIP_MODULE_FLOOR = {"test_trip_records.py": 2500}
TRIP_NATIVE_FLOOR = {"test_trip_records.py": 2500}
# Records bound, one run: 966.
TRIP_BIND_FLOOR = {"test_trip_records.py": 700}
_loads: Counter = Counter()     # test file -> ckernel._load calls
_fallbacks: Counter = Counter()     # test file -> dispatches that fell back
_trips: Counter = Counter()     # test file -> trips run from a record
_natives: Counter = Counter()   # test file -> of them, by the driver
_binds: Counter = Counter()     # test file -> kept records bound
_running: list = [None]
_fallback_at: list = [None]     # where a fallback counts: module, or test
_shortfalls: list[str] = []


def pytest_sessionstart(session):
    inner = ckernel._load

    def counted(*args, **kwargs):
        _loads[_running[0]] += 1
        return inner(*args, **kwargs)

    ckernel._load = counted
    oracle = execplan.run_oracle

    def counted_oracle(d, sig=None):
        _fallbacks[_fallback_at[0]] += sig is not None and sig in d.plan.seen
        return oracle(d, sig)

    execplan.run_oracle = counted_oracle
    # Every trip run from a record is charged through
    # ``Machine.replay_trips``; the driver runs the native ones.
    replay_trips = Machine.replay_trips

    def counted_trips(machine, records, trips):
        _trips[_running[0]] += trips
        return replay_trips(machine, records, trips)

    Machine.replay_trips = counted_trips
    drive = ckernel.TripDriver.__call__

    def counted_drive(driver, trips):
        _natives[_running[0]] += trips
        return drive(driver, trips)

    ckernel.TripDriver.__call__ = counted_drive
    bind = HostExecutor._bind

    def counted_bind(executor, *args):
        bound = bind(executor, *args)
        _binds[_running[0]] += bound is not None
        return bound

    HostExecutor._bind = counted_bind


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    module = item.path.name
    if f"{module}::{item.originalname}" in UNCOUNTED:
        module = None       # the counters' sink, never read
    test = f"{item.path.name}::{item.name}"
    _running[0] = module
    _fallback_at[0] = test if test in FALLBACK_EXEMPT else module
    _loads[module] += 0
    yield


def pytest_sessionfinish(session, exitstatus):
    for counts in (_loads, _fallbacks, _trips, _natives, _binds):
        counts.pop(None, None)      # what the UNCOUNTED tests did
    option = session.config.option
    if (exitstatus != 0 or option.keyword or option.markexpr
            or any("::" in arg for arg in session.config.args)):
        return      # a module cut short says nothing about its floor
    cc = ckernel._compiler() is not None    # no C floor without one
    for module, floor in C_MODULE_FLOOR.items():
        if cc and module in _loads and _loads[module] < floor:
            _shortfalls.append(f"{module}: {_loads[module]} native kernels, "
                               f"floor {floor}")
    total = sum(_loads.values())
    if (cc and all(m in _loads for m in C_MODULE_FLOOR)
            and total < C_TOTAL_FLOOR):
        _shortfalls.append(f"whole suite: {total} native kernels, "
                           f"floor {C_TOTAL_FLOOR}")
    for module, floor in TRIP_MODULE_FLOOR.items():
        if module in _loads and _trips[module] < floor:
            _shortfalls.append(f"{module}: {_trips[module]} trips run from "
                               f"a trip record, floor {floor}")
    for module, floor in TRIP_BIND_FLOOR.items():
        if module in _loads and _binds[module] < floor:
            _shortfalls.append(f"{module}: {_binds[module]} kept records "
                               f"bound, floor {floor}")
    for module, floor in TRIP_NATIVE_FLOOR.items():
        if cc and module in _loads and _natives[module] < floor:
            _shortfalls.append(f"{module}: {_natives[module]} trips run by "
                               f"the native trip driver, floor {floor}")
    for module in sorted(set(_loads) - ENGINE_MODULES):
        pin = FALLBACK_PINS.get(module, 0)
        if _fallbacks[module] != pin:
            _shortfalls.append(f"{module}: {_fallbacks[module]} dispatches "
                               f"fell back to the oracle, pinned at {pin}")
    if _shortfalls:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def _per_module(counts: Counter) -> str:
    per = ", ".join(f"{module} {count}"
                    for module, count in sorted(counts.items()) if count)
    return f"{sum(counts.values())} ({per})"


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"native kernels handed out by ckernel._load: {_per_module(_loads)}"
        f"; dispatches that fell back to the oracle: "
        f"{_per_module(_fallbacks)}; trips run from a trip record: "
        f"{_per_module(_trips)}, by the native driver: "
        f"{_per_module(_natives)}; kept trip records bound: "
        f"{_per_module(_binds)}")
    for line in _shortfalls:
        terminalreporter.write_line(f"engine coverage fell: {line}",
                                    red=True)


def lower(source: str):
    """Parse + lower + check; returns the LoweredProgram."""
    lowered = lower_program(parse_program(source))
    check_program(lowered.nir, lowered.env)
    return lowered


def transform(source: str, options=None):
    """Parse + lower + optimize; returns the TransformedProgram."""
    return optimize(lower(source), options)


def compile_and_run(source: str, options: CompilerOptions | None = None,
                    machine: Machine | None = None):
    """Full pipeline compile + run on a fresh small machine."""
    exe = compile_source(source, options)
    return exe.run(machine or Machine(slicewise_model(n_pes=64)))


def assert_matches_reference(source: str,
                             options: CompilerOptions | None = None,
                             rtol: float = 1e-9,
                             check_scalars: tuple[str, ...] = ()):
    """Compile+run and compare every array with the reference oracle."""
    result = compile_and_run(source, options)
    ref = run_reference(parse_program(source))
    for name, expected in ref.arrays.items():
        got = result.arrays[name]
        np.testing.assert_allclose(
            got, expected, rtol=rtol, atol=1e-12,
            err_msg=f"array '{name}' diverges from the reference")
    for name in check_scalars:
        assert np.isclose(float(result.scalars[name]),
                          float(ref.scalars[name]), rtol=rtol), name
    return result, ref
