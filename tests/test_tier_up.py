"""The tier-up rule: a kernel starts blocked-numpy and earns its C.

Every cache entry of :mod:`repro.machine.execplan` is built by the
blocked numpy emitter, counts the work it streams (per launch and
routine of the group, ``n + _LAUNCH_COST`` elements), and is offered
to the C emitter once, when that crosses ``_TIER_UP`` — whatever the
machine or the engine (``docs/PIPELINE.md`` section 6).  These tests
pin what the rule promises: the crossing cannot be seen in arrays or
``RunStats``, it falls on a trip that launches and lengths alone
decide, traffic too short to repay a ``cc`` run never starts one, and a
C text is compiled once per process whoever asks.
"""

from __future__ import annotations

import json
import math
import subprocess

import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import ckernel, execplan, kernel
from repro.machine.ckernel import _compiler
from repro.programs.kernels import (heat_source, life_source,
                                    where_source)
from repro.programs.swe import swe_source
from repro.service.jobs import execute_request
from repro.targets import build_machine

from .test_execplan import N, _axpy, _Trips

needs_cc = pytest.mark.skipif(_compiler() is None, reason="no C compiler")
NOTHING_DECLINED = {"c": {}, "blocked": {}}


def _launches(count: int, n: int, routines: int = 1) -> int:
    """The budget that ``count`` launches of a group of ``routines``
    over ``n`` elements just meet."""
    return count * routines * (n + kernel._LAUNCH_COST)


# ---------------------------------------------------------------------------
# The crossing is invisible
# ---------------------------------------------------------------------------

TRIPS = 12
GRID = 8
# A loop routine the C emitter still declines (``max``: numpy's NaN
# payload rule is not C's), and a one-block program it declines
# (``sin``/``cos`` are numpy's SIMD routines, not libm).
CLIP = f"""
program clip
integer, parameter :: n = {GRID}
double precision, array(n,n) :: u
integer it
forall (i=1:n, j=1:n) u(i,j) = mod(i*3 + j, 7) * 0.25d0
do it = 1, {TRIPS}
   u = max(u * 1.5d0 - 0.5d0, cshift(u, 1, 1) * 0.5d0)
end do
end program clip
"""
ONCE = f"""
program once
integer, parameter :: n = {GRID}
double precision, array(n,n) :: f
forall (i=1:n, j=1:n) f(i,j) = sin(i * 0.2d0) * cos(j * 0.2d0)
end program once
"""
SOURCES = {"swe": swe_source(n=GRID, itmax=TRIPS),
           "heat": heat_source(GRID, TRIPS),
           "life": life_source(GRID, TRIPS),
           "clip": CLIP}
# (target, engine): host runs its default engine, fused.
CONFIGS = [("cm2", "fast"), ("cm2", "fused"), ("cm5", "fast"),
           ("cm5", "fused"), ("host", None)]


def _fresh_run(source, target, mode, runs=1):
    """The last of ``runs`` runs of a fresh compile: new plans, so new
    cache entries."""
    exe = compile_source(source, CompilerOptions(target=target),
                         cache=False, incremental=False)
    for _ in range(runs):
        result = exe.run(machine=build_machine(target, exec_mode=mode))
    return result


@pytest.fixture
def asks(monkeypatch):
    """What the C emitter answered, per ask: a kernel or not."""
    answers = []
    inner = execplan.try_native

    def counted(*args, **kwargs):
        answers.append(False)
        kern = inner(*args, **kwargs)   # raises to decline
        answers[-1] = True
        return kern

    monkeypatch.setattr(execplan, "try_native", counted)
    return answers


def _assert_same_results(got, never, oracle):
    for name, data in oracle.arrays.items():
        assert got.arrays[name].dtype == data.dtype, name
        assert got.arrays[name].tobytes() == data.tobytes(), name
    assert got.output == oracle.output
    assert got.stats.to_dict() == never.stats.to_dict()


@needs_cc
@pytest.mark.parametrize("target,mode", CONFIGS)
@pytest.mark.parametrize("prog", sorted(SOURCES))
def test_crossing_mid_run_cannot_be_seen(prog, target, mode, asks,
                                         monkeypatch):
    source = SOURCES[prog]
    oracle = _fresh_run(source, target, "interp")
    monkeypatch.setattr(kernel, "_TIER_UP", math.inf)
    never = _fresh_run(source, target, mode)
    assert not asks
    # The timestep loop's lone entries cross on their fifth launch of
    # twelve (its groups of k sooner: a launch streams k routines'
    # worth); a lone site that runs once per program never gets there.
    monkeypatch.setattr(kernel, "_TIER_UP", _launches(4, GRID * GRID))
    crossed = _fresh_run(source, target, mode)
    _assert_same_results(crossed, never, oracle)

    got = crossed.machine.fusion_summary()
    want = never.machine.fusion_summary()
    assert asks, "no entry got hot: the test crosses nothing"
    assert got["tier_ups"] == sum(asks)
    assert got["native_build_failures"] == 0
    # Every entry asked about was found hot by a replaying site, which
    # dropped its record once — promoted or declined — and took it up
    # again on the same trip.
    assert got["launch_drop_reasons"]["tier_up"] == len(asks)
    assert got["launch_drops"] == want["launch_drops"] + len(asks)
    assert got["launch_replays"] == want["launch_replays"] - len(asks)
    assert want["tier_ups"] == want["launch_drop_reasons"]["tier_up"] == 0
    assert want["declined"] == NOTHING_DECLINED
    if prog == "clip":      # the decline is remembered, replays resume
        assert not any(asks)
        assert got["declined"] == {"c": {"op fmaxv": 1}, "blocked": {}}
    else:                   # life's integer streams included
        assert all(asks)
        assert got["declined"] == want["declined"]


@needs_cc
@pytest.mark.parametrize("target,mode", CONFIGS)
def test_entry_found_hot_on_the_ordinary_path_has_no_record_to_drop(
        target, mode, asks, monkeypatch):
    """A program of one block (``sin``/``cos``: outside the C
    whitelist) runs its kernel once per program run, so it gets hot
    across runs: the third run meets it hot with no record to drop, and
    the refusal is remembered in the fourth.  (Red-black, which stood
    here, has nothing the step engine runs any more: its sweeps' ``mod``
    masks are kernels and cross like any other.)"""
    source = ONCE
    oracle = _fresh_run(source, target, "interp")
    monkeypatch.setattr(kernel, "_TIER_UP", math.inf)
    never = _fresh_run(source, target, mode, runs=4)
    monkeypatch.setattr(kernel, "_TIER_UP", _launches(1, GRID * GRID))
    crossed = _fresh_run(source, target, mode, runs=4)
    _assert_same_results(crossed, never, oracle)
    got = crossed.machine.fusion_summary()
    assert asks == [False] and got["tier_ups"] == 0
    assert got["launch_drops"] == 0
    assert got["declined"] == {"c": {"op fsinv": 1}, "blocked": {}}


@needs_cc
@pytest.mark.parametrize("mode,fused,host", [("fast", False, False),
                                             ("fused", True, False),
                                             ("fast", False, True)])
def test_crossing_redraws_spill_slots(mode, fused, host, monkeypatch):
    """A spilling routine crosses mid-run: ``_Trips`` compares arrays
    (and, unfused, RunStats) with ``interp`` after every trip."""
    monkeypatch.setattr(kernel, "_TIER_UP", _launches(3, N, 1 + fused))
    t = _Trips(mode, fused, routine=_axpy(name="spills_up", spill=True),
               host=host)
    got = t.trip(8)
    # Trip 1 records specs, 2-4 run blocked (3 and 4 replaying), trip 5
    # drops the record, asks for C and records again, 6-8 replay it.
    assert got["tier_up"] == got["drops"] == 1
    assert got["records"] == 2 and got["replays"] == 5
    assert t.engine.fusion_metrics["tier_ups"] == 1
    (record,) = t.engine._launches.values()
    assert record.launch.kern.native
    if host:
        assert t.engine.host_metrics["native_builds"] == 1
        assert t.engine.host_metrics["blocked_dispatches"] == 3
        assert t.engine.host_metrics["native_dispatches"] == 4


# ---------------------------------------------------------------------------
# Which tier an entry stopped at, and why
# ---------------------------------------------------------------------------


@needs_cc
def test_summary_says_why_an_entry_did_not_get_the_better_tier(monkeypatch):
    monkeypatch.setattr(kernel, "_TIER_UP", 0)

    def declined(source, target="cm2", mode="fast"):
        summary = _fresh_run(source, target, mode,
                             runs=3).machine.fusion_summary()
        json.dumps(summary)     # what --stats-json and the service send
        return summary["declined"]

    for target, mode in CONFIGS:
        # Integer streams, masks and constant mod/div are all C now.
        assert declined(SOURCES["life"], target, mode) == NOTHING_DECLINED
        # The init block's transcendentals are numpy's, not libm's.
        assert declined(SOURCES["swe"], target, mode) == {
            "c": {"op fsinv": 1}, "blocked": {}}
    # Twelve trips through a refused entry are one entry, not twelve.
    assert declined(CLIP) == {"c": {"op fmaxv": 1}, "blocked": {}}
    # Figure 10's blocks compute on an integer scalar argument alone:
    # values no blocked kernel can stream.
    where = declined(where_source(GRID))
    assert where["c"] == {} and sum(where["blocked"].values()) == 2
    assert all(reason.startswith("scalar") for reason in where["blocked"])
    # The oracle builds no kernels and so declines none.
    assert declined(CLIP, mode="interp") == NOTHING_DECLINED


# ---------------------------------------------------------------------------
# Determinism: launches and lengths decide, never the clock
# ---------------------------------------------------------------------------


def _promotion_trip(name, fused, limit=12):
    t = _Trips("fused" if fused else "fast", fused,
               routine=_axpy(name=name))
    for trip in range(1, limit + 1):
        t.trip()
        if t.engine.fusion_metrics["tier_ups"]:
            return trip
    return None


@needs_cc
@pytest.mark.parametrize("fused", [False, True])
@pytest.mark.parametrize("budget", [1, _launches(1, N), _launches(1, N) + 1,
                                    _launches(5, N), _launches(5, N) + 1])
def test_promotion_trip_is_the_closed_form(budget, fused, monkeypatch):
    monkeypatch.setattr(kernel, "_TIER_UP", budget)
    # Trip 1 is the recording pass, so launch L is trip L + 1; a group
    # of k routines is hot after ceil(budget / (k (n + _LAUNCH_COST)))
    # launches and the next trip finds it so.
    k = 2 if fused else 1       # ``_Trips`` fuses its routine with one more
    want = 2 + math.ceil(budget / (k * (N + kernel._LAUNCH_COST)))
    trips = [_promotion_trip(f"closed_form_{budget}_{fused}_{i}", fused)
             for i in (0, 1)]
    assert trips == [want, want]


def test_the_rule_reads_no_clock_and_no_switch():
    """The budget is two module constants (``docs/PIPELINE.md`` section
    6); the shipped values put the crossing where the measurements do."""
    assert (kernel._LAUNCH_COST, kernel._TIER_UP) == (4096, 1 << 24)
    per_launch = 512 * 512 + kernel._LAUNCH_COST
    assert math.ceil(kernel._TIER_UP / per_launch) == 64      # 512 x 512
    per_launch = 32 * 32 + kernel._LAUNCH_COST
    assert math.ceil(kernel._TIER_UP / per_launch) == 3277    # 32 x 32


# ---------------------------------------------------------------------------
# Short traffic never shells out
# ---------------------------------------------------------------------------


def test_short_requests_never_start_a_compiler(monkeypatch):
    """108 distinct ``run`` requests of the sizes the service sees
    (n <= 96, <= 6 steps), a third under each engine: no native kernel,
    no subprocess."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"a short request started {args!r}")

    monkeypatch.setattr(subprocess, "run", refuse)
    monkeypatch.setattr(ckernel, "_SO_CACHE", {})
    engines = ({}, {"exec": "fused"}, {"options": {"target": "host"}})
    sent = 0
    for generate in (heat_source, life_source, swe_source):
        for n in (32, 48, 64, 96):
            for steps in (1, 3, 6):
                for tag, engine in enumerate(engines):
                    source = generate(n, steps) + f"! request {tag}\n"
                    response = execute_request(
                        {"op": "run", "source": source, **engine})
                    assert response["ok"], response
                    fusion = response["fusion"]
                    assert fusion["tier_ups"] == 0, (n, steps, engine)
                    assert fusion["native_builds"] == 0
                    assert fusion["native_build_failures"] == 0
                    sent += 1
    assert sent == 108 and not ckernel._SO_CACHE


# ---------------------------------------------------------------------------
# One C text, one build, whoever asks
# ---------------------------------------------------------------------------


@needs_cc
def test_a_text_is_compiled_once_for_cm2_and_host(monkeypatch):
    monkeypatch.setattr(kernel, "_TIER_UP", 0)
    monkeypatch.setattr(ckernel, "_SO_CACHE", {})
    source = heat_source(GRID, 4)
    summaries = {}
    for target in ("cm2", "host"):
        exe = compile_source(source, CompilerOptions(target=target),
                             cache=False, incremental=False)
        machine = build_machine(target, exec_mode="fast")
        exe.run(machine=machine)
        summaries[target] = machine.fusion_summary()
        if target == "cm2":
            built = len(ckernel._SO_CACHE)
    assert built > 0
    assert summaries["cm2"]["native_builds"] == built
    # The host's entries are its own (other plans), their texts are not.
    assert summaries["host"]["tier_ups"] == summaries["cm2"]["tier_ups"] > 0
    assert summaries["host"]["native_builds"] == 0
    assert summaries["host"]["native_build_ms"] == 0.0
    assert len(ckernel._SO_CACHE) == built
