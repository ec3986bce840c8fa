"""Trip records: a host loop runs its steady trips whole.

One level above the launch records (``docs/PIPELINE.md`` section 16):
a trip whose every dispatch ran a kernel leaves a trip record with the
executable — ops, sites, templates, never an array — and every run
binds the kept records to its own homes and scalars where a trip
starts, then runs the trips they cover whole: in one native call when
every launch is C (a staged array ping-ponging with its scratch), else
in a Python loop over the launches.  These tests pin what that
promises — a run cannot be told from one whose executor never learns
or binds a record (arrays bit-identical to ``interp``, ``RunStats``
equal, every ``fusion_summary()`` counter except the ``trip_*`` ones
equal), nor from one whose trips all stay in Python (every counter but
``trip_native*`` equal) — for whole programs and generated bodies,
through every exit, for the bodies that must never record or never
leave Python, for the op after a loop, across runs, inputs and threads;
and that a trip run whole walks no expression tree and draws no
scratch.  The last sections pin one batch per trip of a barrier-free
loop, the batch cap, ping-pong and bisected guards.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import os
import select
import subprocess
import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import nir
from repro.backend.cm2 import batches
from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import BufferPool, ckernel, execplan, kernel
from repro.machine.ckernel import _compiler
from repro.programs.kernels import (cg_source, deck_source, heat_source,
                                    life_source)
from repro.programs.swe import swe_source
from repro.runtime import host
from repro.runtime.host import (HostExecutor, IfOp, Loop, NodeCall,
                                ScalarInit, ScalarMove, format_host_program)
from repro.runtime.nir_eval import NirEvaluator
from repro.service.jobs import execute_request
from repro.targets import build_machine
from repro.transform import Options as TransformOptions

from .test_execplan import _SOURCES, _config_machine, _exe

# Tier-1 programs are too short to earn a ``cc`` run: see conftest.
pytestmark = pytest.mark.usefixtures("eager_c")

needs_cc = pytest.mark.skipif(_compiler() is None, reason="no C compiler")

# fast and fused on cm2, fused on host.
CONFIGS = ("fast", "fused", "host")
NATIVE_KEYS = ("trip_native", "trip_native_declined")
TRIP_KEYS = ("trip_records", "trip_replays", "trip_exits",
             "trip_exit_reasons", "trip_declined") + NATIVE_KEYS


def _compile(source, config, options=None):
    if options is None:
        options = CompilerOptions(
            target="host" if config == "host" else "cm2")
    return compile_source(source, options, cache=False, incremental=False)


def _entries(prog):
    """The entry trips a warm run of corpus program ``prog`` runs one at
    a time, each from a record of its own, in Python: SWE's first (it
    takes the ``ncycle > 1`` else branch, and under ``fused`` and
    ``host`` joins the prologue's last batch).  Every other program's
    prologue batch is flushed before its loop."""
    return int(prog == "swe")


def _native_declined(reason=None):
    """What ``trip_native_declined`` says of one recorded loop execution
    the driver should have declined for ``reason`` (None: ran it): with
    no C compiler no kernel is C, and every such loop says so."""
    if _compiler() is None:
        return {"no compiler": 1}
    return {} if reason is None else {reason: 1}


@contextlib.contextmanager
def _never_recording():
    """Executors that take the ordinary path on every trip, learning no
    record and binding none an earlier run kept (test-side: there is no
    product switch)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HostExecutor, "_build_trip", lambda self, *args: None)
        patch.setattr(HostExecutor, "_bind", lambda self, *args: None)
        yield


@contextlib.contextmanager
def _driver_off():
    """Executors that run every recorded trip in Python."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HostExecutor, "_trip_driver",
                      lambda self, records: "blocked kernel")
        yield


def _pair(exe, config, warm=2):
    """``(recording run, never-recording run, interp run, recording run
    with the driver off)`` of ``exe``, after ``warm`` runs that leave
    binding specs and kernels behind so they can be compared counter
    for counter."""
    for _ in range(warm):
        exe.run(machine=_config_machine(config))
    with _never_recording():
        want = exe.run(machine=_config_machine(config))
    # Both start from the records kept so far: a run may keep more.
    kept = {kind: dict(table) for kind, table in exe._trips.items()}
    with _driver_off():
        off = exe.run(machine=_config_machine(config))
    for kind, table in kept.items():
        exe._trips[kind].clear()
        exe._trips[kind].update(table)
    got = exe.run(machine=_config_machine(config))
    oracle = exe.run(machine=build_machine(exe.options.target,
                                           exec_mode="interp"))
    return got, want, oracle, off


def _assert_indistinguishable(got, want, oracle, off=None, but=()):
    assert got.output == want.output == oracle.output
    for name, data in oracle.arrays.items():
        assert got.arrays[name].dtype == data.dtype, name
        assert got.arrays[name].tobytes() == data.tobytes(), name
        assert want.arrays[name].tobytes() == data.tobytes(), name
    assert got.scalars == want.scalars == oracle.scalars
    assert got.stats.to_dict() == want.stats.to_dict()
    fs, ws = got.machine.fusion_summary(), want.machine.fusion_summary()
    assert set(TRIP_KEYS) <= set(fs)
    for key in ws:
        if key not in TRIP_KEYS and key not in but:
            assert fs[key] == ws[key], key
    assert ws["trip_records"] == ws["trip_replays"] == 0
    assert ws["trip_native"] == 0 and ws["trip_native_declined"] == {}
    if off is not None:
        # The same trips recorded, replayed and left, all in Python.
        for name, data in oracle.arrays.items():
            assert off.arrays[name].tobytes() == data.tobytes(), name
        assert off.scalars == got.scalars
        assert off.stats.to_dict() == got.stats.to_dict()
        fo = off.machine.fusion_summary()
        for key in fo:
            if key not in NATIVE_KEYS and key not in but:
                assert fs[key] == fo[key], key
        assert fo["trip_native"] == 0
    return fs


# ---------------------------------------------------------------------------
# (a) Whole programs and generated bodies: recording cannot be seen
# ---------------------------------------------------------------------------

@settings(max_examples=24, deadline=None)
@given(st.sampled_from(sorted(_SOURCES)), st.integers(16, 40),
       st.sampled_from(CONFIGS))
def test_recorded_run_is_indistinguishable(prog, trips, config):
    fs = _assert_indistinguishable(
        *_pair(_exe(prog, trips, config), config))
    # Every trip runs from a record the warm runs kept: the entry trips
    # one by one, then the driver runs every trip after them.
    entries = _entries(prog)
    assert fs["trip_records"] == 1 + entries and fs["trip_exits"] == 0
    assert fs["trip_replays"] == trips
    assert fs["trip_declined"] == {}
    assert fs["trip_native_declined"] == _native_declined()
    assert fs["trip_native"] == (trips - entries if _compiler() else 0)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("prog", sorted(_SOURCES))
@pytest.mark.parametrize("trips", [host._TRIP_MIN - 1, host._TRIP_MIN,
                                   host._TRIP_MIN + 1])
def test_native_trips_either_side_of_the_minimum(trips, prog, config):
    """One trip short of ``_TRIP_MIN`` nothing is recorded, so nothing
    runs natively or is declined; from it on, every trip run from the
    record goes through the driver."""
    fs = _assert_indistinguishable(
        *_pair(_exe(prog, trips, config), config))
    if trips < host._TRIP_MIN:
        assert fs["trip_declined"] == {"too short": 1}
        assert fs["trip_native"] == 0 and fs["trip_native_declined"] == {}
    else:
        assert fs["trip_native_declined"] == _native_declined()
        assert fs["trip_native"] == (trips - _entries(prog)
                                     if _compiler() else 0)
        assert fs["trip_replays"] == trips


# Bodies of whole-array statements over three arrays and two scalars,
# every value a contraction (no overflow in 40 trips), conditionals on
# the trip number included.
_STENCIL = st.builds(
    "{0} = {1} * 0.5d0 + cshift({2}, {3}, {4}) * {5}".format,
    st.sampled_from("abc"), st.sampled_from("abc"), st.sampled_from("abc"),
    st.sampled_from([-1, 1, 2]), st.sampled_from([1, 2]),
    st.sampled_from(["s", "t", "0.25d0"]))
_POINTWISE = st.builds("{0} = ({1} + {2}) * {3}".format,
                       st.sampled_from("abc"), st.sampled_from("abc"),
                       st.sampled_from("abc"),
                       st.sampled_from(["s", "0.375d0"]))
_SCALAR = st.sampled_from(["s = s * 0.5d0 + 0.125d0",
                           "t = mod(it, 3) * 0.25d0",
                           "s = t * 0.5d0"])
_SIMPLE = st.one_of(_STENCIL, _STENCIL, _POINTWISE, _SCALAR)


@st.composite
def _bodies(draw):
    lines = []
    for _ in range(draw(st.integers(2, 5))):
        if draw(st.integers(0, 3)) == 0:
            cond = draw(st.sampled_from(["mod(it, 5) == 0", "it > 3",
                                         "mod(it, 2) == 1"]))
            lines.append(f"if ({cond}) then")
            lines += draw(st.lists(_SIMPLE, min_size=1, max_size=2))
            if draw(st.booleans()):
                lines.append("else")
                lines += draw(st.lists(_SIMPLE, min_size=1, max_size=2))
            lines.append("end if")
        else:
            lines.append(draw(_SIMPLE))
    return lines


def _tapeable(lines, trips):
    return ("double precision a(8, 8), b(8, 8), c(8, 8)\n"
            "double precision s, t\ninteger it\n"
            "forall (i=1:8, j=1:8) a(i, j) = mod(i * 3 + j, 5) * 0.25d0\n"
            "forall (i=1:8, j=1:8) b(i, j) = mod(i + j * 2, 7) * 0.125d0\n"
            "c = 0.5d0\ns = 0.5d0\nt = 0.25d0\n"
            f"do it = 1, {trips}\n" + "\n".join(lines) + "\nend do\nend\n")


@settings(max_examples=30, deadline=None)
@given(_bodies(), st.integers(16, 32), st.sampled_from(CONFIGS))
def test_generated_bodies_are_indistinguishable(lines, trips, config):
    exe = _compile(_tapeable(lines, trips), config)
    fs = _assert_indistinguishable(*_pair(exe, config))
    assert (fs["trip_exits"]
            == sum(fs["trip_exit_reasons"].values()) <= host._TRIP_EXITS)
    # A record per exit and the first, besides those of entry trips.
    assert fs["trip_records"] <= fs["trip_exits"] + 1 + host._TRIP_ENTRIES
    # A move of ``it`` or of its own target declines the record, once; a
    # kernel the C emitter declines (or fails to build) keeps the loop
    # in Python; a body of scalar moves alone has no kernel to need a
    # compiler for.
    assert set(fs["trip_declined"]) <= {"varying scalar"}
    assert sum(fs["trip_declined"].values()) <= 1
    stayed = fs["trip_native_declined"]
    assert sum(stayed.values()) <= 1
    assert set(stayed) <= set(_native_declined("blocked kernel"))
    assert fs["trip_native"] <= fs["trip_replays"]


_GRIDS = {"swe": swe_source, "heat": heat_source, "life": life_source}


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("prog", sorted(_GRIDS))
def test_recorded_trips_interpret_nothing(prog, config, monkeypatch):
    """While a trip runs from its record — in Python or natively — no
    scalar expression is walked as a tree (each was compiled to a
    closure once) and no launch goes to the buffer pool (each owns its
    scratch)."""
    exe = _compile(_GRIDS[prog](32, 40), config)
    recorded = [False]
    calls: Counter = Counter()

    def flagged(name):
        inner = getattr(HostExecutor, name)

        def run(*args):
            recorded[0] = True
            try:
                return inner(*args)
            finally:
                recorded[0] = False
        monkeypatch.setattr(HostExecutor, name, run)

    def count(cls, name):
        inner = getattr(cls, name)

        def counted(*args, **kwargs):
            calls[name] += recorded[0]
            return inner(*args, **kwargs)
        monkeypatch.setattr(cls, name, counted)

    flagged("_run_trips")
    count(BufferPool, "acquire")
    count(NirEvaluator, "_eval")
    fs = exe.run(machine=_config_machine(config)).machine.fusion_summary()
    assert fs["trip_records"] == 1 and fs["trip_replays"] >= 40 - 5
    assert fs["trip_native"] >= (40 - 6 if _compiler() else 0)
    assert (calls["acquire"], calls["_eval"]) == (0, 0)


# ---------------------------------------------------------------------------
# (b) Exits, each counted under what stopped the record
# ---------------------------------------------------------------------------

_INIT = ("forall (i=1:8, j=1:8) a(i, j) = mod(i * 3 + j, 5) * 0.25d0\n")

FLIPS = ("double precision a(8, 8), b(8, 8), c(8, 8)\ndouble precision s\n"
         "integer it\n" + _INIT + "b = 0.25d0\nc = 0.0d0\ns = 0.5d0\n"
         "do it = 1, 30\n"
         "   a = a * 0.5d0 + cshift(b, 1, 1) * s\n"
         "   if (mod(it, 7) == 0) then\n"
         "      s = s * 0.5d0\n      c = c + cshift(a, 1, 1)\n   end if\n"
         "   b = b * 0.5d0 + cshift(a, 1, 1) * 0.25d0\n"
         "end do\nend\n")


@pytest.mark.parametrize("config", CONFIGS)
def test_condition_that_flips_exits_through_its_guard(config):
    exe = _compile(FLIPS, config)
    fs = _assert_indistinguishable(*_pair(exe, config))
    # Trips 7, 14 and 21 take the other branch and run on the ordinary
    # path, the third exit being the loop execution's last try.  The
    # rare branch updates ``s``, which the next record's launches must
    # see, and shifts ``a`` while the call that stores it is pending.
    # Every trip ends with its batch flushed, so the trip after an exit
    # finds none pending and runs from the steady record.
    assert fs["trip_exit_reasons"] == {"guard": 3, "tier_up": 0}
    assert fs["trip_exits"] == host._TRIP_EXITS
    assert fs["trip_records"] == host._TRIP_EXITS
    assert fs["trip_replays"] == 18


@needs_cc
@pytest.mark.parametrize("config", CONFIGS)
def test_the_driver_stops_before_the_trip_whose_guard_flips(config,
                                                           monkeypatch):
    """Each native run ends on the trip before a multiple of 7, which
    runs on the ordinary path — one ``guard`` exit each, as with the
    driver off."""
    exe = _compile(FLIPS, config)
    got, want, oracle, off = _pair(exe, config)
    runs = []       # (first trip run natively, the trip after the last)
    inner = HostExecutor._run_trips

    def watched(executor, trip, var, upcoming):
        ran = inner(executor, trip, var, upcoming)
        if trip.record.at is None:
            runs.append((upcoming[0], upcoming[ran]))
        return ran

    monkeypatch.setattr(HostExecutor, "_run_trips", watched)
    got = exe.run(machine=_config_machine(config))
    fs = _assert_indistinguishable(got, want, oracle, off)
    # Trip 21 is the third exit, after which the loop stays ordinary.
    assert [flip for _, flip in runs] == [7, 14, 21]
    assert all(first < flip for first, flip in runs)
    assert fs["trip_native"] == sum(flip - first for first, flip in runs)
    assert fs["trip_exit_reasons"]["guard"] == 3


CARRIES = ("double precision a(8, 8)\ndouble precision s\ninteger it\n"
           + _INIT + "s = 1.0d0\ndo it = 1, 20\n   s = it * 0.5d0\n"
           "   a = a + cshift(a, 1, 1) * s\nend do\nend\n")
HALVES = CARRIES.replace("s = it * 0.5d0", "s = s * 0.5d0")


@pytest.mark.parametrize("config", CONFIGS)
def test_scalar_argument_rides_the_batch_it_was_enqueued_with(config):
    """Under ``fused`` the call of trip *t* binds where it stands and
    is flushed where the trip ends: the launch must get the value its
    own enqueue saw.  ``s`` reads the loop variable (or its own value of
    the trip before), so the loop is declined a record once, as
    ``varying scalar``, and every trip runs on the ordinary path."""
    for source in (CARRIES, HALVES):
        exe = _compile(source, config)
        fs = _assert_indistinguishable(*_pair(exe, config))
        assert fs["trip_declined"] == {"varying scalar": 1}
        assert (fs["trip_records"] == fs["trip_replays"]
                == fs["trip_exits"] == 0)
        assert fs["trip_native"] == 0 and fs["trip_native_declined"] == {}


def _retyped(exe, delay=6):
    """``exe`` with its loop call's scalar fed through a delay line of
    ``delay`` scalar moves: Python ints for ``delay - 1`` trips, floats
    from then on, with no branch to announce it."""
    ops = list(exe.host_program.ops)
    at = next(i for i, op in enumerate(ops) if isinstance(op, Loop))
    loop = ops[at]

    def move(src, tgt):
        return ScalarMove(nir.MoveClause(nir.TRUE, src, nir.SVar(tgt)))

    line = [move(nir.SVar(f"k{i - 1}"), f"k{i}")
            for i in range(delay, 1, -1)]
    line.append(move(nir.float_const(0.5), "k1"))
    body = []
    for op in loop.body:
        if isinstance(op, NodeCall):
            op = dataclasses.replace(op, args=tuple(
                dataclasses.replace(arg, value=nir.SVar(f"k{delay}"))
                if arg.kind == "scalar" else arg for arg in op.args))
        body.append(op)
    ops[at] = dataclasses.replace(loop, body=tuple(line + body))
    ops[at:at] = [ScalarInit(f"k{i}", 1) for i in range(1, delay + 1)]
    return dataclasses.replace(exe, host_program=dataclasses.replace(
        exe.host_program, ops=tuple(ops)))


@pytest.mark.parametrize("config", CONFIGS)
def test_scalar_changing_type_mid_loop_is_declined_as_varying(config):
    """Each move of the delay line reads a scalar a later move of the
    trip assigns, so the loop gets no record; the ordinary path meets
    the type change, and its launch record is dropped for it."""
    exe = _retyped(_compile(
        "double precision a(8, 8)\ndouble precision s\ninteger it\n"
        + _INIT + "s = 0.25d0\ndo it = 1, 24\n"
        "   a = a * 0.5d0 + cshift(a, 1, 1) * s\nend do\nend\n", config))
    scalars = [arg.value for op in exe.host_program.ops
               if isinstance(op, Loop) for call in op.body
               if isinstance(call, NodeCall) for arg in call.args
               if arg.kind == "scalar"]
    assert scalars == [nir.SVar("k6")]
    fs = _assert_indistinguishable(*_pair(exe, config))
    assert fs["trip_declined"] == {"varying scalar": 1}
    assert fs["launch_drop_reasons"]["scalar_type"] == 1
    assert fs["trip_records"] == fs["trip_replays"] == 0


@needs_cc
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("prog", ["heat", "swe"])
def test_kernel_getting_hot_inside_a_recorded_loop(prog, config,
                                                   monkeypatch):
    """The crossing falls on the trip launches and lengths decide,
    record or no record: the trip at one of whose launches a kernel
    would be hot runs on the ordinary path, which asks the C emitter
    there."""
    asked = []      # node calls charged so far, at each ask
    inner = execplan.try_native

    def counted(*args, **kwargs):
        asked.append(running[0].stats.node_calls)
        return inner(*args, **kwargs)

    monkeypatch.setattr(execplan, "try_native", counted)
    # Lone entries cross on their 31st launch of 48, a group of k
    # on its (30 / k + 1)th: all of them inside a recorded trip.
    monkeypatch.setattr(kernel, "_TIER_UP",
                        30 * (8 * 8 + kernel._LAUNCH_COST))
    running = [None]
    runs = {}
    for recording in (False, True):
        # A fresh compile each: new plans, so new cache entries.
        exe = _compile(_SOURCES[prog](48), config)
        running[0] = _config_machine(config)
        del asked[:]
        if recording:
            runs[recording] = exe.run(machine=running[0])
        else:
            with _never_recording():
                runs[recording] = exe.run(machine=running[0])
        runs[recording] = (runs[recording], list(asked))
    (got, got_asked), (want, want_asked) = runs[True], runs[False]
    oracle = exe.run(machine=build_machine(exe.options.target,
                                           exec_mode="interp"))
    # The first of the two runs paid for the ``cc`` runs; the second
    # found the texts built.
    fs = _assert_indistinguishable(got, want, oracle,
                                   but=("native_builds", "native_build_ms"))
    assert got_asked == want_asked and got_asked
    assert fs["tier_ups"] == len(got_asked)
    assert fs["trip_exit_reasons"]["tier_up"] >= 1
    assert fs["trip_exits"] == fs["trip_exit_reasons"]["tier_up"]
    assert fs["trip_records"] == fs["trip_exits"] + 1


SHARED = ("double precision a(8, 8), b(8, 8), c(4, 4)\ninteger it\n"
          + _INIT + "b = 0.25d0\nc = 0.5d0\ndo it = 1, 40\n"
          "   a = a * 0.5d0 + b * 0.25d0\n   c = c * 0.5d0 + 0.125d0\n"
          "   b = b * 0.5d0 + cshift(a, 1, 1) * 0.25d0\nend do\nend\n")


def _twice(exe):
    """``exe`` with its loop's first call made again after the second:
    a second op over the same routine, so both launch the one kernel.
    Under ``fused`` the batch the shift flushes mixes 8x8 and 4x4
    calls, which no group may run: it replays call by call, several
    launch records in one flush."""
    ops = list(exe.host_program.ops)
    at = next(i for i, op in enumerate(ops) if isinstance(op, Loop))
    body = ops[at].body
    ops[at] = dataclasses.replace(
        ops[at], body=body[:2] + (dataclasses.replace(body[0]),) + body[2:])
    return dataclasses.replace(exe, host_program=dataclasses.replace(
        exe.host_program, ops=tuple(ops)))


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("launches", [20, 21])
def test_kernel_shared_by_two_records_tiers_up_where_it_would(
        launches, config, monkeypatch):
    """Two launch records of one trip (of one flush, under ``fused``)
    run one blocked kernel; it crosses ``_TIER_UP`` on its 21st or
    22nd launch — the first or the second of a trip's two.  Trips run
    from the record in Python stop before the trip the crossing falls
    on, so the ordinary path asks the C emitter at the very launch a
    never-recording executor does."""
    asked = []      # node calls charged so far, at each ask
    inner = execplan.try_native

    def counted(*args, **kwargs):
        asked.append(running[0].stats.node_calls)
        return inner(*args, **kwargs)

    monkeypatch.setattr(execplan, "try_native", counted)
    monkeypatch.setattr(kernel, "_TIER_UP",
                        launches * (8 * 8 + kernel._LAUNCH_COST))
    running = [None]
    runs = {}
    for recording in (False, True):
        # New plans each; the first run takes every signature's first
        # trip, then its kernels are forgotten.
        exe = _twice(_compile(SHARED, config))
        running[0] = _config_machine(config)
        exe.run(machine=running[0])
        monkeypatch.setattr(execplan, "_MEGA_KERNELS",
                            type(execplan._MEGA_KERNELS)())
        running[0] = _config_machine(config)
        del asked[:]
        with contextlib.ExitStack() as stack:
            if not recording:
                stack.enter_context(_never_recording())
            runs[recording] = (exe.run(machine=running[0]), list(asked))
    (got, got_asked), (want, want_asked) = runs[True], runs[False]
    oracle = exe.run(machine=build_machine(exe.options.target,
                                           exec_mode="interp"))
    fs = _assert_indistinguishable(got, want, oracle,
                                   but=("native_builds", "native_build_ms"))
    ws = want.machine.fusion_summary()
    assert got_asked == want_asked and got_asked
    for key in ("tier_ups", "launch_drop_reasons", "megakernel_builds"):
        assert fs[key] == ws[key], key
    assert fs["megakernel_builds"] == 0     # no group: records, call by call
    assert fs["trip_exit_reasons"]["tier_up"] >= 1
    assert fs["trip_records"] >= 2 and fs["trip_replays"] >= 16


# ---------------------------------------------------------------------------
# (c) Bodies that never record, and why
# ---------------------------------------------------------------------------

REDUCES = ("double precision a(8, 8)\ndouble precision s\ninteger it\n"
           + _INIT + "s = 0.0d0\ndo it = 1, 20\n"
           "   a = a * 0.5d0 + cshift(a, 1, 1) * 0.25d0\n"
           "   s = s + sum(a)\nend do\nend\n")
SHORT = CARRIES.replace("1, 20", "1, 15")


_INELIGIBLE = {
    "cg": (cg_source(16, 20), None, "op ReduceMove"),
    "deck": (deck_source(64, 32), None, "op ElementMove"),
    "reduction": (REDUCES, None, "op ReduceMove"),
    # The section 5.3.2 model is a cm2 backend option.
    "neighborhood": (heat_source(8, 20), CompilerOptions.neighborhood(),
                     "halo stream"),
    "short": (SHORT, None, "too short"),
}


@pytest.mark.parametrize("case,config", [
    (case, config) for case in _INELIGIBLE for config in CONFIGS
    if (case, config) != ("neighborhood", "host")])
def test_ineligible_loop_is_declined_with_its_reason(case, config):
    source, options, reason = _INELIGIBLE[case]
    exe = _compile(source, config, options)
    fs = _assert_indistinguishable(*_pair(exe, config))
    assert fs["trip_records"] == fs["trip_replays"] == 0
    assert fs["trip_declined"] == {reason: 1}
    # No record, so nothing to keep in Python either.
    assert fs["trip_native"] == 0 and fs["trip_native_declined"] == {}


def test_host_evaluated_value_reading_an_array_is_declined():
    a11 = nir.AVar("a", nir.Subscript((nir.int_const(1), nir.int_const(1))))
    exe = _compile(CARRIES, "fast")
    ops = list(exe.host_program.ops)
    at = next(i for i, op in enumerate(ops) if isinstance(op, Loop))
    guard = IfOp(nir.Binary(nir.BinOp.GT, a11, nir.float_const(-1.0)), ())
    ops[at] = dataclasses.replace(ops[at], body=ops[at].body + (guard,))
    exe = dataclasses.replace(exe, host_program=dataclasses.replace(
        exe.host_program, ops=tuple(ops)))
    for mode in ("fast", "fused"):
        fs = exe.run(machine=_config_machine(mode)).machine.fusion_summary()
        assert fs["trip_declined"] == {"array-reading scalar": 1}
        assert fs["trip_records"] == 0


@pytest.mark.parametrize("prog", sorted(_SOURCES))
def test_interp_neither_records_nor_declines(prog):
    exe = _exe(prog, 20, "fast")
    fs = exe.run(machine=build_machine(
        "cm2", exec_mode="interp")).machine.fusion_summary()
    assert [fs[key] for key in TRIP_KEYS] == [
        0, 0, 0, {"guard": 0, "tier_up": 0}, {}, 0, {}]


def test_service_responses_carry_the_counters():
    """The service mix is 1-6 steps a request: declined on entry, no
    hook armed, nothing run natively; a long request replays, and says
    so."""
    for steps, engine in ((6, {}), (6, {"exec_mode": "fused"}),
                          (40, {"exec_mode": "fused"})):
        response = execute_request(
            {"op": "run", "source": heat_source(8, steps), **engine})
        assert response["ok"], response
        fusion = response["fusion"]
        if steps == 6:
            assert fusion["trip_records"] == fusion["trip_replays"] == 0
            assert fusion["trip_declined"] == {"too short": 1}
            assert fusion["trip_native"] == 0
            assert fusion["trip_native_declined"] == {}
        else:
            assert fusion["trip_records"] == 1
            assert fusion["trip_replays"] >= 35
            assert fusion["launch_replays"] >= fusion["trip_replays"]
            assert fusion["trip_native_declined"] == _native_declined()


# ---------------------------------------------------------------------------
# (c') Recorded loops that stay in Python, and the driver's build
# ---------------------------------------------------------------------------

SINES = ("double precision a(8, 8), b(8, 8)\ninteger it\n" + _INIT
         + "b = 0.25d0\ndo it = 1, 20\n"
         "   a = a * 0.5d0 + sin(b) * 0.25d0\n"
         "   b = b + cshift(a, 1, 1) * 0.125d0\nend do\nend\n")


@pytest.mark.parametrize("config", CONFIGS)
def test_a_kernel_that_stays_numpy_keeps_the_loop_in_python(config):
    exe = _compile(SINES, config)
    fs = _assert_indistinguishable(*_pair(exe, config))
    assert fs["trip_records"] == 1 + (config != "fast")
    assert fs["trip_replays"] == 20
    assert fs["trip_native"] == 0
    assert fs["trip_native_declined"] == _native_declined("blocked kernel")
    assert "op fsinv" in fs["declined"]["c"] or _compiler() is None


@needs_cc
@pytest.mark.parametrize("config", CONFIGS)
def test_a_driver_build_that_fails_keeps_the_loop_in_python(config,
                                                            monkeypatch):
    """The kernels are C already; the driver's own ``cc`` run exits 1.
    The loop stays in Python, nothing else changes, and the failure is
    remembered: a second run starts no compiler."""
    exe = _compile(FLIPS.replace("mod(it, 7) == 0", "it < 0"), config)
    got, want, oracle, off = _pair(exe, config)
    cc_runs = []

    def failing(argv, **kwargs):
        cc_runs.append(argv)
        return subprocess.CompletedProcess(argv, 1, b"", b"cc: error")

    texts = {src: lib for src, lib in ckernel._SO_CACHE.items()
             if src != ckernel._DRIVER}
    monkeypatch.setattr(ckernel, "_SO_CACHE", texts)
    monkeypatch.setattr(ckernel.subprocess, "run", failing)
    for _ in range(2):
        got = exe.run(machine=_config_machine(config))
        fs = _assert_indistinguishable(got, want, oracle, off)
        assert fs["trip_native"] == 0
        assert fs["trip_native_declined"] == {"build failed": 1}
        assert fs["trip_replays"] >= 16
    assert len(cc_runs) == 1


@pytest.mark.skipif(_compiler() is None or not hasattr(os, "fork"),
                    reason="needs a C compiler and fork")
def test_a_child_forked_after_a_native_trip_runs_one():
    """A worker forked from a process whose loops ran natively inherits
    the loaded driver, and its own loops run through it."""
    exe = _exe("heat", 24, "fused")
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    exe.run(machine=_config_machine("fused"))
    parent = exe.run(machine=_config_machine("fused"))
    assert parent.machine.fusion_summary()["trip_native"] > 0
    done_r, done_w = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            got = exe.run(machine=_config_machine("fused"))
            same = all(got.arrays[name].tobytes() == data.tobytes()
                       for name, data in oracle.arrays.items())
            native = got.machine.fusion_summary()["trip_native"]
            os.write(done_w, b"y" if same and native > 0 else b"n")
            status = 0
        finally:
            if (ckernel._WORKDIR is not None
                    and ckernel._WORKDIR[0] == os.getpid()):
                ckernel._remove_workdir(*ckernel._WORKDIR)
            os._exit(status)
    os.close(done_w)
    try:
        ready, _, _ = select.select([done_r], [], [], 120)
        assert ready and os.read(done_r, 1) == b"y"
        assert os.waitpid(pid, 0)[1] == 0
    finally:
        os.close(done_r)


# ---------------------------------------------------------------------------
# (d) The op after a loop
# ---------------------------------------------------------------------------

LEAVES = ("double precision a(8, 8), b(8, 8)\ndouble precision total\n"
          "integer it\n" + _INIT + "do it = 1, 20\n"
          "   a = a * 0.5d0 + cshift(a, 1, 1) * 0.25d0\nend do\n"
          "total = sum(a)\nb = a + total\nprint *, total\nend\n")


@pytest.mark.parametrize("config", CONFIGS)
def test_op_after_the_loop_flushes_the_batch_it_carried_out(config):
    """No batch is carried out of a loop: the last trip's call is
    flushed where its body ends, and the reduction after the loop sees
    it.  The prologue's batch is flushed before the loop, so every trip
    runs from the steady record."""
    exe = _compile(LEAVES, config)
    got, want, oracle, off = _pair(exe, config)
    fs = _assert_indistinguishable(got, want, oracle, off)
    assert fs["trip_replays"] == 20
    assert fs["trip_native"] == (20 if _compiler() else 0)
    assert got.output == oracle.output and got.output


# ---------------------------------------------------------------------------
# One batch per trip, and the batch cap
# ---------------------------------------------------------------------------

TRIPS = 2000
FREE = ("double precision a(8, 8), b(8, 8)\ninteger it\n" + _INIT
        + "b = 0.125d0\n" + f"do it = 1, {TRIPS}\n"
        "   a = a + b * 0.5d0\nend do\nend\n")


def test_barrier_free_loop_forms_one_batch_per_trip():
    """No batch spans a trip, even where no footprint ends it: the
    loop's one call is flushed where each trip ends, the first trip's
    joined to the prologue's, and the trips after it run from one
    steady record."""
    exe = _compile(FREE, "fused")
    got = exe.run(machine=_config_machine("fused"))
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for name, data in oracle.arrays.items():
        assert got.arrays[name].tobytes() == data.tobytes(), name
    stats = got.stats
    assert (stats.fused_groups, stats.fused_routines) == (1, 2)
    assert stats.node_calls == TRIPS
    fs = got.machine.fusion_summary()
    assert fs["trip_declined"] == {} and fs["trip_records"] == 1
    assert fs["trip_replays"] >= TRIPS - 3


def test_adjacent_calls_split_at_the_cap():
    """More than ``_BATCH_CAP`` adjacent independent calls (one
    statement each, nothing fused at compile time): the pass flushes at
    the cap, and a fused run dispatches the two batches it placed."""
    n = batches._BATCH_CAP + 8
    names = [f"x{k}" for k in range(n)]
    source = ("double precision a(8, 8), " + ", ".join(
        f"{x}(8, 8)" for x in names) + "\na = 0.5d0\n"
        + "".join(f"{x} = a * {k}.0d0\n" for k, x in enumerate(names))
        + "end\n")
    exe = _compile(source, "fused", CompilerOptions(
        transform=TransformOptions(block=False, fuse=False)))
    text = format_host_program(exe.host_program).splitlines()
    flushes = [i for i, line in enumerate(text) if line.strip() == "flush"]
    calls = [i for i, line in enumerate(text) if "call_pe" in line]
    assert len(calls) == n + 1
    assert flushes == [calls[batches._BATCH_CAP - 1] + 1, calls[-1] + 1]
    got = exe.run(machine=_config_machine("fused"))
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for name, data in oracle.arrays.items():
        assert got.arrays[name].tobytes() == data.tobytes(), name
    assert got.stats.fused_groups == 2
    assert got.stats.fused_routines == n + 1


def test_batches_below_the_cap_are_what_they_were():
    """The cap is far above any batch a committed program forms: SWE's
    fused accounting is pinned in test_execplan, and its longest group
    must stay under the cap for that pin to hold."""
    got = _exe("swe", 20, "fused").run(machine=_config_machine("fused"))
    longest = max(len(site) for site in got.machine._launches
                  if isinstance(site, tuple))
    assert 1 < longest < batches._BATCH_CAP


# ---------------------------------------------------------------------------
# Records kept with the executable, bound by every run
# ---------------------------------------------------------------------------

def _kept_runs(prog, config, trips=40):
    """A fresh compile of corpus program ``prog``: its interp run, then
    three runs on fresh machines — the first learns the steady record,
    the second its entry records, the third learns nothing."""
    exe = _compile(_SOURCES[prog](trips), config)
    oracle = exe.run(machine=build_machine(exe.options.target,
                                           exec_mode="interp"))
    return oracle, [exe.run(machine=_config_machine(config))
                    for _ in range(3)]


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("prog", ["heat", "life", "swe"])
def test_a_second_run_binds_the_record_the_first_kept(prog, config):
    """The second run on a fresh machine runs every trip after its
    entry trips from the record the first run kept — in the driver when
    there is a compiler — and the third its entry trips too, one by
    one in Python."""
    oracle, runs = _kept_runs(prog, config)
    entries = _entries(prog)
    for result in runs:
        for name, data in oracle.arrays.items():
            assert result.arrays[name].tobytes() == data.tobytes(), name
        assert result.stats.to_dict() == runs[0].stats.to_dict()
    second, third = (run.machine.fusion_summary() for run in runs[1:])
    assert second["trip_replays"] == 40 - entries
    assert second["trip_native"] == (40 - entries if _compiler() else 0)
    assert second["trip_records"] == 1
    assert third["trip_replays"] == 40
    assert third["trip_native"] == second["trip_native"]
    assert third["trip_records"] == 1 + entries


SCALED = ("double precision a(16, 16), b(16, 16)\ndouble precision s, t\n"
          "integer it\n" + _INIT.replace("8", "16")
          + "s = sum(b) * 0.001d0\nt = 0.25d0\ndo it = 1, 24\n"
          "   t = s * 0.5d0\n"
          "   a = a * 0.5d0 + cshift(a, 1, 1) * t + b * s\nend do\nend\n")


@pytest.mark.parametrize("config", CONFIGS)
def test_each_run_fills_the_record_from_its_own_inputs(config):
    """Runs with other ``inputs=`` — ``s`` is a reduction of one, and
    ``t`` a move of it inside the loop — bind the kept record to their
    own homes and scalars: arrays and ``RunStats`` are those of a fresh
    executable's run on the same inputs."""
    exe = _compile(SCALED, config)
    rng = np.random.default_rng(7)
    for round_ in range(4):
        inputs = {"a": rng.random((16, 16)), "b": rng.random((16, 16))}
        got = exe.run(machine=_config_machine(config), inputs=inputs)
        want = _compile(SCALED, config).run(machine=_config_machine(config),
                                            inputs=inputs)
        assert got.scalars == want.scalars
        for name, data in want.arrays.items():
            assert got.arrays[name].tobytes() == data.tobytes(), name
        assert got.stats.to_dict() == want.stats.to_dict()
    # The last run binds every trip, its entry trip's included.
    assert got.machine.fusion_summary()["trip_replays"] == 24


@pytest.mark.parametrize("config", CONFIGS)
def test_threads_bind_one_executable_at_once(config):
    """Three threads — more than the cores CI has — run one executable
    on machines of their own, learning and binding its records at once
    with the interpreter switching threads every 10 us: every run equals
    a serial one, arrays and stats."""
    exe = _compile(_SOURCES["swe"](24), config)
    serial = _compile(_SOURCES["swe"](24), config).run(
        machine=_config_machine(config))
    start = threading.Barrier(3)
    results: list = [[], [], []]

    def work(k):
        start.wait(timeout=60)
        for _ in range(4):
            results[k].append(exe.run(machine=_config_machine(config)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(mine) == 4 for mine in results)
    for got in results[0] + results[1] + results[2]:
        for name, data in serial.arrays.items():
            assert got.arrays[name].tobytes() == data.tobytes(), name
        assert got.stats.to_dict() == serial.stats.to_dict()
    # Two runs keeping records at once may each replace the table: a
    # record one of them learned may be lost, and the next run learns it.
    exe.run(machine=_config_machine(config))
    assert exe.run(machine=_config_machine(config)).machine.fusion_summary(
        )["trip_replays"] == 24


@pytest.mark.parametrize("config", CONFIGS)
def test_kept_records_hold_no_home_of_a_finished_run(config):
    exe = _exe("heat", 24, config)
    for _ in range(3):
        result = exe.run(machine=_config_machine(config))
    assert result.machine.fusion_summary()["trip_replays"] == 24
    homes = [weakref.ref(data) for data in result.arrays.values()]
    machine = weakref.ref(result.machine)
    del result
    gc.collect()
    assert machine() is None
    assert all(home() is None for home in homes)
    assert any(record.at is None for table in exe._trips.values()
               for _, records in table.values() for record in records)


@pytest.mark.parametrize("config", CONFIGS)
def test_records_bind_without_a_compiler(config, monkeypatch):
    """Under ``REPRO_FUSED_CC=0`` kept records bind all the same and
    every trip replays through the Python launch loop."""
    monkeypatch.setenv("REPRO_FUSED_CC", "0")
    oracle, runs = _kept_runs("life", config, 24)
    fs = runs[-1].machine.fusion_summary()
    for name, data in oracle.arrays.items():
        assert runs[-1].arrays[name].tobytes() == data.tobytes(), name
    assert fs["trip_replays"] == 24 and fs["trip_native"] == 0
    assert fs["trip_records"] == 1 + _entries("life")
    assert fs["trip_native_declined"] == {"no compiler": 1}
    assert fs["native_builds"] == 0


# ---------------------------------------------------------------------------
# Ping-pong: a staged array alternates with its scratch in the driver
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("prog", ["heat", "life"])
@pytest.mark.parametrize("trips", [17, 18])
def test_staged_arrays_ping_pong_in_the_driver(trips, prog, config):
    """Heat's and life's loops stage their store: in the driver the
    array and its scratch swap roles every trip and an odd count ends
    with one copy home.  Nothing of it can be seen — arrays against
    ``interp``, ``RunStats``, ``shifts_staged`` and every other counter
    against a run that never records, odd and even counts alike."""
    exe = _compile(_GRIDS[prog](64, trips), config)
    got, want, oracle, off = _pair(exe, config)
    fs = _assert_indistinguishable(got, want, oracle, off)
    assert fs["shifts_staged"] > 0
    assert fs["trip_native"] == (trips - _entries(prog)
                                 if _compiler() else 0)
    if _compiler():
        assert any(record.launch.kern.staged
                   and record.launch.kern.address_scratch
                   for record in got.machine._launches.values())


# ---------------------------------------------------------------------------
# Guards on the loop variable are counted in closed form
# ---------------------------------------------------------------------------

THRESHOLD = ("double precision a(8, 8), b(8, 8)\ninteger it, k\n" + _INIT
             + "b = 0.25d0\nk = {k}\ndo it = 1, 400\n"
             "   if (it > k) then\n"
             "      a = a * 0.5d0 + cshift(a, 1, 1) * 0.25d0\n"
             "   else\n"
             "      b = b * 0.5d0 + cshift(b, 1, 1) * 0.25d0\n"
             "   end if\nend do\nend\n")


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("k", [-5, 200, 1000])
def test_a_threshold_guard_is_counted_by_bisection(k, config, monkeypatch):
    """``it > k`` changes its outcome at most once over the trips, so
    the trips a record covers are found in O(log n) evaluations; a run
    that asks it trip by trip exits, computes and charges the same."""
    exe = _compile(THRESHOLD.format(k=k), config)
    asked: Counter = Counter()
    inner = NirEvaluator.compile_scalar

    def counting(self, value):
        closure = inner(self, value)
        if not isinstance(value, nir.Binary) or value.op != nir.BinOp.GT:
            return closure

        def counted():
            asked[counting.mode] += 1
            return closure()
        return counted

    monkeypatch.setattr(NirEvaluator, "compile_scalar", counting)
    runs = {}
    for mode in ("bisected", "per trip"):
        counting.mode = mode
        with pytest.MonkeyPatch.context() as patch:
            if mode == "per trip":
                patch.setattr(host, "_bisectable", lambda cond, var: False)
            for _ in range(3):
                runs[mode] = exe.run(machine=_config_machine(config))
            asked[mode] = 0
            runs[mode] = exe.run(machine=_config_machine(config))
    got, want = runs["bisected"], runs["per trip"]
    for name, data in want.arrays.items():
        assert got.arrays[name].tobytes() == data.tobytes(), name
    assert got.stats.to_dict() == want.stats.to_dict()
    assert got.machine.fusion_summary() == want.machine.fusion_summary()
    # The trip that first takes the other branch runs on the ordinary
    # path.
    assert got.machine.fusion_summary()["trip_replays"] >= 398
    assert asked["per trip"] >= 399 and asked["bisected"] <= 40
