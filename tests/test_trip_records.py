"""Trip records: a host loop replays its steady-state trip.

One level above the launch records (``docs/PIPELINE.md`` section 16):
once every dispatch of a trip replayed a launch record, the host
executor keeps what that trip did as a flat list of steps and runs the
list on later trips — and, when every launch is C and nothing the trip
evaluates varies, runs the launches of the rest of the loop in one
native call.  These tests pin what that promises — a run cannot be
told from one whose executor never records (arrays bit-identical to
``interp``, ``RunStats`` equal, every ``fusion_summary()`` counter
except the ``trip_*`` ones equal), nor from one whose trips all stay in
Python (every counter but ``trip_native*`` equal) — for whole programs
and generated bodies, through every side exit, for the bodies that must
never record or never leave Python, and for the batch a loop leaves
pending; and that a recorded trip walks no expression tree and draws no
scratch.  The last section pins the batch cap that keeps a barrier-free
loop linear.
"""

from __future__ import annotations

import contextlib
import dataclasses
import os
import select
import subprocess
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro import nir
from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import BufferPool, ckernel, execplan, kernel
from repro.machine.ckernel import _compiler
from repro.programs.kernels import (cg_source, deck_source, heat_source,
                                    life_source)
from repro.programs.swe import swe_source
from repro.runtime import host
from repro.runtime.host import (HostExecutor, IfOp, Loop, NodeCall,
                                ScalarInit, ScalarMove)
from repro.runtime.nir_eval import NirEvaluator
from repro.service.jobs import execute_request
from repro.targets import build_machine

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


def _native_declined(reason=None):
    """What ``trip_native_declined`` says of one recorded loop execution
    the driver should have declined for ``reason`` (None: ran it): with
    no C compiler no kernel is C, and every such loop says so."""
    if _compiler() is None:
        return {"no compiler": 1}
    return {} if reason is None else {reason: 1}


@contextlib.contextmanager
def _never_recording():
    """Executors that take the ordinary path on every trip (test-side:
    there is no product switch)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HostExecutor, "_build_trip", lambda self, *args: None)
        yield


@contextlib.contextmanager
def _driver_off():
    """Executors that run every recorded trip in Python."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(HostExecutor, "_run_native", lambda self, *args: 0)
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
    with _driver_off():
        off = exe.run(machine=_config_machine(config))
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
    # Trip 1 runs the kernels (warm), 2 replays and is recorded — SWE
    # one later: its second trip is the first through ``ncycle > 1`` —
    # 3 runs from the record in Python, and the driver runs the rest.
    assert fs["trip_records"] == 1 and fs["trip_exits"] == 0
    assert fs["trip_replays"] >= trips - 4
    assert fs["trip_declined"] == {}
    assert fs["trip_native_declined"] == _native_declined()
    assert fs["trip_native"] == (fs["trip_replays"] - 1 if _compiler()
                                 else 0)


@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("prog", sorted(_SOURCES))
@pytest.mark.parametrize("trips", [host._TRIP_MIN - 1, host._TRIP_MIN,
                                   host._TRIP_MIN + 1])
def test_native_trips_either_side_of_the_minimum(trips, prog, config):
    """One trip short of ``_TRIP_MIN`` nothing is recorded, so nothing
    runs natively or is declined; from it on, all but the first trip
    run from the record go through the driver."""
    fs = _assert_indistinguishable(
        *_pair(_exe(prog, trips, config), config))
    if trips < host._TRIP_MIN:
        assert fs["trip_declined"] == {"too short": 1}
        assert fs["trip_native"] == 0 and fs["trip_native_declined"] == {}
    else:
        assert fs["trip_native_declined"] == _native_declined()
        assert fs["trip_native"] == (fs["trip_replays"] - 1 if _compiler()
                                     else 0)
        assert fs["trip_replays"] >= trips - 4


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
    # A condition that alternates leaves ``fused`` a different batch
    # pending every trip: never recorded, never declined, never wrong.
    assert (fs["trip_exits"]
            == sum(fs["trip_exit_reasons"].values()) <= host._TRIP_EXITS)
    assert fs["trip_records"] <= fs["trip_exits"] + 1
    # A move of ``it`` or of its own target keeps the loop in Python, as
    # does a kernel the C emitter declines (or fails to build); a body
    # of scalar moves alone has no kernel to need a compiler for.
    stayed = fs["trip_native_declined"]
    assert sum(stayed.values()) <= 1
    assert set(stayed) <= ({"varying scalar"}
                           | set(_native_declined("blocked kernel")))
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

    flagged("_run_trip")
    flagged("_run_native")
    count(BufferPool, "acquire")
    count(NirEvaluator, "_eval")
    fs = exe.run(machine=_config_machine(config)).machine.fusion_summary()
    assert fs["trip_records"] == 1 and fs["trip_replays"] >= 40 - 5
    assert fs["trip_native"] >= (40 - 6 if _compiler() else 0)
    assert (calls["acquire"], calls["_eval"]) == (0, 0)


# ---------------------------------------------------------------------------
# (b) Side exits, each counted under its reason
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
    # Trips 7, 14 and 21 leave through the guard, the third exit being
    # the loop execution's last try.  The rare branch updates ``s``,
    # which the next record's launches must see, and shifts ``a`` while
    # the call that stores it is pending — under ``fused`` not the
    # batch the trip started with (the call that stores ``b``), so the
    # footprint sets must be rebuilt at the exit.
    assert fs["trip_exit_reasons"] == {"guard": 3, "scalar_type": 0,
                                       "tier_up": 0}
    assert fs["trip_exits"] == fs["trip_records"] == host._TRIP_EXITS
    assert fs["trip_replays"] >= 8


@needs_cc
@pytest.mark.parametrize("config", CONFIGS)
def test_the_driver_stops_before_the_trip_whose_guard_flips(config,
                                                           monkeypatch):
    """Each native run ends on the trip before a multiple of 7, which
    leaves through its guard in Python — one ``guard`` exit each, as
    with the driver off."""
    exe = _compile(FLIPS, config)
    got, want, oracle, off = _pair(exe, config)
    runs = []       # (first trip run natively, the trip after the last)
    inner = HostExecutor._run_native

    def watched(executor, trip, var, upcoming):
        ran = inner(executor, trip, var, upcoming)
        runs.append((upcoming[0], upcoming[ran]))
        return ran

    monkeypatch.setattr(HostExecutor, "_run_native", watched)
    got = exe.run(machine=_config_machine(config))
    fs = _assert_indistinguishable(got, want, oracle, off)
    # Trip 21 is the third exit, after which the loop stays ordinary.
    assert [flip for _, flip in runs] == [7, 14, 21]
    assert all(first < flip for first, flip in runs)
    assert fs["trip_native"] == sum(flip - first for first, flip in runs)
    assert fs["trip_exit_reasons"]["guard"] == 3


CARRIES = ("double precision a(8, 8)\ndouble precision s\ninteger it\n"
           + _INIT + "do it = 1, 20\n   s = it * 0.5d0\n"
           "   a = a + cshift(a, 1, 1) * s\nend do\nend\n")


@pytest.mark.parametrize("config", CONFIGS)
def test_scalar_argument_rides_the_batch_it_was_enqueued_with(config):
    """Under ``fused`` the call of trip *t* is flushed by the shift of
    trip *t + 1*, after ``s`` moved on: the launch must get the value
    its own enqueue saw.  ``s`` reads the loop variable, so every trip
    stays in Python."""
    exe = _compile(CARRIES, config)
    fs = _assert_indistinguishable(*_pair(exe, config))
    assert fs["trip_records"] == 1 and fs["trip_exits"] == 0
    assert fs["trip_replays"] >= 16
    assert fs["trip_native"] == 0
    assert fs["trip_native_declined"] == _native_declined("varying scalar")


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
def test_scalar_changing_type_mid_loop_exits_and_records_again(config):
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
    assert fs["trip_exit_reasons"] == {"guard": 0, "scalar_type": 1,
                                       "tier_up": 0}
    assert fs["launch_drop_reasons"]["scalar_type"] == 1
    assert fs["trip_records"] == 2 and fs["trip_replays"] >= 14


@needs_cc
@pytest.mark.parametrize("config", CONFIGS)
@pytest.mark.parametrize("prog", ["heat", "swe"])
def test_kernel_getting_hot_inside_a_recorded_loop(prog, config,
                                                   monkeypatch):
    """The crossing falls on the trip launches and lengths decide,
    record or no record: the launch that finds its kernel hot leaves
    the record, and the ordinary path asks the C emitter."""
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
        0, 0, 0, {"guard": 0, "scalar_type": 0, "tier_up": 0}, {}, 0, {}]


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
    assert fs["trip_records"] == 1 and fs["trip_replays"] >= 16
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
# (d) The batch a loop leaves pending
# ---------------------------------------------------------------------------

LEAVES = ("double precision a(8, 8), b(8, 8)\ndouble precision total\n"
          "integer it\n" + _INIT + "do it = 1, 20\n"
          "   a = a * 0.5d0 + cshift(a, 1, 1) * 0.25d0\nend do\n"
          "total = sum(a)\nb = a + total\nprint *, total\nend\n")


@pytest.mark.parametrize("config", CONFIGS)
def test_op_after_the_loop_flushes_the_batch_it_carried_out(config):
    """The last trip's call is still pending when the loop ends; the
    reduction after it must see it, through footprint sets the recorded
    trips never kept."""
    exe = _compile(LEAVES, config)
    got, want, oracle, off = _pair(exe, config)
    fs = _assert_indistinguishable(got, want, oracle, off)
    assert fs["trip_replays"] >= 16
    assert fs["trip_native"] == (fs["trip_replays"] - 1 if _compiler()
                                 else 0)
    assert got.output == oracle.output and got.output


# ---------------------------------------------------------------------------
# The batch cap: a barrier-free loop stays linear
# ---------------------------------------------------------------------------

TRIPS = 2000
FREE = ("double precision a(8, 8), b(8, 8)\ninteger it\n" + _INIT
        + "b = 0.125d0\n" + f"do it = 1, {TRIPS}\n"
        "   a = a + b * 0.5d0\nend do\nend\n")


def test_barrier_free_loop_is_flushed_by_the_cap():
    exe = _compile(FREE, "fused")
    got = exe.run(machine=_config_machine("fused"))
    oracle = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for name, data in oracle.arrays.items():
        assert got.arrays[name].tobytes() == data.tobytes(), name
    stats, cap = got.stats, host._BATCH_CAP
    # About TRIPS / cap groups of at most cap routines each: nothing
    # grows with the trip count.
    assert stats.fused_routines >= TRIPS
    assert TRIPS // cap <= stats.fused_groups <= TRIPS // cap + 2
    assert stats.node_calls <= stats.fused_groups + 2
    fs = got.machine.fusion_summary()
    assert fs["megakernel_builds"] <= 3
    # Declined once, on the first trip that flushed nothing — not
    # retried on each of the two thousand.
    assert fs["trip_declined"] == {"never steady": 1}
    assert fs["trip_records"] == 0


def test_batches_below_the_cap_are_what_they_were():
    """The cap is far above any batch a committed program forms: SWE's
    fused accounting is pinned in test_execplan, and its longest group
    must stay under the cap for that pin to hold."""
    got = _exe("swe", 20, "fused").run(machine=_config_machine("fused"))
    longest = max(len(site) for site in got.machine._launches
                  if isinstance(site, tuple))
    assert 1 < longest < host._BATCH_CAP
