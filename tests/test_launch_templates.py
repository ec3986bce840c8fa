"""Launch templates: the host program compiled once per executable.

A dispatch site's first dispatch is probed
(:meth:`~repro.machine.execplan.LaunchTemplate.probe`) and leaves its
:class:`~repro.machine.execplan.LaunchTemplate` in the executable's
table, and every later trip on every machine binds its arrays into it
instead of probing and keying the site again (``docs/PIPELINE.md``
§16, "Launch templates").  These tests pin that a templated run cannot
be told from one that probes every trip — arrays, ``RunStats``, every
counter — that what a template binds is what a fresh probe derives,
that each case the bind must refuse is probed again and counted as a
probed trip counts it, and that templates hold neither machines nor
arrays.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import Machine, costs, execplan, invalidate_plan, kernel
from repro.machine.cm2 import ArrayHome
from repro.machine.shifted import Shifted
from repro.programs.kernels import heat_source, life_source
from repro.programs.swe import swe_source
from repro.runtime.host import HostExecutor, NodeCall
from repro.targets import build_machine

PROGRAMS = {"swe": lambda: swe_source(16, 20),
            "heat": lambda: heat_source(16, 20),
            "life": lambda: life_source(16, 20)}
CONFIGS = (("cm2", "fast"), ("cm2", "fused"), ("host", "fused"))

# Two arrays one timestep reads and writes: homes that share one buffer
# make the probe merge them into a single slot.  The last statement
# stores ``b`` over a shift of itself: its store is staged.
PAIR = """\
program pair
double precision, array(16,16) :: a, b
integer :: it
forall (i=1:16, j=1:16) a(i,j) = i + j * 0.5d0
b = 0.0d0
do it = 1, 20
  b = a * 0.5d0 + 1.0d0
  a = b + cshift(b, 1, 1)
  b = b - cshift(b, 1, 2)
end do
end program pair
"""


@contextlib.contextmanager
def _ordinary():
    """Runs that remember no template: every trip probes its site
    afresh (test-side: there is no product switch)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "templates",
                      property(lambda self: {}, lambda self, table: None),
                      raising=False)
        yield


@contextlib.contextmanager
def _counting_probes():
    """``[LaunchTemplate.probe calls]`` made inside the block."""
    calls = [0]
    probe = execplan.LaunchTemplate.probe.__func__

    def counted(cls, *args, **kwargs):
        calls[0] += 1
        return probe(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execplan.LaunchTemplate, "probe", classmethod(counted))
        yield calls


def _machine(target, mode, model=None):
    if model is not None:
        return Machine(model, exec_mode=mode)
    return build_machine(target, exec_mode=mode)


def _observed(result) -> tuple:
    """What a run must not change: bytes, ``RunStats``, output and every
    counter but those of ``cc`` runs (the twin that tiers up second
    finds the text built) and their wall time."""
    m = result.machine
    fusion = m.fusion_summary()
    for key in ("native_build_ms", "native_builds", "host_native_builds"):
        fusion.pop(key, None)
    return ({name: (a.dtype.str, a.tobytes())
             for name, a in result.arrays.items()},
            result.stats.to_dict(), result.output, fusion,
            dict(m.launch_metrics))


def _twins(source, target, mode, runs, last=None, machine=None):
    """The last of ``runs`` runs of two compiles of ``source``, one with
    templates and one probing every trip, each after the same history (a
    compile's own routines, plans and cache entries) and inside
    ``last(exe)``, a context manager; and the ``LaunchTemplate.probe``
    calls of the last templated run.  ``machine(k)`` makes run k's
    machine."""
    machine = machine or (lambda k: _machine(target, mode))
    last = last or (lambda exe: contextlib.nullcontext())
    options = CompilerOptions(target=target)
    out = []
    for ordinary in (False, True):
        exe = compile_source(source, options, cache=False)
        with _ordinary() if ordinary else contextlib.nullcontext():
            for k in range(runs - 1):
                exe.run(machine=machine(k))
            with last(exe), _counting_probes() as probes:
                out.append((exe, exe.run(machine=machine(runs - 1)),
                            probes[0]))
    (exe, templated, probes), (_, plain, _) = out
    assert _observed(templated) == _observed(plain)
    return exe, templated, probes


@pytest.mark.parametrize("target,mode", CONFIGS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_third_run_binds_every_site(program, target, mode):
    exe, result, probes = _twins(PROGRAMS[program](), target, mode, 3)
    assert probes == 0
    (table,) = exe._templates.values()
    assert table
    assert result.machine.launch_metrics["records"] >= len(table)


@pytest.mark.parametrize("target,mode", CONFIGS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_steady_kernel_trips_prepare_nothing(program, target, mode):
    """Below ``_TRIP_MIN`` every trip takes the ordinary path: on a
    second run each site's template binds the calls' own bindings and
    its kernel exists, so no call is prepared — ``Machine._prepare`` is
    left to the probe, the oracle and the fallback chain."""
    source = {"swe": swe_source, "heat": heat_source,
              "life": life_source}[program](32, 8)
    exe = compile_source(source, CompilerOptions(target=target),
                         cache=False)
    exe.run(machine=_machine(target, mode))
    calls = {"prepare": 0, "oracle": 0}
    prepare, oracle = Machine._prepare, execplan.run_oracle

    def counted(name, inner):
        def count(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        return count

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "_prepare", counted("prepare", prepare))
        patch.setattr(execplan, "run_oracle", counted("oracle", oracle))
        result = exe.run(machine=_machine(target, mode))
    fusion = result.machine.fusion_summary()
    assert fusion["trip_declined"] == {"too short": 1}
    assert fusion["launch_records"] > 0
    assert calls == {"prepare": 0, "oracle": 0}


@pytest.mark.parametrize("program,probes", (("heat", 3), ("swe", 20)))
def test_a_lone_call_is_probed_once(program, probes):
    """A first run probes each site once.  A lone call whose site found
    no kernel and which has no shifted operand runs on the oracle at
    once: the fallback chain's copies of it are its own arrays, so a
    second probe of it could not say otherwise."""
    source = {"swe": swe_source, "heat": heat_source}[program](32, 20)
    exe = compile_source(source, CompilerOptions(), cache=False)
    probed = []     # the dispatches of every probe, kept alive
    probe = execplan.LaunchTemplate.probe.__func__

    def recorded(cls, dispatches, *args, **kwargs):
        probed.append(tuple(dispatches))
        return probe(cls, dispatches, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(execplan.LaunchTemplate, "probe",
                      classmethod(recorded))
        exe.run(machine=_machine("cm2", "fast"))
    lone = [ds[0] for ds in probed if len(ds) == 1 and not ds[0].shifted]
    assert len({id(d) for d in lone}) == len(lone)
    assert len(probed) == probes


def test_a_templated_run_equals_the_interpreter():
    source = PROGRAMS["swe"]()
    exe = compile_source(source, CompilerOptions(), cache=False)
    oracle = exe.run(machine=_machine("cm2", "interp"))
    for _ in range(3):
        result = exe.run(machine=_machine("cm2", "fused"))
    for name, array in oracle.arrays.items():
        assert array.tobytes() == result.arrays[name].tobytes()


def _shared_homes(m: Machine, offset: int) -> Machine:
    """``m`` with ``a`` and ``b`` allocated over one buffer, ``b``
    starting ``offset`` elements into it."""
    data = np.zeros(16 * 16 + offset)
    for name, at in (("a", 0), ("b", offset)):
        m.alloc(name, (16, 16), data.dtype)
        m.arrays[name] = ArrayHome(name, data[at:at + 256].reshape(16, 16),
                                   m.arrays[name].geometry)
    return m


@pytest.mark.parametrize("mode", ("fast", "fused"))
def test_homes_on_one_buffer_fall_back(mode):
    _, result, probes = _twins(PAIR, "cm2", mode, 3, machine=lambda k: (
        _shared_homes(_machine("cm2", mode), 0) if k == 2
        else _machine("cm2", mode)))
    assert probes > 0
    assert np.shares_memory(result.arrays["a"], result.arrays["b"])


def _fields(template, bound) -> tuple:
    """What a bound group is: its template's slot maps, spill slots,
    shifted operands, coordinate slots, pushes, charge and kernel-cache
    key, and the addresses of its slots."""
    t = template
    return (t.slot_maps, t.spill_slots, t.shifts, t.coords, t.pushes,
            t.charge, t.key, bound[1])


@contextlib.contextmanager
def _verdicts():
    """``[(memo group, fresh group)]`` of every trip inside the block
    whose site's remembered template bound it, the fresh group the
    probe of the same trip binds on the same machine — each ``(template,
    bound)``."""
    hits = []
    group = Machine._dispatch

    def checked(self, calls, site, dispatches):
        template = self.templates.get(site)
        memo = (None if template is None
                else template.bind(calls, self._addresses))
        prepared = [self._prepare(*c) for c in calls]
        fresh = execplan.LaunchTemplate.probe(prepared, calls, self.model)
        if fresh is not None:
            fresh = (fresh, fresh.bind(calls, self._addresses))
        for d in prepared:
            self._release(d)
        if memo is not None:
            hits.append(((template, memo), fresh))
        return group(self, calls, site, dispatches)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "_dispatch", checked)
        yield hits


@pytest.mark.parametrize("target,mode", CONFIGS)
@pytest.mark.parametrize("program", sorted(PROGRAMS) + ["pair"])
def test_a_memo_hit_binds_what_a_fresh_probe_derives(program, target, mode):
    source = PAIR if program == "pair" else PROGRAMS[program]()
    exe = compile_source(source, CompilerOptions(target=target), cache=False)
    with _verdicts() as hits:
        for _ in range(2):
            exe.run(machine=_machine(target, mode))
    assert hits
    for memo, fresh in hits:
        assert fresh is not None
        assert _fields(*memo) == _fields(*fresh)
    if program == "pair":
        assert any(base is not None for (memo, _), _ in hits
                   for _, base, _, _ in memo.shifts)


@pytest.mark.parametrize("mode", ("fast", "fused"))
def test_homes_on_one_buffer_bind_one_merged_slot(mode):
    exe = compile_source(PAIR, CompilerOptions(), cache=False)
    exe.run(machine=_machine("cm2", mode))
    exe.run(machine=_shared_homes(_machine("cm2", mode), 0))
    with _verdicts() as hits:
        result = exe.run(machine=_shared_homes(_machine("cm2", mode), 0))
    # ``a`` and ``b`` are two source objects of one address class.
    assert any(len(set(memo.classes)) < len(memo.classes)
               for (memo, _), _ in hits)
    for memo, fresh in hits:
        assert _fields(*memo) == _fields(*fresh)
    if mode == "fast":
        # (A fused batch is cut at name-level effect barriers, which
        # cannot see two names over one buffer: only its twin holds it.)
        oracle = compile_source(PAIR, CompilerOptions(), cache=False).run(
            machine=_shared_homes(_machine("cm2", "interp"), 0))
        for name in "ab":
            assert (result.arrays[name].tobytes()
                    == oracle.arrays[name].tobytes())


def _node_calls(ops):
    for op in ops:
        if isinstance(op, NodeCall):
            yield op
        for body in ("body", "then", "els"):
            yield from _node_calls(getattr(op, body, ()))


def test_overlapping_homes_are_refused():
    # Checked call by call, not run: nothing may run the refused calls
    # but the oracle.
    exe = compile_source(PAIR, CompilerOptions(), cache=False)
    for _ in range(2):
        exe.run(machine=_machine("cm2", "fast"))
    (table,) = exe._templates.values()
    m = _shared_homes(_machine("cm2", "fast"), 8)
    executor = HostExecutor(m, facts=exe._facts)
    refused = 0
    for op in _node_calls(exe.host_program.ops):
        template = table.get(id(op))
        if template is None:
            continue
        calls = ((op.routine, executor._bindings(op), op.region_extents,
                  op.real_elements, op.layout),)
        dispatches = [m._prepare(*calls[0])]
        memo = template.bind(calls, m._addresses)
        probed = execplan.LaunchTemplate.probe(dispatches, calls, m.model)
        fresh = probed.bind(calls, m._addresses)
        assert (memo is None) == (fresh is None)
        if memo is not None:
            assert _fields(template, memo) == _fields(probed, fresh)
        refused += fresh is None
        m._release(dispatches[0])
    assert refused


def test_a_stored_class_holds_nothing_but_its_staged_shifts():
    """The probe's verdict inside one address class: a stored ``y`` over
    an ``x`` read as another dtype is refused; over a shifted read of
    itself, its store is staged."""
    from .test_execplan import _add_shifted, _axpy

    m = Machine(costs.slicewise_model(16), exec_mode="fast")
    y = np.zeros(16)

    def probe(call):
        dispatches = [m._prepare(*call)]
        try:
            return execplan.LaunchTemplate.probe(dispatches, (call,),
                                                 m.model)
        finally:
            m._release(dispatches[0])

    assert probe((_axpy(), {"x": y.view(np.int64), "y": y, "k": 2.0},
                  (16,))) is None
    template = probe((_add_shifted(), {"s": Shifted(y, (1,)), "y": y},
                      (16,)))
    ((_, base, _, _),) = template.shifts
    assert base == template.slot_maps[0][1]     # ``y``'s slot


@contextlib.contextmanager
def _invalidated(exe):
    for routine in exe.routines.values():
        invalidate_plan(routine)
    yield


@contextlib.contextmanager
def _evicted(exe):
    for routine in exe.routines.values():
        execplan.evict_serial(routine._plan.serial)
    yield


@contextlib.contextmanager
def _edited(exe):
    """One ``faddv`` made ``fsubv`` in a body replaced behind the plan
    cache's back: no ``invalidate_plan``, so the old plan's kernels
    stay cached."""
    for routine in exe.routines.values():
        for i, instr in enumerate(routine.body):
            if instr.op == "faddv":
                body = list(routine.body)
                body[i] = dataclasses.replace(instr, op="fsubv")
                routine.body = body
                yield
                return
    raise AssertionError("no faddv")


@pytest.mark.parametrize("target,mode", CONFIGS)
def test_a_new_plan_falls_back(target, mode):
    _, result, _ = _twins(PROGRAMS["heat"](), target, mode, 3, _edited)
    assert result.machine.launch_metrics["records"] > 0


@pytest.mark.parametrize("target,mode", CONFIGS)
def test_invalidated_plans_fall_back(target, mode):
    _, result, _ = _twins(PROGRAMS["heat"](), target, mode, 3, _invalidated)
    assert result.machine.launch_metrics["records"] > 0


@pytest.mark.parametrize("target,mode", CONFIGS)
def test_evicted_kernels_are_built_again(target, mode):
    # The templates outlive their kernels: no site is probed again.
    exe, result, probes = _twins(PROGRAMS["swe"](), target, mode, 3,
                                 _evicted)
    assert probes == 0
    (table,) = exe._templates.values()
    assert any(t.key in execplan._MEGA_KERNELS for t in table.values())
    if mode == "fused":
        assert result.machine.fusion_summary()["megakernel_builds"] > 0


@contextlib.contextmanager
def _hot(exe):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_TIER_UP", 0)
        yield


@pytest.mark.parametrize("target,mode", CONFIGS)
def test_tier_up_from_a_blocked_template(target, mode):
    # Kernels stay blocked numpy until the last run, in which every one
    # is hot: each site binds its template as before, and the kernel
    # lookup asks the C printer.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_TIER_UP", 1 << 60)
        _, result, probes = _twins(PROGRAMS["heat"](), target, mode, 3,
                                   _hot)
    assert probes == 0
    fusion = result.machine.fusion_summary()
    assert fusion["tier_ups"] + sum(fusion["declined"]["c"].values()) > 0


def test_interp_makes_no_template():
    exe = compile_source(PROGRAMS["heat"](), CompilerOptions(), cache=False)
    for _ in range(3):
        exe.run(machine=_machine("cm2", "interp"))
    assert not exe.__dict__.get("_templates")


def test_each_cost_model_gets_its_own_charges():
    models = (costs.slicewise_model(), costs.slicewise_model(),
              costs.cm5_model(), costs.cm5_model())
    exe, result, _ = _twins(PROGRAMS["swe"](), "cm2", "fused", 4,
                            machine=lambda k: _machine("cm2", "fused",
                                                       models[k]))
    assert result.machine.model.name == "cm5"
    assert sorted(key[2].name for key in exe._templates) == sorted(
        {m.name for m in models})


# A call reading ``a`` only through a folded shift stays pending while
# the shift into ``a`` is hoisted past it: each trip hands the call a
# copy of ``a`` (HostExecutor._snapshot), a binding no template fits.
SNAPSHOT = """\
program snap
double precision, array(16,16) :: a, b, c
integer :: it
forall (i=1:16, j=1:16) c(i,j) = i + j * 0.5d0
a = c
do it = 1, 20
  b = cshift(a, 1, 1) * 2.0d0
  a = cshift(c, 1, 2)
end do
end program snap
"""


@pytest.mark.parametrize("source", (PROGRAMS["swe"](), SNAPSHOT),
                         ids=("swe", "snapshot"))
def test_templates_hold_no_machine_and_no_array(source):
    exe = compile_source(source, CompilerOptions(), cache=False)
    for _ in range(3):
        result = exe.run(machine=_machine("cm2", "fused"))
    # The machine's address memo holds no array: it names its homes and
    # their views, the shared read-only coordinates and what the launch
    # records bind — not the copy every earlier trip was handed.
    m = result.machine
    homes = [home.data for home in m.arrays.values()]
    bound = [operand for record in m._launches.values()
             for call in record.calls for _, operand in call[3]]
    assert m._addresses
    for ref, _ in m._addresses.values():
        array = ref()
        assert (not array.flags.writeable
                or any(array is operand for operand in bound)
                or any(np.shares_memory(array, data) for data in homes))
    del m, homes, bound, array
    machine = weakref.ref(result.machine)
    arrays = [weakref.ref(a) for a in result.arrays.values()]
    del result
    gc.collect()
    assert machine() is None
    assert all(a() is None for a in arrays)
    (table,) = exe._templates.values()
    assert table


def test_runs_leave_the_pickle_as_it_was():
    exe = compile_source(PROGRAMS["life"](), CompilerOptions(), cache=False)
    before = pickle.dumps(exe)
    for target, mode in CONFIGS[:2]:
        for _ in range(3):
            exe.run(machine=_machine(target, mode))
    assert exe._templates
    assert pickle.dumps(exe) == before
    copy = pickle.loads(before)
    assert "_templates" not in copy.__dict__
