"""Plan-level cross-routine fusion: mega-kernels and launch records.

The Figure 9/10 blocker fuses MOVEs that share a shape *inside* one
computation phase; every phase still becomes its own PEAC dispatch, and
on a blocked timestep loop the per-call overhead (sequencer dispatch,
IFIFO pushes, per-trip loop bookkeeping, store/reload of intermediate
streams) dominates what is left.  This module extends fusion into the
execution plan:

* the host executor (:mod:`repro.runtime.host`) batches adjacent node
  calls — independent runtime work is hoisted ahead of the batch — and
  dispatches each batch through :meth:`Machine.call_fused`;
* an :class:`ExecutionPlan` proves the batch safe to fuse with the same
  alias probing the per-routine kernels use (contiguous equal-length
  streams, stored classes overlap nothing distinct) and then charges the
  batch as **one** node call: one dispatch, deduplicated argument
  pushes, a single virtual-subgrid loop (one ``loop_overhead`` per trip
  instead of one per routine), and register-resident forwarding — an
  unpaired vector load of a stream some earlier constituent just stored
  is elided, because the value is still live in the fused routine's
  register file;
* the batch executes through a **mega-kernel**: the constituents'
  :class:`~repro.machine.plan.RoutinePlan` step lists are concatenated
  with registers renamed into per-constituent banks and memory operands
  renamed onto the fused slot table, then compiled by the existing
  blocked kernel builder (:mod:`repro.machine.kernel`).  Mega-kernels
  are cached process-wide, keyed by the full binding signature —
  constituent plan serials, alias classes, shapes and scalar types — so
  one compilation serves every later timestep and every later machine;
* steady state is a **replay**: once a site's batch has run through
  its mega-kernel, the machine keeps a :class:`LaunchRecord` — the
  bound operand objects, the kernel and its slot table, the summed
  charge — and later trips validate it by identity and launch again,
  skipping everything above (``docs/PIPELINE.md`` §16).

Correctness never depends on the probe: a batch that fails it simply
runs (and is charged) call by call, and a fused batch whose mega-kernel
is not buildable executes each constituent plan in order — both paths
bit-identical to the unfused engines.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from ..peac.isa import NUM_SREGS, NUM_VREGS
from .ckernel import try_native
from .kernel import (_NO_KERNEL, Launch, _build, _same_memory,
                     kernels_enabled, mark_in_place)
from .plan import (
    _R_CONST,
    _R_MEM,
    _R_SREG,
    _R_VREG,
    _BranchStep,
    _ComputeStep,
    _LoadStep,
    _MoveStep,
    _StoreStep,
    get_plan,
)
from .shifted import ShiftedStream, materialize_streams


class Dispatch:
    """One prepared node call: resolved streams, scalars and accounting."""

    __slots__ = ("routine", "plan", "streams", "shifted", "scalars",
                 "pushes", "scalar_pushes", "spill_bufs", "spill_pregs",
                 "trips", "elements")

    def __init__(self, routine, plan, streams, scalars, pushes,
                 scalar_pushes, spill_bufs, spill_pregs, trips,
                 elements) -> None:
        self.routine = routine
        self.plan = plan
        self.streams = streams
        # The shifted streams among them, kept apart so they can be
        # released (and counted) after ``streams`` swapped in copies.
        self.shifted = [st for st in streams
                        if isinstance(st, ShiftedStream)]
        self.scalars = scalars
        self.pushes = pushes
        self.scalar_pushes = scalar_pushes
        self.spill_bufs = spill_bufs
        self.spill_pregs = spill_pregs
        self.trips = trips
        self.elements = elements


class _MergedPlan:
    """Duck-typed plan over fused slots, consumed by the kernel builder."""

    def __init__(self, name, groups, used_pregs, num_vregs) -> None:
        self.name = name
        self.groups = groups
        self.used_pregs = used_pregs
        self.num_vregs = num_vregs


# -- process-wide mega-kernel cache -----------------------------------------

_MEGA_KERNELS: OrderedDict[tuple, object] = OrderedDict()
_MEGA_CAP = 128


def _remember(key: tuple, kern) -> None:
    if len(_MEGA_KERNELS) >= _MEGA_CAP:
        _MEGA_KERNELS.popitem(last=False)
    _MEGA_KERNELS[key] = kern


def evict_serial(serial: int) -> int:
    """Drop every cached mega-kernel built over the given plan serial.

    Called from :func:`repro.machine.plan.invalidate_plan`; returns the
    number of evicted entries (for tests and metrics).
    """
    dead = [key for key in _MEGA_KERNELS if serial in key[0]]
    for key in dead:
        del _MEGA_KERNELS[key]
    return len(dead)


def cache_size() -> int:
    return len(_MEGA_KERNELS)


# -- step remapping ---------------------------------------------------------


def _remap_reader(rd, smap, voff, soff, toff):
    tag = rd[0]
    if tag == _R_VREG:
        return (_R_VREG, rd[1] + voff)
    if tag == _R_SREG:
        return (_R_SREG, rd[1] + soff)
    if tag == _R_CONST:
        return rd
    # _R_MEM: slot-renamed; hazard sets are recomputed by the builder.
    return (_R_MEM, smap[rd[1]], rd[2] + toff, ())


def _remap_groups(plan, smap, voff, soff, toff):
    groups = []
    for steps in plan.groups:
        out = []
        for step in steps:
            if isinstance(step, _StoreStep):
                out.append(_StoreStep(
                    _remap_reader(step.reader, smap, voff, soff, toff),
                    smap[step.preg]))
            elif isinstance(step, _LoadStep):
                out.append(_LoadStep(
                    _remap_reader(step.reader, smap, voff, soff, toff),
                    step.dst + voff))
            elif isinstance(step, _MoveStep):
                out.append(_MoveStep(
                    _remap_reader(step.reader, smap, voff, soff, toff),
                    step.dst + voff))
            elif isinstance(step, _ComputeStep):
                readers = tuple(
                    _remap_reader(rd, smap, voff, soff, toff)
                    for rd in step.readers)
                out.append(_ComputeStep(step.op, readers, step.dst + voff,
                                        step.token + toff,
                                        step.aux + toff))
            else:
                out.append(_BranchStep())
        groups.append(tuple(out))
    return groups


# -- the fused execution plan -----------------------------------------------


class ExecutionPlan:
    """One fused dispatch: slot table, accounting, mega-kernel.

    Built by :meth:`build` for the trip at hand and dropped after it:
    what outlives the trip is the site's :class:`LaunchRecord` (on the
    machine) and the mega-kernel (process-wide).
    """

    def __init__(self, dispatches, trips, n, S, slot_maps, spill_slots,
                 stream_slots, shifts) -> None:
        self.plans = tuple(d.plan for d in dispatches)
        self.serials = tuple(p.serial for p in self.plans)
        self.names = tuple(p.name for p in self.plans)
        self.k = len(dispatches)
        self.trips = trips
        self.n = n
        #: The fused slot table: one flat array per slot.
        self.S = S
        self.slot_maps = slot_maps
        #: Slots holding spill scratch (redrawn zeroed on every trip).
        self.spill_slots = spill_slots
        #: ``(slot, staged source slot or None, shape, offsets)`` per
        #: shifted operand, as the kernel builders take them.
        self.shifts = shifts
        # One push per distinct stream slot, per scalar argument, plus
        # the shared vlen: duplicate pointer arguments collapse.
        self.pushes = (stream_slots
                       + sum(d.scalar_pushes for d in dispatches) + 1)

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, dispatches) -> "ExecutionPlan | None":
        """Probe a batch for fusability; None means dispatch call-by-call.

        The legality conditions mirror ``kernel._probe`` over the fused
        slot table: every stream contiguous with one common flat length,
        and no stored slot overlapping a *distinct* slot.  The verdict
        depends only on plans, shapes and alias classes — so fused cost
        accounting is deterministic run to run.  A shifted operand is
        one slot per operand key holding its *source*, exempt from the
        overlap rule as the private copy it replaces was: a stored slot
        that is exactly that source gets staged (``shifts`` carries the
        pairing to the kernel builders).
        """
        if len(dispatches) < 2:
            return None
        trips = dispatches[0].trips
        if any(d.trips != trips for d in dispatches):
            return None
        n = None
        ident: dict = {}
        arrays: list[np.ndarray] = []
        operands: dict[int, object] = {}
        slot_maps: list[dict[int, int]] = []
        spill_slots: list[int] = []
        stored_slots: set[int] = set()
        for d in dispatches:
            plan = d.plan
            spills = frozenset(d.spill_pregs)
            smap: dict[int, int] = {}
            for p in plan.used_pregs:
                stream = d.streams[p]
                if stream is None:
                    return None
                operand = getattr(stream, "operand", None)
                view = stream.view if operand is None else operand.base
                if (not isinstance(view, np.ndarray)
                        or not view.flags["C_CONTIGUOUS"]):
                    return None
                flat = view.reshape(-1)
                if n is None:
                    n = flat.size
                elif flat.size != n:
                    return None
                if p in spills:
                    slot = len(arrays)
                    arrays.append(flat)
                    spill_slots.append(slot)
                else:
                    key = ((view.__array_interface__["data"][0],
                            view.dtype.str) if operand is None
                           else ("shift", operand.key))
                    slot = ident.get(key)
                    if slot is None:
                        slot = len(arrays)
                        ident[key] = slot
                        arrays.append(flat)
                        if operand is not None:
                            operands[slot] = operand
                smap[p] = slot
                if p in plan.stored_pregs:
                    stored_slots.add(slot)
            slot_maps.append(smap)
        if not n or stored_slots & operands.keys():
            return None
        staged_base: dict[int, int] = {}
        for s in sorted(stored_slots):
            a = arrays[s]
            for t, b in enumerate(arrays):
                if t == s or not np.may_share_memory(a, b):
                    continue
                if t in operands and _same_memory(a, b):
                    staged_base[t] = s
                else:
                    return None
        shifts = tuple((slot, staged_base.get(slot), op.base.shape,
                        op.offsets)
                       for slot, op in sorted(operands.items()))
        return cls(dispatches, trips, n, arrays, tuple(slot_maps),
                   tuple(spill_slots), len(ident), shifts)

    # -- fused cost accounting ------------------------------------------

    def charge(self, model, dispatches) -> tuple:
        """The batch as one fused call, as ``RunStats.charge_call`` args.

        One ``loop_overhead`` per trip for the whole fused group, and an
        unpaired vector load of a slot stored by an *earlier* constituent
        is elided — the value is register-resident in the fused stream.
        """
        stored: set[int] = set()
        per: list[tuple[str, int]] = []
        for i, plan in enumerate(self.plans):
            cpt = plan.cycles_per_trip(model)
            if i > 0:
                cpt -= model.instr.loop_overhead
            smap = self.slot_maps[i]
            for preg, instr in plan.mem_loads:
                if smap.get(preg) in stored:
                    cpt -= model.instruction_cycles(instr)
            stored.update(smap[p] for p in plan.stored_pregs)
            per.append((plan.name, self.trips * max(cpt, 1)))
        return (sum(c for _, c in per),
                model.call_dispatch + self.pushes * model.ififo_push,
                self.pushes,
                sum(d.plan.flops_per_element * d.elements
                    for d in dispatches),
                sum(d.elements for d in dispatches),
                tuple(per), self.k)

    # -- execution ------------------------------------------------------

    def run(self, machine, dispatches) -> Launch | None:
        """Execute the batch; the launch, when a mega-kernel ran it."""
        kern = self._kernel_for(machine, dispatches)
        if kern is None:
            machine.fusion_metrics["stepwise_groups"] += 1
            # Every shifted operand means its source at group start.
            for d in dispatches:
                materialize_streams(d.streams)
            for d in dispatches:
                d.plan.execute(d.streams, d.scalars, machine.pool)
            return None
        X: list = []
        for d in dispatches:
            X.extend(d.scalars)
        launch = Launch(kern, self.S, self.n)
        launch.counters.append((machine.fusion_metrics, "megakernel_hits"))
        launch.run(X, machine.pool)
        if self.shifts:
            for d, smap in zip(dispatches, self.slot_maps):
                pregs = d.plan.used_pregs
                mark_in_place(d.streams, pregs,
                              [smap[p] for p in pregs], self.shifts)
        return launch

    def _kernel_for(self, machine, dispatches):
        """The mega-kernel for this trip's binding signature, if ready.

        None means "run the constituent plans in order" — either the
        signature still needs a recording pass, code generation is
        disabled, or the merged steps are not kernel-eligible.
        """
        if not kernels_enabled():
            return None
        sigs = tuple(d.plan._signature(d.streams, d.scalars)
                     for d in dispatches)
        slot_key = tuple(tuple(sorted(m.items())) for m in self.slot_maps)
        # Machines may retune native kernels (extra compiler flags for
        # the real CPU); the flavor keys the tuned build separately so
        # simulated targets keep the baseline one.
        key = (self.serials, slot_key, sigs, self.n,
               getattr(machine, "kernel_flavor", None), self.shifts)
        kern = _MEGA_KERNELS.get(key)
        if kern is None:
            specs = []
            for d, sig in zip(dispatches, sigs):
                spec = d.plan.specs.get(sig)
                if spec is None:
                    return None  # the recording pass runs stepwise first
                specs.append(spec)
            merged = self._merged_plan()
            mspec = self._merged_spec(specs)
            identity = tuple(range(len(self.S)))
            # Prefer a native per-element loop (intermediates stay in
            # registers); decline -> the Python blocked kernel.
            kern = try_native(merged, mspec, identity, self.n, self.S,
                              self.shifts)
            if kern is None:
                kern = _build(merged, mspec, identity, self.n, self.S,
                              self.shifts)
            else:
                tune = getattr(machine, "tune_kernel", None)
                if tune is not None:
                    kern = tune(kern)
                machine.fusion_metrics["megakernel_native"] += 1
            _remember(key, kern)
            machine.fusion_metrics["megakernel_builds"] += 1
        else:
            _MEGA_KERNELS.move_to_end(key)
            if kern is not _NO_KERNEL:
                machine.fusion_metrics["megakernel_hits"] += 1
        return None if kern is _NO_KERNEL else kern

    def _merged_plan(self) -> _MergedPlan:
        groups: list = []
        toff = 0
        for i, plan in enumerate(self.plans):
            groups.extend(_remap_groups(plan, self.slot_maps[i],
                                        i * NUM_VREGS, i * NUM_SREGS, toff))
            toff += plan._tokens
        return _MergedPlan(name="+".join(self.names), groups=groups,
                           used_pregs=tuple(range(len(self.S))),
                           num_vregs=self.k * NUM_VREGS)

    def _merged_spec(self, specs) -> dict:
        spec: dict = {}
        toff = 0
        for plan, sub in zip(self.plans, specs):
            for token, v in sub.items():
                spec[token + toff] = v
            toff += plan._tokens
        return spec


# -- steady state: the per-site launch record -------------------------------


class LaunchRecord:
    """What one dispatch site does on every steady-state trip.

    Captured by the machine from a trip the ordinary path ran through a
    compiled kernel: per call the routine, its plan, the region tail of
    the call tuple, the operand *objects* bound to the stream
    parameters and the Python type of each scalar argument; the
    :class:`~repro.machine.kernel.Launch` that ran; and the trip's
    ``RunStats.charge_call`` arguments.  A later trip whose calls pass
    :meth:`stale` binds the very same objects, so every pointer, dtype,
    length and alias fact the ordinary path would re-derive is already
    known — a live numpy view cannot change them.  The record holds
    strong references to everything it compares against, so a site id
    recycled for another op can only match an identical dispatch.
    """

    __slots__ = ("launch", "charge", "calls", "X")

    def __init__(self, launch, charge, calls, X) -> None:
        self.launch = launch
        self.charge = charge
        self.calls = calls
        self.X = X

    @classmethod
    def capture(cls, calls, dispatches, launch: Launch, charge: tuple,
                spill_slots) -> "LaunchRecord | None":
        """The record of the trip that just ran, or None when one of
        its scalars is an array (whose shape is part of the kernel's
        signature, not of its type)."""
        checks = []
        X: list = []
        for call, d in zip(calls, dispatches):
            routine, bindings = call[0], call[1]
            base = len(X)
            X.extend(d.scalars)
            streams = []
            scalars = []
            for param in routine.params:
                if param.kind == "vlen":
                    continue
                value = bindings[param.name]
                if param.kind != "scalar":
                    streams.append((param.name, value))
                elif isinstance(value, np.ndarray):
                    return None
                else:
                    scalars.append((param.name, base + param.reg.n,
                                    type(value)))
            checks.append((routine, d.plan, tuple(call[2:]),
                           tuple(streams), tuple(scalars)))
        launch.redraw(spill_slots)
        return cls(launch, charge, tuple(checks), X)

    def stale(self, calls) -> str | None:
        """Why this trip cannot replay the record — None when it can,
        with the trip's scalars filled in."""
        if len(calls) != len(self.calls):
            return "binding"
        X = self.X
        for call, (routine, plan, tail, streams, scalars) in zip(
                calls, self.calls):
            if call[0] is not routine or get_plan(routine) is not plan:
                return "plan"
            if tuple(call[2:]) != tail:
                return "binding"
            bindings = call[1]
            for name, operand in streams:
                if bindings.get(name) is not operand:
                    return "binding"
            for name, k, kind in scalars:
                value = bindings.get(name)
                if type(value) is not kind:
                    return "scalar_type"
                X[k] = value
        return None
