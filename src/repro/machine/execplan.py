"""Plan-level cross-routine fusion: mega-kernels and persistent bindings.

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
* bindings are **persistent**: the executor's per-site argument
  resolution, the fused slot table, and the accounting totals are all
  validated by pointer identity and reused across trips instead of
  being recomputed per dispatch.

Correctness never depends on the probe: a batch that fails it simply
runs (and is charged) call by call, and a fused batch whose mega-kernel
is not buildable executes each constituent plan in order — both paths
bit-identical to the unfused engines.
"""

from __future__ import annotations

import os
from collections import OrderedDict

import numpy as np

from ..peac.isa import Mem, NUM_SREGS, NUM_VREGS
from .ckernel import try_native
from .kernel import (_NO_KERNEL, _build, _same_memory, mark_in_place,
                     run_kernel)
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
    """One fused dispatch site: slot table, accounting, mega-kernel.

    Built once per (site, binding pattern) and revalidated by pointer
    identity on every later trip; :func:`resolve` keeps the per-site
    instance alive on the machine so steady-state dispatch is a cheap
    rebind plus one kernel call.
    """

    KERNEL_CAP = 4  # signature specializations held per site

    def __init__(self, dispatches, trips, n, nslots, slot_maps, expects,
                 spill_lists, stream_slots, shifts) -> None:
        self.plans = tuple(d.plan for d in dispatches)
        self.serials = tuple(p.serial for p in self.plans)
        self.names = tuple(p.name for p in self.plans)
        self.k = len(dispatches)
        self.trips = trips
        self.n = n
        self.nslots = nslots
        self.slot_maps = slot_maps
        self.expects = expects
        self.spill_lists = spill_lists
        #: ``(slot, staged source slot or None, shape, offsets)`` per
        #: shifted operand, as the kernel builders take them.
        self.shifts = shifts
        # One push per distinct stream slot, per scalar argument, plus
        # the shared vlen: duplicate pointer arguments collapse.
        self.pushes = (stream_slots
                       + sum(d.scalar_pushes for d in dispatches) + 1)
        self._slot_key = tuple(tuple(sorted(m.items())) for m in slot_maps)
        self._cycle_cache: dict = {}
        self._kernels: OrderedDict[tuple, object] = OrderedDict()
        self._merged = None

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
        slot_maps, expects, spill_lists = [], [], []
        stored_slots: set[int] = set()
        for d in dispatches:
            plan = d.plan
            spills = frozenset(d.spill_pregs)
            smap: dict[int, int] = {}
            exp: list[tuple] = []
            spl: list[tuple] = []
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
                    spl.append((p, slot))
                else:
                    where = (view.__array_interface__["data"][0],
                             view.dtype.str)
                    shift = (None if operand is None
                             else (operand.key, operand.offsets))
                    key = where if shift is None else ("shift", shift[0])
                    slot = ident.get(key)
                    if slot is None:
                        slot = len(arrays)
                        ident[key] = slot
                        arrays.append(flat)
                        if operand is not None:
                            operands[slot] = operand
                    exp.append((p, slot, *where, shift))
                smap[p] = slot
                if p in plan.stored_pregs:
                    stored_slots.add(slot)
            slot_maps.append(smap)
            expects.append(tuple(exp))
            spill_lists.append(tuple(spl))
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
        return cls(dispatches, trips, n, len(arrays), tuple(slot_maps),
                   tuple(expects), tuple(spill_lists), len(ident), shifts)

    def rebind(self, dispatches) -> list | None:
        """The fused slot table for this trip, or None when stale.

        Validates plan identity (a recompiled routine fails here) and
        every non-spill stream's pointer, dtype and contiguity (for a
        shifted operand: its source's, plus key and offsets) against
        the build-time bindings; spill slots take whatever scratch this
        trip drew from the pool.
        """
        if len(dispatches) != self.k:
            return None
        S: list = [None] * self.nslots
        for i, d in enumerate(dispatches):
            if d.plan is not self.plans[i] or d.trips != self.trips:
                return None
            for p, slot, ptr, dts, shift in self.expects[i]:
                stream = d.streams[p]
                if stream is None:
                    return None
                operand = getattr(stream, "operand", None)
                if shift is None:
                    if operand is not None:
                        return None
                    view = stream.view
                elif (operand is None
                      or (operand.key, operand.offsets) != shift):
                    return None
                else:
                    view = operand.base
                if (not isinstance(view, np.ndarray)
                        or view.__array_interface__["data"][0] != ptr
                        or view.dtype.str != dts
                        or not view.flags["C_CONTIGUOUS"]
                        or view.size != self.n):
                    return None
                S[slot] = view.reshape(-1)
            for p, slot in self.spill_lists[i]:
                view = d.streams[p].view
                if not isinstance(view, np.ndarray) or view.size != self.n:
                    return None
                S[slot] = view.reshape(-1)
        return S

    # -- fused cost accounting ------------------------------------------

    def _cycles_for(self, model) -> tuple[int, tuple]:
        """(total node cycles, per-routine attribution) under ``model``.

        One ``loop_overhead`` per trip for the whole fused group, and an
        unpaired vector load of a slot stored by an *earlier* constituent
        is elided — the value is register-resident in the fused stream.
        """
        got = self._cycle_cache.get(model)
        if got is None:
            stored: set[int] = set()
            per: list[tuple[str, int]] = []
            for i, plan in enumerate(self.plans):
                cpt = plan.cycles_per_trip(model)
                if i > 0:
                    cpt -= model.instr.loop_overhead
                smap = self.slot_maps[i]
                stored_before = frozenset(stored)
                for instr in plan._instrs:
                    if instr.paired is None and instr.kind in ("load",
                                                               "move"):
                        src = instr.operands[0]
                        if (isinstance(src, Mem)
                                and smap.get(src.preg.n) in stored_before):
                            cpt -= model.instruction_cycles(instr)
                    pair = ((instr,) if instr.paired is None
                            else (instr, instr.paired))
                    for ins in pair:
                        if ins.kind == "store":
                            slot = smap.get(ins.operands[1].preg.n)
                            if slot is not None:
                                stored.add(slot)
                per.append((plan.name, self.trips * max(cpt, 1)))
            got = (sum(c for _, c in per), tuple(per))
            self._cycle_cache[model] = got
        return got

    # -- execution ------------------------------------------------------

    def run(self, machine, dispatches, S) -> None:
        """Account the batch as one fused call and execute it."""
        st = machine.stats
        model = machine.model
        node, per = self._cycles_for(model)
        st.node_cycles += node
        st.call_cycles += (model.call_dispatch
                           + self.pushes * model.ififo_push)
        st.node_calls += 1
        st.ififo_pushes += self.pushes
        st.fused_groups += 1
        st.fused_routines += self.k
        for name, cycles in per:
            st.per_routine[name] = st.per_routine.get(name, 0) + cycles
        for d in dispatches:
            st.flops += d.plan.flops_per_element * d.elements
            st.elements_computed += d.elements
        kern = self._kernel_for(machine, dispatches)
        if kern is not None:
            X: list = []
            for d in dispatches:
                X.extend(d.scalars)
            with np.errstate(all="ignore"):
                run_kernel(kern, S, X, self.n, machine.pool)
            if self.shifts:
                for d, smap in zip(dispatches, self.slot_maps):
                    pregs = d.plan.used_pregs
                    mark_in_place(d.streams, pregs,
                                  [smap[p] for p in pregs], self.shifts)
        else:
            machine.fusion_metrics["stepwise_groups"] += 1
            # Every shifted operand means its source at group start.
            for d in dispatches:
                materialize_streams(d.streams)
            for d in dispatches:
                d.plan.execute(d.streams, d.scalars, machine.pool)

    def _kernel_for(self, machine, dispatches):
        """The mega-kernel for this trip's binding signature, if ready.

        None means "run the constituent plans in order" — either the
        signature still needs a recording pass, code generation is
        disabled, or the merged steps are not kernel-eligible.
        """
        if os.environ.get("REPRO_FAST_KERNEL") == "0":
            return None
        sigs = tuple(d.plan._signature(d.streams, d.scalars)
                     for d in dispatches)
        kern = self._kernels.get(sigs)
        if kern is None:
            specs = []
            for d, sig in zip(dispatches, sigs):
                spec = d.plan.specs.get(sig)
                if spec is None:
                    return None  # the recording pass runs stepwise first
                specs.append(spec)
            # Machines may retune native kernels (extra compiler flags
            # for the real CPU); the flavor keys the tuned build
            # separately so simulated targets keep the baseline one.
            tune = getattr(machine, "tune_kernel", None)
            key = (self.serials, self._slot_key, sigs, self.n,
                   getattr(machine, "kernel_flavor", None), self.shifts)
            kern = _MEGA_KERNELS.get(key)
            if kern is None:
                S = self.rebind(dispatches)
                merged = self._merged_plan()
                mspec = self._merged_spec(specs)
                identity = tuple(range(self.nslots))
                # Prefer a native per-element loop (intermediates stay
                # in registers); decline -> the Python blocked kernel.
                kern = try_native(merged, mspec, identity, self.n, S,
                                  self.shifts)
                if kern is None:
                    kern = _build(merged, mspec, identity, self.n, S,
                                  self.shifts)
                else:
                    if tune is not None:
                        kern = tune(kern)
                    machine.fusion_metrics["megakernel_native"] += 1
                _remember(key, kern)
                machine.fusion_metrics["megakernel_builds"] += 1
            else:
                _MEGA_KERNELS.move_to_end(key)
                if kern is not _NO_KERNEL:
                    machine.fusion_metrics["megakernel_hits"] += 1
            while len(self._kernels) >= self.KERNEL_CAP:
                self._kernels.popitem(last=False)
            self._kernels[sigs] = kern
        elif kern is not _NO_KERNEL:
            machine.fusion_metrics["megakernel_hits"] += 1
        return None if kern is _NO_KERNEL else kern

    def _merged_plan(self) -> _MergedPlan:
        merged = self._merged
        if merged is None:
            groups: list = []
            toff = 0
            for i, plan in enumerate(self.plans):
                groups.extend(_remap_groups(plan, self.slot_maps[i],
                                            i * NUM_VREGS, i * NUM_SREGS,
                                            toff))
                toff += plan._tokens
            merged = self._merged = _MergedPlan(
                name="+".join(self.names), groups=groups,
                used_pregs=tuple(range(self.nslots)),
                num_vregs=self.k * NUM_VREGS)
        return merged

    def _merged_spec(self, specs) -> dict:
        spec: dict = {}
        toff = 0
        for plan, sub in zip(self.plans, specs):
            for token, v in sub.items():
                spec[token + toff] = v
            toff += plan._tokens
        return spec


def resolve(machine, site, dispatches):
    """The (plan, slot table) for a batch at a dispatch site.

    Reuses the machine's cached per-site plan when the bindings still
    match (the persistent-binding fast path); otherwise probes afresh.
    ``(None, None)`` sends the batch down the call-by-call path.
    """
    cached = machine._exec_plans.get(site)
    if cached is not None:
        S = cached.rebind(dispatches)
        if S is not None:
            return cached, S
        del machine._exec_plans[site]
    plan = ExecutionPlan.build(dispatches)
    if plan is None:
        return None, None
    S = plan.rebind(dispatches)
    if S is None:  # pragma: no cover - build and rebind agree by design
        return None, None
    machine._exec_plans[site] = plan
    return plan, S
