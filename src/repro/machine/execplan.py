"""How a dispatch runs: a group of k >= 1 routines, one probe, one cache.

The Figure 9/10 blocker fuses MOVEs that share a shape *inside* one
computation phase; every phase still becomes its own PEAC dispatch, and
on a blocked timestep loop the per-call overhead (sequencer dispatch,
IFIFO pushes, per-trip loop bookkeeping, store/reload of intermediate
streams) dominates what is left.  The host executor
(:mod:`repro.runtime.host`) therefore batches adjacent node calls and
hands each batch to :meth:`Machine.call_fused`; a lone call is the
batch of one.  Either way the machine runs a **group**:

* :meth:`LaunchTemplate.probe` is the one alias probe: it classifies
  the group's prepared calls (source arrays, shapes, dtypes, contiguity,
  address classes) into a :class:`LaunchTemplate` — slot table, staged
  pairs, pushes, charge, kernel-cache key, and no array — which the
  machine keeps per dispatch site for every machine that runs it;
* :meth:`LaunchTemplate.bind` makes every trip's :class:`ExecutionPlan`
  from the site's template and the trip's arrays, with the one overlap
  check (no written address class overlaps another); a trip that does
  not fit the template is probed again;
* :meth:`ExecutionPlan.kernel_for` is the one kernel cache: the
  constituents' :class:`~repro.machine.plan.RoutinePlan` steps are
  lowered once onto the slot table (:func:`~repro.machine.loopir.lower`)
  and the loop printed as blocked numpy (:mod:`repro.machine.kernel`:
  no subprocess).  The entry counts the work it streams, and once that
  would have repaid a ``cc`` run (:func:`~repro.machine.kernel.hot`)
  the C printer (:mod:`repro.machine.ckernel`) is asked, once, for the
  same loop: its kernel replaces the entry, a decline is remembered
  with its reason.
  Kernels are cached process-wide, keyed by the full binding
  signature — constituent plan serials, slot maps, shapes, scalar
  types — so one compilation serves every later timestep and every
  later machine, and live no longer than the plans they were compiled
  over (:func:`evict_serial`);
* :meth:`ExecutionPlan.launch` runs the kernel through a
  :class:`~repro.machine.kernel.Launch`, which the machine keeps as the
  site's :class:`LaunchRecord`: later trips validate it by identity and
  launch again, skipping everything above (``docs/PIPELINE.md`` §16).

What differs with k is the accounting, not the path and not the
printer.  A group of two or more is charged as **one** node call
(:func:`_fused_charge`: one dispatch, deduplicated argument pushes, a
single virtual-subgrid loop, register-resident forwarding of streams an
earlier constituent just stored); a lone dispatch keeps the
per-parameter charge of :func:`call_charge`.

Correctness never depends on the probe, and what happens without a
kernel is one chain written once (:func:`run_group`): the group's
kernel; else each constituent as a group of one over materialised
streams; else the interpreter oracle itself (:func:`run_oracle`, the
one path of every dispatch that runs without a kernel, and all that
``exec_mode="interp"`` runs).  A binding signature's first trip goes
to the oracle: the plan remembers the signature, and a later trip types
the kernel from it (:func:`~repro.machine.loopir.lower`).  A batch the
probe or the bind refuses never gets that far: it is its calls, each
charged, run and recorded as a site of its own
(:meth:`Machine.call_fused`).
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import NamedTuple

import numpy as np

from ..peac.isa import NUM_SREGS
from .ckernel import BuildFailed, try_native
from .geometry import coordinate_axis
from .kernel import Launch, NoKernel, blocked_kernel, hot
from .loopir import Declined, lower
from .pe import VectorExecutor
from .plan import _UNBOUND, get_plan
from .shifted import ShiftedStream, materialize_streams


class Dispatch:
    """One prepared node call: resolved streams, scalars and accounting."""

    __slots__ = ("routine", "plan", "streams", "shifted", "scalars",
                 "pushes", "scalar_pushes", "spill_bufs", "spill_pregs",
                 "trips", "elements")

    def __init__(self, routine, plan, streams, scalars, pushes=0,
                 scalar_pushes=0, spill_bufs=(), spill_pregs=(), trips=0,
                 elements=0) -> None:
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


# -- the process-wide kernel cache ------------------------------------------

_MEGA_KERNELS: OrderedDict[tuple, object] = OrderedDict()
_MEGA_CAP = 256


class _Key(tuple):
    """A kernel-cache key, hashed once: it nests every slot map and
    binding signature, and every trip bound from a launch template looks
    it up."""

    def __new__(cls, parts) -> "_Key":
        key = super().__new__(cls, parts)
        key.hash = tuple.__hash__(key)
        return key

    def __hash__(self) -> int:
        return self.hash


def evict_serial(serial: int) -> None:
    """Drop every cached kernel built over the given plan serial.

    A kernel lives no longer than the plans it was compiled over:
    called from :func:`repro.machine.plan.invalidate_plan` and when a
    :class:`~repro.machine.plan.RoutinePlan` is collected — possibly in
    the middle of another eviction, hence the snapshot and the
    forgiving ``pop``.
    """
    for key in list(_MEGA_KERNELS):
        if serial in key[0]:
            _MEGA_KERNELS.pop(key, None)


# -- the group ----------------------------------------------------------------


def call_charge(model, d: Dispatch) -> tuple:
    """One unfused call, as ``RunStats.charge_call`` arguments."""
    node = d.trips * d.plan.cycles_per_trip(model)
    return (node, model.call_dispatch + d.pushes * model.ififo_push,
            d.pushes, d.plan.flops_per_element * d.elements, d.elements,
            ((d.routine.name, node),))


def _fused_charge(model, plans, slot_maps, trips, pushes,
                  dispatches) -> tuple:
    """A batch of two or more as one fused call, as
    ``RunStats.charge_call`` args.

    One ``loop_overhead`` per trip for the whole fused group, and an
    unpaired vector load of a slot stored by an *earlier* constituent
    is elided — the value is register-resident in the fused stream.
    """
    stored: set[int] = set()
    per: list[tuple[str, int]] = []
    for i, (plan, smap) in enumerate(zip(plans, slot_maps)):
        cpt = plan.cycles_per_trip(model)
        if i > 0:
            cpt -= model.instr.loop_overhead
        for preg, instr in plan.mem_loads:
            if smap.get(preg) in stored:
                cpt -= model.instruction_cycles(instr)
        stored.update(smap[p] for p in plan.stored_pregs)
        per.append((plan.name, trips * max(cpt, 1)))
    return (sum(c for _, c in per),
            model.call_dispatch + pushes * model.ififo_push, pushes,
            sum(d.plan.flops_per_element * d.elements for d in dispatches),
            sum(d.elements for d in dispatches), tuple(per), len(plans))


class ExecutionPlan(NamedTuple):
    """One trip's group: the site's :class:`LaunchTemplate` bound to
    the flat arrays the calls bind, one per slot (``S``), and their
    addresses (``addrs``).

    Made by :meth:`LaunchTemplate.bind` for the trip at hand and dropped
    after it: what outlives the trip is the site's
    :class:`LaunchRecord` (on the machine), its template (with the
    executable) and the kernel (process-wide).
    """

    template: LaunchTemplate
    S: list
    addrs: list

    def kernel_for(self, metrics) -> tuple:
        """``(kernel, built)`` for the template's kernel-cache key.

        The kernel is None when the oracle must run instead: a
        signature still needs its first trip, or the lowering declined
        the group.  ``built`` says this call compiled the entry rather
        than found it.  An entry starts as the blocked numpy kernel
        printed from the group's loop (:mod:`repro.machine.loopir`) and
        is offered to the C printer when
        :func:`~repro.machine.kernel.hot` says it has earned the ``cc``
        run, whatever k and whoever asks; ``metrics`` (the machine's
        ``fusion_metrics``) counts what that cost.
        """
        t = self.template
        key = t.key
        kern = _MEGA_KERNELS.get(key)
        built = kern is None
        if built:
            sigs = key[2]
            if not all(sig in plan.seen for plan, sig in zip(t.plans, sigs)):
                return None, False   # the oracle runs the first trip
            try:
                kern = blocked_kernel(lower(
                    t.plans, t.slot_maps, sigs, t.n,
                    [a.dtype for a in self.S], t.shifts), t.coords)
            except Declined as bail:
                kern = NoKernel(str(bail))
            if len(_MEGA_KERNELS) >= _MEGA_CAP:
                _MEGA_KERNELS.popitem(last=False)
        if hot(kern):
            kern = self._tier_up(kern, metrics)
        _MEGA_KERNELS[key] = kern
        _MEGA_KERNELS.move_to_end(key)
        if kern.declined is not None:
            # Per entry, not per trip: meeting it again changes nothing.
            metrics.setdefault("declined", {})[key] = kern.declined
        elif kern.native and kern.threads > 1:
            metrics.setdefault("split", set()).add(key)
        return (None if isinstance(kern, NoKernel) else kern), built

    def _tier_up(self, kern, metrics):
        """The kernel that replaces a hot blocked ``kern``: the C
        printer's, of the loop ``kern`` was printed from, or ``kern``
        itself with the refusal remembered."""
        try:
            native = try_native(kern.loop)
        except Declined as bail:
            kern.declined = ("c", str(bail))
            return kern
        except BuildFailed:
            metrics["native_build_failures"] += 1
            kern.declined = ("c", "build failed")
            return kern
        metrics["tier_ups"] += 1
        if len(self.template.plans) > 1:
            metrics["megakernel_native"] += 1
        if native.build_ms is not None:
            metrics["native_builds"] += 1
            metrics["native_build_ms"] += native.build_ms
        return native

    def launch(self, kern, dispatches, pool) -> Launch:
        """Run ``kern`` over the group's slot table; the launch."""
        t = self.template
        X = [x for d in dispatches for x in d.scalars]
        # The kernel's staged scratch slots, numbered in order after
        # the group's own: the launch's for as long as it lives.
        scratch = [pool.acquire((t.n,), self.S[slot].dtype)
                   for slot, _ in kern.staged]
        launch = Launch(kern, self.S + scratch, t.n, t.spill_slots,
                        len(t.plans))
        launch.S.addrs = self.addrs + [a.ctypes.data for a in scratch]
        launch.run(X)
        if t.shifts:   # the kernel read every shifted stream in place
            staged = {slot for slot, base, _, _ in t.shifts
                      if base is not None}
            for d, smap in zip(dispatches, t.slot_maps):
                for p, slot in smap.items():
                    stream = d.streams[p]
                    if isinstance(stream, ShiftedStream):
                        stream.state = ("staged" if slot in staged
                                        else "folded")
        return launch


def run_group(dispatches, pool, metrics,
              group: ExecutionPlan | None) -> Launch | None:
    """Run k >= 1 prepared calls: the one fallback chain.

    The group's kernel; else each constituent as a group of one over
    materialised streams (a shifted operand means its source when the
    group starts); else the oracle (:func:`run_oracle`).  Returns the
    launch when a kernel ran over the operands as bound — what a
    dispatch site may replay — else None.

    ``group`` is this trip's :class:`ExecutionPlan`, None when the
    probe or the bind refused the calls.  ``metrics`` is the machine's
    ``fusion_metrics`` (see :meth:`ExecutionPlan.kernel_for`).
    """
    k = len(dispatches)
    if group is not None:
        kern, built = group.kernel_for(metrics)
        if k > 1:
            if built:
                metrics["megakernel_builds"] += 1
            elif kern is not None:
                metrics["megakernel_hits"] += 1
            if kern is None:
                metrics["stepwise_groups"] += 1
        if kern is not None:
            launch = group.launch(kern, dispatches, pool)
            if k > 1:
                launch.counters.append((metrics, "megakernel_hits"))
            return launch
    d = dispatches[0]
    if k == 1 and not any(isinstance(st, ShiftedStream) for st in d.streams):
        run_oracle(d, d.plan._signature(d.streams, d.scalars))
        return None
    for d in dispatches:
        materialize_streams(d.streams)
    for d in dispatches:
        run_group((d,), pool, metrics, group_of((d,)))
    return None


def group_of(dispatches) -> ExecutionPlan | None:
    """This trip's group of ``dispatches`` where no site remembers a
    template: a fresh probe, bound."""
    template = LaunchTemplate.probe(dispatches)
    return None if template is None else template.bind((), dispatches)


def run_oracle(d: Dispatch, sig=None) -> None:
    """Run one prepared call on the interpreter oracle
    (:class:`~repro.machine.pe.VectorExecutor`), its shifted streams
    materialised first: every dispatch that runs without a kernel.

    ``sig`` is the call's binding signature when the oracle stands in
    for a kernel (:func:`run_group`); the plan remembers it, so the next
    trip with it may build one.  ``exec_mode="interp"`` passes none.
    """
    materialize_streams(d.streams)
    executor = VectorExecutor()
    executor.pregs = {n: stream for n, stream in enumerate(d.streams)
                      if stream is not None}
    executor.sregs = {n: value for n, value in enumerate(d.scalars)
                      if value is not _UNBOUND}
    executor.run_instrs(d.plan.instrs)
    if sig is not None:
        d.plan.saw(sig)


# -- steady state: the per-site launch record -------------------------------


def _mismatch(call, routine, plan, tail, scalars) -> str | None:
    """Why ``call`` is not one of ``routine`` under ``plan`` with region
    tail ``tail`` and scalar arguments of the types in ``scalars`` — a
    :class:`LaunchRecord` drop reason — or None when it is: the per-call
    check of a record and of a template alike."""
    if call[0] is not routine or get_plan(routine) is not plan:
        return "plan"
    if tuple(call[2:]) != tail:
        return "binding"
    bindings = call[1]
    for name, _, kind in scalars:
        if type(bindings.get(name)) is not kind:
            return "scalar_type"
    return None


class LaunchRecord:
    """What one dispatch site does on every steady-state trip.

    Made by the site's :class:`LaunchTemplate` from a trip that ran
    through a compiled kernel (:meth:`LaunchTemplate.record`): per call
    the routine, its plan, the region tail of the call tuple, the
    operand *objects* bound to the stream parameters and the Python
    type of each scalar argument; the
    :class:`~repro.machine.kernel.Launch` that ran; and the trip's
    ``RunStats.charge_call`` arguments.  A later trip whose calls pass
    :meth:`stale` binds the very same objects, so every pointer, dtype,
    length and alias fact the bind would re-derive is already known — a
    live numpy view cannot change them.  The record holds strong
    references to everything it compares against, so a site id
    recycled for another op can only match an identical dispatch.
    """

    __slots__ = ("launch", "charge", "calls", "X")

    def __init__(self, launch, charge, calls, X) -> None:
        self.launch = launch
        self.charge = charge
        self.calls = calls
        self.X = X

    def stale(self, calls) -> str | None:
        """Why this trip cannot replay the record — None when it can,
        with the trip's scalars filled in."""
        if hot(self.launch.kern):
            # The bind's kernel lookup asks the C printer; the trip
            # records again.
            return "tier_up"
        if len(calls) != len(self.calls):
            return "binding"
        X = self.X
        for call, (routine, plan, tail, streams, scalars) in zip(
                calls, self.calls):
            why = _mismatch(call, routine, plan, tail, scalars)
            if why is not None:
                return why
            bindings = call[1]
            for name, operand in streams:
                if bindings.get(name) is not operand:
                    return "binding"
            for name, k, _ in scalars:
                X[k] = bindings[name]
        return None


# -- the alias probe and its per-site memo: the launch template --------------

def _address(view: np.ndarray, memo: dict | None = None) -> int:
    """``view``'s address, through the machine's ``memo`` when given:
    ``id(array) -> (weak reference, address)``, an entry dropped when its
    array dies, so the id cannot come back as another's and a per-trip
    copy leaves nothing behind."""
    key = id(view)
    held = None if memo is None else memo.get(key)
    if held is None or held[0]() is not view:
        address = view.__array_interface__["data"][0]
        if memo is None:
            return address
        held = memo[key] = (weakref.ref(view, lambda _: memo.pop(key, None)),
                            address)
    return held[1]


class LaunchTemplate(NamedTuple):
    """What the probe worked out from one trip's calls, for every trip
    at the dispatch site on every machine that runs it
    (``docs/PIPELINE.md`` §16, "Launch templates"): per call the
    routine, plan, region tail, stream parameter names and scalar slots
    and types (``calls``); the group's ``plans``, ``trips``, common flat
    length ``n``, per call its pointer register -> slot map, the spill
    slots (zeroed before every launch), per shifted operand ``(slot,
    staged source slot or None, shape, offsets)`` as the lowering takes
    them, per coordinate slot ``(slot, 0-based axis, shape)`` (``coords``:
    bound only from ``coord`` parameters, to shared coordinate arrays),
    and ``pushes`` (one per distinct stream slot and scalar, plus the
    shared vlen); the array objects the streams were (*sources*:
    shape and dtype, ``classes`` of sources at one address, ``written``
    those stored into), per stream its source, slot and shifted offsets
    (``members``), per slot its source (``slot_src``); the kernel-cache
    ``key`` and the ``charge``.  It holds no array, pool buffer or
    machine and never changes."""

    calls: tuple
    plans: tuple
    trips: int
    n: int
    slot_maps: tuple
    spill_slots: tuple
    shifts: tuple
    coords: tuple
    pushes: int
    members: tuple
    sources: tuple
    slot_src: tuple
    classes: tuple
    written: tuple
    key: tuple
    charge: tuple | None

    @classmethod
    def probe(cls, dispatches, calls=(),
              model=None) -> "LaunchTemplate | None":
        """Classify prepared ``dispatches`` — the one alias probe — and
        derive their group; None when no kernel may run them wherever
        their arrays lie: trip counts differ; a stream is not a
        C-contiguous array of the common flat length; a shifted operand
        is stored into; a stored slot's address class holds another slot
        but a shifted operand of its dtype (which reads the old values:
        the store is staged); a scalar of ``calls`` is an array (its
        shape is part of the kernel's signature, not of its type).  The
        verdict depends only on plans, shapes and alias classes, so
        fused cost accounting is deterministic run to run.

        ``calls`` are what a later trip must match to bind the template
        (none: no site remembers it); ``model`` prices the group (none:
        nothing is charged from it).
        """
        trips = dispatches[0].trips
        if any(d.trips != trips for d in dispatches):
            return None
        checks = []
        for i, (call, d) in enumerate(zip(calls, dispatches)):
            streams, scalars = [], []
            for param in call[0].params:
                value = call[1].get(param.name)
                if param.kind in ("subgrid", "coord", "halo"):
                    streams.append(param.name)
                elif param.kind != "scalar":
                    continue
                elif isinstance(value, np.ndarray):
                    return None
                else:
                    scalars.append((param.name,
                                    i * NUM_SREGS + param.reg.n,
                                    type(value)))
            checks.append((call[0], d.plan, tuple(call[2:]),
                           tuple(streams), tuple(scalars)))
        n = None
        views: list = []
        index: dict[int, int] = {}     # id(source) -> source
        ident: dict = {}               # (address, dtype) or shift key -> slot
        operands: dict = {}            # shifted slot -> its operand
        slot_src, slot_maps, spill_slots, members = [], [], [], []
        stored: set[int] = set()     # stored slots
        only_coord: dict[int, bool] = {}   # slot -> bound from coords alone
        for i, d in enumerate(dispatches):
            smap: dict[int, int] = {}
            coord_pregs = {param.reg.n for param in getattr(
                d.routine, "params", ()) if param.kind == "coord"}
            for p in d.plan.used_pregs:
                stream = d.streams[p]
                if stream is None:
                    return None
                operand = (stream.operand if isinstance(stream, ShiftedStream)
                           else None)
                view = stream.view if operand is None else operand.base
                if (not isinstance(view, np.ndarray)
                        or not view.flags.c_contiguous):
                    return None
                if n is None:
                    n = view.size
                elif view.size != n:
                    return None
                src = index.setdefault(id(view), len(views))
                if src == len(views):
                    views.append(view)
                if p in d.spill_pregs:
                    slot = len(slot_src)
                    spill_slots.append(slot)
                else:
                    slot = ident.setdefault(
                        (_address(view), view.dtype.str) if operand is None
                        else ("shift", operand.key), len(slot_src))
                    if operand is not None:
                        operands.setdefault(slot, operand)
                if slot == len(slot_src):
                    slot_src.append(src)
                smap[p] = slot
                only_coord[slot] = (only_coord.get(slot, True)
                                    and p in coord_pregs and operand is None)
                members.append((i, p, src, slot, None if operand is None
                                else operand.offsets))
                if p in d.plan.stored_pregs:
                    stored.add(slot)
            slot_maps.append(smap)
        if not n or stored & operands.keys():
            return None
        where: dict = {}    # address -> class, by first appearance
        classes = [where.setdefault(_address(v), len(where)) for v in views]
        staged: dict[int, int] = {}
        for s in stored:
            mine = views[slot_src[s]]
            for t, src in enumerate(slot_src):
                if t == s or classes[src] != classes[slot_src[s]]:
                    continue
                if t not in operands or views[src].dtype != mine.dtype:
                    return None
                staged[t] = s
        shifts = tuple((slot, staged.get(slot), op.base.shape, op.offsets)
                       for slot, op in sorted(operands.items()))
        coords = tuple((slot, axis, views[slot_src[slot]].shape)
                       for slot, only in sorted(only_coord.items())
                       if only and slot not in stored and (axis := (
                           coordinate_axis(views[slot_src[slot]]))) is not None)
        pushes = len(ident) + sum(d.scalar_pushes for d in dispatches) + 1
        plans = tuple(d.plan for d in dispatches)
        slot_maps = tuple(slot_maps)
        key = _Key((tuple(plan.serial for plan in plans),
                    tuple(tuple(sorted(m.items())) for m in slot_maps),
                    tuple(d.plan._signature(d.streams, d.scalars)
                          for d in dispatches), n, shifts, coords))
        charge = (None if model is None
                  else call_charge(model, dispatches[0]) if len(plans) == 1
                  else _fused_charge(model, plans, slot_maps, trips, pushes,
                                     dispatches))
        return cls(tuple(checks), plans, trips, n, slot_maps,
                   tuple(spill_slots), shifts, coords, pushes, tuple(members),
                   tuple((v.shape, v.dtype) for v in views),
                   tuple(slot_src), tuple(classes),
                   tuple(sorted({slot_src[s] for s in stored})), key, charge)

    def bind(self, calls, dispatches,
             addresses: dict | None = None) -> ExecutionPlan | None:
        """This trip's group, or None when the site must be probed
        again: another number of calls, routine, plan, tail or scalar
        type; streams that are not the same source objects, contiguous,
        of their shapes and dtypes; a coordinate slot's source not a
        coordinate array along its axis; sources in other address classes —
        or, for a probe of this very trip, no kernel may run it: a
        written class overlaps another, the one check that depends on
        where the arrays lie.  ``addresses``: the machine's memo
        (:func:`_address`)."""
        if len(dispatches) != len(self.plans):
            return None
        for call, (routine, plan, tail, _, scalars) in zip(calls,
                                                            self.calls):
            if _mismatch(call, routine, plan, tail, scalars) is not None:
                return None
        views: list = [None] * len(self.sources)
        keys: dict = {}         # shifted operand key -> slot
        for i, p, src, slot, offsets in self.members:
            stream = dispatches[i].streams[p]
            if offsets is None:
                if type(stream) is ShiftedStream:
                    return None
                view = stream.view
            else:
                if type(stream) is not ShiftedStream:
                    return None
                operand = stream.operand
                if (operand.offsets != offsets
                        or keys.setdefault(operand.key, slot) != slot):
                    return None
                view = operand.base
            held = views[src]
            if held is None:
                views[src] = view
            elif held is not view:
                return None
        if len(keys) != len(self.shifts):
            return None
        for slot, axis, _ in self.coords:
            if coordinate_axis(views[self.slot_src[slot]]) != axis:
                return None
        addrs = []
        index: dict = {}        # address -> class, by first appearance
        sizes: dict = {}        # address -> its class's largest source
        for view, (shape, dtype), want in zip(views, self.sources,
                                              self.classes):
            if (type(view) is not np.ndarray or view.shape != shape
                    or view.dtype != dtype
                    or not view.flags.c_contiguous):
                return None
            at = _address(view, addresses)
            if index.setdefault(at, len(index)) != want:
                return None
            sizes[at] = max(sizes.get(at, 0), view.nbytes)
            addrs.append(at)
        written = {addrs[k] for k in self.written}
        end = written_end = -1
        for at in sorted(sizes):
            hi = at + sizes[at]
            if at in written:
                if at < end:
                    return None
                written_end = max(written_end, hi)
            elif at < written_end:
                return None
            end = max(end, hi)
        return ExecutionPlan(self,
                             [views[k].reshape(-1) for k in self.slot_src],
                             [addrs[k] for k in self.slot_src])

    def record(self, calls, dispatches, launch) -> LaunchRecord:
        """The site's launch record of the trip that just ran."""
        X: list = []
        for d in dispatches:
            X.extend(d.scalars)
            d.spill_bufs = ()   # the launch's now, not the pool's
        checks = tuple(
            (routine, plan, tail,
             tuple((name, call[1][name]) for name in streams), scalars)
            for call, (routine, plan, tail, streams, scalars)
            in zip(calls, self.calls))
        return LaunchRecord(launch, self.charge, checks, X)
