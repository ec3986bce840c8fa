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
* :meth:`LaunchTemplate.bind` binds each trip's calls to it, with the
  one overlap check (no written address class overlaps another),
  allocating nothing; a trip that does not fit is probed again;
* :meth:`LaunchTemplate.kernel` is the one kernel cache, asked before
  anything is allocated: the constituents'
  :class:`~repro.machine.plan.RoutinePlan` steps are lowered once onto
  the slot table (:func:`~repro.machine.loopir.lower`) and printed as
  blocked numpy (:mod:`repro.machine.kernel`), and once that has
  streamed enough to repay a ``cc`` run (:func:`~repro.machine.kernel.hot`)
  the C printer (:mod:`repro.machine.ckernel`) is asked, once, for the
  same loop.  Kernels are cached process-wide, keyed by the full binding
  signature — constituent plan serials, slot maps, shapes, scalar
  types — and live no longer than the plans they were compiled over
  (:func:`evict_serial`);
* :meth:`LaunchTemplate.launch` is the one place a launch is made, on
  the ordinary path and for a kept trip record alike: the kernel over
  the bound slots, its scratch, scalar file and counters, as the
  :class:`LaunchRecord` a site keeps and later trips replay after an
  identity check (``docs/PIPELINE.md`` §16).

What differs with k is the accounting, not the path and not the
printer.  A group of two or more is charged as **one** node call
(:func:`_fused_charge`: one dispatch, deduplicated argument pushes, a
single virtual-subgrid loop, register-resident forwarding of streams an
earlier constituent just stored); a lone dispatch keeps the
per-parameter charge of :func:`call_charge`.

Correctness never depends on the probe, and what happens without a
group kernel is one chain written once (:func:`run_group`, over the
calls :meth:`Machine._prepare` resolved): each constituent alone over
materialised streams (:func:`run_alone`); else the interpreter oracle
itself (:func:`run_oracle`, the one path of every dispatch that runs
without a kernel, and all that ``exec_mode="interp"`` runs).  A
binding signature's first trip goes to the oracle: the plan remembers
the signature, and a later trip types the kernel from it
(:func:`~repro.machine.loopir.lower`).  A batch the
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
from .pe import SubgridStream, VectorExecutor
from .plan import _UNBOUND, get_plan
from .shifted import Shifted, ShiftedStream, materialize_streams


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
        # Kept apart, to be released after ``streams`` swapped in copies.
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


def met(kern, key, metrics) -> None:
    """Note in ``metrics`` (``fusion_metrics``) a decline or split of
    the cache entry ``kern`` at ``key``: per entry, not per trip."""
    if kern.declined is not None:
        metrics.setdefault("declined", {})[key] = kern.declined
    elif kern.native and kern.threads > 1:
        metrics.setdefault("split", set()).add(key)


def _tier_up(kern, metrics, k: int):
    """The kernel that replaces a hot blocked ``kern`` of a group of
    ``k``: the C printer's, of the loop ``kern`` was printed from, or
    ``kern`` itself with the refusal remembered."""
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
    if k > 1:
        metrics["megakernel_native"] += 1
    if native.build_ms is not None:
        metrics["native_builds"] += 1
        metrics["native_build_ms"] += native.build_ms
    return native


def run_group(calls, dispatches, pool, metrics) -> None:
    """Run k >= 1 prepared calls that no group kernel runs: the one
    fallback chain.  Every shifted operand is materialised (it means its
    source when the group starts) and each call runs alone over the
    copies: the kernel of a fresh probe, else the oracle.  A lone call
    with no shifted operand goes to the oracle at once: its copies are
    its own arrays, which the caller has just probed.  ``calls`` are
    the calls ``dispatches`` were prepared from; ``metrics`` the
    machine's ``fusion_metrics``."""
    for d in dispatches:
        materialize_streams(d.streams)
    if len(dispatches) == 1 and not dispatches[0].shifted:
        d = dispatches[0]
        run_oracle(d, d.plan._signature(d.streams, d.scalars))
        return
    for call, d in zip(calls, dispatches):
        run_alone(over_copies(call, d), d, pool, metrics)


def over_copies(call, d: Dispatch) -> tuple:
    """``call``, a materialised shifted operand of ``d`` bound as its
    copy."""
    bindings = dict(call[1])
    for stream in d.streams:
        if type(stream) is SubgridStream and stream.name in bindings:
            bindings[stream.name] = stream.view
    return (call[0], bindings, *call[2:])


def run_alone(call, d: Dispatch, pool, metrics) -> LaunchRecord | None:
    """Run prepared ``d``, no site's, through the kernel of a fresh
    probe bound to ``call``, else on the oracle; the launch record when
    a kernel ran it, counting nothing."""
    template = LaunchTemplate.probe((d,), (call,))
    bound = None if template is None else template.bind((call,))
    kern = None if bound is None else template.kernel(metrics)[0]
    if kern is None:
        run_oracle(d, d.plan._signature(d.streams, d.scalars))
        return None
    record = template.launch((call,), bound, kern, pool)
    record.launch.run(record.X)
    return record


def run_oracle(d: Dispatch, sig=None) -> None:
    """Run one prepared call on the interpreter oracle
    (:class:`~repro.machine.pe.VectorExecutor`), its shifted streams
    materialised first: every dispatch that runs without a kernel.

    ``sig`` is the call's binding signature when the oracle stands in
    for a kernel (:func:`run_alone`); the plan remembers it, so the next
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
    """One launch of a dispatch site, made by
    :meth:`LaunchTemplate.launch`: per call the routine, its plan, the
    region tail, the operand *objects* bound to the stream parameters
    and the type and scalar-file slot of each scalar argument; the
    :class:`~repro.machine.kernel.Launch`; the scalar file ``X``; the
    ``template``, whose ``charge`` each run pays.  A later trip whose
    calls pass :meth:`stale` binds the very same objects, so every
    pointer, dtype, length and alias fact the bind would re-derive is
    known — a live numpy view cannot change them.  The record holds
    strong references to everything it compares against, so a site id
    recycled for another op can only match an identical dispatch.
    """

    __slots__ = ("launch", "calls", "X", "template")

    def __init__(self, launch, calls, X, template) -> None:
        self.launch = launch
        self.calls = calls
        self.X = X
        self.template = template

    def stale(self, calls) -> str | None:
        """Why this trip cannot replay the record — None when it can,
        with the trip's scalars filled in."""
        if hot(self.launch.kern):   # the kernel lookup asks for C
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
    (``docs/PIPELINE.md`` §16): per call the routine, plan, region
    tail, stream parameter names and scalar slots and types
    (``calls``); the group's ``plans``, common flat length ``n``, per
    call its pointer register -> slot map, the spill slots (zeroed
    before every launch), per shifted operand ``(slot, staged source
    slot or None, shape, offsets)``, per coordinate slot ``(slot,
    0-based axis, shape)`` (``coords``: bound only from ``coord``
    parameters, to shared coordinate arrays), and ``pushes`` (one per
    distinct stream slot and scalar, plus the shared vlen); the array
    objects the streams were (*sources*: shape and dtype, ``classes``
    of sources at one address, ``written`` those stored into), per
    stream its source, slot, shifted offsets and parameter name, None
    for a spill (``members``), per slot its source (``slot_src``); the
    kernel-cache ``key`` and the ``charge``.  It holds no array, pool
    buffer or machine and never changes."""

    calls: tuple
    plans: tuple
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
    def probe(cls, dispatches, calls,
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

        ``calls`` are the calls ``dispatches`` were prepared from, what
        a later trip must match to bind the template; ``model`` prices
        the group (none: nothing is charged from it).
        """
        trips = dispatches[0].trips
        if any(d.trips != trips for d in dispatches):
            return None
        checks = []
        names: list[dict] = []      # per call, stream preg -> parameter
        for i, (call, d) in enumerate(zip(calls, dispatches)):
            streams, scalars = [], []
            names.append({})
            for param in call[0].params:
                value = call[1].get(param.name)
                if param.kind in ("subgrid", "coord", "halo"):
                    streams.append(param.name)
                    names[i][param.reg.n] = param.name
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
                                else operand.offsets, names[i].get(p)))
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
        return cls(tuple(checks), plans, n, slot_maps,
                   tuple(spill_slots), shifts, coords, pushes, tuple(members),
                   tuple((v.shape, v.dtype) for v in views),
                   tuple(slot_src), tuple(classes),
                   tuple(sorted({slot_src[s] for s in stored})), key, charge)

    def bind(self, calls, addresses: dict | None = None) -> tuple | None:
        """``(S, addrs)``: per slot the flat array and address ``calls``
        bind (a spill slot's are the launch's own), allocating nothing;
        None when the site must be probed again — the calls, sources or
        address classes are not the probe's — or, for a probe of this
        very trip, when a written class overlaps another, the one check
        that depends on where the arrays lie.  ``addresses``: the
        machine's memo (:func:`_address`)."""
        if len(calls) != len(self.plans):
            return None
        for call, (routine, plan, tail, _, scalars) in zip(calls,
                                                            self.calls):
            if _mismatch(call, routine, plan, tail, scalars) is not None:
                return None
        views: list = [None] * len(self.sources)
        keys: dict = {}         # shifted operand key -> slot
        for i, p, src, slot, offsets, name in self.members:
            if name is None:    # a spill slot
                continue
            value = calls[i][1].get(name)
            if offsets is not None:
                if (type(value) is not Shifted or value.offsets != offsets
                        or keys.setdefault(value.key, slot) != slot):
                    return None
                value = value.base
            held = views[src]
            if held is None:
                views[src] = value
            elif held is not value:
                return None
        if len(keys) != len(self.shifts) or any(
                coordinate_axis(views[self.slot_src[slot]]) != axis
                for slot, axis, _ in self.coords):
            return None
        addrs = []
        index: dict = {}        # address -> class, by first appearance
        sizes: dict = {}        # address -> its class's largest source
        for src, (view, (shape, dtype), want) in enumerate(zip(
                views, self.sources, self.classes)):
            if view is None:    # a spill: a buffer of its own
                at = ~src
            elif (type(view) is not np.ndarray or view.shape != shape
                    or view.dtype != dtype
                    or not view.flags.c_contiguous):
                return None
            else:
                at = _address(view, addresses)
                sizes[at] = max(sizes.get(at, 0), view.nbytes)
            if index.setdefault(at, len(index)) != want:
                return None
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
        return ([None if views[k] is None else views[k].reshape(-1)
                 for k in self.slot_src], [addrs[k] for k in self.slot_src])

    def kernel(self, metrics) -> tuple:
        """``(kernel, built)`` for the template's key, from the one
        kernel cache: None when the oracle must run instead (a
        signature still needs its first trip, or the lowering declined
        the group); ``built`` when this call compiled the entry.  An
        entry starts as the blocked numpy kernel printed from the
        group's loop, typed by the slots' dtypes, and is offered to the
        C printer once :func:`~repro.machine.kernel.hot`, whatever k and
        whoever asks; ``metrics`` (``fusion_metrics``) counts what that
        cost.  With no ``metrics`` (a kept trip record's bind) the entry
        is taken as it stands: nothing is built, promoted or noted."""
        key = self.key
        kern = _MEGA_KERNELS.get(key)
        built = kern is None
        if metrics is None:
            return (None if isinstance(kern, NoKernel) else kern), False
        if built:
            sigs = key[2]
            if not all(sig in plan.seen for plan, sig in zip(self.plans, sigs)):
                return None, False   # the oracle runs the first trip
            try:
                kern = blocked_kernel(lower(
                    self.plans, self.slot_maps, sigs, self.n,
                    [self.sources[src][1] for src in self.slot_src],
                    self.shifts), self.coords)
            except Declined as bail:
                kern = NoKernel(str(bail))
            if len(_MEGA_KERNELS) >= _MEGA_CAP:
                _MEGA_KERNELS.popitem(last=False)
        if hot(kern):
            kern = _tier_up(kern, metrics, len(self.plans))
        _MEGA_KERNELS[key] = kern
        _MEGA_KERNELS.move_to_end(key)
        met(kern, key, metrics)
        return (None if isinstance(kern, NoKernel) else kern), built

    def launch(self, calls, bound, kern, pool, metrics=None,
               tier=()) -> LaunchRecord:
        """``kern`` over what ``calls`` bound (:meth:`bind`), not yet
        run: its spill slots and the kernel's staged scratch slots
        (numbered after the group's own) drawn from ``pool``, the
        launch's for as long as it lives; the scalar file filled from
        the calls.  Each run bumps, in ``metrics`` (None: nothing), one
        counter per shifted operand, staged or read in place, and
        ``megakernel_hits`` for k > 1; and the machine's ``tier``."""
        S, addrs = list(bound[0]), list(bound[1])
        dtypes = [self.sources[src][1] for src in self.slot_src]
        for slot in self.spill_slots:
            S[slot] = pool.acquire((self.n,), dtypes[slot])
            addrs[slot] = S[slot].ctypes.data
        for slot, _ in kern.staged:
            S.append(pool.acquire((self.n,), dtypes[slot]))
            addrs.append(S[-1].ctypes.data)
        launch = Launch(kern, S, self.n, self.spill_slots, len(self.plans))
        launch.S.addrs = addrs
        if metrics is not None:
            staged = {slot for slot, base, _, _ in self.shifts
                      if base is not None}
            launch.counters = [
                (metrics, "shifts_staged" if slot in staged
                 else "shifts_folded")
                for _, _, _, slot, offsets, _ in self.members
                if offsets is not None] + list(tier)
            if len(self.plans) > 1:
                launch.counters.append((metrics, "megakernel_hits"))
        X = [_UNBOUND] * (NUM_SREGS * len(self.plans))
        checks = []
        for call, (routine, plan, tail, streams, scalars) in zip(
                calls, self.calls):
            bindings = call[1]
            for name, k, _ in scalars:
                X[k] = bindings[name]
            checks.append((routine, plan, tail,
                           tuple((name, bindings[name]) for name in streams),
                           scalars))
        return LaunchRecord(launch, tuple(checks), X, self)
