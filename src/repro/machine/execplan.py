"""How a dispatch runs: a group of k >= 1 routines, one probe, one cache.

The Figure 9/10 blocker fuses MOVEs that share a shape *inside* one
computation phase; every phase still becomes its own PEAC dispatch, and
on a blocked timestep loop the per-call overhead (sequencer dispatch,
IFIFO pushes, per-trip loop bookkeeping, store/reload of intermediate
streams) dominates what is left.  The host executor
(:mod:`repro.runtime.host`) therefore batches adjacent node calls and
hands each batch to :meth:`Machine.call_fused`; a lone call is the
batch of one.  Either way the machine runs a **group**:

* :meth:`ExecutionPlan.build` is the one alias probe: it proves the
  group's bindings legal for a compiled kernel (contiguous equal-length
  streams, stored slots overlap nothing distinct, a stored shifted
  source staged) and lays out the group's slot table;
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
  launch again, skipping everything above (``docs/PIPELINE.md`` §16);
  and the site's :class:`LaunchTemplate` lets every later machine bind
  its arrays into the group instead of probing and keying it again.

What differs with k is the accounting, not the path and not the
printer.  A group of two or more is charged as **one** node call
(:meth:`ExecutionPlan.charge`: one dispatch, deduplicated argument
pushes, a single virtual-subgrid loop, register-resident forwarding of
streams an earlier constituent just stored); a lone dispatch keeps the
per-parameter charge of ``Machine._charge``.

Correctness never depends on the probe, and what happens without a
kernel is one chain written once (:func:`run_group`): the group's
kernel; else each constituent as a group of one over materialised
streams; else the interpreter oracle itself (:func:`run_oracle`, the
one path of every dispatch that runs without a kernel, and all that
``exec_mode="interp"`` runs).  A binding signature's first trip goes
straight to the oracle: the plan remembers the signature, and a later
trip types the kernel from it (:func:`~repro.machine.loopir.lower`).
A batch that fails the probe never gets that far: it is its calls, each
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
    binding signature, and a launch template looks it up on every
    bind."""

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


def _same_memory(a: np.ndarray, b: np.ndarray) -> bool:
    """Two equal-length flat arrays over exactly the same elements."""
    return (a.dtype == b.dtype and a.__array_interface__["data"][0]
            == b.__array_interface__["data"][0])


class ExecutionPlan:
    """One group of k >= 1 dispatches: slot table, accounting, kernel.

    Built by :meth:`build` for the trip at hand and dropped after it:
    what outlives the trip is the site's :class:`LaunchRecord` (on the
    machine) and the kernel (process-wide).
    """

    def __init__(self, plans, trips, n, slot_maps, spill_slots, pushes,
                 shifts, S, template=None, addrs=None) -> None:
        self.plans = plans
        self.serials = tuple(p.serial for p in plans)
        self.k = len(plans)
        self.trips = trips
        self.n = n
        #: The group's slot table: one flat array per slot.
        self.S = S
        self.slot_maps = slot_maps
        #: Slots holding spill scratch (zeroed before every launch).
        self.spill_slots = spill_slots
        #: ``(slot, staged source slot or None, shape, offsets)`` per
        #: shifted operand, as the lowering takes them.
        self.shifts = shifts
        # A fused group pushes once per distinct stream slot, per scalar
        # argument, plus the shared vlen: duplicate pointer arguments
        # collapse.
        self.pushes = pushes
        #: The :class:`LaunchTemplate` this group was bound from (which
        #: knows its kernel-cache key and charge), and the slots'
        #: addresses the bind read; None for a probed group.
        self.template = template
        self.addrs = addrs
        self.key = None if template is None else template.key

    # -- construction ---------------------------------------------------

    @classmethod
    def build(cls, dispatches) -> "ExecutionPlan | None":
        """Probe a group's bindings; None means no kernel may run them.

        The one place contiguity, length and alias legality are
        decided: every stream contiguous with one common flat length,
        and no stored slot overlapping a *distinct* slot (two identical
        views are one slot, which is safe; anything else would let a
        blocked store corrupt elements another block still has to
        read).  The verdict depends only on plans, shapes and alias
        classes — so fused cost accounting is deterministic run to run.
        A shifted operand is one slot per operand key holding its
        *source*, exempt from the overlap rule as the private copy it
        replaces was: a stored slot that is exactly that source gets
        staged (``shifts`` carries the pairing to the lowering).
        """
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
        pushes = len(ident) + sum(d.scalar_pushes for d in dispatches) + 1
        return cls(tuple(d.plan for d in dispatches), trips, n,
                   tuple(slot_maps), tuple(spill_slots), pushes, shifts,
                   arrays)

    # -- fused cost accounting ------------------------------------------

    def charge(self, model, dispatches) -> tuple:
        """A batch of two or more as one fused call, as
        ``RunStats.charge_call`` args.

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

    def kernel_for(self, sigs, metrics) -> tuple:
        """``(kernel, built)`` for this trip's binding signatures (None
        when the group was bound from a template, which knows its key).

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
        key = self.key
        if key is None:
            slot_key = tuple(tuple(sorted(m.items()))
                             for m in self.slot_maps)
            key = self.key = _Key((self.serials, slot_key, sigs, self.n,
                                   self.shifts))
        kern = _MEGA_KERNELS.get(key)
        built = kern is None
        if built:
            sigs = key[2]
            if not all(sig in plan.seen
                       for plan, sig in zip(self.plans, sigs)):
                return None, False   # the oracle runs the first trip
            try:
                kern = blocked_kernel(lower(
                    self.plans, self.slot_maps, sigs, self.n,
                    [a.dtype for a in self.S], self.shifts))
            except Declined as bail:
                kern = NoKernel(str(bail))
            if len(_MEGA_KERNELS) >= _MEGA_CAP:
                _MEGA_KERNELS.popitem(last=False)
        if hot(kern):
            kern = self._tier_up(kern, metrics)
        _MEGA_KERNELS[key] = kern
        _MEGA_KERNELS.move_to_end(key)
        # Keep the entry's own key object (the last one now, unless
        # another thread moved one since): a template's lookups by it
        # then match by identity instead of comparing every signature.
        last = next(reversed(_MEGA_KERNELS))
        if last is not key and last == key:
            key = self.key = last
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
        if self.k > 1:
            metrics["megakernel_native"] += 1
        if native.build_ms is not None:
            metrics["native_builds"] += 1
            metrics["native_build_ms"] += native.build_ms
        return native

    def launch(self, kern, dispatches, pool) -> Launch:
        """Run ``kern`` over the group's slot table; the launch."""
        X: list = []
        for d in dispatches:
            X.extend(d.scalars)
        # The kernel's staged scratch slots, numbered in order after
        # the group's own: the launch's for as long as it lives.
        scratch = [pool.acquire((self.n,), self.S[slot].dtype)
                   for slot, _ in kern.staged]
        launch = Launch(kern, self.S + scratch, self.n, self.spill_slots,
                        self.k, self)
        if self.addrs is not None:
            launch.S.addrs = self.addrs + [a.ctypes.data for a in scratch]
        launch.run(X)
        if self.shifts:   # the kernel read every shifted stream in place
            staged = {slot for slot, base, _, _ in self.shifts
                      if base is not None}
            for d, smap in zip(dispatches, self.slot_maps):
                for p, slot in smap.items():
                    stream = d.streams[p]
                    if isinstance(stream, ShiftedStream):
                        stream.state = ("staged" if slot in staged
                                        else "folded")
        return launch


def run_group(dispatches, pool, metrics,
              group: ExecutionPlan | None = None) -> Launch | None:
    """Run k >= 1 prepared calls: the one fallback chain.

    The group's kernel; else each constituent as a group of one over
    materialised streams (a shifted operand means its source when the
    group starts); else the oracle (:func:`run_oracle`).  Returns the
    launch when a kernel ran over the operands as bound — what a
    dispatch site may replay — else None.

    ``group`` is the probe's verdict when the caller already needed it
    (a batch is charged by it).  Otherwise a first trip does not probe:
    a binding signature the plan has not seen has no kernel to find.
    ``metrics`` is the machine's ``fusion_metrics`` (see
    :meth:`ExecutionPlan.kernel_for`).
    """
    sigs = None
    if group is None or group.key is None:
        sigs = tuple(d.plan._signature(d.streams, d.scalars)
                     for d in dispatches)
        if group is None and all(sig in d.plan.seen
                                 for d, sig in zip(dispatches, sigs)):
            group = ExecutionPlan.build(dispatches)
    if group is not None:
        kern, built = group.kernel_for(sigs, metrics)
        if group.k > 1:
            if built:
                metrics["megakernel_builds"] += 1
            elif kern is not None:
                metrics["megakernel_hits"] += 1
            if kern is None:
                metrics["stepwise_groups"] += 1
        if kern is not None:
            launch = group.launch(kern, dispatches, pool)
            if group.k > 1:
                launch.counters.append((metrics, "megakernel_hits"))
            return launch
        sigs = group.key[2]
    d = dispatches[0]
    if len(dispatches) == 1 and not any(
            isinstance(st, ShiftedStream) for st in d.streams):
        run_oracle(d, sigs[0])
        return None
    for d in dispatches:
        materialize_streams(d.streams)
    for d in dispatches:
        run_group((d,), pool, metrics)
    return None


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

    def stale(self, calls) -> str | None:
        """Why this trip cannot replay the record — None when it can,
        with the trip's scalars filled in."""
        if hot(self.launch.kern):
            # The ordinary path asks the C printer and records again.
            return "tier_up"
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


# -- every later machine: the per-site launch template ----------------------

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
    """What a site's kernel dispatch worked out from plans and shapes,
    for every later machine that runs it (``docs/PIPELINE.md`` §16,
    "Launch templates"): per call the routine, plan, region tail, stream
    parameter names and scalar slots and types (``calls``); the group's
    verdict (``group``: :class:`ExecutionPlan`'s arguments but ``S``);
    the array objects the streams were (*sources*: shape and dtype, and
    ``classes`` of sources at one address;
    ``written``, those stored into), per stream its source, slot and
    shifted offsets (``members``); the kernel-cache ``key`` and the
    ``charge``.  It holds no array, pool buffer or machine and never
    changes."""

    calls: tuple
    group: tuple
    members: tuple
    sources: tuple
    slot_src: tuple
    classes: tuple
    written: tuple
    shift_slots: int
    key: tuple
    charge: tuple

    @classmethod
    def make(cls, calls, dispatches, group: ExecutionPlan,
             charge: tuple) -> "LaunchTemplate | None":
        """The template of the trip that just ran ``group``'s kernel,
        or None when a scalar is an array (whose shape is part of the
        kernel's signature, not of its type)."""
        checks = []
        for i, (call, d) in enumerate(zip(calls, dispatches)):
            streams = []
            scalars = []
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
        views: list = []
        index: dict[int, int] = {}
        members = []
        slot_src: list = [None] * len(group.S)
        written = set()
        for i, (d, smap) in enumerate(zip(dispatches, group.slot_maps)):
            for p, slot in smap.items():
                stream = d.streams[p]
                shifted = type(stream) is ShiftedStream
                view = stream.operand.base if shifted else stream.view
                src = index.setdefault(id(view), len(views))
                if src == len(views):
                    views.append(view)
                if slot_src[slot] is None:
                    slot_src[slot] = src
                members.append((i, p, src, slot, stream.operand.offsets
                                if shifted else None))
                if p in d.plan.stored_pregs:
                    written.add(src)
        where: dict = {}    # address -> class, by first appearance
        classes = [where.setdefault(_address(v), len(where)) for v in views]
        return cls(tuple(checks),
                   (group.plans, group.trips, group.n, group.slot_maps,
                    group.spill_slots, group.pushes, group.shifts),
                   tuple(members), tuple((v.shape, v.dtype) for v in views),
                   tuple(slot_src), tuple(classes), tuple(sorted(written)),
                   len(group.shifts), group.key, charge)

    def bind(self, calls, dispatches,
             addresses: dict) -> ExecutionPlan | None:
        """This trip's group — the verdict over the arrays the calls bind,
        which checks only what depends on memory — or None when the
        ordinary path must run (and make the template again): another
        routine, plan, tail or scalar type; the cache entry evicted or
        hot; streams that are not the same source objects, contiguous,
        of their shapes and dtypes; sources in other address classes, or
        a written class overlapping another.  ``addresses``: the
        machine's memo (:func:`_address`)."""
        for call, (routine, plan, tail, _, scalars) in zip(calls,
                                                            self.calls):
            if (call[0] is not routine or get_plan(routine) is not plan
                    or tuple(call[2:]) != tail):
                return None
            bindings = call[1]
            for name, _, kind in scalars:
                if type(bindings[name]) is not kind:
                    return None
        kern = _MEGA_KERNELS.get(self.key)
        if kern is None or hot(kern):
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
        if len(keys) != self.shift_slots:
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
        return ExecutionPlan(*self.group,
                             [views[k].reshape(-1) for k in self.slot_src],
                             self, [addrs[k] for k in self.slot_src])

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
