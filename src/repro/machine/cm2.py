"""The Connection Machine model: storage, node dispatch, accounting.

A :class:`Machine` owns the global array storage (each array laid out
blockwise by a :class:`~repro.machine.geometry.Geometry`), the cost
model, and the run statistics.  The host executor drives it: allocating
arrays, pushing PEAC arguments over the IFIFO, dispatching virtual
subgrid loops to the (simulated) PEs, and invoking the CM runtime's
communication primitives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..analysis import verify_enabled
from ..peac.isa import NUM_PREGS, NUM_SREGS, PReg, Routine, SReg, VECTOR_WIDTH
from .costs import CostModel, slicewise_model
from .execplan import (Dispatch, ExecutionPlan, LaunchRecord,
                       LaunchTemplate, call_charge, run_group, run_oracle)
from .geometry import Geometry, make_geometry, shared_coordinate_array
from .pe import SubgridStream
from .plan import _UNBOUND, GLOBAL_POOL, BufferPool, get_plan
from .shifted import (Shifted, ShiftedStream, materialize_streams,
                      one_axis)
from .stats import RunStats


class MachineError(Exception):
    """Raised on storage or dispatch misuse."""


RegionSlices = tuple[slice, ...]


def region_slices(axes: tuple[tuple[int, int, int], ...]) -> RegionSlices:
    """Numpy basic-slicing form of a 1-based strided region."""
    return tuple(slice(lo - 1, hi, st) for lo, hi, st in axes)


@dataclass
class ArrayHome:
    """One allocated CM array: global data plus its layout."""

    name: str
    data: np.ndarray
    geometry: Geometry


class Machine:
    """A simulated CM/2 (or CM/5, by cost model).

    ``exec_mode`` selects the node-dispatch engine: ``"fast"`` (the
    class's ``default_exec``) runs every dispatch as a group of compiled
    routine plans (:mod:`repro.machine.execplan`), except first trips
    and what no kernel may run; ``"interp"`` runs every dispatch on the
    oracle (:func:`~repro.machine.execplan.run_oracle`).  Both produce
    bit-identical arrays and identical :class:`RunStats`.  ``"fused"``
    additionally lets the host executor batch adjacent node calls
    through :meth:`call_fused`:
    arrays stay bit-identical to both other engines, and a fused batch
    is charged as one dispatch.  Neither the engine nor the machine
    class chooses an emitter: every kernel starts as blocked numpy and
    is recompiled to C once it has streamed enough to repay the build
    (:meth:`repro.machine.execplan.ExecutionPlan.kernel_for`).
    """

    #: The engine when ``exec_mode`` names none.
    default_exec = "fast"

    def __init__(self, model: CostModel | None = None,
                 exec_mode: str | None = None) -> None:
        self.model = model or slicewise_model()
        mode = exec_mode or self.default_exec
        if mode not in ("fast", "interp", "fused"):
            raise MachineError(
                f"unknown exec mode {mode!r} "
                f"(want 'fast', 'interp' or 'fused')")
        self.exec_mode = mode
        self.pool: BufferPool = GLOBAL_POOL
        self.stats = RunStats()
        self.arrays: dict[str, ArrayHome] = {}
        # Coordinate-array *cycle* accounting stays per machine: each
        # simulated run pays for its own materialization even though
        # the host array comes from the shared process-wide cache.
        self._coords_charged: set[tuple] = set()
        # CSHIFT prices by (priced array, dim, shift): the geometry of
        # an allocated array never changes, so each is computed once.
        self._shift_cycles: dict[tuple, int] = {}
        # Plan serials the dispatch-time verifier passed; None when
        # ``REPRO_VERIFY`` was off as the machine was built.
        self._verified_routines: set[int] | None = (
            set() if verify_enabled() else None)
        # Steady-state dispatch: one launch record per dispatch site
        # (docs/PIPELINE.md §16).  The interpreter oracle never makes
        # or reads one.
        self._launches: dict[object, LaunchRecord] = {}
        # Launch templates by site (docs/PIPELINE.md §16): the machine's
        # own table, until an executable hands it the one every machine
        # of its class, engine and cost model shares.
        self.templates: dict[object, LaunchTemplate] = {}
        self._addresses: dict[int, tuple] = {}  # execplan._address
        self.launch_metrics: dict[str, int] = {
            "records": 0, "replays": 0, "drops": 0,
            # drops, by what no longer matched
            "binding": 0, "plan": 0, "scalar_type": 0, "tier_up": 0,
        }
        # Trip records (the host executor's, one level up: a loop whose
        # steady-state trip is replayed as a list of launch records):
        # built, trips run from one, side exits by the guard that
        # failed, and loop executions declined one, by reason; of the
        # trips run from one, those the native driver ran, and recorded
        # loop executions that stayed in Python, by reason.
        self.trip_metrics: dict = {
            "records": 0, "replays": 0, "exits": 0,
            "guard": 0, "scalar_type": 0, "tier_up": 0,
            "declined": {}, "native": 0, "native_declined": {},
        }
        # Fused-group kernel and shift-path telemetry: machine-local and
        # wall-clock flavored — it never feeds RunStats, which stay
        # deterministic run to run.
        self.fusion_metrics: dict = {
            "megakernel_builds": 0,
            "megakernel_native": 0,
            "megakernel_hits": 0,
            "stepwise_groups": 0,
            # Cache entries this run moved from blocked numpy to C, the
            # ``cc`` runs that took (a text built before costs none),
            # their wall time, and the builds that failed.
            "tier_ups": 0,
            "native_builds": 0,
            "native_build_ms": 0.0,
            "native_build_failures": 0,
            # Cache key -> (emitter, reason) of every entry this
            # machine met that did not get the better tier
            # (``ExecutionPlan.kernel_for``).
            "declined": {},
            # Cache keys of the C entries it met that split over cores.
            "split": set(),
            # Shifted operands per dispatch, by how they were consumed:
            # read in place, read in place with the source's store
            # staged, or copied for a consumer that cannot index them.
            "shifts_folded": 0,
            "shifts_staged": 0,
            "shifts_materialized": 0,
        }

    # -- storage ---------------------------------------------------------

    def alloc(self, name: str, extents: tuple[int, ...],
              dtype: np.dtype,
              layout: tuple[str, ...] | None = None) -> ArrayHome:
        if name in self.arrays:
            raise MachineError(f"array '{name}' already allocated")
        geom = make_geometry(tuple(int(e) for e in extents),
                             self.model.n_pes, layout)
        home = ArrayHome(name=name, data=np.zeros(extents, dtype=dtype),
                         geometry=geom)
        self.arrays[name] = home
        self.stats.host_cycles += self.model.host_op
        return home

    def set_array(self, name: str, values: np.ndarray) -> None:
        home = self.home(name)
        if tuple(values.shape) != tuple(home.data.shape):
            raise MachineError(
                f"'{name}': shape {values.shape} does not match "
                f"{home.data.shape}")
        np.copyto(home.data, values, casting="unsafe")

    def home(self, name: str) -> ArrayHome:
        try:
            return self.arrays[name]
        except KeyError:
            raise MachineError(f"array '{name}' is not allocated") from None

    def view(self, name: str,
             region: tuple[tuple[int, int, int], ...] | None) -> np.ndarray:
        """A (strided) view of an array's region; the whole array if None."""
        data = self.home(name).data
        if region is None:
            return data
        return data[region_slices(region)]

    def coord_subgrid(self, extents: tuple[int, ...], axis: int,
                      region: tuple[tuple[int, int, int], ...] | None,
                      lo: int = 1, step: int = 1) -> np.ndarray:
        """The runtime's lazily-materialized coordinate array for an axis."""
        key = (extents, axis, lo, step)
        if key not in self._coords_charged:
            self._coords_charged.add(key)
            # Materialization is one node pass over the shape.
            geom = make_geometry(extents, self.model.n_pes)
            self.stats.node_cycles += (
                math.ceil(geom.vlen / VECTOR_WIDTH) * self.model.instr.move)
        arr = shared_coordinate_array(extents, axis, lo, step)
        if region is None:
            return arr
        return arr[region_slices(region)]

    def halo_subgrid(self, name: str, shift: int, dim: int) -> Shifted:
        """Ghost-augmented shifted operand for a halo stream (§5.3.2).

        Performs the physical boundary exchange (charged to the
        communication meter) and returns the shifted operand the node
        program streams through; interior elements are local reads.
        """
        from .network import halo_exchange_cycles

        home = self.home(name)
        self.charge_comm(halo_exchange_cycles(self.model, home.geometry,
                                              dim, shift))
        return Shifted(home.data, one_axis(home.data.ndim, dim, shift))

    def shift_cycles(self, name: str, extents: tuple[int, ...],
                     dim: int, shift: int) -> int:
        """The price of ``CSHIFT(name, shift, dim)`` on this machine.

        ``name`` need not be allocated: a folded temporary is priced
        from its extents under the block layout it would have had.
        """
        key = (name, dim, shift)
        cycles = self._shift_cycles.get(key)
        if cycles is None:
            from .network import cshift_cycles

            home = self.arrays.get(name)
            geom = (home.geometry if home is not None
                    else make_geometry(extents, self.model.n_pes))
            cycles = self._shift_cycles[key] = cshift_cycles(
                self.model, geom, dim, shift)
        return cycles

    # -- node dispatch ----------------------------------------------------

    def _verify_routine(self, routine: Routine, serial: int) -> None:
        """Under ``REPRO_VERIFY=1``, check PEAC invariants at dispatch.

        The last line of defense: catches corrupted or hand-built
        routines that never went through the compile-time verifier.
        Each routine is checked once per machine and plan — by plan
        serial, not by name: every program calls its routines
        ``Pk<N>vs<M>``, and an edited body gets a new plan.
        """
        if serial in self._verified_routines:
            return
        from ..analysis.diagnostics import VerifyError
        from ..analysis.peac_verifier import verify_routine

        diagnostics = verify_routine(routine)
        if diagnostics:
            raise VerifyError("machine/dispatch", diagnostics)
        self._verified_routines.add(serial)

    def call_routine(self, routine: Routine,
                     bindings: dict[str, object],
                     region_extents: tuple[int, ...],
                     real_elements: int | None = None,
                     layout: tuple[str, ...] | None = None,
                     site=None) -> tuple[LaunchRecord, ...] | None:
        """Dispatch one PEAC routine over bound operand streams.

        ``bindings`` maps parameter names to numpy views (``subgrid`` and
        ``coord`` params), :class:`~repro.machine.shifted.Shifted`
        operands, or scalars.  ``region_extents`` sizes the
        virtual subgrid loop; ``real_elements`` (default: the region
        size) scales useful-flop accounting when padding is in play.
        ``site`` names the dispatch site (anything hashable that means
        "this call, again"): a site that ran a compiled kernel replays
        its launch record while the same operand objects stay bound.
        Returns what :meth:`call_fused` does.
        """
        return self.call_fused(((routine, bindings, region_extents,
                                 real_elements, layout),), site)

    def call_fused(self, calls,
                   site=None) -> tuple[LaunchRecord, ...] | None:
        """Dispatch a batch of adjacent node calls, fused when legal.

        ``calls`` is a sequence of ``call_routine`` argument tuples
        ``(routine, bindings, region_extents, real_elements, layout)``.
        A batch of one is that call, charged as :meth:`call_routine`
        documents.  Under ``exec_mode="fused"`` a longer batch is probed
        (:meth:`_group`): a legal one is charged as
        **one** node call (deduplicated pushes, a single merged trip
        loop, forwarded intermediate loads) and runs through one
        kernel.  An illegal batch — and every longer batch under the
        other engines — *is its calls*: each is charged, run, recorded
        and replayed as a site of its own, ``(site, i)``.
        ``site`` names the dispatch site, as for :meth:`call_routine`.

        Returns the launch records the dispatch replayed, in order —
        all it did, so a caller that keeps them can do the same again
        through :meth:`replay` — or None when any of it took the
        ordinary path.
        """
        if site is not None:
            record = self._replay(site, calls)
            if record is not None:
                return (record,)
        dispatches = [self._prepare(*c) for c in calls]
        try:
            group = self._group(site, calls, dispatches)
            if group is None and len(dispatches) > 1:
                # Every shifted operand means its source at batch
                # start, which is when the first call starts; the
                # later calls' are copied now — and a call over a
                # copy leaves nothing a later trip could replay.
                for d in dispatches[1:]:
                    materialize_streams(d.streams)
                replayed = []
                for i, (call, d) in enumerate(zip(calls, dispatches)):
                    sub = (None if site is None or (i and d.shifted)
                           else (site, i))
                    record = (None if sub is None
                              else self._replay(sub, (call,)))
                    if record is None:
                        self._dispatch((call,), (d,), sub,
                                       self._group(sub, (call,), (d,)))
                    replayed.append(record)
                return None if None in replayed else tuple(replayed)
            self._dispatch(calls, dispatches, site, group)
            return None
        finally:
            for d in dispatches:
                self._release(d)

    def _group(self, site, calls, dispatches) -> ExecutionPlan | None:
        """This trip's group: the site's launch template (probed again
        when the site has none or the trip does not fit it) bound to the
        trip's arrays; None under the oracle, for a batch under an
        engine that does not fuse, or when no kernel may run the calls."""
        if self.exec_mode == "interp" or (len(calls) > 1
                                          and self.exec_mode != "fused"):
            return None
        template = self.templates.get(site)
        group = (None if template is None else
                 template.bind(calls, dispatches, self._addresses))
        if group is None:
            template = LaunchTemplate.probe(dispatches, calls, self.model)
            if template is None:
                return None
            self.templates[site] = template
            group = template.bind(calls, dispatches, self._addresses)
        return group

    def _dispatch(self, calls, dispatches, site, group) -> None:
        """Run prepared calls as one node call — a lone call, or the
        batch ``group`` proved legal — charged as the group's template
        says, and keep the trip as the site's launch record when a
        kernel ran it."""
        charge = (call_charge(self.model, dispatches[0]) if group is None
                  else group.template.charge)
        launch = self._execute_dispatch(dispatches, group)
        self.stats.charge_call(*charge)
        if launch is not None and site is not None:
            for d in dispatches:
                for stream in d.shifted:
                    launch.counters.append(
                        (self.fusion_metrics, f"shifts_{stream.state}"))
            self._launches[site] = group.template.record(calls, dispatches,
                                                         launch)
            self.launch_metrics["records"] += 1

    # -- steady state: launch records -------------------------------------

    def _replay(self, site, calls) -> LaunchRecord | None:
        """Run the site's launch record if it still holds, and return
        it; else drop it."""
        record = self._launches.get(site)
        if record is None:
            return None
        stale = record.stale(calls)
        if stale is not None:
            del self._launches[site]
            self.launch_metrics["drops"] += 1
            self.launch_metrics[stale] += 1
            return None
        self.replay(record)
        return record

    def replay(self, record: LaunchRecord) -> None:
        """Run a launch record whose scalar file is filled: the kernel,
        the recorded charge, the counters the trip bumps.  The one
        place a record runs from Python — for :meth:`_replay`, which
        validated it against this trip's calls, and for the host
        executor's trip record, which knows the calls cannot have
        changed (its native driver charges through
        :meth:`replay_trips`)."""
        launch = record.launch
        launch.run(record.X)
        self.stats.charge_call(*record.charge)
        for counters, key in launch.counters:
            counters[key] += 1
        self.launch_metrics["replays"] += 1

    def replay_trips(self, records, trips: int) -> None:
        """Charge and count what ``trips`` rounds of :meth:`replay` over
        ``records`` would, the kernels already run: the host executor's
        native trip driver ran them.  The same integers, multiplied."""
        once = RunStats()
        for record in records:
            once.charge_call(*record.charge)
            for counters, key in record.launch.counters:
                counters[key] += trips
        self.stats.merge(once, trips)
        self.launch_metrics["replays"] += len(records) * trips

    def _prepare(self, routine: Routine, bindings: dict[str, object],
                 region_extents: tuple[int, ...],
                 real_elements: int | None = None,
                 layout: tuple[str, ...] | None = None) -> Dispatch:
        """Resolve one call's streams, scalars and spill scratch."""
        if layout is not None and len(layout) != len(region_extents):
            layout = None  # section computes fall back to block layout
        plan = get_plan(routine)
        if self._verified_routines is not None:
            self._verify_routine(routine, plan.serial)
        geom = make_geometry(region_extents, self.model.n_pes, layout)
        streams: list[SubgridStream | None] = [None] * NUM_PREGS
        scalars: list = [_UNBOUND] * NUM_SREGS
        pushes = 0
        scalar_pushes = 0
        for param in routine.params:
            if param.kind == "vlen":
                pushes += 1
                continue
            try:
                value = bindings[param.name]
            except KeyError:
                raise MachineError(
                    f"{routine.name}: missing argument '{param.name}'"
                ) from None
            if param.kind in ("subgrid", "coord", "halo"):
                if not isinstance(param.reg, PReg):
                    raise MachineError(
                        f"{routine.name}: '{param.name}' needs a pointer reg")
                streams[param.reg.n] = (
                    ShiftedStream(value, param.name, self.pool)
                    if isinstance(value, Shifted)
                    else SubgridStream(value, name=param.name))
            elif param.kind == "scalar":
                if not isinstance(param.reg, SReg):
                    raise MachineError(
                        f"{routine.name}: '{param.name}' needs a scalar reg")
                scalars[param.reg.n] = value
                scalar_pushes += 1
            pushes += 1

        # Spill scratch: per-call PE memory, bound from the top pointer
        # registers down (not IFIFO arguments).  Scratch carries the
        # routine's element dtype (an integer spill must not round-trip
        # through float64) and is drawn zeroed from the buffer pool
        # instead of being reallocated on every dispatch.
        spill_bufs: list[np.ndarray] = []
        spill_pregs: list[int] = []
        spill_dtype = np.dtype(getattr(routine, "dtype", "float64"))
        for slot in range(routine.spill_slots):
            scratch = self.pool.acquire((math.prod(region_extents),),
                                        spill_dtype)
            scratch.fill(0)
            spill_bufs.append(scratch)
            preg = NUM_PREGS - 1 - slot
            spill_pregs.append(preg)
            streams[preg] = SubgridStream(scratch, name=f"spill{slot}")

        trips = math.ceil(geom.vlen / VECTOR_WIDTH)
        elements = (geom.total_elements if real_elements is None
                    else real_elements)
        return Dispatch(routine, plan, streams, scalars, pushes,
                        scalar_pushes, spill_bufs, tuple(spill_pregs),
                        trips, elements)

    def _execute_dispatch(self, dispatches, group):
        """Run the prepared calls of one node call; the launch, when a
        kernel ran them."""
        if self.exec_mode == "interp":
            (d,) = dispatches   # the oracle never batches
            run_oracle(d)
            return None
        return run_group(dispatches, self.pool, self.fusion_metrics, group)

    def _release(self, d: Dispatch) -> None:
        for scratch in d.spill_bufs:
            self.pool.release(scratch)
        for stream in d.shifted:
            if stream.state is not None:   # prepared, then replayed: None
                self.fusion_metrics[f"shifts_{stream.state}"] += 1
            stream.release()

    def fusion_summary(self) -> dict:
        """Fusion counters for ``--stats-json`` and service responses."""
        # Which tier an entry stopped at and why: entries per reason,
        # by the emitter that bailed ("blocked": the oracle runs it;
        # "c": blocked numpy does).
        declined: dict = {"c": {}, "blocked": {}}
        for emitter, reason in self.fusion_metrics["declined"].values():
            declined[emitter][reason] = declined[emitter].get(reason, 0) + 1
        return {
            "fused_groups": self.stats.fused_groups,
            "fused_routines": self.stats.fused_routines,
            **{key: self.fusion_metrics[key]
               for key in ("megakernel_builds", "megakernel_native",
                           "megakernel_hits", "stepwise_groups",
                           "tier_ups", "native_builds", "native_build_ms",
                           "native_build_failures",
                           "shifts_folded", "shifts_staged",
                           "shifts_materialized")},
            "native_split": len(self.fusion_metrics["split"]),
            # Steady-state dispatch: sites recorded, trips replayed,
            # records dropped and what no longer matched.
            **{f"launch_{key}": self.launch_metrics[key]
               for key in ("records", "replays", "drops")},
            "launch_drop_reasons": {
                key: self.launch_metrics[key]
                for key in ("binding", "plan", "scalar_type", "tier_up")},
            # Trip records: built, trips run from one, side exits and
            # the guard that failed, loop executions declined one; trips
            # the native driver ran, and why recorded loops stayed out.
            **{f"trip_{key}": self.trip_metrics[key]
               for key in ("records", "replays", "exits", "native")},
            "trip_exit_reasons": {
                key: self.trip_metrics[key]
                for key in ("guard", "scalar_type", "tier_up")},
            "trip_declined": dict(self.trip_metrics["declined"]),
            "trip_native_declined": dict(
                self.trip_metrics["native_declined"]),
            "declined": declined,
        }

    # -- accounting helpers -------------------------------------------------

    def charge_comm(self, cycles: int) -> None:
        self.stats.comm_cycles += cycles
        self.stats.comm_ops += 1

    def charge_host(self, cycles: int) -> None:
        self.stats.host_cycles += cycles

    def gflops(self) -> float:
        return self.stats.gflops(self.model.clock_hz)
