"""End-to-end compilation driver: Fortran 90 source to executables.

``compile_source`` runs the full Fortran-90-Y pipeline — syntactic
analysis, semantic lowering (with type/shape checking), target-
independent NIR optimization, and the target-specific CM2/NIR (or
CM5/NIR) compilation — producing an :class:`Executable` that runs on a
simulated machine.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from ..backend.cm2.partition import PartitionReport
from ..backend.cm2.pe_compiler import BackendOptions
from ..frontend import ast_nodes as A
from ..frontend.directives import parse_layout_directives
from ..frontend.parser import parse_program
from ..lowering import LoweredProgram, check_program, lower_program
from ..lowering.environment import Environment
from ..machine import CostModel, Machine, RunStats
from ..pipeline import Memos, state_hash
from ..runtime.host import Alloc, HostExecutor, HostProgram
from ..targets import get_target
from ..transform import Options as TransformOptions
from ..transform import TransformedProgram, optimize


@dataclass(frozen=True)
class CompilerOptions:
    """Every switch of the pipeline, for the ablation experiments."""

    transform: TransformOptions = field(default_factory=TransformOptions)
    backend: BackendOptions = field(default_factory=BackendOptions)
    target: str = "cm2"
    # Run the verifier suite: NIR well-formedness between transform
    # passes, dependence audits around blocking, and PEAC routine checks
    # on the backend output.  REPRO_VERIFY=1 enables it globally.
    verify: bool = False

    @classmethod
    def optimized(cls) -> "CompilerOptions":
        return cls()

    @classmethod
    def naive(cls) -> "CompilerOptions":
        """Per-statement compilation with a naive node encoding."""
        return cls(transform=TransformOptions.naive(),
                   backend=BackendOptions.naive())

    @classmethod
    def neighborhood(cls) -> "CompilerOptions":
        """The §5.3.2 neighborhood model: CSHIFTs become halo streams."""
        return cls(transform=TransformOptions(neighborhood=True),
                   backend=BackendOptions(neighborhood=True))


@dataclass
class Executable:
    """A compiled program: host code plus node routines plus reports."""

    host_program: HostProgram
    env: Environment
    unit: A.ProgramUnit
    lowered: LoweredProgram
    transformed: TransformedProgram
    partition: PartitionReport
    options: CompilerOptions

    @property
    def routines(self) -> dict:
        return self.host_program.routines

    def run(self, machine: Machine | None = None,
            inputs: dict[str, np.ndarray] | None = None,
            model: CostModel | None = None,
            exec_mode: str | None = None) -> "RunResult":
        """Execute on a (fresh, unless given) simulated machine.

        ``exec_mode`` picks the node execution engine (``"fast"``,
        ``"fused"`` or the ``"interp"`` oracle) when no machine is
        supplied.  The default machine comes from the target registry —
        a cm5 executable runs under the cm5 cost model without any
        extra plumbing.  ``inputs`` replace arrays' initial contents:
        they are allocated first, with their ``Alloc``'s layout.

        What the host program fixes is worked out once for every later
        machine: the launch templates of its dispatch sites and the trip
        records of its loops (``docs/PIPELINE.md`` §16), which are never
        pickled and hold no array: a run binds each record to its own
        homes and scalars at the trip it starts from, and writes only
        records it learns.
        """
        if machine is None:
            if model is not None:
                machine = Machine(model, exec_mode=exec_mode)
            else:
                from ..targets import build_machine
                machine = build_machine(self.options.target,
                                        exec_mode=exec_mode)
        if machine.exec_mode != "interp":   # the oracle makes no template
            # One table of launch templates, and one of trip records, per
            # machine class, engine and cost model, so charges never
            # cross models.
            kind = (type(machine), machine.exec_mode, machine.model)
            machine.templates = self.__dict__.setdefault(
                "_templates", {}).setdefault(kind, {})
            machine.trips = self.__dict__.setdefault(
                "_trips", {}).setdefault(kind, {})
        executor = HostExecutor(machine)
        if inputs:
            # Inputs override initial contents after allocation, so run
            # the allocation prologue first by pre-allocating here.
            for name, values in inputs.items():
                sym = self.env.lookup(name)
                alloc = next((op for op in self.host_program.ops
                              if isinstance(op, Alloc) and op.name == name),
                             None)
                machine.alloc(name, sym.extents, sym.element.dtype,
                              layout=None if alloc is None else alloc.layout)
                machine.set_array(name, np.asarray(values))
        executor.run(self.host_program)
        arrays = {name: home.data for name, home in machine.arrays.items()}
        return RunResult(arrays=arrays, scalars=dict(executor.scalars),
                         output=list(executor.output), stats=machine.stats,
                         machine=machine)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_templates", None)
        state.pop("_trips", None)
        return state


@dataclass
class RunResult:
    arrays: dict[str, np.ndarray]
    scalars: dict[str, object]
    output: list[str]
    stats: RunStats
    machine: Machine

    def gflops(self) -> float:
        return self.stats.gflops(self.machine.model.clock_hz)


def compile_unit(unit: A.ProgramUnit,
                 options: CompilerOptions | None = None,
                 layouts: dict[str, tuple[str, ...]] | None = None,
                 dump_after: tuple[str, ...] = ()) -> Executable:
    """Compile a parsed program unit: :func:`_walk` with no store."""
    return _walk(lambda: (unit, layouts), options, dump_after)


def compile_source(source: str,
                   options: CompilerOptions | None = None,
                   cache=None,
                   dump_after: tuple[str, ...] = (),
                   incremental: bool = False,
                   store=None) -> Executable:
    """Compile Fortran 90 source text through the full pipeline.

    ``!layout:`` comment directives in the source select explicit data
    layouts (see :mod:`repro.frontend.directives`).

    ``cache`` looks the whole source up as an ``exe`` artifact before
    doing any work (:meth:`~repro.service.store.ArtifactStore.compile`):
    pass an :class:`~repro.service.store.ArtifactStore`, or ``True`` for
    the process-wide one; the default is a fresh compile.

    ``incremental`` hands the walk a content-addressed artifact store
    (:mod:`repro.service.store`): the front end, every transform pass
    and the backend are keyed and reused individually, so an edit that
    only perturbs the pipeline tail recompiles only the tail, and one
    that only moves lines re-parses and reuses the rest.  ``store``
    names the :class:`~repro.service.store.ArtifactStore` to use
    (default: the process-wide one).

    ``dump_after`` (pass names) captures pretty-printed NIR snapshots
    into the transform trace; it forces a fresh, storeless compile,
    since a hit would skip the passes being observed.
    """
    if dump_after:
        cache = False
    if cache:
        from ..service.store import ArtifactStore, default_store

        if not isinstance(cache, ArtifactStore):
            cache = default_store()
        exe, _hit = cache.compile(source, options, incremental=incremental)
        return exe
    if not incremental:
        store = None
    elif store is None:
        from ..service.store import default_store
        store = default_store()
    return _walk(lambda: (parse_program(source),
                          parse_layout_directives(source)),
                 options, dump_after, store, source)


def _walk(parse, options: CompilerOptions | None,
          dump_after: tuple[str, ...] = (), store=None,
          source: str | None = None) -> Executable:
    """The one compile walk: front → passes → backend.

    Each stage looks itself up by content when a ``store`` was given
    and computes (then stores) otherwise.  The ``front`` artifact
    (parse + lower + check; ``parse()`` returns the unit and its
    layouts) is keyed by the ``source`` text and records the lowered
    state's name; each ``pass`` artifact is keyed by the name of its
    input state (see :class:`~repro.pipeline.manager.PassManager`);
    the ``backend`` artifact (host program + partition report) is keyed
    by the final state's name.  One currency names every state:
    :func:`~repro.pipeline.manager.state_hash`.

    The target-specific phase is resolved through the target registry
    (:mod:`repro.targets`): the options' ``target`` names a
    :class:`~repro.targets.Target` record that supplies the backend
    compiler class and whether PEAC routine verification applies.

    No stage consults the store when the point is to watch the real
    pipeline run (``verify``, ``dump_after``) or when pass reports
    carry source lines, which a line-free name cannot vouch for
    (``analyze``).  The stages that run share the walk's ``Memos``
    (docs/PIPELINE.md §9).
    """
    from ..analysis import verify_enabled

    options = options or CompilerOptions()
    target = get_target(options.target)
    verify = options.verify or verify_enabled()
    if verify or dump_after or options.transform.analyze:
        store = None
    context = {"target": target.name,
               "fuse_exec": bool(options.transform.fuse_exec)}
    artifacts: dict = {}
    memos = Memos()

    front_hash = artifact = None
    if store is not None:
        front_key = store.fingerprint("front", {**context, "source": source})
        artifact = store.get("front", front_key)
        artifacts["front"] = "miss" if artifact is None else "hit"
    if artifact is not None:
        unit, lowered, layouts = artifact.obj
        front_hash = artifact.out_hash
    else:
        unit, layouts = parse()
        lowered = lower_program(unit, memos.infer)
        check_program(lowered.nir, lowered.env, memos.infer)
        if store is not None:
            front_hash = state_hash(lowered.nir, lowered.env)
            store.put("front", front_key, (unit, lowered, layouts),
                      out_hash=front_hash)

    transformed = optimize(lowered, options.transform, verify=verify,
                           dump_after=dump_after, store=store,
                           context=context, input_hash=front_hash,
                           memos=memos)

    artifact = None
    if store is not None:
        backend_key = store.fingerprint("backend", {
            **context,
            "in": transformed.trace.artifacts["state_hash"],
            "backend": dataclasses.asdict(options.backend),
            "layouts": sorted((name, list(axes))
                              for name, axes in (layouts or {}).items()),
        })
        artifact = store.get("backend", backend_key)
        artifacts["backend"] = "miss" if artifact is None else "hit"
        # The per-phase artifact layer is gone; bench/compile_corpus.py
        # still reads this row (it reports 0) until a benchmark PR
        # drops ``store.phase_hits``.
        artifacts["phases"] = {"hits": 0, "misses": 0}
    if artifact is not None:
        host_program, partition = artifact.obj
    else:
        backend = target.compiler()(transformed.env, options=options.backend,
                                    layouts=layouts, phases=memos.phases)
        host_program = backend.compile_program(
            transformed.nir, fuse_exec=options.transform.fuse_exec)
        partition = backend.report
        if verify and target.verify_peac:
            from ..analysis.peac_verifier import verify_routines
            verify_routines(host_program.routines, stage="backend/peac")
        if store is not None:
            store.put("backend", backend_key, (host_program, partition))

    transformed.trace.artifacts.update(artifacts)
    return Executable(host_program=host_program, env=transformed.env,
                      unit=unit, lowered=lowered, transformed=transformed,
                      partition=partition, options=options)
