"""The :class:`PassManager`: runs a pipeline, owns the cross-cutting
concerns.

The manager is the only place that knows about scope transitions
(program-scope passes see the WITH_DOMAIN/WITH_DECL scaffolding, body
passes see the bare statement tree), per-pass instrumentation (wall
time and IR node-count deltas into a
:class:`~repro.pipeline.trace.PipelineTrace`), inter-pass verification
(the NIR verifier runs on the input and after every executed pass,
naming the offending stage), and ``--dump-after`` snapshots.  Passes
themselves stay pure transformations.
"""

from __future__ import annotations

import copy
import hashlib
import time
from typing import Any, Iterable, Sequence

from .. import nir
from ..lowering.environment import Environment
from .passes import Memos, Pass, PassContext
from .registry import UnknownPassError
from .trace import PassTiming, PipelineTrace


def unwrap_body(program: nir.Program) -> nir.Imperative:
    """Strip the PROGRAM/WITH_DOMAIN/WITH_DECL scaffolding."""
    node: nir.Imperative = program.body
    while isinstance(node, (nir.WithDomain, nir.WithDecl)):
        node = node.body
    return node


def wrap_body(body: nir.Imperative, env: Environment,
              name: str) -> nir.Program:
    """Re-apply scoping: declarations innermost, domains around them."""
    scoped: nir.Imperative = nir.WithDecl(env.nir_declarations(), body)
    for dom_name, shape in reversed(list(env.domains.items())):
        scoped = nir.WithDomain(dom_name, shape, scoped)
    return nir.Program(scoped, name=name)


def ir_size(node: nir.Imperative) -> int:
    """IR weight: imperative node count (cheap, monotone under growth)."""
    return sum(1 for _ in nir.imperatives.walk(node))


def state_hash(program: nir.Program, env: Environment) -> str:
    """The name of a compile state: SHA-256 of its structural rendering.

    The NIR and ``Environment``/``Symbol`` dataclasses generate their
    ``repr`` from every compared field and declare ``loc``
    ``compare=False, repr=False``, so the rendering is the term itself:
    complete (``Do.index_names``, which ``nir.pretty`` drops, is in
    it), free of source lines, and free of object identity — a state
    hashes the same wherever a comment sits and whether it was just
    built or unpickled from an artifact.  Nothing rendered may be an
    unordered ``set``, or names would differ between processes.  Every
    artifact-store key that depends on a state (the ``front`` stage's
    output, each ``pass`` key, the ``backend`` key) carries this name.
    """
    return hashlib.sha256(repr((program, env)).encode()).hexdigest()


class PassManager:
    """Drive a pass sequence over one lowered program.

    With a ``store`` (an :class:`~repro.service.store.ArtifactStore`),
    the one pass loop looks each pass up before running it: the key is
    the name of its *input state* (:func:`state_hash`, chained from
    the upstream artifact), the pass's name
    and projected config, and the compile ``context`` (resolved target,
    ``fuse_exec``).  A hit applies the pass without running it — the
    chain advances on the artifact's recorded output name, the report
    slot is restored from the artifact's meta, and the actual IR is
    only unpickled at the first miss (or at the end).  The caller
    passes no store when the point is to observe the passes run
    (``verify``, ``dump_after``) or when their reports carry source
    lines (``analyze``) — :func:`repro.driver.compiler.compile_source`
    decides that once for the whole walk.
    """

    def __init__(self, passes: Sequence[Pass], *, verify: bool = False,
                 dump_after: Iterable[str] = (),
                 store=None, context: dict | None = None,
                 input_hash: str | None = None,
                 memos: Memos | None = None) -> None:
        self.passes = list(passes)
        # The compile walk's memos; each run without them makes its own.
        self.memos = memos
        self.verify = verify
        self.dump_after = tuple(dump_after)
        self.store = store
        self.context = dict(context or {})
        self.input_hash = input_hash
        known = {p.name for p in self.passes}
        for name in self.dump_after:
            if name not in known:
                raise UnknownPassError(name, known)

    # ------------------------------------------------------------------

    def _checked(self, trace: PipelineTrace, stage: str, node, env) -> None:
        if not self.verify:
            return
        from ..analysis.nir_verifier import assert_valid

        t0 = time.perf_counter()
        assert_valid(node, env, stage)
        trace.verify_seconds += time.perf_counter() - t0

    def _materialize(self, key: str):
        """Load (program, env) from a pass artifact, or None if gone.

        Artifacts hold mutable IR, so every load unpickles fresh — a
        pickle round trip doubles as a deep copy, and no two compiles
        can alias each other's state.
        """
        artifact = self.store.get("pass", key)
        state = artifact.obj if artifact is not None else None
        if isinstance(state, tuple) and len(state) == 2 \
                and isinstance(state[0], nir.Program):
            return state
        return None

    def run(self, program: nir.Program, env: Environment, options: Any,
            report: Any, input_stage: str = "input"
            ) -> tuple[nir.Program, PipelineTrace]:
        """Run every enabled pass; return the program and its trace.

        ``input_stage`` names the producer of ``program`` for the
        verifier's initial well-formedness check (the driver passes
        ``"lower"``).

        With a store, the state an artifact holds and names is always
        **program scope** (body-scope IR is wrapped back under its
        WITH_DOMAIN/WITH_DECL scaffolding first), so chains that differ
        only in where they re-enter program scope converge on the same
        names and the backend artifact keyed on the final state hits
        across tail-pass config changes.  A state that cannot be
        materialized (its artifact evicted between the header read and
        the state read) falls back to a storeless run from the inputs —
        from the environment as it came in, not as an earlier miss may
        have extended it.
        """
        store = self.store
        trace = PipelineTrace()
        t_run = time.perf_counter()
        self._checked(trace, input_stage, program, env)
        memos = self.memos if self.memos is not None else Memos()

        current: nir.Imperative = program
        in_body = False  # whether ``current`` is the unwrapped body
        size = None  # ir_size(current) if known: the last pass's ir_after
        name = program.name
        original_env = env
        pristine = None  # ``original_env``'s tables before a miss ran
        in_hash = None if store is None \
            else self.input_hash or state_hash(program, env)
        hits = misses = 0
        # The artifact holding the state ``in_hash`` names, while hits
        # have run the chain ahead of ``current``.
        ahead: str | None = None

        def cold():
            if pristine is not None:  # drop what the misses declared
                vars(original_env).update(pristine)
            result, trace = PassManager(
                self.passes, verify=self.verify, dump_after=self.dump_after,
            ).run(program, original_env, options, report, input_stage)
            trace.artifacts["passes"] = {"hits": 0,
                                         "misses": len(trace.executed())}
            trace.artifacts["state_hash"] = state_hash(result, original_env)
            return result, trace

        for p in self.passes:
            if not p.enabled(options):
                trace.passes.append(PassTiming(p.name, enabled=False))
                continue
            if store is not None:
                key = store.fingerprint("pass", {
                    **self.context, "in": in_hash,
                    "pass": p.identity(options)})
                head = store.head("pass", key)
                if head is not None:
                    in_hash, meta = head
                    if p.report_slot is not None and meta is not None:
                        setattr(report, p.report_slot, meta)
                    trace.passes.append(PassTiming(p.name, cached=True))
                    ahead = key
                    hits += 1
                    continue
                misses += 1
                if ahead is not None:
                    restored = self._materialize(ahead)
                    if restored is None:
                        return cold()
                    current, env = restored
                    in_body = False
                    size = None
                    ahead = None
                elif env is original_env and pristine is None:
                    # The tables only grow: copies of them are a snapshot.
                    pristine = {k: copy.copy(v) for k, v in vars(env).items()}
            if p.scope == "body" and not in_body:
                current, size = unwrap_body(current), None
                in_body = True
            elif p.scope == "program" and in_body:
                current, size = wrap_body(current, env, name), None
                in_body = False
            before = ir_size(current) if size is None else size
            ctx = PassContext(node=current, env=env, options=options,
                              report=report, verify=self.verify,
                              memos=memos)
            t0 = time.perf_counter()
            current = p.run(ctx)
            seconds = time.perf_counter() - t0
            size = before if current is ctx.node else ir_size(current)
            trace.passes.append(PassTiming(
                p.name, seconds=seconds, ir_before=before, ir_after=size))
            self._checked(trace, p.name, current, env)
            if p.name in self.dump_after:
                trace.dumps[p.name] = nir.pretty(current)
            if store is not None:
                canonical = wrap_body(current, env, name) if in_body \
                    else current
                in_hash = state_hash(canonical, env)
                meta = getattr(report, p.report_slot) \
                    if p.report_slot is not None else None
                store.put("pass", key, (canonical, env), meta=meta,
                          out_hash=in_hash)

        if store is not None:
            if ahead is not None:
                restored = self._materialize(ahead)
                if restored is None:
                    return cold()
                current, env = restored
                in_body = False
            if env is not original_env:
                # Callers hold the original Environment (the lowered
                # program's); adopt the restored state in place so every
                # aliasing holder sees the post-pipeline environment.
                original_env.__dict__.clear()
                original_env.__dict__.update(env.__dict__)
            trace.artifacts["passes"] = {"hits": hits, "misses": misses}
            trace.artifacts["state_hash"] = in_hash
        if in_body:
            current = wrap_body(current, env, name)
        trace.total_seconds = time.perf_counter() - t_run
        assert isinstance(current, nir.Program)
        return current, trace
