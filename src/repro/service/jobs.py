"""The service request vocabulary, shared by every entry point.

A request is one JSON-serializable dict; :func:`execute_request` turns
it into one JSON-serializable response.  The same function runs inside
pool worker processes, in the single-process fallback, and under the
JSON-lines server, so a job file, a socket client, and the CLI all
speak the same protocol.

Request shapes (``id`` is optional and echoed back verbatim; the
async server additionally honors an optional ``tenant`` field for fair
scheduling and an optional ``coalesce_key`` for explicit singleflight
grouping — see :mod:`repro.service.server`)::

    {"op": "ping"}
    {"op": "compile", "source": "...", "options": {...}, "verify": true}
    {"op": "run", "source": "...", "options": {...},
     "pes": 2048, "model": "slicewise", "exec": "fast"}
    {"op": "compare", "source": "...", "options": {...},
     "pes": 2048, "model": "slicewise", "exec": "fast"}
    {"op": "compare", "source": "...", "targets": ["cm2", "host"]}
    {"op": "lint", "source": "...", "strict": false}
    {"op": "analyze", "source": "...", "strict": false,
     "target": "cm2", "model": null, "pes": null}
    {"op": "cache", "action": "stats" | "ls" | "purge", "kind": null}

A ``compare`` with a ``"targets"`` key (a list of registered target
names, or ``"all"``) runs the cross-target comparison instead of the
§6 baselines: per-target wallclock plus max-abs-diff against the
first target's arrays.

``options`` mirrors the CLI pipeline flags: ``{"naive": bool,
"neighborhood": bool, "target": "cm2"|"cm5", "verify": bool}``.
Targets and cost models resolve through :mod:`repro.targets`: an
unknown ``target`` or ``model`` (or a model the target cannot run
under) is a structured error response, and an omitted ``model``
defaults to the target's own cost model.  ``compile`` and ``run``
responses carry the transform pipeline's per-pass trace under
``"pipeline"``.
``"verify": true`` (request- or options-level) runs the verifier suite
during compilation; a failure comes back as a structured error naming
the offending pass plus a ``diagnostics`` list, not a bare message.
``run`` responses carry
the same payload as ``repro run --stats-json`` plus the program output;
every response reports ``cache`` (``"hit"``/``"miss"``/``None``) and
compile/run wall-clock seconds so the pool can aggregate metrics.

A ``compile`` or ``run`` miss writes its executable once: in a pool
worker after the reply (:func:`execute_request`'s ``deferred`` list;
see :mod:`repro.service.pool`), everywhere else before it returns.

``compile``/``run`` requests additionally honor ``"incremental":
true`` — a whole-source cache miss then compiles through the unified
artifact store (front/pass/backend artifacts; see
:mod:`repro.service.store`), and the response's ``pipeline`` block
carries per-stage ``artifacts`` hit/miss records.  ``cache`` is the
store-administration op (counters are process-local; the entry listing
is on-disk truth).
"""

from __future__ import annotations

import dataclasses
import os
import time

from .store import ArtifactStore, cache_key


def build_options(spec: dict | None):
    """CompilerOptions from a request's ``options`` dict (or the CLI's
    parsed pipeline flags, which carry the same names).

    The ``target`` name resolves through the target registry — an
    unknown target raises
    :class:`~repro.targets.UnknownTargetError`, which
    :func:`execute_request` turns into a structured error response.
    """
    from ..driver.compiler import CompilerOptions
    from ..targets import get_target

    spec = spec or {}
    if spec.get("naive"):
        base = CompilerOptions.naive()
    elif spec.get("neighborhood"):
        base = CompilerOptions.neighborhood()
    else:
        base = CompilerOptions()
    target = get_target(spec.get("target", "cm2")).name
    if target != base.target:
        base = dataclasses.replace(base, target=target)
    if spec.get("verify"):
        base = dataclasses.replace(base, verify=True)
    return base


def build_machine(request: dict, target: str = "cm2"):
    """A fresh simulated machine from a request's execution fields.

    Resolution goes through the target registry: an omitted ``model``
    defaults to the target's own cost model, and an unknown or
    target-incompatible model is an error response, never a silent
    slicewise fallback.
    """
    from ..targets import build_machine as registry_build_machine

    pes = request.get("pes")
    return registry_build_machine(
        target,
        model=request.get("model"),
        pes=int(pes) if pes is not None else None,
        exec_mode=request.get("exec"))


def _source_of(request: dict) -> str:
    if "source" in request:
        return request["source"]
    if "file" in request:
        with open(request["file"]) as f:
            return f.read()
    raise ValueError("request needs 'source' or 'file'")


def _compile(request: dict, cache: ArtifactStore | None,
             deferred: list | None):
    """Compile a request's source; returns (exe, cache_state, secs)."""
    from ..driver.compiler import compile_source

    source = _source_of(request)
    options = _request_options(request)
    incremental = bool(request.get("incremental"))
    t0 = time.perf_counter()
    if cache is not None:
        exe, hit = cache.compile(source, options, incremental=incremental,
                                 deferred=deferred)
        state = "hit" if hit else "miss"
    else:
        exe = compile_source(source, options, cache=False,
                             incremental=incremental)
        state = None
    return exe, state, time.perf_counter() - t0


def _request_options(request: dict):
    options = build_options(request.get("options"))
    if request.get("verify") and not options.verify:
        options = dataclasses.replace(options, verify=True)
    return options


def request_cache_key(request: dict) -> str | None:
    """The ``exe`` key an inline ``compile``/``run`` request reads, or
    None (any other op, a file-based request, a malformed one)."""
    if request.get("op") not in ("compile", "run") \
            or "source" not in request:
        return None
    try:
        return cache_key(request["source"], _request_options(request))
    except Exception:
        return None  # malformed request: let execution report the error


def request_fingerprint(request: dict) -> str | None:
    """The singleflight/affinity key of a request, or None.

    Identical fingerprints promise identical responses, so concurrent
    requests with the same key can share one unit of work and repeated
    keys can be routed to the same cache-warm worker.  An explicit
    ``coalesce_key`` wins (the caller asserts equivalence — the load
    generator and tests use this); otherwise ``compile``/``run``
    requests with inline ``source`` are keyed by the compile cache's
    content address (plus the machine-shaping fields for ``run``).
    Anything else — file-based requests (the file could change between
    reads), ``lint``/``compare``/admin ops — is never coalesced.
    """
    explicit = request.get("coalesce_key")
    if explicit is not None:
        return f"explicit:{explicit}"
    key = request_cache_key(request)
    if key is None:
        return None
    op = request["op"]
    verify = _request_options(request).verify
    # `verify` and `incremental` are deliberately outside cache_key (a
    # verified, unverified, incremental, or cold compile all produce
    # the same artifact) but their *responses* differ (diagnostics /
    # artifact accounting), so they must split the fingerprint.
    inc = ":inc" if request.get("incremental") else ""
    if op == "compile":
        return f"compile:{key}:v{int(verify)}{inc}"
    return (f"run:{key}:v{int(verify)}{inc}:{request.get('pes')}"
            f":{request.get('model')}:{request.get('exec')}")


def speedup_str(cycles: int, base: int) -> str:
    """Cycle-ratio rendering, guarded against zero-work base programs."""
    if base == 0:
        return "n/a (zero-cycle base)"
    return f"{cycles / base:.2f}x"


def run_target_compare(source: str, targets=None, pes: int | None = None,
                       exec_mode: str | None = None, options=None) -> dict:
    """Cross-target comparison: one program through every backend.

    ``targets`` is a list of registered target names (default: all of
    them, in registry order).  Each target compiles the source through
    its own backend and runs on its own machine; the first target is
    the reference and every later row reports the max absolute
    difference of its arrays against it — 0.0 is the retargeting claim
    made measurable.  Unknown targets raise
    :class:`~repro.targets.UnknownTargetError` (a structured error
    through the service).
    """
    import numpy as np

    from ..driver.compiler import CompilerOptions, compile_source
    from ..targets import (
        build_machine as registry_build_machine,
        get_target,
        target_names,
    )

    names = [get_target(t).name for t in targets] if targets \
        else target_names()
    base = options or CompilerOptions()
    rows = []
    ref_arrays = None
    for name in names:
        opts = base if base.target == name \
            else dataclasses.replace(base, target=name)
        exe = compile_source(source, opts, cache=False)
        machine = registry_build_machine(name, pes=pes,
                                         exec_mode=exec_mode)
        t0 = time.perf_counter()
        result = exe.run(machine)
        wall = time.perf_counter() - t0
        if ref_arrays is None:
            ref_arrays = result.arrays
            diff = 0.0
        else:
            diff = max((float(np.max(np.abs(
                np.asarray(result.arrays[k], dtype=np.float64)
                - np.asarray(ref_arrays[k], dtype=np.float64))))
                for k in ref_arrays if ref_arrays[k].size), default=0.0)
        rows.append({
            "target": name,
            "model": machine.model.name,
            "wall_seconds": wall,
            "gflops": result.gflops(),
            "total_cycles": result.stats.total_cycles,
            "max_abs_diff": diff,
        })
    return {"reference": names[0], "rows": rows}


def run_compare(source: str, pes: int = 2048,
                exec_mode: str | None = None, options=None) -> dict:
    """The §6 three-compiler comparison as a structured payload."""
    from ..baselines import compile_cmfortran, compile_starlisp
    from ..driver.compiler import CompilerOptions, compile_source
    from ..machine import Machine, fieldwise_model, slicewise_model

    rows = []
    for label, exe, model in (
            ("*Lisp (fieldwise)", compile_starlisp(source),
             fieldwise_model(pes)),
            ("CM Fortran v1.1", compile_cmfortran(source),
             slicewise_model(pes)),
            ("Fortran-90-Y",
             compile_source(source, options or CompilerOptions(),
                            cache=False),
             slicewise_model(pes))):
        result = exe.run(Machine(model, exec_mode=exec_mode))
        rows.append({
            "label": label,
            "gflops": result.gflops(),
            "total_cycles": result.stats.total_cycles,
            "node_calls": result.stats.node_calls,
        })
    base = rows[-1]["total_cycles"]
    speedups = [{"over": row["label"],
                 "speedup": speedup_str(row["total_cycles"], base)}
                for row in rows[:-1]]
    return {"rows": rows, "speedups": speedups}


def execute_request(request: dict, cache: ArtifactStore | None = None,
                    deferred: list | None = None) -> dict:
    """Execute one request dict, never raising: errors become responses.

    ``cache`` is the store ``compile``/``run`` go through (None: a
    fresh compile) and the one the ``cache`` op administers;
    ``deferred``: see :meth:`ArtifactStore.compile`.
    """
    base = {"op": request.get("op"), "ok": True}
    if "id" in request:
        base["id"] = request["id"]
    try:
        base.update(_dispatch(request, cache, deferred))
    except Exception as exc:
        base["ok"] = False
        base["error"] = {"type": type(exc).__name__, "message": str(exc)}
        from ..analysis.diagnostics import VerifyError

        if isinstance(exc, VerifyError):
            # Verifier failures are structured: name the offending pass
            # and surface each violation rather than a bare message.
            base["error"]["stage"] = exc.stage
            base["diagnostics"] = [d.to_dict() for d in exc.diagnostics]
        if os.environ.get("REPRO_DEBUG") == "1":
            import traceback

            base["error"]["traceback"] = traceback.format_exc()
    return base


def _dispatch(request: dict, cache: ArtifactStore | None,
              deferred: list | None) -> dict:
    op = request.get("op")
    if op == "ping":
        return {"pid": os.getpid()}
    if op == "compile":
        exe, state, secs = _compile(request, cache, deferred)
        return {
            "cache": state,
            "timings": {"compile_seconds": secs},
            "pipeline": exe.transformed.trace.to_dict(),
            "partition": {
                "compute_blocks": exe.partition.compute_blocks,
                "comm_phases": exe.partition.comm_phases,
                "reductions": exe.partition.reductions,
                "serial_moves": exe.partition.serial_moves,
            },
            "routines": sorted(exe.routines),
        }
    if op == "run":
        exe, state, compile_s = _compile(request, cache, deferred)
        machine = build_machine(request, target=exe.options.target)
        t0 = time.perf_counter()
        result = exe.run(machine)
        run_s = time.perf_counter() - t0
        return {
            "cache": state,
            "timings": {"compile_seconds": compile_s,
                        "run_seconds": run_s},
            "pipeline": exe.transformed.trace.to_dict(),
            "target": exe.options.target,
            "model": machine.model.name,
            "exec_mode": machine.exec_mode,
            "compile_seconds": compile_s,
            "run_seconds": run_s,
            "gflops": result.gflops(),
            "stats": result.stats.to_dict(),
            "fusion": machine.fusion_summary(),
            "output": list(result.output),
        }
    if op == "compare":
        source = _source_of(request)
        t0 = time.perf_counter()
        if "targets" in request:
            # Cross-target mode: {"targets": [...]} or "all".
            spec = request["targets"]
            targets = None if spec in ("all", None) else list(spec)
            pes = request.get("pes")
            payload = run_target_compare(
                source, targets=targets,
                pes=int(pes) if pes is not None else None,
                exec_mode=request.get("exec"),
                options=build_options(request.get("options")))
        else:
            payload = run_compare(
                source, pes=int(request.get("pes", 2048)),
                exec_mode=request.get("exec"),
                options=build_options(request.get("options")))
        payload["timings"] = {"run_seconds": time.perf_counter() - t0}
        return payload
    if op == "lint":
        from ..analysis.lint import lint_source

        result = lint_source(_source_of(request), request.get("file"))
        payload = result.to_dict()
        payload["exit_code"] = result.exit_code(
            strict=bool(request.get("strict")))
        return payload
    if op == "analyze":
        from ..analysis.analyze import analyze_source

        result = analyze_source(
            _source_of(request), request.get("file"),
            target=request.get("target", "cm2"),
            model=request.get("model"),
            pes=request.get("pes"))
        payload = result.to_dict()
        payload["exit_code"] = result.exit_code(
            strict=bool(request.get("strict")))
        return payload
    if op == "cache":
        if cache is None:
            raise ValueError("no compile cache configured")
        return cache.admin(request.get("action", "stats"),
                           kind=request.get("kind"))
    if op == "_sleep":  # test/ops hook: a slow (optionally failing) job
        time.sleep(float(request.get("seconds", 1.0)))
        if request.get("fail"):
            raise RuntimeError("_sleep failed as requested")
        return {"slept": float(request.get("seconds", 1.0))}
    if op == "_crash":  # test/ops hook: a worker that dies mid-job
        marker = request.get("once")
        if marker and os.path.exists(marker):
            return {"survived": True}
        if marker:
            with open(marker, "w") as f:
                f.write("crashed\n")
        os._exit(13)
    raise ValueError(f"unknown op {op!r}")
