"""Command-line interface: ``python -m repro <command> file.f90``.

Commands:

* ``compile`` — run the pipeline and print intermediate representations
  (``--emit nir|nir-opt|peac|host``, repeatable);
* ``run`` — execute on the simulated machine, print program output and
  the performance summary;
* ``compare`` — the paper's §6 experiment on any program: Fortran-90-Y
  vs the CM Fortran and \\*Lisp models;
* ``lint`` — frontend + semantic analysis only, with source-located
  diagnostics (exit 0 clean, 1 warnings, 2 errors; ``--format=json``);
* ``analyze`` — lint plus the dataflow analyses: parallel-semantics
  race detection (R6xx) and a static communication-cost report priced
  under the target's network model (C7xx; same exit-code contract);
* ``serve`` — the asyncio JSON-lines compile-and-run service
  (persistent compile cache + worker pool + tenant-fair admission;
  see :mod:`repro.service`);
* ``batch`` — run a JSON-lines job file through the worker pool;
* ``loadgen`` — drive a server (or an in-process one) with concurrent
  clients and report latency percentiles, jobs/sec, and coalescing;
* ``cache`` — inspect (``stats``/``ls``) or purge the on-disk artifact
  store that backs the compile cache and incremental compilation.

``REPRO_DEBUG=1`` re-raises errors with full tracebacks instead of the
one-line diagnostics; ``--cache`` makes the invocation consult the
persistent cache, ``--incremental`` compiles through the per-pass
artifact store.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .. import nir
from ..baselines import compile_cmfortran, compile_starlisp
from ..machine import Machine, fieldwise_model, model_names, slicewise_model
from ..peac import format_routine
from ..runtime.host import format_host_program
from ..runtime.sparc import render_sparc
from ..targets import build_machine, target_names
from .compiler import CompilerOptions, compile_source
from .metrics import summarize


def _options(args) -> CompilerOptions:
    """The pipeline flags, read as a service request's ``options``."""
    from ..service.jobs import build_options

    return build_options(vars(args))


def _machine(args) -> Machine:
    """The run machine, resolved through the target registry.

    ``--model`` defaults to the target's own cost model (``--target
    cm5`` runs under the cm5 model without extra flags); an explicit
    model that the target cannot run under is an error, never a silent
    slicewise fallback.
    """
    return build_machine(getattr(args, "target", "cm2"),
                         model=getattr(args, "model", None),
                         pes=getattr(args, "pes", None),
                         exec_mode=getattr(args, "exec_mode", None))


def _compile(args, source: str):
    """Compile honoring --cache/--incremental."""
    return compile_source(source, _options(args),
                          cache=getattr(args, "cache", False),
                          incremental=getattr(args, "incremental", False),
                          dump_after=tuple(
                              getattr(args, "dump_after", None) or ()))


def _read_source(path: str | None) -> str:
    if path is None:
        raise FileNotFoundError("no input file (pass a path, or - for "
                                "stdin)")
    if path == "-":
        return sys.stdin.read()
    with open(path) as f:
        return f.read()


def _list_passes() -> int:
    """``--list-passes``: the registered pipeline, in run order."""
    from ..transform import PASSES, Options

    defaults = Options()
    naive = Options.naive()
    print(f"{'#':<3} {'pass':<12} {'scope':<8} {'default':<8} "
          f"{'naive':<8} description")
    for i, p in enumerate(PASSES, 1):
        print(f"{i:<3} {p.name:<12} {p.scope:<8} "
              f"{'on' if p.enabled(defaults) else 'off':<8} "
              f"{'on' if p.enabled(naive) else 'off':<8} {p.description}")
    return 0


def _print_dumps(exe, dump_after, out) -> None:
    for name in dump_after or ():
        print(f"=== NIR after pass {name!r} ===", file=out)
        print(exe.transformed.trace.dumps.get(name, "(pass did not run)"),
              file=out)


# -- shared argument groups -------------------------------------------------


def _add_pipeline_args(p: argparse.ArgumentParser) -> None:
    """The pipeline switches shared by compile/run/compare."""
    g = p.add_argument_group("pipeline")
    g.add_argument("--naive", action="store_true",
                   help="per-statement compilation, naive node encoding")
    g.add_argument("--neighborhood", action="store_true",
                   help="§5.3.2 neighborhood model (CSHIFT halo streams)")
    g.add_argument("--target", choices=target_names(), default="cm2")
    g.add_argument("--cache", action="store_true",
                   help="consult the persistent compile cache "
                        "(~/.cache/repro)")
    g.add_argument("--incremental", action="store_true",
                   help="compile through the content-addressed artifact "
                        "store: reuse front-end, per-pass and backend "
                        "artifacts from previous compiles")
    g.add_argument("--verify", action="store_true",
                   help="run the verifier suite between passes "
                        "(also $REPRO_VERIFY=1)")
    g.add_argument("--list-passes", action="store_true",
                   help="print the registered pass pipeline and exit")
    g.add_argument("--dump-after", action="append", metavar="PASS",
                   default=None,
                   help="print the NIR after the named pass (repeatable; "
                        "see --list-passes)")


def _add_exec_args(p: argparse.ArgumentParser) -> None:
    """The execution switches shared by run/compare."""
    g = p.add_argument_group("execution")
    g.add_argument("--pes", type=int, default=None,
                   help="number of processing elements (power of two; "
                        "default: the target's own PE count)")
    g.add_argument("--model", choices=model_names(), default=None,
                   help="cost model (default: the target's own model)")
    g.add_argument("--exec", dest="exec_mode",
                   choices=["fast", "interp", "fused"],
                   default=None,
                   help="node execution engine (default: the "
                        "target's, fused on host, else fast)")


# -- commands ---------------------------------------------------------------


def cmd_compile(args) -> int:
    if args.list_passes:
        return _list_passes()
    source = _read_source(args.file)
    exe = _compile(args, source)
    _print_dumps(exe, args.dump_after, sys.stdout)
    emits = args.emit or ["peac"]
    out = []
    if "nir" in emits:
        out.append("=== NIR (after semantic lowering) ===")
        out.append(nir.pretty(exe.lowered.nir))
    if "nir-opt" in emits:
        out.append("=== NIR (after target-independent optimization) ===")
        out.append(nir.pretty(exe.transformed.nir))
    if "peac" in emits:
        out.append("=== PEAC node code ===")
        for routine in exe.routines.values():
            out.append(format_routine(routine))
            out.append("")
    if "host" in emits:
        out.append("=== host (front-end) program ===")
        out.append(format_host_program(exe.host_program))
    if "sparc" in emits:
        out.append("=== host program as SPARC assembly ===")
        out.append(render_sparc(exe.host_program))
    out.append("")
    out.append(f"; {exe.partition.compute_blocks} computation blocks, "
               f"{exe.partition.comm_phases} communications, "
               f"{exe.partition.reductions} reductions, "
               f"{exe.partition.serial_moves} serial moves")
    print("\n".join(out))
    return 0


def cmd_run(args) -> int:
    if args.list_passes:
        return _list_passes()
    source = _read_source(args.file)
    t0 = time.perf_counter()
    exe = _compile(args, source)
    compile_s = time.perf_counter() - t0
    _print_dumps(exe, args.dump_after, sys.stderr)
    machine = _machine(args)
    t0 = time.perf_counter()
    result = exe.run(machine)
    run_s = time.perf_counter() - t0
    for line in result.output:
        print(line)
    if args.time:
        print(f"compile {compile_s:.3f}s  run {run_s:.3f}s  "
              f"(exec engine: {machine.exec_mode})", file=sys.stderr)
        # Kernels that stopped below the best tier, and why.
        for emitter, reasons in machine.fusion_summary()["declined"].items():
            for reason, entries in sorted(reasons.items()):
                print(f"  {entries} kernel(s) declined by the {emitter} "
                      f"emitter: {reason}", file=sys.stderr)
    if args.stats_json:
        payload = {
            "model": machine.model.name,
            "target": exe.options.target,
            "exec_mode": machine.exec_mode,
            "compile_seconds": compile_s,
            "run_seconds": run_s,
            "gflops": result.gflops(),
            "stats": result.stats.to_dict(),
            "fusion": machine.fusion_summary(),
            "pipeline": exe.transformed.trace.to_dict(),
        }
        with open(args.stats_json, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    if args.stats:
        clock = machine.model.clock_hz
        print(file=sys.stderr)
        print(summarize(machine.model.name, result.stats, clock).row(),
              file=sys.stderr)
        b = result.stats.breakdown()
        print(f"breakdown: node {b['node']:.1%}  call {b['call']:.1%}  "
              f"comm {b['comm']:.1%}  host {b['host']:.1%}",
              file=sys.stderr)
        fs = machine.fusion_summary()
        if machine.exec_mode == "fused":
            print(f"fusion: {fs['fused_groups']} groups covering "
                  f"{fs['fused_routines']} calls; mega-kernels "
                  f"{fs['megakernel_builds']} built / "
                  f"{fs['megakernel_hits']} hits / "
                  f"{fs['stepwise_groups']} stepwise", file=sys.stderr)
        exits = ", ".join(f"{n} {why}" for why, n in
                          fs["trip_exit_reasons"].items() if n)
        declined, stayed = (", ".join(f"{n} {why}" for why, n in
                                      sorted(fs[key].items()))
                            for key in ("trip_declined",
                                        "trip_native_declined"))
        print(f"trip records: {fs['trip_records']} bound / "
              f"{fs['trip_replays']} trips replayed "
              f"({fs['trip_native']} natively) / "
              f"{fs['trip_exits']} exits"
              + (f" ({exits})" if exits else "")
              + (f"; loops declined: {declined}" if declined else "")
              + (f"; loops kept in Python: {stayed}" if stayed else ""),
              file=sys.stderr)
        for name, cycles in sorted(result.stats.per_routine.items()):
            print(f"  {name:<12} {cycles:>12,d} node cycles",
                  file=sys.stderr)
        print("pipeline passes:", file=sys.stderr)
        for line in exe.transformed.trace.summary_lines():
            print(line, file=sys.stderr)
    return 0


def cmd_compare(args) -> int:
    from ..service.jobs import speedup_str

    if args.list_passes:
        return _list_passes()
    source = _read_source(args.file)
    mode = args.exec_mode
    if args.targets is not None:
        # Cross-target mode: same program through every backend.
        from ..service.jobs import run_target_compare

        payload = run_target_compare(
            source, targets=args.targets or None, pes=args.pes,
            exec_mode=mode, options=_options(args))
        print(f"{'target':<8} {'model':<16} {'GFLOPS':>8} "
              f"{'wall(s)':>9} {'max|diff|':>10}")
        for i, row in enumerate(payload["rows"]):
            diff = "ref" if i == 0 else f"{row['max_abs_diff']:.3g}"
            print(f"{row['target']:<8} {row['model']:<16} "
                  f"{row['gflops']:>8.3f} {row['wall_seconds']:>9.4f} "
                  f"{diff:>10}")
        return 0
    pes = args.pes if args.pes is not None else 2048
    rows = []
    exe = compile_starlisp(source)
    rows.append(("*Lisp (fieldwise)",
                 exe.run(Machine(fieldwise_model(pes),
                                 exec_mode=mode))))
    exe = compile_cmfortran(source)
    rows.append(("CM Fortran v1.1",
                 exe.run(Machine(slicewise_model(pes),
                                 exec_mode=mode))))
    exe = compile_source(source, _options(args),
                         cache=(True if args.cache else None))
    rows.append(("Fortran-90-Y", exe.run(_machine(args))))
    print(f"{'model':<20} {'GFLOPS':>8} {'cycles':>14} {'calls':>7}")
    for label, result in rows:
        print(f"{label:<20} {result.gflops():>8.3f} "
              f"{result.stats.total_cycles:>14,d} "
              f"{result.stats.node_calls:>7d}")
    base = rows[-1][1].stats.total_cycles
    for label, result in rows[:-1]:
        print(f"Fortran-90-Y speedup over {label}: "
              f"{speedup_str(result.stats.total_cycles, base)}")
    return 0


def cmd_lint(args) -> int:
    """Frontend + semantic analysis only; exit 0 clean / 1 warn / 2 err."""
    if getattr(args, "analyze", False):
        return cmd_analyze(args)
    from ..analysis.lint import format_text, lint_file, lint_source

    results = []
    for path in args.files:
        if path == "-":
            results.append(lint_source(sys.stdin.read(), "<stdin>"))
        else:
            results.append(lint_file(path))
    if args.format == "json":
        payload = [dict(r.to_dict(),
                        exit_code=r.exit_code(strict=args.strict))
                   for r in results]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for r in results:
            print(format_text(r))
    return max(r.exit_code(strict=args.strict) for r in results)


def cmd_analyze(args) -> int:
    """Lint + dataflow analyses + static comm report; lint exit codes."""
    from ..analysis.analyze import (analyze_file, analyze_source,
                                    format_analyze_text)

    target = getattr(args, "target", "cm2")
    model = getattr(args, "model", None)
    pes = getattr(args, "pes", None)
    results = []
    for path in args.files:
        if path == "-":
            results.append(analyze_source(sys.stdin.read(), "<stdin>",
                                          target=target, model=model,
                                          pes=pes))
        else:
            results.append(analyze_file(path, target=target, model=model,
                                        pes=pes))
    if args.format == "json":
        payload = [dict(r.to_dict(),
                        exit_code=r.exit_code(strict=args.strict))
                   for r in results]
        print(json.dumps(payload[0] if len(payload) == 1 else payload,
                         indent=2, sort_keys=True))
    else:
        for r in results:
            print(format_analyze_text(r))
    return max(r.exit_code(strict=args.strict) for r in results)


def cmd_serve(args) -> int:
    from ..service.pool import WorkerPool
    from ..service.server import serve

    pool = WorkerPool(args.workers, timeout=args.timeout,
                      cache=_service_cache(args))
    return serve(args.host, args.port, pool,
                 high_water=args.high_water,
                 idle_timeout=args.idle_timeout)


def cmd_loadgen(args) -> int:
    from ..service.loadgen import loadgen_main

    address = (args.host, args.port) if args.port else None
    return loadgen_main(address, clients=args.clients,
                        requests=args.requests, tenants=args.tenants,
                        workers=args.workers, json_path=args.json,
                        out=sys.stderr)


def cmd_batch(args) -> int:
    from ..service.batch import batch_main
    from ..service.pool import WorkerPool

    pool = WorkerPool(args.workers, timeout=args.timeout,
                      cache=_service_cache(args))
    return batch_main(args.file, pool, out_path=args.out)


def cmd_cache(args) -> int:
    """Inspect or purge the unified on-disk artifact store."""
    from ..service.store import ArtifactStore

    store = ArtifactStore(args.cache_dir)
    payload = store.admin(args.action, kind=args.kind)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    if args.action == "stats":
        store = payload["store"]
        kinds = store.get("kinds", {})
        print(f"store root: {store['root']}")
        print(f"{'kind':<9} {'entries':>8} {'bytes':>12}")
        for kind in sorted(kinds):
            row = kinds[kind]
            print(f"{kind:<9} {row['entries']:>8} {row['bytes']:>12,d}")
        print(f"{'total':<9} {store['entries']:>8} "
              f"{store['bytes']:>12,d}  "
              f"(cap {store['max_bytes']:,d} bytes, "
              f"{store['evictions']} evictions)")
    elif args.action == "ls":
        for entry in payload["entries"]:
            print(f"{entry['kind']:<9} {entry['key']}  "
                  f"{entry['bytes']:>10,d} bytes  "
                  f"{entry['age_seconds']:.0f}s old")
        if not payload["entries"]:
            print("(store is empty)", file=sys.stderr)
    else:  # purge
        what = f"{args.kind} artifacts" if args.kind else "artifacts"
        print(f"purged {payload['purged']} {what} from {store.root}")
    return 0


def _service_cache(args):
    if args.no_cache:
        return None
    return args.cache_dir if args.cache_dir else True


def _add_service_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("service")
    g.add_argument("--workers", type=int, default=0,
                   help="worker processes (0 = one per CPU, "
                        "1 = in-process fallback)")
    g.add_argument("--timeout", type=float, default=None,
                   help="per-job timeout in seconds (pool mode)")
    g.add_argument("--cache-dir", default=None,
                   help="compile cache root (default: $REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    g.add_argument("--no-cache", action="store_true",
                   help="compile from scratch on every request")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fortran-90-Y: a data-parallel Fortran 90 compiler "
                    "for a simulated Connection Machine CM/2")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="compile and print IRs")
    p.add_argument("file", nargs="?",
                   help="Fortran source file, or - for stdin")
    p.add_argument("--emit", action="append",
                   choices=["nir", "nir-opt", "peac", "host", "sparc"],
                   help="IR(s) to print (default: peac)")
    _add_pipeline_args(p)
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile and execute on the simulator")
    p.add_argument("file", nargs="?",
                   help="Fortran source file, or - for stdin")
    _add_pipeline_args(p)
    _add_exec_args(p)
    p.add_argument("--stats", action="store_true",
                   help="print the performance summary to stderr")
    p.add_argument("--time", action="store_true",
                   help="print compile/run wall-clock times to stderr")
    p.add_argument("--stats-json", metavar="PATH", default=None,
                   help="write run statistics (cycles, flops, timings) "
                        "as JSON to PATH")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare",
                       help="the §6 three-compiler comparison, or "
                            "(with --targets) a cross-target one")
    p.add_argument("file", nargs="?",
                   help="Fortran source file, or - for stdin")
    p.add_argument("--targets", nargs="*", metavar="TARGET", default=None,
                   help="compare registered targets instead of the §6 "
                        "baselines: per-target wallclock and max "
                        "abs-diff vs the first target (no names: all "
                        "registered targets)")
    _add_pipeline_args(p)
    _add_exec_args(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("lint",
                       help="check sources without compiling; exit 0 "
                            "clean, 1 warnings, 2 errors")
    p.add_argument("files", nargs="+", metavar="file",
                   help="Fortran source file(s), or - for stdin")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="diagnostic output format (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors (exit 2)")
    p.add_argument("--analyze", action="store_true",
                   help="also run the dataflow analyses (R6xx races, "
                        "C7xx communication audit)")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser("analyze",
                       help="lint + dataflow analyses + static "
                            "communication-cost report; exit 0 clean, "
                            "1 findings, 2 errors")
    p.add_argument("files", nargs="+", metavar="file",
                   help="Fortran source file(s), or - for stdin")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="report output format (default: text)")
    p.add_argument("--strict", action="store_true",
                   help="treat warnings as errors (exit 2)")
    p.add_argument("--target", default="cm2",
                   help="target whose cost model prices the static "
                        "communication table (default: cm2)")
    p.add_argument("--model", default=None,
                   help="cost model override (must be compatible with "
                        "the target)")
    p.add_argument("--pes", type=int, default=None,
                   help="processing elements (default: the target's)")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("serve",
                       help="JSON-lines compile-and-run service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=9290,
                   help="TCP port (0 = pick a free port)")
    p.add_argument("--high-water", type=int, default=512,
                   help="admission queue depth past which new requests "
                        "get a structured Overloaded error")
    p.add_argument("--idle-timeout", type=float, default=300.0,
                   help="close connections silent for this many seconds")
    _add_service_args(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("loadgen",
                       help="concurrent-client load benchmark against "
                            "the service")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=0,
                   help="target a running server (0 = spin one up "
                        "in-process for the run)")
    p.add_argument("--clients", type=int, default=16,
                   help="concurrent client connections")
    p.add_argument("--requests", type=int, default=96,
                   help="total requests across all clients (plus one "
                        "coalesce-wave compile per client)")
    p.add_argument("--tenants", type=int, default=2,
                   help="tenant names to spread the clients over")
    p.add_argument("--workers", type=int, default=0,
                   help="pool size for the in-process server "
                        "(0 = one per CPU)")
    p.add_argument("--json", metavar="PATH", default=None,
                   help="write the full result payload to PATH")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser("cache",
                       help="inspect or purge the on-disk artifact store "
                            "(compile cache + incremental artifacts)")
    p.add_argument("action", nargs="?", default="stats",
                   choices=["stats", "ls", "purge"],
                   help="stats: per-kind footprint; ls: entries, newest "
                        "first; purge: delete entries (default: stats)")
    p.add_argument("--kind", default=None,
                   choices=["front", "pass", "backend", "exe"],
                   help="restrict ls/purge to one artifact kind")
    p.add_argument("--cache-dir", default=None,
                   help="store root (default: $REPRO_CACHE_DIR or "
                        "~/.cache/repro)")
    p.add_argument("--format", choices=["text", "json"], default="text",
                   help="output format (default: text)")
    p.set_defaults(func=cmd_cache)

    p = sub.add_parser("batch",
                       help="run a JSON-lines job file through the pool")
    p.add_argument("file", help="job file (JSON lines), or - for stdin")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write JSON-lines results to PATH (default: "
                        "stdout)")
    _add_service_args(p)
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    debug = os.environ.get("REPRO_DEBUG") == "1"
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        if debug:
            raise
        print(f"repro: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # compile/runtime diagnostics
        if debug:  # full tracebacks for service/worker debugging
            raise
        print(f"repro: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
