"""The benchmark's one command.

One workload, as the driver runs it::

    python3 -m bench.run --workload grid512 --seed 1 --seconds 20 --trace 0

prints the named rows, then one JSON object on the last line of stdout
with ``correct``, ``attempted``, ``failed`` and ``metrics`` -- every
``end_to_end`` metric with ``--trace 0``, every ``per_layer`` metric
with ``--trace 1``.  All workloads, each in a fresh process::

    python3 -m bench.run [--seed N] [--runs K] [--trace] [--quick]

writes ``bench/out/results.json`` (the input of ``bench.compare``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from . import harness
from .harness import BenchError, Tracer, median
from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, WORKLOADS

SETUP_PROBES = 2          # set-up is timed in this many extra processes
QUICK_SECONDS = 3.0
WHY = dict(WORKLOADS)


def _load(name: str, seed: int, quick: bool):
    """Import the workload's module (and with it the compiler)."""
    if name in ("grid512", "grid32"):
        from .grid import GridWorkload as cls
    elif name == "compile_corpus":
        from .compile_corpus import CompileCorpusWorkload as cls
    elif name == "serve_mix":
        from .serve_mix import ServeMixWorkload as cls
    else:
        raise BenchError(f"unknown workload {name!r}; "
                         f"choose from {', '.join(WHY)}")
    return cls(name, seed, quick)


def _timed_setup(name: str, seed: int, quick: bool = False):
    """(workload, seconds): imports, sources, compiles, first runs with
    their ``cc`` builds, server and pool start."""
    t0 = time.perf_counter()
    workload = _load(name, seed, quick)
    try:
        workload.setup()
    except BaseException:
        workload.close()     # a half-started pool must not outlive us
        raise
    return workload, time.perf_counter() - t0


def _probe_setup(name: str, seed: int) -> float:
    """Set-up time of a fresh process (it sets up and exits)."""
    out = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", name,
         "--seed", str(seed), "--setup-only"],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=170)
    if out.returncode != 0:
        raise BenchError(f"set-up probe failed:\n{out.stdout}{out.stderr}")
    return float(json.loads(out.stdout.splitlines()[-1])["setup_s"])


def _metric_block(values: dict, names) -> dict:
    return {name: {"value": float(values[name]), "unit": UNITS[name]}
            for name in names}


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 probes: int, quick: bool = False) -> dict:
    """One workload in this process; returns the result line (the full
    record goes to ``bench/out/``)."""
    scratch = harness.isolate()
    workload = None
    try:
        harness.cc_version()     # refuse before measuring, not after
        clock = [time.perf_counter()]
        setups = [_probe_setup(name, seed) for _ in range(probes)]
        clock.append(time.perf_counter())
        workload, own = _timed_setup(name, seed, quick)
        setups.append(own)
        clock.append(time.perf_counter())
        workload.gate()
        clock.append(time.perf_counter())

        tracer = Tracer(f"{name}#{seed}") if trace else None
        if trace and workload.splits_trace:
            plain = workload.measure(seconds / 2.0)
            traced = workload.measure(seconds / 2.0, tracer)
        else:
            plain = traced = workload.measure(seconds, tracer)
        clock.append(time.perf_counter())

        end_to_end = workload.end_to_end(plain)
        end_to_end["setup_s"] = median(setups)
        end_to_end["peak_rss_mb"] = harness.peak_rss_mb(
            workload.worker_pids())
        named, lines = workload.named_rows(plain)
        detail = {
            "workload": name, "why": WHY[name], "trace": int(trace),
            "seconds": seconds,
            "provenance": harness.provenance(seed),
            "inputs_digest": workload.inputs_digest(),
            "attempted": workload.attempted, "failed": workload.failed,
            "failed_share": workload.failed / workload.attempted,
            "failures": workload.failures,
            "setup_samples_s": setups,
            "phase_seconds": dict(zip(
                ("setup_probes", "setup", "gate", "measure"),
                (b - a for a, b in zip(clock, clock[1:])))),
            "end_to_end": end_to_end, "named": named, "rows": lines,
            **workload.extra(plain),
        }
        if trace:
            layers = {n: 0.0 for n, _, _ in PER_LAYER}
            layers.update(workload.per_layer(traced))
            layers.update(named)
            if workload.splits_trace:
                slow = workload.end_to_end(traced)["op_ms"]
                layers["trace.overhead_pct"] = \
                    (slow / end_to_end["op_ms"] - 1.0) * 100.0
            detail["per_layer"] = layers
            detail["facts"] = workload.facts(traced)
            detail["spans"] = len(tracer.spans)
            detail["chrome_trace"] = os.path.relpath(_out_path(
                name, seed, "chrome.json"), harness.ROOT)
            tracer.write_chrome(_out_path(name, seed, "chrome.json"))
    finally:
        if workload is not None:
            workload.close()
        harness.cleanup(scratch)

    _print_rows(detail)
    with open(_out_path(name, seed, f"trace{int(trace)}.json"), "w") as f:
        json.dump(detail, f, indent=1, sort_keys=True)
    if trace:
        metrics = _metric_block(detail["per_layer"],
                                [n for n, _, _ in PER_LAYER])
    else:
        metrics = _metric_block(end_to_end, [n for n, *_ in END_TO_END])
    return {"correct": workload.failed == 0,
            "attempted": workload.attempted, "failed": workload.failed,
            "metrics": metrics}


def _out_path(name: str, seed: int, suffix: str) -> str:
    return os.path.join(harness.OUT_DIR, f"{name}.seed{seed}.{suffix}")


def _print_rows(detail: dict) -> None:
    name = detail["workload"]
    print(f"== {name} (seed {detail['provenance']['seed']}, "
          f"{detail['seconds']:g} s, trace {detail['trace']}): {WHY[name]}")
    for line in detail["rows"]:
        print(line)
    for key, value in detail["named"].items():
        print(f"  {key:<24} {value:14.4f} {UNITS[key]}")
    for key, value in detail["end_to_end"].items():
        print(f"  {key:<24} {value:14.4f} {UNITS[key]}")
    print(f"  {'failed_share':<24} {detail['failed_share']:14.4f}   "
          f"({detail['failed']} of {detail['attempted']} operations)")
    print("  wall: " + "  ".join(f"{k} {v:.1f} s" for k, v
                                 in detail["phase_seconds"].items()))
    for failure in detail["failures"][:10]:
        print(f"  FAILED: {failure}")
    if detail["trace"]:
        for key, value in detail["per_layer"].items():
            if value and key not in detail["named"]:
                print(f"    {key:<34} {value:14.4f} {UNITS[key]}")
        for fact, values in detail["facts"].items():
            if all(isinstance(v, float) for v in values.values()):
                print(f"    {fact}: " + "  ".join(
                    f"{key} {value:.3f}" for key, value in values.items()))
        print(f"    {detail['spans']} spans -> {detail['chrome_trace']}")


# -- all workloads -------------------------------------------------------------


def run_all(args) -> int:
    seconds = args.seconds
    probes = SETUP_PROBES
    traces = [0, 1] if args.trace else [0]
    if args.quick:
        # One traced run carries both tables: its untraced half gives
        # the end-to-end rows.
        seconds, probes, traces = QUICK_SECONDS, 0, [1]
    records = []
    status = 0
    for k in range(args.runs):
        for name in WHY:
            for trace in traces:
                seed = args.seed + k
                out = subprocess.run(
                    [sys.executable, "-m", "bench.run", "--workload", name,
                     "--seed", str(seed), "--seconds", str(seconds),
                     "--trace", str(trace), "--setup-probes", str(probes)]
                    + (["--quick"] if args.quick else []),
                    cwd=harness.ROOT, text=True, stdout=subprocess.PIPE)
                sys.stdout.write("\n".join(out.stdout.splitlines()[:-1])
                                 + "\n")
                sys.stdout.flush()
                if out.returncode != 0:
                    print(f"{name}: exit code {out.returncode}")
                    status = 1
                    continue
                with open(_out_path(name, seed, f"trace{trace}.json")) as f:
                    record = json.load(f)
                records.append(record)
                if record["failed"]:
                    status = 1
    os.makedirs(harness.OUT_DIR, exist_ok=True)
    path = args.out or os.path.join(harness.OUT_DIR, "results.json")
    with open(path, "w") as f:
        json.dump({"bounds": {n: b for n, _, _, b in END_TO_END},
                   "records": records}, f, indent=1, sort_keys=True)
    print(f"\nwrote {os.path.relpath(path)}  ({len(records)} records, "
          f"{'FAILED' if status else 'all correct'})")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="python3 -m bench.run",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=list(WHY))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(RUN_SECONDS))
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="smoke scale: all workloads in under a minute, "
                             "fewer rounds, advisory percentiles")
    parser.add_argument("--runs", type=int, default=1,
                        help="all-workloads mode: runs per workload, "
                             "seeds seed..seed+runs-1")
    parser.add_argument("--out", help="all-workloads mode: results file")
    parser.add_argument("--setup-probes", type=int, default=SETUP_PROBES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    try:
        if args.workload is None:
            return run_all(args)
        if args.setup_only:
            scratch = harness.isolate()
            workload = None
            try:
                workload, secs = _timed_setup(args.workload, args.seed)
            finally:
                if workload is not None:
                    workload.close()
                harness.cleanup(scratch)
            print(json.dumps({"setup_s": secs}))
            return 0
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace), args.setup_probes,
                              args.quick)
    except BenchError as exc:
        print(f"bench: refused: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
