"""The metric vocabulary: every name the benchmark reports, with unit.

``BENCHMARK.json`` at the repo root is ``benchmark_json()`` written out;
``bench/tests/test_smoke.py`` fails when the two drift apart.

The driver contract wants every end-to-end metric on every workload, so
the four bounded metrics are workload-generic (what ``work`` and ``op``
mean per workload is in ``WORKLOADS`` and the README).  The sixteen
names ISSUE 11 fixed (``run_fused_mcups``, ``compile_cold_ms`` ...) are
printed by every run and ride in the per-layer list as ``NAMED_ROWS``,
measured in the untraced half of a ``--trace 1`` run.
"""

from __future__ import annotations

RUN_SECONDS = 20

COMMAND = ["python3", "-m", "bench.run"]

WORKLOADS = [
    ("grid512",
     "swe/heat/life at 512x512 under fast, fused and host: big arrays, few "
     "dispatches, so CSHIFT copies and native kernels set the time; "
     "work = cell updates, op = one program run"),
    ("grid32",
     "the same programs at 32x32 (heat 64x64) for 400 steps: thousands of "
     "tiny calls, so per-call dispatch cost sets the time and bytes are "
     "free; work = cell updates, op = one program run"),
    ("compile_corpus",
     "12 programs x cm2/cm5/host compiled cold, then store fill, warm disk "
     "hit, tail edit and line-shift edit on swe and redblack; nothing runs; "
     "work = cold compiles, op = one cached recompile"),
    ("serve_mix",
     "ReproServer over a real 2-worker pool fed seeded distinct programs, "
     "closed loop then open loop at 16/32/48/64 req/s: admission, queue, "
     "pipe hop and pickling show; work = requests, op = one round trip"),
]

# (name, unit, better, bound) -- bound is the share of the parent's
# median by which a later PR may worsen the metric.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
]

CONFIGS = ("fast", "fused", "host")
TARGETS = ("cm2", "cm5", "host")
PASSES = ("promote", "normalize", "pad_masks", "dse", "block", "fuse_exec",
          "recheck")
RATES = (16, 32, 48, 64)

# The names ISSUE 11 fixed for end-to-end results, per workload.
NAMED_ROWS = [
    ("run_fast_mcups", "Mcups", "higher"),
    ("run_fused_mcups", "Mcups", "higher"),
    ("run_host_mcups", "Mcups", "higher"),
    ("sim_cycles_total", "cycles", "lower"),
    ("sim_gflops_swe", "GFLOPS", "higher"),
    ("compile_cold_ms", "ms", "lower"),
    ("compile_warm_disk_ms", "ms", "lower"),
    ("recompile_tail_ms", "ms", "lower"),
    ("recompile_shift_ms", "ms", "lower"),
    ("peac_instrs", "count", "lower"),
    ("serve_req_per_s", "1/s", "higher"),
    ("serve_open_p95_ms", "ms", "lower"),
    ("serve_max_rate_ok", "1/s", "higher"),
]

_COMPILE_LAYERS = (
    [("frontend.lex_ms", "ms", "lower"),
     ("frontend.parse_ms", "ms", "lower"),
     ("frontend.tokens", "count", "lower"),
     ("frontend.ast_nodes", "count", "lower"),
     ("lowering.lower_ms", "ms", "lower"),
     ("lowering.check_ms", "ms", "lower"),
     ("lowering.nir_nodes", "count", "lower"),
     ("transform.optimize_ms", "ms", "lower")]
    + [(f"transform.{p}_ms", "ms", "lower") for p in PASSES]
    + [("transform.nir_nodes_out", "count", "lower")]
    + [(f"backend.{t}_ms", "ms", "lower") for t in TARGETS]
    + [("backend.compute_blocks", "count", "lower"),
       ("backend.comm_phases", "count", "lower"),
       ("backend.serial_moves", "count", "lower"),
       ("backend.routines", "count", "lower"),
       ("driver.glue_ms", "ms", "lower"),
       ("analysis.verify_ms", "ms", "lower")])

_STORE_LAYERS = [
    ("store.put_ms", "ms", "lower"),
    ("store.get_ms", "ms", "lower"),
    ("store.head_ms", "ms", "lower"),
    ("store.bytes_written", "bytes", "lower"),
    ("store.objects", "count", "lower"),
    ("store.front_hits", "count", "higher"),
    ("store.pass_hits", "count", "higher"),
    ("store.phase_hits", "count", "higher"),
    ("store.backend_hits", "count", "higher"),
    ("cache.memo_hit_ms", "ms", "lower"),
    ("cache.disk_hit_ms", "ms", "lower"),
    ("cache.fill_ms", "ms", "lower"),
    ("cache.entry_bytes", "bytes", "lower"),
]

_RUN_LAYERS = (
    [(f"{name}.{c}", unit, "lower")
     for c in CONFIGS
     for name, unit in (("runtime.comm_ms", "ms"),
                        ("machine.kernel_ms", "ms"),
                        ("runtime.dispatch_ms", "ms"),
                        ("runtime.comm_us_per_call", "us"),
                        ("machine.kernel_us_per_dispatch", "us"),
                        ("machine.dispatches", "count"))]
    + [("runtime.comm_calls", "count", "lower"),
       ("runtime.comm_bytes", "bytes", "lower"),
       ("machine.megakernel_builds", "count", "lower"),
       ("machine.megakernel_hits", "count", "higher"),
       ("machine.stepwise_groups", "count", "lower"),
       ("machine.host_native_dispatches", "count", "higher"),
       ("machine.host_blocked_dispatches", "count", "lower"),
       ("machine.native_build_s", "s", "lower"),
       ("machine.sim_node_cycles", "cycles", "lower"),
       ("machine.sim_call_cycles", "cycles", "lower"),
       ("machine.sim_comm_cycles", "cycles", "lower"),
       ("machine.sim_host_cycles", "cycles", "lower"),
       ("machine.sim_flops", "count", "higher")])

_SERVE_LAYERS = (
    [("server.ping_rtt_ms", "ms", "lower"),
     ("pool.ping_rtt_ms", "ms", "lower"),
     ("pool.payload_rtt_ms", "ms", "lower"),
     ("jobs.inline_ms", "ms", "lower"),
     ("server.queue_wait_p50_ms", "ms", "lower"),
     ("server.queue_wait_p95_ms", "ms", "lower"),
     ("server.compile_p50_ms", "ms", "lower"),
     ("server.run_p50_ms", "ms", "lower"),
     ("server.singleflight_hit_rate", "%", "lower"),
     ("server.cache_hit_rate", "%", "higher"),
     ("server.rejected", "count", "lower"),
     ("server.queue_peak", "count", "lower"),
     ("server.response_bytes_p50", "bytes", "lower"),
     ("pool.jobs_dispatched", "count", "lower"),
     ("pool.affinity_hits", "count", "higher"),
     ("pool.worker_busy_share", "%", "higher")]
    + [(f"server.open_p95_ms.r{r}", "ms", "lower") for r in RATES]
    + [("loadgen.lateness_p95_ms", "ms", "lower")])

PER_LAYER = (_COMPILE_LAYERS + _STORE_LAYERS + _RUN_LAYERS + _SERVE_LAYERS
             + [("trace.overhead_pct", "%", "lower")] + NAMED_ROWS)

UNITS = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The contents of ``BENCHMARK.json``."""
    return {
        "command": COMMAND,
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
