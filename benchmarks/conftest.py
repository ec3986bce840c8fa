"""Shared helpers for the experiment benchmarks.

Each benchmark regenerates one table/figure of the paper (see the
per-experiment index in DESIGN.md).  The *simulated* numbers — GFLOPS,
cycle counts, instruction counts — are the experiment results; they are
attached to ``benchmark.extra_info`` and printed as paper-vs-measured
rows.  Run them with ``--benchmark-disable``: the harness's wall-clock
figures (the "prototyping turnaround" claim) come from ``python3 -m
bench.run``.
"""

from __future__ import annotations

import os

import pytest

# Grid size for the SWE experiments.  512 keeps the full suite fast;
# REPRO_SWE_N=1024 reproduces the CM-scale numbers quoted in
# EXPERIMENTS.md (front-end overheads amortize further).
SWE_N = int(os.environ.get("REPRO_SWE_N", "512"))
SWE_STEPS = int(os.environ.get("REPRO_SWE_STEPS", "2"))


def record(benchmark, **info):
    """Attach experiment results to the benchmark record and echo them."""
    for key, value in info.items():
        benchmark.extra_info[key] = value
    print()
    width = max(len(k) for k in info)
    for key, value in info.items():
        if isinstance(value, float):
            print(f"    {key:<{width}} = {value:.3f}")
        else:
            print(f"    {key:<{width}} = {value}")


@pytest.fixture
def swe_grid():
    return SWE_N, SWE_STEPS
