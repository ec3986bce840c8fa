"""Smoke test of the benchmark itself: ``pytest bench/tests``.

Not collected by tier-1 (``pyproject.toml`` pins ``testpaths`` to
``tests``).  Two ``--quick`` runs with one seed: each must finish inside
a minute with every named metric present, both must generate the same
workloads, and the counts that have to repeat exactly must.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
sys.path.insert(0, ROOT)

from bench import compare  # noqa: E402
from bench.metrics import (END_TO_END, PER_LAYER, UNITS,  # noqa: E402
                           WORKLOADS, benchmark_json)

QUICK_LIMIT_S = 60.0


def _quick(path: str) -> tuple[dict, float]:
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, "-m", "bench.run", "--quick", "--seed", "7",
         "--out", path], cwd=ROOT, capture_output=True, text=True)
    seconds = time.perf_counter() - t0
    assert out.returncode == 0, out.stdout[-2000:] + out.stderr[-2000:]
    with open(path) as f:
        return json.load(f), seconds


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("bench")
    paths = [str(base / "a.json"), str(base / "b.json")]
    return [(*_quick(path), path) for path in paths]


def _by_workload(results: dict) -> dict:
    return {r["workload"]: r for r in results["records"]}


def test_benchmark_json_is_the_vocabulary():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        assert json.load(f) == benchmark_json()


def test_quick_finishes_inside_a_minute(two_runs):
    for _results, seconds, _path in two_runs:
        assert seconds < QUICK_LIMIT_S


def test_every_named_metric_is_present_with_a_unit(two_runs):
    records = _by_workload(two_runs[0][0])
    assert list(records) == [name for name, _ in WORKLOADS]
    for record in records.values():
        assert record["failed"] == 0 and record["attempted"] > 0
        for name, *_ in END_TO_END:
            assert record["end_to_end"][name] > 0 and UNITS[name]
        for name, *_ in PER_LAYER:
            assert name in record["per_layer"] and UNITS[name]
        assert record["provenance"]["cc"] and record["why"]


def test_one_seed_generates_identical_workloads(two_runs):
    a, b = (_by_workload(run[0]) for run in two_runs)
    for name in a:
        assert a[name]["inputs_digest"] == b[name]["inputs_digest"]


def test_exact_rows_repeat(two_runs):
    a, b = (_by_workload(run[0]) for run in two_runs)
    for name in a:
        for row in compare.EXACT:
            assert a[name]["named"].get(row) == b[name]["named"].get(row)
    assert a["grid512"]["named"]["sim_cycles_total"] > 0
    assert a["compile_corpus"]["named"]["peac_instrs"] > 0


def test_compare_reads_both_sets(two_runs):
    rows, _bad = compare.compare(compare.load(two_runs[0][2]),
                                 compare.load(two_runs[1][2]))
    verdicts = {row[-1].split()[0] for row in rows}
    assert verdicts <= {"ok", "unresolved", "worse"}   # never "changed"
    assert len(rows) >= len(WORKLOADS) * len(END_TO_END)
