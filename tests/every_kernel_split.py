"""A pytest plugin that splits every C kernel across three threads.

Tier-1 programs are far below ``ckernel._SPLIT_MIN``, so left to the
rule the emitter equivalence modules check only the one-core loop.
Passed with ``-p``, this plugin drops the threshold to 0 and the thread
count to 3 (no range divides evenly) before any test runs::

    PYTHONPATH=src python -m pytest -p tests.every_kernel_split \\
        tests/test_shift_fold.py tests/test_execplan.py tests/test_plan.py \\
        tests/test_tier_up.py tests/test_trip_records.py

It is a test fixture, not a product switch: nothing but a test run
imports it.
"""

from __future__ import annotations

from repro.machine import ckernel


def pytest_configure(config) -> None:
    ckernel._SPLIT_MIN = 0
    ckernel._THREADS = 3
