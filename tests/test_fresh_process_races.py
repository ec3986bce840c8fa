"""The thread-race test of ``test_trip_records.py`` in fresh processes.

Three threads run one executable on machines of their own.  Inside a
long tier-1 session every process-wide table (plans, kernels, launch
templates, coordinate arrays) is already warm, which hides first-use
races; a process no other test has touched makes the threads race to
build every first one.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RACING = "tests/test_trip_records.py::test_threads_bind_one_executable_at_once"


@pytest.mark.parametrize("config", ("fast", "fused", "host"))
def test_threads_bind_one_executable_in_a_fresh_process(config):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         f"{RACING}[{config}]"], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:]
