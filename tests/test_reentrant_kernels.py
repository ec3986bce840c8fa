"""Blocked kernels are reentrant: two threads may launch one at once.

A blocked kernel is cached process-wide and shared by every machine and
every caller; each running call takes a buffer set of its own — block
buffers, and the gathers of shifted operands laid out over them — from
the kernel's free list, and a one-axis subtree's vectors are locals of
the call (``docs/PIPELINE.md`` section 6).  The service's inline pool
runs jobs on threads, and a compile-cache hit hands them one
``Executable``: its runs must leave the interpreter's bytes whichever
thread runs them.
"""

from __future__ import annotations

import hashlib
import sys
import threading
from collections import OrderedDict

import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import execplan
from repro.machine import kernel as blocked
from repro.machine.kernel import SlotTable
from repro.programs.kernels import heat_source
from repro.programs.swe import swe_source
from repro.targets import build_machine


@pytest.fixture(autouse=True)
def busy_switching(monkeypatch):
    """No kernel built before is reused, and the interpreter hands the
    GIL over every microsecond, so threads interleave inside one kernel
    call."""
    monkeypatch.setattr(execplan, "_MEGA_KERNELS", OrderedDict())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(interval)


def digest(arrays) -> str:
    blob = hashlib.sha256()
    for name in sorted(arrays):
        blob.update(name.encode() + arrays[name].tobytes())
    return blob.hexdigest()


def together(work, args) -> None:
    """Run ``work(arg)`` for each of ``args`` on threads of its own,
    released at once."""
    gate = threading.Barrier(len(args))
    errors: list = []

    def worker(arg):
        gate.wait()
        try:
            work(arg)
        except BaseException as error:     # pragma: no cover - reported
            errors.append(error)

    threads = [threading.Thread(target=worker, args=(arg,)) for arg in args]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    assert not errors, errors


def _private(S) -> SlotTable:
    """Copies of a launch's operands, one per distinct address, so the
    slots that alias still alias."""
    copies: dict = {}
    return SlotTable([copies.setdefault(a.ctypes.data, a.copy()) for a in S])


def test_two_threads_launch_one_blocked_kernel_at_once(monkeypatch):
    """The blocked twin of the split kernel's test: a staged kernel
    with gathered shifted operands, never tiered up, on three threads
    (more than a two-core host runs at once)."""
    monkeypatch.setattr(blocked, "_TIER_UP", float("inf"))
    machine = build_machine("cm2", exec_mode="fast")
    compile_source(heat_source(128, 6)).run(machine=machine)
    record = next(record for record in machine._launches.values()
                  if record.launch.kern.staged)
    launch = record.launch
    assert not launch.kern.native

    def steps(S):
        for _ in range(40):
            launch.kern(S, record.X, launch.n)
        return S

    alone = steps(_private(launch.S))
    tables = [_private(launch.S) for _ in range(3)]
    together(steps, tables)
    for S in tables:
        assert [a.tobytes() for a in S] == [a.tobytes() for a in alone]


CONFIGS = (("cm2", "fast"), ("cm2", "fused"), ("host", "fused"))
SOURCES = {"swe": swe_source(n=128, itmax=4), "heat": heat_source(128, 6)}


@pytest.mark.parametrize("cc", ["default", "0"])
@pytest.mark.parametrize("target,mode", CONFIGS)
@pytest.mark.parametrize("name", sorted(SOURCES))
def test_one_executable_shared_by_two_threads(name, target, mode, cc,
                                              monkeypatch):
    """As a compile-cache hit hands it to the inline pool's threads."""
    if cc == "0":
        monkeypatch.setenv("REPRO_FUSED_CC", "0")
    source = SOURCES[name]
    want = digest(compile_source(source).run(
        machine=build_machine("cm2", exec_mode="interp")).arrays)
    exe = compile_source(source, CompilerOptions(target=target))
    # One run first, so every signature has had its first trip on the
    # oracle and no thread races another to it.
    exe.run(machine=build_machine(target, exec_mode=mode))
    got: list = []

    def runs(_):
        for _ in range(6):
            got.append(digest(exe.run(
                machine=build_machine(target, exec_mode=mode)).arrays))

    together(runs, range(2))
    assert got == [want] * 12
