"""Pins of the batches a ``fused`` run dispatches.

Under ``fused`` the host executor hands adjacent node calls to
:meth:`~repro.machine.cm2.Machine.call_fused` as one batch.  These tests
record, for one run of each program on cm2 and on host, the flat
sequence of those batches as routine names: the twelve programs of
``test_dispatch_pins`` at its sizes, and swe/heat/life at 32² for 40
steps.  Every loop is declined a trip record (``host._TRIP_MIN`` above
any trip count), so every batch reaches ``call_fused``.

Which calls form one batch sets the simulated cycles (a fused group is
charged as one node call), so a change to where batches end must leave
every sequence here as it was.
"""

from __future__ import annotations

import functools
import hashlib
import json

import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import Machine
from repro.programs.kernels import ALL_KERNELS, heat_source, life_source
from repro.programs.swe import swe_source
from repro.runtime import host
from repro.targets import build_machine

PROGRAMS = {**ALL_KERNELS, "swe": lambda: swe_source(32, 8),
            "swe40": lambda: swe_source(32, 40),
            "heat40": lambda: heat_source(32, 40),
            "life40": lambda: life_source(32, 40)}
TARGETS = ("cm2", "host")


@functools.lru_cache(maxsize=None)
def batches(program: str, target: str) -> tuple[tuple[str, ...], ...]:
    """The routine names of every ``call_fused`` batch of one ``fused``
    run of ``program``, in order."""
    exe = compile_source(PROGRAMS[program](), CompilerOptions(target=target),
                         cache=False, incremental=False)
    seen: list = []
    inner = Machine.call_fused

    def recorded(machine, calls, site=None):
        seen.append(tuple(call[0].name for call in calls))
        return inner(machine, calls, site)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Machine, "call_fused", recorded)
        patch.setattr(host, "_TRIP_MIN", 10 ** 9)
        exe.run(machine=build_machine(target, exec_mode="fused"))
    return tuple(seen)


def _digest(seq) -> str:
    return hashlib.sha256(json.dumps(seq).encode()).hexdigest()[:16]


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_batches_are_pinned(program, target):
    seq = batches(program, target)
    assert (len(seq), _digest(seq)) == BATCHES[program]


@pytest.mark.parametrize("target", TARGETS)
def test_swe_batches_span_the_prologue_and_the_branch(target):
    """SWE's two batches that are not straight-line code: the
    prologue's calls join trip 0's first two, and every trip's last
    batch spans the ``IF`` (else branch ``Pk11`` on trip 0, then branch
    ``Pk10`` after).  Four calls is the longest batch any program
    forms."""
    seq = batches("swe", target)
    assert seq[:6] == (
        ("Pk1vs1",), ("Pk2vs1", "Pk3vs1", "Pk4vs1", "Pk5vs1"),
        ("Pk6vs1", "Pk7vs1"), ("Pk8vs1", "Pk9vs1", "Pk11vs1", "Pk12vs1"),
        ("Pk4vs1", "Pk5vs1", "Pk6vs1", "Pk7vs1"),
        ("Pk8vs1", "Pk9vs1", "Pk10vs1", "Pk12vs1"))
    assert set(seq[6:]) == set(seq[4:6])
    assert max(len(batch) for program in PROGRAMS
               for batch in batches(program, target)) == 4


#: (batches, sha256 prefix of their names) per program; cm2 and host
#: form the same batches.
BATCHES = {
    "blocking": (1, "6a99cb0be391e2b8"),
    "cg": (13, "17983ce8728d5a41"),
    "deck": (1, "f52b7da90ce7136d"),
    "forall": (1, "6a99cb0be391e2b8"),
    "heat": (5, "98626897ce8990ba"),
    "heat40": (41, "7cdc1b3f258ee5d7"),
    "life": (3, "ce8b167156896e92"),
    "life40": (41, "7cdc1b3f258ee5d7"),
    "matmul": (3, "eeda446f72cdc8d0"),
    "redblack": (5, "91631eb347dbb818"),
    "reduction": (2, "ff8f03b0130b0e6b"),
    "saxpy": (1, "6a99cb0be391e2b8"),
    "swe": (18, "c9b26b2883edf980"),
    "swe40": (82, "f8c686bd5ee7efef"),
    "where": (1, "f52b7da90ce7136d"),
}
