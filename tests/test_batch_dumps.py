"""The dumps show what runs: the batches ``--emit host`` lists are the
batches a ``fused`` run dispatches.

:func:`~repro.runtime.host.format_host_program` prints a ``flush`` line
where each batch of node calls ends, and a loop's ``first trip`` where
that trip ends its batches elsewhere than the others.  Over the corpus,
the flat sequence of batches one ``fused`` run hands to
``Machine.call_fused`` (``test_batches``) must be a path through that
text alone — a branch either way at each ``if``, a loop's first trip and
then its others — ending with nothing pending, on cm2 and host.  The
SPARC rendering dispatches each batch at a ``_CMPE_flush``.
"""

from __future__ import annotations

import re

import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.runtime.host import format_host_program
from repro.runtime.sparc import render_sparc

from .test_batches import PROGRAMS, TARGETS, batches

_LOOP = re.compile(r"for \w+ = (-?\d+), (-?\d+), (-?\d+):$")
_CALL = re.compile(r"call_pe (\w+)\(")


def _tree(lines: list[str], at: int, depth: int) -> tuple[list, int]:
    """The ops of the block indented ``depth`` levels from ``lines[at]``,
    ``(text, children)`` each, and where the block ends."""
    ops: list = []
    while at < len(lines):
        line = lines[at]
        if (len(line) - len(line.lstrip())) // 2 < depth:
            break
        children, at = _tree(lines, at + 1, depth + 1)
        ops.append((line.strip(), children))
    return ops, at


def _walk(ops, states: set, seen: tuple) -> set:
    """``(batches of seen matched, calls pending)`` after ``ops`` from
    any of ``states``: a ``flush`` must end the next batch of ``seen``."""
    ops = list(ops)
    while ops and states:
        text, children = ops.pop(0)
        call = _CALL.match(text)
        loop = _LOOP.match(text)
        if call:
            states = {(k, pending + (call.group(1),))
                      for k, pending in states}
        elif text == "flush":
            states = {(k + bool(pending), ()) for k, pending in states
                      if not pending or seen[k:k + 1] == (pending,)}
        elif loop:
            lo, hi, step = map(int, loop.groups())
            trips = len(range(lo, hi + (1 if step > 0 else -1), step))
            parts = dict(children)
            body = parts.get("other trips:", children)
            for trip in range(trips):
                states = _walk(parts.get("first trip:", body) if trip == 0
                               else body, states, seen)
        elif text.startswith("while "):
            reached, trip = set(states), states
            while trip:
                trip = _walk(children, trip, seen) - reached
                reached |= trip
            states = reached
        elif text.startswith("if "):
            els = ops.pop(0)[1] if ops and ops[0][0] == "else:" else []
            states = (_walk(children, states, seen)
                      | _walk(els, states, seen))
    return states


def lists(program, seen: tuple) -> bool:
    """Whether the host dump of ``program`` has a path that dispatches
    the batches ``seen``, in order, and leaves nothing pending."""
    lines = format_host_program(program).splitlines()[1:]
    ops, _ = _tree(lines, 0, 1)
    return (len(seen), ()) in _walk(ops, {(0, ())}, seen)


@pytest.mark.parametrize("target", TARGETS)
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_the_host_dump_lists_the_batches_a_run_dispatches(program, target):
    exe = compile_source(PROGRAMS[program](), CompilerOptions(target=target),
                         cache=False, incremental=False)
    seen = batches(program, target)
    assert lists(exe.host_program, seen)
    # Not any path: one batch dropped or split is none.
    assert not lists(exe.host_program, seen[:-1])
    text = format_host_program(exe.host_program)
    assert (render_sparc(exe.host_program).count("call _CMPE_flush")
            == [line.strip() for line in text.splitlines()].count("flush"))
