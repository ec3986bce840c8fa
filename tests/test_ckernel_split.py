"""Native kernels split across cores: the same bytes as one core.

A C kernel over at least ``ckernel._SPLIT_MIN`` elements runs its loop,
and then its staged copy-back, as a pthreads fork/join over contiguous
ranges (``docs/PIPELINE.md`` section 6, "Splitting a kernel across
cores").  Here every kernel splits, over three threads so that no range
divides evenly, and every engine must leave the interpreter's bytes.
Below the threshold the emitted text must be the one-core text, byte
for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import multiprocessing
import threading
from collections import OrderedDict

import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import ckernel, execplan
from repro.machine import kernel as blocked
from repro.machine.kernel import SlotTable
from repro.programs.kernels import (ALL_KERNELS, blocking_source,
                                    forall_source, heat_source, life_source,
                                    redblack_source, saxpy_source)
from repro.programs.swe import swe_source
from repro.targets import build_machine

from .test_shift_fold import CASES, HEAD, INIT

pytestmark = [
    pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler"),
    pytest.mark.usefixtures("eager_c", "split"),
]

THREADS = 3


@pytest.fixture(scope="module")
def split():
    """Every C kernel splits, over ``THREADS`` threads; no kernel built
    before is reused.  Yields the rule's own threshold."""
    with pytest.MonkeyPatch.context() as patch:
        threshold = ckernel._SPLIT_MIN
        patch.setattr(ckernel, "_SPLIT_MIN", 0)
        patch.setattr(ckernel, "_THREADS", THREADS)
        patch.setattr(execplan, "_MEGA_KERNELS", OrderedDict())
        yield threshold


def digest(arrays) -> str:
    blob = hashlib.sha256()
    for name in sorted(arrays):
        blob.update(name.encode() + arrays[name].tobytes())
    return blob.hexdigest()


def check(src: str, targets=("cm2", "host")) -> int:
    """``fast`` and ``fused`` leave ``interp``'s bytes on every target;
    returns the split C entries the compared runs met."""
    split = 0
    for target in targets:
        exe = compile_source(src, CompilerOptions(target=target))
        want = exe.run(machine=build_machine(target, exec_mode="interp"))
        exe.run(machine=build_machine(target, exec_mode="fast"))  # records
        for mode in ("fast", "fused"):
            got = exe.run(machine=build_machine(target, exec_mode=mode))
            where = f"{target}/{mode}"
            assert got.output == want.output, where
            assert got.scalars == want.scalars, where
            for name, data in want.arrays.items():
                assert got.arrays[name].dtype == data.dtype, where
                assert got.arrays[name].tobytes() == data.tobytes(), \
                    f"{where}: {name}"
            split += got.machine.fusion_summary()["native_split"]
    return split


# -- loops ------------------------------------------------------------------

#: The same heads with extents no thread count divides: 7 rows, 20 rows
#: of 7 (leading axes 4 x 5), and one row of 7 (fewer rows than threads).
UNEVEN = {rank: head.replace("6", "7").replace("4,3,5", "4,5,7")
          .replace("j=1:3, l=1:5", "j=1:5, l=1:7")
          for rank, head in HEAD.items()}


@pytest.mark.parametrize("ty", ["double precision", "integer"])
@pytest.mark.parametrize("case", sorted(CASES))
def test_shift_shape_splits_to_the_same_bytes(case, ty):
    """The twelve shift shapes as row loops, staged or not."""
    rank, body = CASES[case]
    for head in (HEAD, UNEVEN):
        src = head[rank].format(ty=ty) + INIT + body + "end\n"
        assert check(src) > 0, src


@pytest.mark.parametrize("ty", ["double precision", "integer"])
@pytest.mark.parametrize("extents", ["7", "7,5", "4,5,7", "2"])
def test_flat_loop_splits_to_the_same_bytes(extents, ty):
    """No shifted operand: an element loop, split by elements (two
    elements over three threads leaves one slice empty)."""
    rank = extents.count(",") + 1
    idx = ", ".join(f"i{d}=1:{e}" for d, e in enumerate(extents.split(",")))
    terms = " + ".join(f"i{d} * {d + 3}" for d in range(rank))
    src = (f"{ty} a({extents}), b({extents})\ninteger k\n"
           f"forall ({idx}) a({', '.join(f'i{d}' for d in range(rank))})"
           f" = mod({terms}, 11)\n"
           "do k = 1, 3\n  b = a * 3 - b\n  a = b + a * 2\nend do\nend\n")
    assert check(src) > 0


def test_logical_streams_split_to_the_same_bytes():
    """LOGICAL arrays (``int32`` streams) through comparisons, ``.and.``,
    ``.or.`` and ``.not.`` (``bool`` values), read in place and
    staged."""
    src = ("logical m(7,5), p(7,5)\ndouble precision a(7,5)\ninteger k\n"
           "forall (i=1:7, j=1:5) a(i,j) = mod(i*7 + j*3, 11)\n"
           "m = a > 4\np = .not. m\n"
           "do k = 1, 3\n"
           "  p = (m .and. .not. cshift(m, 1, 1)) .or. cshift(p, -1, 2)\n"
           "  m = p .and. (a > 2)\n"
           "  m = m .or. cshift(m, 1, 2)\n"
           "end do\nend\n")
    assert check(src) > 0


@pytest.mark.parametrize("program", ["heat", "life", "swe"])
def test_staged_updates_split_to_the_same_bytes(program):
    """Heat and life store to the array their stencil reads in place:
    the store is staged and copied back once every slice is done."""
    generate = {"heat": heat_source, "life": life_source,
                "swe": swe_source}[program]
    for n in (7, 16):
        assert check(generate(n, 3)) > 0


#: A loop that stores an array it reads only through a shift: the store
#: is staged, and the copy-back is the only line of the text that names
#: the array's own slot.
STORED_THROUGH_A_SHIFT = (
    "double precision a(16,16), b(16,16), s\ninteger k\n"
    "forall (i=1:16, j=1:16) a(i,j) = mod(i*7 + j*3, 11)\n"
    "forall (i=1:16, j=1:16) b(i,j) = mod(i*5 + j*2, 13)\n"
    "s = 0.25d0\ndo k = 1, 3\n"
    "  b = a * 0.5d0 + cshift(b, shift=-1, dim=1) * s\nend do\nend\n")


@pytest.mark.parametrize("threads", [1, THREADS])
def test_a_store_read_only_through_a_shift_builds(split, monkeypatch,
                                                  threads):
    if threads == 1:
        monkeypatch.setattr(ckernel, "_SPLIT_MIN", split)
    monkeypatch.setattr(execplan, "_MEGA_KERNELS", OrderedDict())
    exe = compile_source(STORED_THROUGH_A_SHIFT)
    want = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for mode in ("fast", "fused"):
        machine = build_machine("cm2", exec_mode=mode)
        got = exe.run(machine=machine)
        assert machine.fusion_summary()["declined"] == {"c": {},
                                                        "blocked": {}}
        assert _threads(machine) == {threads}, mode
        assert digest(got.arrays) == digest(want.arrays), mode


def test_fewer_rows_than_threads():
    """Two rows of a staged stencil: one slice of the row loop is
    empty, and the copy-back still covers every element."""
    src = ("double precision a(2,9), b(2,9)\ninteger k\n"
           "forall (i=1:2, j=1:9) a(i,j) = mod(i*7 + j*3, 11)\n"
           "do k = 1, 3\n  b = a + cshift(a, 1, 2) - cshift(a, -2, 2)\n"
           "  a = b * 0.5d0 + cshift(a, 1, 1)\nend do\nend\n")
    assert check(src) > 0


# -- the threshold, and what a run says about it ------------------------------

#: The sha256 of the sorted C texts that ``ONE_CORE_SOURCES`` build below
#: the threshold: nothing of the split text may leak into them.
ONE_CORE_TEXTS = (
    "754bdc3a6fbb25111f31c046d11bd915784aa086c42177a5ae58533bc7fb13b5")
ONE_CORE_SOURCES = (heat_source(32, 3), life_source(32, 3), swe_source(32, 3),
                    redblack_source(32, 2), forall_source(32),
                    blocking_source(32), saxpy_source(4096))

#: The sha256 of everything the kernel emitters say over the corpus —
#: every kernel program at its default size, and heat, life and SWE at
#: 32²: the blocked kernels' sources under the tier-up rule, the C texts
#: with every kernel hot at birth on one core and split over
#: ``THREADS``, and each run's ``declined`` summary.  No refactoring of
#: the emitters may move a byte of them.
EMITTED = {
    "blocked":
        "03fcb4159eda03b55ecd9e409e378c748a893959c6cae743981f352a7f42170c",
    "one_core":
        "aba86897001a78bc88ff841804d2ed1e1360d031982873916df1ad8202102766",
    "split":
        "781424c3975189e8878b795e9a6793c5110daffadf19b133aecbc917e0b61d65",
    "declined":
        "7daf6c01d11901a037fc7703858d1071f06c99b79e2c61624448e35a4f8d690e",
}


def emitted(monkeypatch, sources, passes) -> dict[str, list[str]]:
    """What the kernel emitters say over ``sources`` on cm2 ``fast``/
    ``fused`` and host ``fused``, each run twice, in each pass ``(name,
    tier-up budget, split threshold)`` on fresh kernel and text caches:
    the sorted blocked sources (pass ``"blocked"``) or C texts, and
    every run's ``declined`` in order."""
    got: dict[str, list[str]] = {"declined": []}
    for name, budget, split_min in passes:
        monkeypatch.setattr(blocked, "_TIER_UP", budget)
        monkeypatch.setattr(ckernel, "_SPLIT_MIN", split_min)
        monkeypatch.setattr(ckernel, "_THREADS", THREADS)
        monkeypatch.setattr(ckernel, "_SO_CACHE", {})
        monkeypatch.setattr(execplan, "_MEGA_KERNELS", OrderedDict())
        blocked_sources: set[str] = set()
        for src in sources:
            for target, modes in (("cm2", ("fast", "fused")),
                                  ("host", ("fused",))):
                exe = compile_source(src, CompilerOptions(target=target))
                for mode in modes:
                    for _ in range(2):
                        machine = build_machine(target, exec_mode=mode)
                        exe.run(machine=machine)
                        got["declined"].append(json.dumps(
                            machine.fusion_summary()["declined"],
                            sort_keys=True))
                        blocked_sources.update(
                            kern.source
                            for kern in execplan._MEGA_KERNELS.values()
                            if not kern.native and hasattr(kern, "source"))
        got[name] = sorted(blocked_sources if name == "blocked"
                           else ckernel._SO_CACHE)
    return got


def _sha(lines) -> str:
    return hashlib.sha256("\0".join(lines).encode()).hexdigest()


def test_below_the_threshold_the_text_is_the_one_core_text(split, monkeypatch):
    texts = emitted(monkeypatch, ONE_CORE_SOURCES,
                    [("one_core", 0, split)])["one_core"]
    assert texts and not any("pthread" in text for text in texts)
    assert _sha(texts) == ONE_CORE_TEXTS


def test_every_emitted_text_is_pinned(eager_c, monkeypatch):
    sources = [generate() for generate in ALL_KERNELS.values()]
    sources += [heat_source(32, 3), life_source(32, 3), swe_source(32, 3)]
    got = emitted(monkeypatch, sources, [("blocked", eager_c, math.inf),
                                         ("one_core", 0, math.inf),
                                         ("split", 0, 0)])
    assert {key: _sha(lines) for key, lines in got.items()} == EMITTED


def _threads(machine) -> set[int]:
    return {record.launch.kern.threads
            for record in machine._launches.values()
            if record.launch.kern.native}


def test_a_512_grid_splits_and_says_so(split, monkeypatch):
    monkeypatch.setattr(ckernel, "_SPLIT_MIN", split)
    exe = compile_source(heat_source(512, 3))
    want = exe.run(machine=build_machine("cm2", exec_mode="interp"))
    for mode in ("fast", "fused"):
        got = exe.run(machine=build_machine("cm2", exec_mode=mode))
        assert got.machine.fusion_summary()["native_split"] > 0, mode
        assert _threads(got.machine) == {THREADS}, mode
        assert digest(got.arrays) == digest(want.arrays), mode
    small = compile_source(heat_source(32, 3)).run(
        machine=build_machine("cm2", exec_mode="fast"))
    assert small.machine.fusion_summary()["native_split"] == 0
    assert _threads(small.machine) == {1}


# -- no thread outlives a launch ----------------------------------------------


def _launch_record(src: str):
    """A steady-state launch of a split, staged kernel from one run."""
    machine = build_machine("cm2", exec_mode="fast")
    compile_source(src).run(machine=machine)
    for record in machine._launches.values():
        kern = record.launch.kern
        if kern.native and kern.threads == THREADS and kern.staged:
            return record
    raise AssertionError("no split staged kernel")


def _private(S) -> SlotTable:
    """Copies of a launch's operands, one per distinct address, so the
    slots that alias still alias."""
    copies: dict = {}
    return SlotTable([copies.setdefault(a.ctypes.data, a.copy()) for a in S])


def test_two_threads_launch_one_split_kernel_at_once():
    record = _launch_record(heat_source(16, 20))
    launch = record.launch

    def steps(S):
        for _ in range(40):
            launch.kern(S, record.X, launch.n)
        return S

    alone = steps(_private(launch.S))
    tables = [_private(launch.S) for _ in range(2)]
    gate = threading.Barrier(2)

    def worker(S):
        gate.wait()
        steps(S)

    threads = [threading.Thread(target=worker, args=(S,)) for S in tables]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
        assert not thread.is_alive()
    for S in tables:
        assert [a.tobytes() for a in S] == [a.tobytes() for a in alone]


def _child(conn, sources) -> None:
    conn.send([digest(compile_source(src).run(
        machine=build_machine("cm2", exec_mode="fast")).arrays)
        for src in sources])
    conn.close()


def test_a_fork_after_a_split_kernel_runs_split_kernels():
    """The parent runs split kernels, then forks: the child runs the
    kernel it inherited and builds one of its own, and exits."""
    sources = (heat_source(16, 6), life_source(11, 6))
    want = [digest(compile_source(src).run(
        machine=build_machine("cm2", exec_mode="interp")).arrays)
        for src in sources]
    record = _launch_record(sources[0])     # a split kernel ran here
    assert record.launch.kern.threads == THREADS
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_child, args=(send, sources))
    child.start()
    send.close()
    try:
        assert recv.poll(120), "the forked child hung"
        assert recv.recv() == want
        child.join(60)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
            child.join()
