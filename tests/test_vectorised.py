"""Vectorised native kernels: checked, not assumed.

The C printer states the alias probe's proof in every text: each slot
pointer is a ``restrict`` parameter of ``loop``, the read-only ones
``const`` (``docs/PIPELINE.md`` section 6, "Vectorisation").  Two things
are checked here.  GCC must report every element loop of every text the
corpus builds, one-core and split, as vectorised.  And the vector
bodies, with the scalar prologues and epilogues a short or ragged loop
runs, must leave the interpreter's bytes on the values where C and
numpy part most easily: NaN payloads, infinities, signed zeros,
subnormals and ``int32`` wraparound.

Which payload a commutative op returns when *both* operands are NaNs
with different payloads is left open by IEEE 754, and ``cc`` may
commute the operands; so in the value tests NaNs enter through one
array only, and an element never meets a NaN of another element.
"""

from __future__ import annotations

import math
import os
import re
import struct
import subprocess

import numpy as np
import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import ckernel
from repro.programs.kernels import ALL_KERNELS, heat_source, life_source
from repro.programs.swe import swe_source
from repro.targets import build_machine

from .test_ckernel_split import emitted

pytestmark = [
    pytest.mark.skipif(ckernel._compiler() is None, reason="no C compiler"),
    pytest.mark.usefixtures("eager_c"),
]


def _is_gcc() -> bool:
    cc = ckernel._compiler()
    return cc is not None and "Free Software Foundation" in subprocess.run(
        [cc, "--version"], capture_output=True, text=True).stdout


#: GCC 12 folds ``mod(k, 2) == 0`` to the low bit of ``k``, a one-bit
#: truth value its vectoriser has no vector type for ("type conversion
#: to/from bit-precision unsupported"): red-black's colour mask.  An
#: element loop that computes it is the one that may stay scalar.
PARITY = "% (2))"
#: How GCC says it vectorised a loop; a copy loop it replaces by a
#: library call instead.
VECTORISED = re.compile(r":(\d+):\d+: optimized: (?:loop vectorized"
                        r"|Loop \d+ distributed: split to 0 loops)")


#: A row loop's column segment with literal bounds; one of a single
#: column (a shift's wrap) is one element, and no vector.
SEGMENT = re.compile(r"for \(long i = o \+ (\d+); i < o \+ (\d+);")


def _element_loops(text: str) -> dict[int, str]:
    """Line number -> body of each element loop of a C text that runs
    more than one element."""
    lines = text.splitlines()
    loops = {}
    for k, line in enumerate(lines):
        segment = SEGMENT.search(line)
        if segment and int(segment[2]) - int(segment[1]) == 1:
            continue
        if "for (long i = " in line:
            depth = line.index("for")
            body = []
            for inner in lines[k + 1:]:
                if inner.startswith(" " * depth + "}"):
                    break
                body.append(inner)
            loops[k + 1] = "\n".join(body)
    return loops


@pytest.mark.skipif(not _is_gcc(), reason="vectoriser report is GCC's")
def test_every_element_loop_is_vectorised(monkeypatch, tmp_path):
    sources = [generate() for generate in ALL_KERNELS.values()]
    sources += [heat_source(32, 3), life_source(32, 3), swe_source(32, 3)]
    got = emitted(monkeypatch, sources, [("one_core", 0, math.inf),
                                         ("split", 0, 0)])
    texts = [text for name in ("one_core", "split") for text in got[name]]
    assert any("pthread" in text for text in texts)
    assert any("pthread" not in text for text in texts)
    scalar = []
    for j, text in enumerate(texts):
        path = os.path.join(tmp_path, f"k{j}.c")
        with open(path, "w") as f:
            f.write(text)
        report = subprocess.run(
            [ckernel._compiler(), *ckernel._CFLAGS, "-pthread",
             "-fopt-info-vec-optimized", "-fopt-info-loop-optimized",
             "-o", os.devnull, path, "-lm"], capture_output=True, text=True)
        assert report.returncode == 0, report.stderr
        done = {int(m.group(1)) for m in VECTORISED.finditer(report.stderr)}
        loops = _element_loops(text)
        assert loops, text
        scalar += [f"{path}:{line}\n{text}" for line, body in loops.items()
                   if line not in done and PARITY not in body]
    assert not scalar, scalar[0]


# -- edge values through the vector bodies ------------------------------------


def _f64(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: NaNs with payloads of both signs (one signalling), then what every
#: array may hold: the infinities, both zeros, subnormals, the extremes.
NANS = [_f64(0x7FF8000000000123), _f64(0xFFF80000000ABCDE),
        _f64(0x7FF0000000000001)]
FLOATS = [math.inf, -math.inf, -0.0, 0.0, 5e-324, -2.5e-310,
          1.7976931348623157e308, -2.0, 0.75, 3.0, 0.1]
INTS = [-2**31, 2**31 - 1, -1, 0, 1, 3, -7, 2**30, 46341]

BODY = """\
do k = 1, 3
  c = (a + b) * a - b / a
  d = sqrt(abs(b)) - (-a) + cshift(b, 1, {d1})
  m = ((a < b) .and. .not. (a == b)) .or. (c >= d) .or. &
      (cshift(b, -1, {d2}) /= b)
  e = merge(a, b, m) * (-cshift(b, -1, {d2}))
  f = abs(a) * abs(a) - b
  r = p + q * p - q
  s = abs(p) * 3 - cshift(r, 1, {d2}) - (-q)
end do
end
"""

#: Lengths a vector does not divide, and rows of one to three columns
#: (and of seven) under shifts along either axis.
SHAPES = [(1,), (2,), (3,), (5,), (17,), (7, 1), (7, 2), (7, 3), (1, 7),
          (2, 7), (3, 7)]


def _source(shape) -> str:
    ext = ",".join(map(str, shape))
    return (f"double precision a({ext}), b({ext}), c({ext}), d({ext}), "
            f"e({ext}), f({ext})\n"
            f"integer p({ext}), q({ext}), r({ext}), s({ext})\n"
            f"logical m({ext})\ninteger k\n"
            + BODY.format(d1=1, d2=len(shape)))


def _fill(pool, n, offset, dtype) -> np.ndarray:
    return np.array([pool[(offset + j) % len(pool)] for j in range(n)],
                    dtype=dtype)


@pytest.mark.parametrize("split_min", [0, None], ids=["split", "rule"])
@pytest.mark.parametrize("shape", SHAPES, ids=str)
def test_edge_values_leave_the_interpreters_bytes(shape, split_min,
                                                  monkeypatch):
    if split_min is not None:
        monkeypatch.setattr(ckernel, "_SPLIT_MIN", split_min)
        monkeypatch.setattr(ckernel, "_THREADS", 3)
    n = math.prod(shape)
    exe = compile_source(_source(shape), CompilerOptions(target="cm2"))
    for offset in range(0, len(FLOATS) + len(NANS), n):
        inputs = {"a": _fill(NANS + FLOATS, n, offset, np.float64),
                  "b": _fill(FLOATS, n, offset + 4, np.float64),
                  "p": _fill(INTS, n, offset, np.int32),
                  "q": _fill(INTS, n, offset + 5, np.int32)}
        inputs = {name: v.reshape(shape) for name, v in inputs.items()}
        want = exe.run(machine=build_machine("cm2", exec_mode="interp"),
                       inputs=inputs)
        for mode in ("fast", "fused"):
            machine = build_machine("cm2", exec_mode=mode)
            got = exe.run(machine=machine, inputs=inputs)
            where = f"{mode} offset {offset}"
            assert machine.fusion_summary()["declined"] == {
                "c": {}, "blocked": {}}, where
            assert any(record.launch.kern.native
                       for record in machine._launches.values()), where
            for name, data in want.arrays.items():
                assert got.arrays[name].tobytes() == data.tobytes(), \
                    f"{where}: {name}"
