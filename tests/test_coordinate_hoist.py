"""One-axis subtrees: evaluated once per coordinate, the same bytes.

The blocked printer evaluates an op whose stream operands all read one
axis's coordinate slots (``local_under`` arrays, bound from ``coord``
parameters), directly or through such ops, once per launch over that
axis's distinct coordinates, and broadcasts the subtree's roots into
their blocks (``docs/PIPELINE.md`` section 6, "One-axis subtrees").
Every element still meets the same operands and ops, so every engine
must leave the interpreter's bytes, and each case says, through the
kernels it built (``kernel.hoists``), on which axes the hoist fired.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict

import numpy as np
import pytest

from repro.driver.compiler import CompilerOptions, compile_source
from repro.machine import execplan
from repro.machine.geometry import coordinate_axis, shared_coordinate_array
from repro.targets import build_machine

CONFIGS = (("cm2", "fast"), ("cm2", "fused"), ("host", "fused"))


@pytest.fixture(autouse=True)
def fresh_kernels(monkeypatch):
    """No kernel built before is reused, so every case prints its own."""
    monkeypatch.setattr(execplan, "_MEGA_KERNELS", OrderedDict())


def digest(arrays) -> str:
    blob = hashlib.sha256()
    for name in sorted(arrays):
        blob.update(name.encode() + arrays[name].tobytes())
    return blob.hexdigest()


def check(src: str, runs: int = 3) -> set:
    """Run ``src`` ``runs`` times per config (the first trip of a
    signature runs on the oracle, the next builds its kernel, the last
    binds it from the site's template); every run must leave the
    interpreter's bytes.  Returns the ``hoists`` of the blocked kernels
    the runs built."""
    want = digest(compile_source(src).run(
        machine=build_machine("cm2", exec_mode="interp")).arrays)
    for target, mode in CONFIGS:
        exe = compile_source(src, CompilerOptions(target=target))
        for run in range(runs):
            got = exe.run(machine=build_machine(target, exec_mode=mode))
            assert digest(got.arrays) == want, (target, mode, run)
    kernels = [kern for kern in execplan._MEGA_KERNELS.values()
               if not kern.native and hasattr(kern, "source")]
    assert kernels
    return {kern.hoists for kern in kernels}


def program(decls: str, body: str) -> str:
    return f"program hoist\n{decls}\n{body}\nend\n"


# -- transcendentals and integer arithmetic, on either axis -------------------

REAL2 = "double precision, array(24,40) :: a, b"


@pytest.mark.parametrize("fn", ["sin", "cos", "tan", "exp", "log", "sqrt"])
@pytest.mark.parametrize("var,axis", [("i", 0), ("j", 1)])
def test_a_transcendental_of_one_coordinate(fn, var, axis):
    src = program(REAL2, f"""
b = 1.5d0
forall (i=1:24, j=1:40) a(i,j) = {fn}({var} * 0.37d0 + 0.5d0) * b(i,j)
""")
    assert check(src) == {(axis,)}


@pytest.mark.parametrize("var,axis", [("i", 0), ("j", 1)])
def test_integer_multiply_and_mod_of_one_coordinate(var, axis):
    src = program("integer, array(24,40) :: k, m", f"""
m = 3
forall (i=1:24, j=1:40) k(i,j) = mod({var} * {var} * 7, 5) + m(i,j)
""")
    assert check(src) == {(axis,)}


def test_both_axes_hoist_in_one_kernel():
    """SWE's set-up: a product of two one-axis factors, and a sum of
    two cosines; the scalars are read once per launch."""
    src = program(REAL2 + "\ndouble precision s, t", """
s = 0.25d0
t = 0.125d0
forall (i=1:24, j=1:40) a(i,j) = s * sin((i - 0.5d0) * t) * sin((j - 0.5d0) * t)
forall (i=1:24, j=1:40) b(i,j) = s * (cos(2.0d0 * (i - 1) * t) + cos(2.0d0 * (j - 1) * t)) + 5.0d0
""")
    assert check(src) == {(0, 1)}


# -- shapes -------------------------------------------------------------------


def test_a_3d_array_hoists_its_middle_axis():
    src = program("double precision, array(7,5,3) :: a", """
forall (i=1:7, j=1:5, l=1:3) a(i,j,l) = sqrt(j * 1.5d0) + i * l
""")
    assert check(src) == {(1,)}


@pytest.mark.parametrize("extents", [(100, 300), (7, 5, 3), (300, 100)])
def test_rows_that_do_not_divide_the_block(extents):
    """16384 elements a block: 54 rows of 300, 163 of 100; a 7x5x3 array
    is one block of 7 slabs."""
    dims = ",".join(map(str, extents))
    idx = ",".join("ijl"[:len(extents)])
    ranges = ", ".join(f"{v}=1:{n}" for v, n in zip("ijl", extents))
    src = program(f"double precision, array({dims}) :: a, b", f"""
b = 0.5d0
forall ({ranges}) a({idx}) = cos(i * 0.01d0) * b({idx}) + exp(j * 0.02d0)
""")
    assert check(src) == {(0, 1)}


# -- what must not hoist ------------------------------------------------------


def test_a_two_axis_subtree_does_not_hoist():
    src = program("double precision, array(24,40) :: a\n"
                  "integer, array(24,40) :: k", """
forall (i=1:24, j=1:40) a(i,j) = sin(i * j * 0.5d0)
forall (i=1:24, j=1:40) k(i,j) = mod(i * j, 7)
""")
    assert check(src) == {()}


def test_one_axis_parts_of_a_two_axis_subtree_hoist():
    """``sqrt(i * 1.0d0)`` and ``cos(j * 0.2d0)`` are roots; their sum
    and its sine are per element."""
    src = program("double precision, array(24,40) :: a", """
forall (i=1:24, j=1:40) a(i,j) = sin(sqrt(i * 1.0d0) + cos(j * 0.2d0))
""")
    assert check(src) == {(0, 1)}


def test_a_multiply_add_takes_a_coordinate_directly():
    """``i * 0.1d0 + j * 0.2d0`` is one multiply-add over ``i``, which
    reads the coordinate itself, and ``j * 0.2d0``: only the second is
    a one-axis op."""
    src = program("double precision, array(24,40) :: a", """
forall (i=1:24, j=1:40) a(i,j) = sin(i * 0.1d0 + j * 0.2d0)
""")
    assert check(src) == {(1,)}


def test_a_flat_array_does_not_hoist():
    """Along a 1-D array every coordinate is distinct: nothing to save."""
    src = program("double precision, array(5000) :: a", """
forall (i=1:5000) a(i) = sin(i * 0.001d0)
""")
    assert check(src) == {()}


# -- sections, edge values, scalars that change ---------------------------------


def test_a_section_forall():
    """A section is a padded full-array move under a mask of coordinate
    tests: the mask is a one-axis subtree too."""
    src = program("double precision, array(10,6) :: a, b", """
b = 1.0d0
forall (i=2:9, j=1:6) a(i,j) = sin(i * 0.3d0) * b(i,j) + cos(j * 0.7d0)
forall (i=1:10, j=2:5) b(i,j) = exp(j * 0.1d0) + i
""")
    assert check(src) == {(0, 1)}


def test_nan_and_infinite_arguments():
    src = program(REAL2, """
b = 2.5d0
forall (i=1:24, j=1:40) a(i,j) = log(i - 3.0d0) + sqrt(j - 2.0d0) * b(i,j)
forall (i=1:24, j=1:40) b(i,j) = exp(i * 40.0d0) - exp(j * 20.0d0) + tan(j * 1.5707963267948966d0)
""")
    assert check(src) == {(0, 1)}
    a = compile_source(src).run(
        machine=build_machine("cm2", exec_mode="fast")).arrays["a"]
    assert np.isnan(a).any() and np.isinf(a).any()


def test_a_scalar_that_changes_every_trip_is_read_every_launch():
    """The loop's launch is replayed from its record, and its trips from
    a trip record: the vectors must be recomputed from each trip's
    scalar."""
    src = program(REAL2 + "\ndouble precision s\ninteger t", """
s = 0.0d0
a = 0.0d0
do t = 1, 24
   s = s + 0.5d0
   forall (i=1:24, j=1:40) a(i,j) = a(i,j) + sin(i * s) * cos(j * s + 1.0d0)
end do
""")
    assert check(src, runs=2) == {(0, 1)}


# -- which slots are coordinates --------------------------------------------


def test_a_coordinate_array_is_known_by_its_binding_not_its_values():
    coords = shared_coordinate_array((6, 9), 2, 1, 1)
    assert coordinate_axis(coords) == 1
    assert coordinate_axis(coords[2:5]) == 1       # a box of it
    assert coordinate_axis(coords[:, 3:]) == 1
    assert coordinate_axis(coords.T) is None       # axes moved
    assert coordinate_axis(coords.reshape(-1)) is None
    assert coordinate_axis(coords.copy()) is None  # same values, not it
