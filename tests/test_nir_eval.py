"""The compiled scalar evaluator against the tree walk it stands for.

``NirEvaluator.eval_scalar`` compiles each value once into a closure
that takes plain Python arithmetic only where numpy would return the
same thing, and calls ``apply_binop``/``apply_unop`` otherwise.  These
tests draw scalar trees and bindings across the places where Python and
numpy part ways — signed zeros, infinities, NaN, subnormals, integers
around 2**53 and 2**63, bools, numpy's own scalar types — and require
the closure and the walk to agree on the value (bit for bit; any NaN
equals any NaN), its Python type, the exception and every warning.
"""

from __future__ import annotations

import gc
import math
import struct
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro import nir
from repro.runtime.nir_eval import EvalError, NirEvaluator

B = nir.BinOp
NAMES = ("a", "b", "c")


def _evaluator(scalars):
    def no_arrays(name):
        raise EvalError(f"no array '{name}'")
    return NirEvaluator(read_array=no_arrays, scalars=scalars)


def _walk(evaluator, value):
    """``eval_scalar`` as the tree walk computed it."""
    out = evaluator._eval(value, None)
    if isinstance(out, np.ndarray):
        if out.size != 1:
            raise EvalError(f"expected a scalar, got shape {out.shape}")
        out = out.reshape(()).item()
    if isinstance(out, np.generic):
        out = out.item()
    return out


def _key(value):
    if isinstance(value, float):
        return "nan" if math.isnan(value) else struct.pack("<d", value)
    return value


def _outcome(fn):
    """What calling ``fn`` does: its result or exception, and warnings."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn()
        except Exception as exc:
            got = ("raises", type(exc), str(exc))
        else:
            got = ("value", type(value), _key(value))
    return got, [(w.category, str(w.message)) for w in caught]


def _assert_agree(tree, scalars, evaluator=None):
    evaluator = evaluator or _evaluator(scalars)
    want = _outcome(lambda: _walk(_evaluator(scalars), tree))
    got = _outcome(lambda: evaluator.eval_scalar(tree))
    assert got == want, tree
    return got


# -- the four traps, pinned ---------------------------------------------------

def _binary(op, a, b):
    return nir.Binary(op, nir.SVar("a"), nir.SVar("b")), {"a": a, "b": b}


TRAPS = {
    # numpy compares an int against a float in float64.
    "int beyond 2**53 against a float": (B.GT, 2**53 + 1, 2.0**53, False, []),
    "int64 add wraps": (B.ADD, 2**62, 2**62, -(2**63), []),
    "integer division truncates": (B.DIV, 7, -2, -3, []),
    "float division by zero is inf": (
        B.DIV, 1.0, 0.0, math.inf,
        [(RuntimeWarning, "divide by zero encountered in divide")]),
}


@pytest.mark.parametrize("trap", sorted(TRAPS))
def test_numpy_trap_takes_the_numpy_answer(trap):
    op, a, b, value, warned = TRAPS[trap]
    tree, scalars = _binary(op, a, b)
    got = _assert_agree(tree, scalars)
    assert got == (("value", type(value), _key(value)), warned)


def test_python_result_standing_in_for_float64_keeps_its_promotion():
    """``(a + b) + c`` with ``c`` a float32: the walk adds a ``float64``
    to it and stays in float64, where a Python float would not."""
    inner = nir.Binary(B.ADD, nir.SVar("a"), nir.SVar("b"))
    tree = nir.Binary(B.ADD, inner, nir.SVar("c"))
    scalars = {"a": 0.1, "b": 0.2, "c": np.float32(0.1)}
    got = _assert_agree(tree, scalars)
    assert got[0][2] == _key(np.float64(0.1 + 0.2) + np.float32(0.1))


# -- drawn trees --------------------------------------------------------------

_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324,
                     -5e-324, 2.2250738585072014e-308,
                     1.7976931348623157e308, 2.0**53, 0.5, -2.5]),
    st.floats(allow_nan=True, allow_infinity=True))
_INTS = st.one_of(
    st.sampled_from([0, 1, -1, 2, -2, 7, 2**53, 2**53 + 1, -(2**53) - 1,
                     2**62, 2**63 - 1, -(2**63), 2**63, -(2**63) - 1]),
    st.integers(-(2**64), 2**64))
_VALUES = st.one_of(
    _FLOATS, _INTS, st.booleans(),
    st.floats(width=32).map(np.float32),
    st.integers(-(2**31), 2**31 - 1).map(np.int32),
    st.booleans().map(np.bool_))
_BINDINGS = st.fixed_dictionaries({name: _VALUES for name in NAMES})

_LEAVES = st.one_of(
    st.sampled_from(NAMES).map(nir.SVar),
    _FLOATS.map(nir.float_const),
    _INTS.map(lambda v: nir.Scalar(nir.types.INTEGER_32, v)),
    st.sampled_from([nir.TRUE, nir.FALSE]))
_TREES = st.recursive(_LEAVES, lambda kids: st.one_of(
    st.builds(nir.Binary, st.sampled_from(list(B)), kids, kids),
    st.builds(nir.Unary, st.sampled_from(list(nir.UnOp)), kids)),
    max_leaves=8)


@settings(max_examples=800, deadline=None)
@given(_TREES, _BINDINGS, _BINDINGS)
@example(*_binary(B.GT, 2**53 + 1, 2.0**53), {})
@example(*_binary(B.ADD, 2**62, 2**62), {})
@example(*_binary(B.DIV, 7, -2), {})
@example(*_binary(B.DIV, 1.0, 0.0), {})
@example(*_binary(B.MUL, 1.7976931348623157e308, 2.0), {})   # overflows
@example(*_binary(B.SUB, math.inf, math.inf), {})            # invalid
def test_compiled_closure_agrees_with_the_tree_walk(tree, first, then):
    """Twice through one evaluator: the closure compiled for the first
    bindings must read the second ones."""
    scalars = dict(first)
    evaluator = _evaluator(scalars)
    _assert_agree(tree, scalars, evaluator)
    scalars.update(then)
    _assert_agree(tree, scalars, evaluator)


# -- the memo -----------------------------------------------------------------

def test_each_value_is_compiled_once():
    evaluator = _evaluator({"a": 1.5})
    value = nir.Binary(B.MUL, nir.SVar("a"), nir.float_const(2.0))
    closure = evaluator.compile_scalar(value)
    assert evaluator.compile_scalar(value) is closure
    assert closure() == evaluator.eval_scalar(value) == 3.0


def test_a_subtree_it_cannot_compile_is_walked():
    arrays = {"x": np.arange(4.0)}
    evaluator = NirEvaluator(read_array=arrays.__getitem__, scalars={})
    x2 = nir.AVar("x", nir.Subscript((nir.int_const(2),)))
    value = nir.Binary(B.ADD, x2, nir.float_const(0.5))
    assert evaluator.eval_scalar(value) == 1.5
    arrays["x"] = np.arange(4.0) * 10   # read again on every call
    assert evaluator.eval_scalar(value) == 10.5


def test_a_compiled_evaluator_is_freed_without_a_collection():
    """A walked subtree's closure refers to its evaluator weakly: no
    cycle keeps what ``read_array`` reaches alive until a full GC."""
    arrays = {"x": np.arange(4.0)}
    gc.disable()
    try:
        evaluator = NirEvaluator(read_array=arrays.__getitem__, scalars={})
        evaluator.eval_scalar(nir.AVar(
            "x", nir.Subscript((nir.int_const(1),))))
        freed = weakref.ref(evaluator)
        del evaluator
        assert freed() is None
    finally:
        gc.enable()
