"""A numpy evaluator for NIR value trees over machine storage.

The front-end (host) side of the runtime needs to evaluate NIR values in
several situations: scalar expressions (loop bounds, conditions, PEAC
scalar arguments), element reads inside serial loops, gather subscripts,
and reduction arguments.  This evaluator implements the reference
semantics of the value domain directly with numpy; the PE executor must
agree with it (tests compare the two).

Scalar expressions are evaluated again and again — every trip of a
timestep loop re-reads its conditions, scalar moves and PEAC scalar
arguments — so :meth:`NirEvaluator.eval_scalar` compiles each value
node once into a closure (:meth:`NirEvaluator.compile_scalar`).  The
closure takes plain Python arithmetic only where its result is provably
the one numpy would return, and otherwise calls the very
:func:`apply_binop`/:func:`apply_unop` the tree walk calls: same
values, same Python types, same ``RuntimeWarning``.
"""

from __future__ import annotations

import operator
import weakref

import numpy as np

from .. import nir


class EvalError(Exception):
    """Raised on unevaluable values (unbound names, bad subscripts)."""


_BINOP_FUNCS = {
    nir.BinOp.ADD: np.add,
    nir.BinOp.SUB: np.subtract,
    nir.BinOp.MUL: np.multiply,
    nir.BinOp.DIV: None,  # special: Fortran integer division truncates
    nir.BinOp.POW: np.power,
    nir.BinOp.MOD: None,  # special: sign-of-dividend semantics
    nir.BinOp.MIN: np.minimum,
    nir.BinOp.MAX: np.maximum,
    nir.BinOp.EQ: np.equal,
    nir.BinOp.NE: np.not_equal,
    nir.BinOp.LT: np.less,
    nir.BinOp.LE: np.less_equal,
    nir.BinOp.GT: np.greater,
    nir.BinOp.GE: np.greater_equal,
    nir.BinOp.AND: np.logical_and,
    nir.BinOp.OR: np.logical_or,
    nir.BinOp.EQV: lambda a, b: np.equal(np.asarray(a, bool),
                                         np.asarray(b, bool)),
    nir.BinOp.NEQV: np.logical_xor,
}

_UNOP_FUNCS = {
    nir.UnOp.NEG: np.negative,
    nir.UnOp.NOT: np.logical_not,
    nir.UnOp.ABS: np.abs,
    nir.UnOp.SQRT: np.sqrt,
    nir.UnOp.SIN: np.sin,
    nir.UnOp.COS: np.cos,
    nir.UnOp.TAN: np.tan,
    nir.UnOp.ASIN: np.arcsin,
    nir.UnOp.ACOS: np.arccos,
    nir.UnOp.ATAN: np.arctan,
    nir.UnOp.EXP: np.exp,
    nir.UnOp.LOG: np.log,
    nir.UnOp.LOG10: np.log10,
    nir.UnOp.FLOOR: lambda a: np.floor(a).astype(np.int32),
    nir.UnOp.CEILING: lambda a: np.ceil(a).astype(np.int32),
    nir.UnOp.TO_INT: lambda a: np.trunc(np.asarray(a, np.float64)).astype(
        np.int32),
    nir.UnOp.TO_FLOAT32: lambda a: np.asarray(a, np.float32),
    nir.UnOp.TO_FLOAT64: lambda a: np.asarray(a, np.float64),
}


def _is_int_like(x) -> bool:
    if isinstance(x, (bool, np.bool_)):
        return False
    if isinstance(x, (int, np.integer)):
        return True
    return isinstance(x, np.ndarray) and np.issubdtype(x.dtype, np.integer)


def apply_binop(op: nir.BinOp, a, b):
    """Apply a BinOp with Fortran semantics (integer DIV truncates)."""
    if op is nir.BinOp.DIV:
        if _is_int_like(a) and _is_int_like(b):
            return np.trunc(np.asarray(a, np.float64)
                            / np.asarray(b, np.float64)).astype(np.int32)
        return np.divide(a, b)
    if op is nir.BinOp.MOD:
        return np.fmod(a, b)
    fn = _BINOP_FUNCS[op]
    return fn(a, b)


def apply_unop(op: nir.UnOp, a):
    if op.is_transcendental and _is_int_like(a):
        a = np.asarray(a, np.float64)
    return _UNOP_FUNCS[op](a)


# -- compiled scalar expressions ---------------------------------------------
#
# A closure's fast path returns a Python float, int or bool where the
# walk's numpy result is an ``np.float64``, ``np.int64`` or ``np.bool_``
# of the same value: what ``eval_scalar`` makes of the walk's result
# anyway.  A parent that falls back lifts such a child result to the
# numpy scalar it stands for (:func:`_lift`), because numpy promotes a
# Python scalar more weakly than a numpy one (``np.float64`` against
# ``np.float32`` stays ``float64``; a Python ``float`` does not).  Every
# other value is the walk's own.  The fast paths, each warning-free in
# numpy's default error state:
#
# * ``+ - *`` of two exact floats, result finite; ``/`` also needs a
#   non-zero divisor (numpy's ``1.0 / 0.0`` is ``inf``, Python raises);
# * ``+ - *`` of two exact ints (not bools: numpy adds them as logical
#   or), operands and result in int64 (numpy wraps); integer ``/``
#   truncates in numpy and never takes it;
# * comparisons of two operands of one type (ints in int64), or of
#   mixed Python scalars whose ints are at most 2**53 in magnitude —
#   numpy compares an int against a float in float64, where
#   ``2**53 + 1 > 2.0**53`` is false.

_ARITH = {nir.BinOp.ADD: operator.add, nir.BinOp.SUB: operator.sub,
          nir.BinOp.MUL: operator.mul}
_COMPARE = {nir.BinOp.EQ: operator.eq, nir.BinOp.NE: operator.ne,
            nir.BinOp.LT: operator.lt, nir.BinOp.LE: operator.le,
            nir.BinOp.GT: operator.gt, nir.BinOp.GE: operator.ge}
_PLAIN = (float, int, bool)
_LIFT = {float: np.float64, int: np.int64, bool: np.bool_}
_I64_MIN, _I64_MAX = -(1 << 63), (1 << 63) - 1
_EXACT = 1 << 53


def _plain(out):
    """``eval_scalar``'s result for a walk's result ``out``."""
    if isinstance(out, np.ndarray):
        if out.size != 1:
            raise EvalError(f"expected a scalar, got shape {out.shape}")
        out = out.reshape(()).item()
    if isinstance(out, np.generic):
        out = out.item()
    return out


def _lift(x):
    """The numpy scalar a fast path's Python result stands for."""
    to = _LIFT.get(type(x))
    return x if to is None else to(x)


def _slow(op, lift_a, lift_b, top):
    """A binary closure's fallback: ``apply_binop`` over what the walk
    would have handed it (``lift_*``: the operand may be a stand-in)."""
    def slow(a, b):
        if lift_a:
            a = _lift(a)
        if lift_b:
            b = _lift(b)
        out = apply_binop(op, a, b)
        return _plain(out) if top else out
    return slow


def _arith(pyop, left, right, slow):
    def arith():
        a = left()
        b = right()
        t = type(a)
        if t is type(b):
            if t is float:
                r = pyop(a, b)
                if r - r == 0.0:    # finite: inf - inf and nan - nan are nan
                    return r
            elif (t is int and _I64_MIN <= a <= _I64_MAX
                  and _I64_MIN <= b <= _I64_MAX):
                r = pyop(a, b)
                if _I64_MIN <= r <= _I64_MAX:
                    return r
        return slow(a, b)
    return arith


def _divide(left, right, slow):
    def divide():
        a = left()
        b = right()
        if type(a) is float and type(b) is float and b:
            r = a / b
            if r - r == 0.0:
                return r
        return slow(a, b)
    return divide


def _compare(pyop, left, right, slow):
    def compare():
        a = left()
        b = right()
        ta = type(a)
        tb = type(b)
        if ta is tb:
            if (ta is float or ta is bool
                    or (ta is int and _I64_MIN <= a <= _I64_MAX
                        and _I64_MIN <= b <= _I64_MAX)):
                return pyop(a, b)
        elif (ta in _PLAIN and tb in _PLAIN
              and (ta is not int or -_EXACT <= a <= _EXACT)
              and (tb is not int or -_EXACT <= b <= _EXACT)):
            return pyop(a, b)
        return slow(a, b)
    return compare


class NirEvaluator:
    """Evaluates NIR values against scalar bindings and array storage.

    ``read_array(name)`` must return the full numpy array for a name;
    ``scalars`` maps scalar names to Python numbers.  ``region`` (per
    evaluation call) gives the iteration region for field-valued results:
    ``everywhere`` references and ``local_under`` coordinates are cut to
    it so all array results share one shape.
    """

    def __init__(self, read_array, scalars: dict[str, object],
                 domains: dict[str, nir.Shape] | None = None) -> None:
        self.read_array = read_array
        self.scalars = scalars
        self.domains = domains or {}
        # compile_scalar's closures by id(value); the entry keeps the
        # (frozen) value alive, so its id cannot come back as another's.
        self._compiled: dict[int, tuple] = {}

    # ------------------------------------------------------------------

    def eval(self, value: nir.Value, region=None):
        """Evaluate; returns a numpy array (field) or Python scalar."""
        with np.errstate(all="ignore"):
            return self._eval(value, region)

    def eval_scalar(self, value: nir.Value):
        """Evaluate a scalar-valued value to a Python scalar."""
        return self.compile_scalar(value)()

    def compile_scalar(self, value: nir.Value):
        """The closure ``eval_scalar(value)`` calls, compiled on first
        use: constants, scalar variables and the unary and binary
        operators over them become closures (fast paths above); any
        other subtree is walked by :meth:`_eval`, each time."""
        entry = self._compiled.get(id(value))
        if entry is None:
            entry = self._compiled[id(value)] = (value,
                                                 self._closure(value, True))
        return entry[1]

    def _closure(self, node: nir.Value, top: bool):
        """``node``'s closure; ``top`` makes its result ``eval_scalar``'s
        (a Python scalar), else the walk's own or its stand-in."""
        if isinstance(node, nir.Scalar):
            const = node.pyvalue
            return lambda: const
        if isinstance(node, nir.SVar):
            scalars = self.scalars
            name = node.name

            def svar():
                try:
                    v = scalars[name]
                except KeyError:
                    raise EvalError(f"unbound scalar '{name}'") from None
                return v if not top or type(v) in _PLAIN else _plain(v)
            return svar
        if isinstance(node, nir.Binary):
            op = node.op
            left = self._closure(node.left, False)
            right = self._closure(node.right, False)
            slow = _slow(op, isinstance(node.left, nir.Binary),
                         isinstance(node.right, nir.Binary), top)
            if op in _ARITH:
                return _arith(_ARITH[op], left, right, slow)
            if op is nir.BinOp.DIV:
                return _divide(left, right, slow)
            if op in _COMPARE:
                return _compare(_COMPARE[op], left, right, slow)
            return lambda: slow(left(), right())
        if isinstance(node, nir.Unary):
            op = node.op
            operand = self._closure(node.operand, False)
            lift = isinstance(node.operand, nir.Binary)

            def unary():
                a = operand()
                out = apply_unop(op, _lift(a) if lift else a)
                return _plain(out) if top else out
            return unary
        # Weakly: an evaluator in its own closure would be a cycle that
        # keeps whatever ``read_array`` reaches alive until a full GC.
        walker = weakref.proxy(self)

        def walk():
            out = walker._eval(node, None)
            return _plain(out) if top else out
        return walk

    # ------------------------------------------------------------------

    def _eval(self, value: nir.Value, region):
        if isinstance(value, nir.Scalar):
            return value.pyvalue
        if isinstance(value, nir.SVar):
            try:
                return self.scalars[value.name]
            except KeyError:
                raise EvalError(f"unbound scalar '{value.name}'") from None
        if isinstance(value, nir.AVar):
            return self._eval_avar(value, region)
        if isinstance(value, nir.LocalUnder):
            return self._eval_local_under(value, region)
        if isinstance(value, nir.Binary):
            return apply_binop(value.op, self._eval(value.left, region),
                               self._eval(value.right, region))
        if isinstance(value, nir.Unary):
            return apply_unop(value.op, self._eval(value.operand, region))
        if isinstance(value, nir.FcnCall):
            return self._eval_call(value, region)
        raise EvalError(f"cannot evaluate {type(value).__name__}")

    # ------------------------------------------------------------------

    def _eval_avar(self, ref: nir.AVar, region):
        data = np.asarray(self.read_array(ref.name))
        if isinstance(ref.field, nir.Everywhere):
            return data
        if isinstance(ref.field, nir.Subscript):
            return self._eval_subscript(data, ref.field, region)
        raise EvalError(f"cannot evaluate field {ref.field}")

    def _eval_subscript(self, data: np.ndarray, sub: nir.Subscript, region):
        # Gather form: any field-valued index makes every non-scalar
        # index a pointwise coordinate over the common region.
        evaluated = []
        gather = False
        for idx in sub.indices:
            if isinstance(idx, nir.IndexRange):
                evaluated.append(idx)
            else:
                val = self._eval(idx, region)
                evaluated.append(val)
                if isinstance(val, np.ndarray):
                    gather = True
        if gather:
            index_arrays = []
            shape = None
            for val in evaluated:
                if isinstance(val, nir.IndexRange):
                    raise EvalError("ranges may not mix with gather indices")
                arr = np.asarray(val)
                if arr.ndim > 0:
                    shape = arr.shape
            for val in evaluated:
                arr = np.asarray(val)
                if arr.ndim == 0:
                    arr = np.broadcast_to(arr, shape)
                index_arrays.append(arr.astype(np.int64) - 1)
            return data[tuple(index_arrays)]
        slices = []
        for axis, val in enumerate(evaluated):
            n = data.shape[axis]
            if isinstance(val, nir.IndexRange):
                lo = self._index_const(val.lo, 1)
                hi = self._index_const(val.hi, n)
                st = self._index_const(val.stride, 1)
                slices.append(slice(lo - 1, hi, st))
            else:
                slices.append(int(val) - 1)
        return data[tuple(slices)]

    def _index_const(self, v, default: int) -> int:
        if v is None:
            return default
        out = self._eval(v, None)
        return int(out)

    def _eval_local_under(self, value: nir.LocalUnder, region):
        shape = nir.resolve(value.shape, self.domains)
        dims = nir.dims_of(shape, self.domains)
        axis = dims[value.dim - 1]
        coords_1d = np.array(
            [p[0] for p in nir.points(axis)], dtype=np.int32)
        full_shape = nir.extents(shape, self.domains)
        reshape = [1] * len(dims)
        reshape[value.dim - 1] = len(coords_1d)
        return np.broadcast_to(
            coords_1d.reshape(reshape), full_shape).copy()

    # ------------------------------------------------------------------

    def _eval_call(self, call: nir.FcnCall, region):
        name = call.name.lower()
        args = call.args
        if name == "merge":
            t = self._eval(args[0], region)
            f = self._eval(args[1], region)
            m = self._eval(args[2], region)
            return np.where(np.asarray(m, bool), t, f)
        if name == "cshift":
            arr = np.asarray(self._eval(args[0], region))
            shift = int(self.eval_scalar(args[1]))
            dim = int(self.eval_scalar(args[2]))
            return np.roll(arr, -shift, axis=dim - 1)
        if name == "eoshift":
            arr = np.asarray(self._eval(args[0], region))
            shift = int(self.eval_scalar(args[1]))
            boundary = self.eval_scalar(args[2])
            dim = int(self.eval_scalar(args[3])) - 1
            out = np.roll(arr, -shift, axis=dim)
            index = [slice(None)] * arr.ndim
            if shift > 0:
                index[dim] = slice(arr.shape[dim] - shift, None)
            elif shift < 0:
                index[dim] = slice(0, -shift)
            else:
                return out
            out[tuple(index)] = boundary
            return out
        if name == "transpose":
            return np.asarray(self._eval(args[0], region)).T.copy()
        if name == "spread":
            arr = np.asarray(self._eval(args[0], region))
            dim = int(self.eval_scalar(args[1]))
            ncopies = int(self.eval_scalar(args[2]))
            return np.repeat(np.expand_dims(arr, dim - 1), ncopies,
                             axis=dim - 1)
        if name in ("sum", "product", "maxval", "minval", "count", "any",
                    "all"):
            arr = np.asarray(self._eval(args[0], region))
            axis = None
            if len(args) > 1:
                axis = int(self.eval_scalar(args[1])) - 1
            return self._reduce(name, arr, axis)
        raise EvalError(f"cannot evaluate call '{call.name}'")

    @staticmethod
    def _reduce(name: str, arr: np.ndarray, axis):
        if name == "sum":
            return arr.sum(axis=axis)
        if name == "product":
            return arr.prod(axis=axis)
        if name == "maxval":
            return arr.max(axis=axis)
        if name == "minval":
            return arr.min(axis=axis)
        if name == "count":
            return np.asarray(arr, bool).sum(axis=axis).astype(np.int32)
        if name == "any":
            return np.asarray(arr, bool).any(axis=axis)
        if name == "all":
            return np.asarray(arr, bool).all(axis=axis)
        raise EvalError(f"unknown reduction {name}")
