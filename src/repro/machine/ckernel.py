"""Native code generation: the C printer of the loop IR.

The Python blocked kernel (:mod:`repro.machine.kernel`) executes a loop
as a sequence of whole-block numpy ufunc calls; every intermediate value
still makes a round trip through a block buffer.  For a group's
:class:`~repro.machine.loopir.Loop` — one routine or several, lowered
once over one proven-safe slot table — the natural compilation target
is a single per-element loop: every intermediate lives in a C local (a
machine register), which is the literal form of the register-resident
forwarding the fusion layer models.

The printer visits the loop's nodes in order: within a group every read
and op becomes a C local before any store commits (dual-issue pairs
observe pre-instruction state).  Because every emitted operation is
elementwise over the common stream length, a per-element schedule is
observationally identical to the oracle's whole-array passes.

Bit-identity with numpy is preserved by construction, not hope: only
operations whose C form computes exactly what the numpy ufunc does are
emitted (``loopir._C_FORMS``; every other op is in
``loopir._C_DECLINED`` with its reason), the compile runs with
``-ffp-contract=off`` and without ``-ffast-math`` so no fused
multiply-adds or reassociation can change rounding, and every stream
must be contiguous.  ``-fno-tree-fre``: gcc 12's value numbering takes
``(int32_t)(-(uint32_t)x) / -7`` for ``-(x / -7)``, which differs at
``x = INT_MIN`` when both are computed.  ``-fsignaling-nans``: gcc
folds ``x * -1.0`` into ``-x``, which flips a NaN's sign where numpy's
multiply keeps it.

Every value and every slot carries a *kind* — ``f64``, ``i32``,
``i64``, ``bool``, a weak integer constant (``int``: a C literal) or a
weak integer scalar argument (``xint``: a ``double``) — and an op
computes in the kind the lowering typed it with (numpy's own promotion,
:func:`~repro.machine.loopir.step_types`), never in one re-derived
from the op's name or from promotion rules of its own: ``fmulv``
over an ``int32`` stream and the weak constant 1 is an integer
multiply.  Where numpy's integer semantics are not C's the emitter
takes numpy's side or declines (``docs/PIPELINE.md`` section 6 has the
table):

* integer ``+ - *``, negation and ``abs`` are computed in the unsigned
  twin (``uint32_t``/``uint64_t``) and cast back, so overflow wraps as
  numpy's does instead of being undefined;
* ``idivv``/``imodv`` are emitted only for a plan-time constant divisor
  outside {0, -1}: the oracle answers ``x / 0`` (``INT_MIN``) and
  ``x % 0`` (0) where C raises SIGFPE, which is a dead process, not a
  wrong number.  ``idivv`` takes ``int32`` dividends only (the oracle
  divides in ``float64``, which equals C's truncating ``/`` for 32
  bits, not for 64);
* comparisons across kinds rely on C's usual arithmetic conversions,
  which are numpy's promotion for these kinds; logical ops on a
  non-bool operand mean ``!= 0``; ``fselv`` selects in the recorded
  dtype (``int64`` for two weak constants) and stores narrow by two's-
  complement truncation, as ``casting='unsafe'`` does;
* the scalar block is ``double``: ``float``, ``float64``, ``int32`` and
  ``bool`` arguments survive it exactly, a Python ``int`` is accepted
  where numpy would make it a ``float64`` too, and every other scalar
  type (``int64``, an array) declines rather than round.

Still declined, and why: transcendentals, ``pow`` and ``fmod`` (numpy's
SIMD routines differ from libm), min/max (NaN payload propagation),
``float -> int`` stores and the conversions (numpy's cast of NaN and
out-of-range values is not C's), ``float32`` streams.  A decline raises
:class:`~repro.machine.loopir.Declined` with a short reason (``"op
fsinv"``, ``"divisor 0"``, ``"scalar int64"``), the caller stays on the
Python blocked kernel and ``Machine.fusion_summary()["declined"]``
reports it.

The loop is ``static void loop(...)`` over a range ``[lo, hi)`` of
elements (or rows), and each slot it touches is a ``restrict`` pointer
parameter, ``const`` when the loop only reads it: the text states what
the one alias rule proved (a site's
:class:`~repro.machine.execplan.LaunchTemplate`, probed once and bound
every trip) — no stored slot overlaps another slot of the launch, so
pointers that share an array are only ever read — and ``cc``
vectorises the element loop (``docs/PIPELINE.md`` section 6,
"Vectorisation").  ``kernel`` unpacks
the slot addresses into the call.  ``-x`` and ``|x|`` of a ``double``
are sign-bit operations (``_SIGN_OPS``): written as ``-x`` and
``fabs(x)``, ``cc`` would fold them into a neighbouring op and drop the
change they make to a NaN's sign.

A *shifted* operand (:mod:`repro.machine.shifted`) is indexed in
place: the loop becomes a row loop over the last axis, each shifted
operand gets a wrapped source-row offset per row, and the columns split
at the wrap points into segments inside which the operand is
``h[i + k]`` for a loop-invariant ``k`` — so the inner loop stays
vectorisable.  The loop's staged stores (to a shifted operand's own
source) go to scratch and are copied back after the loop returns,
outside the ``restrict`` scope: the copy writes an array the loop's
pointers read.

No iteration reads another's store, so a kernel of ``_SPLIT_MIN``
elements or more splits across the host's ``_THREADS`` cores: ``part``
calls the loop over its slice, a pthreads fork/join runs the slices,
and the staged copy-back, split the same way, starts after the join.
No thread outlives a launch and no element's operations change; below
the threshold the text is the one-core text.

One more text is not a kernel: the trip driver (:class:`TripDriver`,
``docs/PIPELINE.md`` section 16, "Native trips"), which calls the
kernels of a host loop's recorded trip, trip after trip, in one native
call.  It is the same text for every loop, built the first time a loop
qualifies and cached with the kernels.

``REPRO_FUSED_CC=0`` disables native generation; it is also skipped
automatically when no C compiler is on PATH.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
import time
from functools import lru_cache

import numpy as np

from .loopir import _C_FORMS, Declined

_CFLAGS = ["-O3", "-shared", "-fPIC", "-fno-math-errno", "-fsignaling-nans",
           "-ffp-contract=off", "-fno-tree-fre"]

#: The host's cores, and the stream length from which a kernel's loop
#: and its staged copy-back split over them: the first power of two
#: past the crossing.  On a 2-CPU box (``cc`` 12.2) one fork/join costs
#: about 25 us, and a scalar emitted loop 0.4-0.6 ns an element (a plain
#: update) to 1.7-2 ns (heat's and life's staged stencils, two
#: fork/joins) while it fits in cache.  Split, those three ran 0.56-0.90x
#: the one-core launch at 2**16 elements (once 1.12x), 0.74-1.17x at
#: 90,000, 1.06-1.26x at 102,400 and 1.28-1.66x at 131,044.  Vectorised,
#: one core takes 0.55-0.9 ns (plain), 0.7-0.8 ns (life) and 1.6-2.3 ns
#: (heat, copy-back included); split ran
#: 0.43-1.04x from 2**16 to 2**18 — but so did the scalar texts on that
#: (busy) box, 0.64-1.23x at 2**17 and 2**18, so the crossing was not
#: found again and the threshold stands.
_THREADS = len(os.sched_getaffinity(0))
_SPLIT_MIN = 1 << 17

#: Runs ``f`` over ``[0, m)`` as THREADS contiguous slices: a thread
#: per slice but the first, which the caller runs before it joins.  A
#: slice whose thread cannot start runs on the caller; no thread
#: outlives the call, so a ``fork`` after a kernel forks no worker.
_FORK_JOIN = """\
typedef void (*part_fn)(void **, const double *, long, long, long);
typedef struct { part_fn f; void **SP; const double *X; long n, lo, hi; } job;
static void *run_job(void *p) {
  job *s = p;
  s->f(s->SP, s->X, s->n, s->lo, s->hi);
  return NULL;
}
static void fork_join(part_fn f, void **SP, const double *X, long n, long m) {
  pthread_t tid[THREADS];
  job s[THREADS];
  int started[THREADS];
  for (int k = 0; k < THREADS; k++)
    s[k] = (job){f, SP, X, n, m * k / THREADS, m * (k + 1) / THREADS};
  for (int k = 1; k < THREADS; k++) {
    started[k] = pthread_create(&tid[k], NULL, run_job, &s[k]) == 0;
    if (!started[k])
      run_job(&s[k]);
  }
  run_job(&s[0]);
  for (int k = 1; k < THREADS; k++)
    if (started[k])
      pthread_join(tid[k], NULL);
}"""

#: numpy dtype -> kind, for streams and for recorded results alike.
#: Two more kinds are weak (Python) integers, which take the other
#: operand's type: "int", a constant, emitted as a literal; and "xint",
#: a scalar argument, whose value is only known as a ``double``.
_KINDS = {np.dtype(np.float64): "f64", np.dtype(np.int32): "i32",
          np.dtype(np.int64): "i64", np.dtype(bool): "bool"}
#: kind -> the C type a value of it has (a stream of ``bool`` is bytes)
_CTYPES = {"f64": "double", "i32": "int32_t", "i64": "int64_t",
           "bool": "int", "xint": "double"}
_STREAM_CTYPES = {**_CTYPES, "bool": "uint8_t"}
#: integer kind -> the unsigned twin its arithmetic is computed in
_UNSIGNED = {"i32": "uint32_t", "i64": "uint64_t"}
#: ``-x`` and ``|x|`` of a ``double`` as the sign-bit operations they
#: are.  ``cc`` folds a plain ``-x`` or ``fabs(x)`` into the op that
#: reads it (``a - -b`` becomes ``a + b``, ``|a| * |a|`` becomes
#: ``a * a``), which leaves a NaN's sign where numpy's separate passes
#: flip or clear it.
_SIGN_OPS = {
    family: (f"static inline double f64_{family}(double x) {{\n"
             f"  union {{ double d; uint64_t u; }} v = {{x}};\n"
             f"  v.u {op};\n  return v.d;\n}}")
    for family, op in (("abs", "&= ~(UINT64_C(1) << 63)"),
                       ("neg", "^= UINT64_C(1) << 63"))}
#: scalar type name -> (kind, its value out of the ``double`` scalar
#: block), for the types the block carries exactly — and Python's
#: ``int``, which is exact wherever numpy makes it a ``float64`` too
_SCALARS = {"float": ("f64", "X[{}]"), "float64": ("f64", "X[{}]"),
            "int32": ("i32", "(int32_t)X[{}]"),
            "bool": ("bool", "X[{}] != 0.0"), "int": ("xint", "X[{}]")}


class BuildFailed(Exception):
    """The text was emitted but no loadable ``.so`` came of it: the
    build directory, the compiler or the loader failed."""


def _compiler() -> str | None:
    if os.environ.get("REPRO_FUSED_CC") == "0":
        return None
    for cc in ("cc", "gcc", "clang"):
        path = shutil.which(cc)
        if path:
            return path
    return None


_SO_CACHE: dict[tuple, object] = {}
_WORKDIR: tuple[int, str] | None = None   # (the pid that made it, path)


def _workdir() -> str:
    """This process's build directory, removed when the process exits.

    Per pid: a forked worker inherits ``_WORKDIR`` and ``_SO_CACHE``,
    and two workers building at once must not write the same paths.
    """
    global _WORKDIR
    pid = os.getpid()
    if _WORKDIR is None or _WORKDIR[0] != pid:
        # Runs at interpreter exit and at the end of a multiprocessing
        # child alike (which leaves through os._exit, past atexit).
        from multiprocessing.util import Finalize

        path = tempfile.mkdtemp(prefix="repro-ckernel-")
        _WORKDIR = (pid, path)
        Finalize(None, _remove_workdir, args=(pid, path), exitpriority=0)
    return _WORKDIR[1]


def _remove_workdir(pid: int, path: str) -> None:
    if os.getpid() == pid:   # a forked child inherits the registration
        shutil.rmtree(path, ignore_errors=True)


def _literal(value) -> tuple[str, str]:
    """(exact C literal, kind) for a plan-time constant."""
    if isinstance(value, (bool, np.bool_)):
        return ("1" if value else "0"), "bool"
    if isinstance(value, int):
        return str(value), "int"
    if isinstance(value, np.integer) and value.dtype in _KINDS:
        kind = _KINDS[value.dtype]
        return f"({_CTYPES[kind]})({int(value)})", kind
    if isinstance(value, (float, np.float64)):
        fv = float(value)
        if fv != fv:
            return "NAN", "f64"
        if fv == float("inf"):
            return "INFINITY", "f64"
        if fv == float("-inf"):
            return "-INFINITY", "f64"
        return fv.hex(), "f64"  # C99 hexfloat: exact round trip
    raise Declined(f"constant {type(value).__name__}")


def _as(val: tuple[str, str], kind: str) -> str:
    """The C expression of ``val`` converted to ``kind`` as numpy's
    ``casting='unsafe'`` converts it."""
    expr, have = val
    if have == kind:
        return expr
    if have == "xint":  # an integer of unknown size, rounded already
        if kind == "f64":
            return expr
        raise Declined("scalar int")
    if kind == "bool":
        return f"({expr}) != 0"
    if kind == "f64":
        return f"{expr}.0" if have == "int" else f"(double)({expr})"
    if have == "f64":   # NaN and out-of-range: numpy's cast is not C's
        raise Declined("float->int store")
    if have == "int":   # a C literal takes the type it is used at
        return expr
    return f"({_CTYPES[kind]})({expr})"


@lru_cache(maxsize=None)
def _array(ctype, n: int):
    """``ctype * n``, kept: ctypes holds its array types weakly, and one
    made again after the collector took it costs about 70 us — every
    fresh machine's first pack, after a ``gc.collect()``."""
    return ctype * n


class _CKernel:
    """Callable with the blocked-kernel interface over a native loop."""

    __slots__ = ("_fn", "_lib", "_nslots", "_sregs", "source", "native",
                 "staged", "build_ms", "threads")

    declined = None     # a cache entry's ``(emitter, reason)``: none

    def __init__(self, fn, lib, nslots, sregs, source, staged=(),
                 build_ms=None, threads=1) -> None:
        self._fn = fn
        self._lib = lib  # keeps the dlopen handle alive
        self._nslots = nslots
        self._sregs = sregs
        self.source = source
        self.native = True
        self.staged = staged  # ((class, scratch class), ...): Launch
        #: Wall milliseconds of the ``cc`` run made for this kernel;
        #: None when its text had been built already.
        self.build_ms = build_ms
        self.threads = threads  # 1, or _THREADS for a split loop

    def pack(self, S, X) -> tuple:
        """``(addresses, scalar block)`` of a launch's own SlotTable
        ``S``, packed once, with the scalars of ``X`` written in."""
        ptrs = S.ptrs
        if ptrs is None:
            ptrs = S.ptrs = _array(ctypes.c_void_p, self._nslots)(
                *(S.addrs or [a.ctypes.data for a in S]))
            S.xs = _array(ctypes.c_double, max(1, len(self._sregs)))()
        xs = S.xs
        for j, k in enumerate(self._sregs):
            xs[j] = X[k]
        return ptrs, xs

    def __call__(self, S, X, n) -> None:
        self._fn(*self.pack(S, X), n)


class _CPrinter:
    def __init__(self, loop) -> None:
        self.loop = loop
        self.slot_kind = [self._kind(dtype) for dtype in loop.dtypes]
        self.vals: dict = {}     # loop node -> (C expression, kind)
        self.lines: list[str] = []
        self.used_cids: set[int] = set()
        self.used_sregs: dict[int, str] = {}    # register -> type name
        self.sign_ops: set[str] = set()     # the _SIGN_OPS the text calls
        self.ntemps = 0

    @staticmethod
    def _kind(dtype) -> str:
        kind = _KINDS.get(np.dtype(dtype))
        if kind is None:
            raise Declined(f"dtype {np.dtype(dtype).name}")
        return kind

    def _temp(self, kind: str, expr: str) -> tuple[str, str]:
        name = f"t{self.ntemps}"
        self.ntemps += 1
        self.lines.append(f"    const {_CTYPES[kind]} {name} = {expr};")
        return name, kind

    def _read(self, node) -> tuple[str, str]:
        """(C expression, kind) of a value read here: a memory read
        snapshots its element into a temporary."""
        got = self.vals.get(node)
        if got is not None:
            return got
        if node.kind == "scalar":
            # Only a scalar's type is known here, and the block is
            # ``double``: a type it cannot carry exactly declines.
            if node.dtype not in _SCALARS:
                raise Declined(f"scalar {node.dtype}")
            self.used_sregs[node.ref] = node.dtype
            return f"x{node.ref}", _SCALARS[node.dtype][0]
        if node.kind == "const":
            return _literal(node.ref)
        cid = node.ref
        self.used_cids.add(cid)
        return self._temp(self.slot_kind[cid], f"h{cid}[i + k{cid}]"
                          if node.kind == "shift" else f"s{cid}[i]")

    def _arith(self, sym: str, kind: str, a, b) -> str:
        """``a sym b`` computed in ``kind``: numpy casts both operands
        to the result dtype first, and its integers wrap."""
        if kind == "f64":
            return f"({_as(a, kind)}) {sym} ({_as(b, kind)})"
        twin = _UNSIGNED.get(kind)
        if twin is None or sym == "/":
            raise Declined(f"dtype {kind}")
        return (f"({_CTYPES[kind]})(({twin})({_as(a, kind)}) {sym} "
                f"({twin})({_as(b, kind)}))")

    @staticmethod
    def _intdiv(sym: str, a, b) -> str:
        """``idivv``/``imodv`` by a literal outside {0, -1}: what C
        traps on (SIGFPE) the oracle answers, so anything else runs as
        blocked numpy.  The oracle divides in ``float64``, which is C's
        truncating ``/`` for 32-bit operands only, and takes remainders
        in ``int64``."""
        if b[1] != "int":       # the one kind that is a literal
            raise Declined("divisor variable")
        if b[0] in ("0", "-1"):
            raise Declined(f"divisor {b[0]}")
        if a[1] != "i32" and not (sym == "%" and a[1] == "i64"):
            raise Declined(f"dividend {a[1]}")
        return f"(int32_t)(({a[0]}) {sym} ({b[0]}))"

    def _compute(self, node) -> tuple[str, str]:
        op = node.ref
        if op not in _C_FORMS:
            raise Declined(f"op {op}")
        family, sym = _C_FORMS[op]
        kind = self._kind(node.dtype)
        args = [self._read(a) for a in node.args]
        if family == "arith":
            expr = self._arith(sym, kind, *args)
        elif family == "fma":
            aux = self._kind(node.aux)
            tmp = self._temp(aux, self._arith("*", aux, args[0], args[1]))
            expr = self._arith(sym, kind, tmp, args[2])
        elif family == "select":
            expr = (f"({_as(args[0], 'bool')}) ? ({_as(args[1], kind)})"
                    f" : ({_as(args[2], kind)})")
        elif family == "intdiv":
            expr = self._intdiv(sym, *args)
        elif family in ("cmp", "logic", "not"):
            if kind != "bool":
                raise Declined(f"dtype {kind}")
            if family == "cmp":     # C's usual conversions are numpy's
                if {args[0][1], args[1][1]} == {"xint", "i64"}:
                    raise Declined("scalar int")  # both sides rounded
                expr = f"({args[0][0]}) {sym} ({args[1][0]})"
            elif family == "logic":
                expr = (f"({_as(args[0], 'bool')}) {sym} "
                        f"({_as(args[1], 'bool')})")
            else:
                expr = f"{sym}({_as(args[0], 'bool')})"
        elif kind == "f64":     # neg, abs, sqrt
            if family in _SIGN_OPS:
                self.sign_ops.add(family)
                sym = f"f64_{family}"
            expr = f"{sym}({_as(args[0], kind)})"
        elif family == "sqrt" or kind not in _UNSIGNED:
            raise Declined(f"dtype {kind}")
        else:                   # neg, abs of an integer: they wrap
            twin = f"({_UNSIGNED[kind]})({args[0][0]})"
            expr = (f"-{twin}" if family == "neg"
                    else f"({args[0][0]}) < 0 ? -{twin} : {twin}")
            expr = f"({_CTYPES[kind]})({expr})"
        return self._temp(kind, expr)

    def build(self):
        for nodes in self.loop.groups:
            commits: list[str] = []
            for node in nodes:
                if node.kind == "store":
                    val = self._read(node.args[0])
                    cid = node.ref
                    self.used_cids.add(cid)
                    commits.append(
                        f"    s{cid}[i] = {_as(val, self.slot_kind[cid])};")
                else:
                    self.vals[node] = (self._compute(node) if node.kind == "op"
                                       else self._read(node))
            self.lines.extend(commits)  # stores commit after the evals
        return self._emit()

    def _emit(self):
        sregs = sorted(self.used_sregs)
        shifted = self.loop.shifts
        gathers = sorted(self.used_cids & shifted.keys())
        stored = {node.ref for nodes in self.loop.groups for node in nodes
                  if node.kind == "store"}
        ctype = [_STREAM_CTYPES[kind] for kind in self.slot_kind]
        # The probe's proof, stated: no slot the loop stores overlaps
        # another it touches (``LaunchTemplate.probe``, and its ``bind``
        # on every trip), so every pointer is ``restrict`` and the
        # read-only ones, which alone may share an array, are
        # ``const``.  As parameters: ``cc`` 12 does not
        # act on ``restrict`` locals that unpack ``SP``.
        slots = sorted(self.used_cids)
        params = [f"{'' if cid in stored else 'const '}{ctype[cid]} "
                  f"*restrict {'h' if cid in shifted else 's'}{cid}"
                  for cid in slots]
        pre = []
        for j, k in enumerate(sregs):
            kind, value = _SCALARS[self.used_sregs[k]]
            pre.append(f"  const {_CTYPES[kind]} x{k} = {value.format(j)};")
        if gathers:
            loop, trips = self._row_loops(gathers)
        else:
            loop = ["  for (long i = lo; i < hi; i++) {", *self.lines, "  }"]
            trips = "n"
        staged = self.loop.staged
        split = self.loop.n >= _SPLIT_MIN and _THREADS > 1
        lines = ["#include <math.h>", "#include <stdint.h>"]
        lines += ["#include <string.h>"] if staged else []
        if split:
            lines += ["#include <pthread.h>",
                      _FORK_JOIN.replace("THREADS", str(_THREADS))]
        lines += [_SIGN_OPS[family] for family in sorted(self.sign_ops)]
        lines += [f"static void loop({', '.join(params)}, const double *X, "
                  f"long lo, long hi) {{"] + pre + loop + ["}"]
        call = f"loop({''.join(f'SP[{cid}], ' for cid in slots)}X, "
        kernel = ["void kernel(void **SP, const double *X, long n) {"]
        # The copy-back writes an array the loop's pointers read: it
        # stays outside the ``restrict`` scope, after the loop is done.
        if not split:
            lines += kernel + [f"  {call}0, {trips});"] + [
                f"  memcpy(SP[{cid}], SP[{scratch}], "
                f"n * sizeof({ctype[cid]}));" for cid, scratch in staged]
        else:
            # The copy-back waits for every slice: a neighbour's slice
            # reads the source row through the shift.
            args = "void **SP, const double *X, long n, long lo, long hi"
            lines += [f"static void part({args}) {{", f"  {call}lo, hi);",
                      "}"]
            if staged:
                lines += [f"static void copy_back({args}) {{"] + [
                    f"  memcpy(({t} *)SP[{cid}] + lo, ({t} *)SP[{scratch}]"
                    f" + lo, (hi - lo) * sizeof({t}));"
                    for cid, scratch in staged for t in [ctype[cid]]] + ["}"]
            lines += kernel + [f"  fork_join(part, SP, X, n, {trips});"]
            lines += ["  fork_join(copy_back, SP, X, n, n);"] if staged else []
        src = "\n".join(lines + ["}", ""])
        return _load(src, len(self.slot_kind), tuple(sregs), staged=staged,
                     threads=_THREADS if split else 1)

    def _row_loops(self, gathers) -> tuple[list[str], int]:
        """The row loop over in-place shifted operands, and its rows.

        Rows are the last axis; the leading axes flatten into ``r``.
        Per row each operand's wrapped source row gives ``b{cid}``, the
        distance from the row's flat start to the source row's; the
        columns split where some operand wraps, and each segment is its
        own column loop, with literal bounds, in which an operand is
        ``h[i + k]`` for a ``k`` that is ``b`` plus a literal (the
        shifts are plan-time constants).  The loop runs rows
        ``[lo, hi)``.
        """
        shifted = self.loop.shifts
        cols = self.loop.shape[-1]
        lead = self.loop.shape[:-1]
        rows = self.loop.n // cols
        cuts = sorted({0, cols} | {cols - shifted[cid][-1] for cid in gathers})
        loop = ["  for (long r = lo; r < hi; r++) {",
                f"    const long o = r * {cols};"]
        for cid in gathers:
            offsets = shifted[cid]
            terms = []
            stride = 1
            for extent, off in zip(reversed(lead), reversed(offsets[:-1])):
                index = "r" if stride == 1 else f"r / {stride}"
                if stride * extent < rows:   # not the outermost axis
                    index = f"{index} % {extent}"
                if off:
                    index = f"({index} + {off}) % {extent}"
                terms.append(index if stride == 1
                             else f"{index} * {stride}")
                stride *= extent
            row = " + ".join(terms) if any(offsets[:-1]) else "r"
            loop.append(f"    const long b{cid} = ({row}) * {cols} - o;")
        for start, end in zip(cuts, cuts[1:]):
            loop.append("    {")
            for cid in gathers:
                off = shifted[cid][-1]
                loop.append(f"      const long k{cid} = b{cid} + "
                            f"{off if start + off < cols else off - cols};")
            loop.append(f"      for (long i = o + {start}; i < o + {end};"
                        f" i++) {{")
            loop += ["    " + line for line in self.lines]
            loop += ["      }", "    }"]
        return loop + ["  }"], rows


def _library(src: str, threads: int = 1) -> tuple:
    """``(library, build_ms)``: ``src`` built and loaded once per
    process whoever asks (``build_ms`` None when it had been); a text
    split over ``threads`` > 1 is built with ``-pthread``.

    Raises :class:`BuildFailed` when the text cannot be turned into a
    loaded library (full or read-only ``TMPDIR``, a compiler that
    vanished or exits non-zero, a ``noexec`` mount).
    """
    lib = _SO_CACHE.get(src)
    if lib is not None:
        return lib, None
    cc = _compiler()
    if cc is None:
        raise Declined("no compiler")
    t0 = time.perf_counter()
    try:
        # Named by content and moved into place whole: whoever else
        # builds the same text writes the same bytes to the same path.
        tag = hashlib.sha256(src.encode()).hexdigest()[:32]
        workdir = _workdir()
        cfile = os.path.join(workdir, f"{tag}.c")
        sofile = os.path.join(workdir, f"{tag}.so")
        with open(cfile, "w") as f:
            f.write(src)
        fd, partial = tempfile.mkstemp(suffix=".so", dir=workdir)
        os.close(fd)
        flags = _CFLAGS + ["-pthread"] * (threads > 1)
        proc = subprocess.run(
            [cc, *flags, "-o", partial, cfile, "-lm"],
            capture_output=True)
        if proc.returncode != 0:
            os.unlink(partial)
            raise BuildFailed(proc.stderr.decode(errors="replace"))
        os.replace(partial, sofile)
        lib = _SO_CACHE[src] = ctypes.CDLL(sofile)
    except OSError as exc:
        raise BuildFailed(str(exc)) from exc
    return lib, (time.perf_counter() - t0) * 1e3


def _load(src: str, nslots: int, sregs: tuple,
          staged: tuple = (), threads: int = 1) -> _CKernel:
    """The kernel over ``src`` (:func:`_library` builds it)."""
    lib, build_ms = _library(src, threads)
    fn = lib.kernel
    fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                   ctypes.POINTER(ctypes.c_double), ctypes.c_long]
    fn.restype = None
    return _CKernel(fn, lib, nslots, sregs, src, staged, build_ms, threads)


#: The trip driver (``docs/PIPELINE.md`` section 16, "Native trips"):
#: one recorded trip's launches, ``trips`` times over, each as
#: ``kernel.Launch.run`` runs a native one — its spill slots zeroed,
#: then its kernel over its packed address and scalar blocks.
_DRIVER = """\
#include <string.h>
typedef void (*kernel_fn)(void **, const double *, long);
void drive(long launches, kernel_fn const *fn, void **const *SP,
           const double *const *X, const long *n, const long *spill_at,
           void *const *spill, const long *spill_bytes, long trips) {
  for (long t = 0; t < trips; t++)
    for (long j = 0; j < launches; j++) {
      for (long s = spill_at[j]; s < spill_at[j + 1]; s++)
        memset(spill[s], 0, spill_bytes[s]);
      fn[j](SP[j], X[j], n[j]);
    }
}
"""


class TripDriver:
    """``launches`` — ``(kernel.Launch, scalar file)`` pairs over
    native kernels, in trip order — packed for the driver: calling it
    with ``trips`` runs them that many times over in one native call.

    It holds the launches, so every address it packed stays alive."""

    __slots__ = ("_fn", "_args", "_launches")

    def __init__(self, launches) -> None:
        self._fn = _drive()
        self._launches = launches
        kernels, blocks, scalars, spill_at, spills, spill_bytes = (
            [], [], [], [0], [], [])
        for launch, X in launches:
            kern = launch.kern
            ptrs, xs = kern.pack(launch.S, X)
            kernels.append(ctypes.cast(kern._fn, ctypes.c_void_p).value)
            blocks.append(ctypes.addressof(ptrs))
            scalars.append(ctypes.addressof(xs))
            for slot in launch.spills:
                spills.append(launch.S[slot].ctypes.data)
                spill_bytes.append(launch.S[slot].nbytes)
            spill_at.append(len(spills))

        def block(ctype, values):
            return _array(ctype, max(1, len(values)))(*values)

        self._args = (
            len(launches), block(ctypes.c_void_p, kernels),
            block(ctypes.c_void_p, blocks), block(ctypes.c_void_p, scalars),
            block(ctypes.c_long, [launch.n for launch, _ in launches]),
            block(ctypes.c_long, spill_at), block(ctypes.c_void_p, spills),
            block(ctypes.c_long, spill_bytes))

    def __call__(self, trips: int) -> None:
        self._fn(*self._args, trips)


def _drive():
    """The driver's entry point, built on first use.  A failed build is
    remembered in the text cache in its place, so a process pays for
    at most one; raises as :func:`_library` does."""
    lib = _SO_CACHE.get(_DRIVER)
    if isinstance(lib, BuildFailed):
        raise lib
    if lib is None:
        try:
            lib, _ = _library(_DRIVER)
        except BuildFailed as exc:
            _SO_CACHE[_DRIVER] = exc
            raise
        lib.drive.argtypes = ([ctypes.c_long] + [ctypes.c_void_p] * 7
                              + [ctypes.c_long])
        lib.drive.restype = None
    return lib.drive


def retune(kern, extra_flags: tuple) -> object:
    """Nothing calls this: every machine builds with the one set of
    flags.  ``bench/grid.py`` (``_BuildTimer.SITES``) wraps the name at
    set-up, so it stays until a benchmark change drops it there."""
    return kern


def try_native(loop):
    """A compiled C kernel printed from a group's
    :class:`~repro.machine.loopir.Loop`.  Raises
    :class:`~repro.machine.loopir.Declined` with the reason when the
    printer declines the loop (or there is no compiler) and
    :class:`BuildFailed` when the build fails: either way the caller
    stays on the kernel it has."""
    if _compiler() is None:
        raise Declined("no compiler")
    return _CPrinter(loop).build()
