"""Native code generation: the C emitter over a group's merged plan.

The Python blocked kernel (:mod:`repro.machine.kernel`) executes a plan
as a sequence of whole-block numpy ufunc calls; every intermediate value
still makes a round trip through a block buffer.  For a group's merged
plan — one routine or several over one proven-safe slot table
(:mod:`repro.machine.execplan`) — the natural compilation target is a
single per-element loop: every intermediate lives in a C local (a
machine register), which is the literal form of the register-resident
forwarding the fusion layer models.

The emitter walks ``plan.groups`` exactly like the step engine: within
a group all reads evaluate before any store commits (dual-issue pairs
observe pre-instruction state), and register updates take effect when
the group retires.  Because every emitted operation is elementwise over
the common stream length, a per-element schedule is observationally
identical to the step engine's whole-array passes.

Bit-identity with numpy is preserved by construction, not hope: only
operations whose C semantics are IEEE-754-exact matches of the numpy
ufunc are emitted (+, -, *, /, negation, ``fabs``, ``sqrt``,
comparisons, and the two-instruction multiply-add sequence), the
compile runs with ``-ffp-contract=off`` and without ``-ffast-math`` so
no fused multiply-adds or reassociation can change rounding, and all
streams must be contiguous float64.  Anything outside that whitelist —
transcendentals (numpy's SIMD routines differ from libm), min/max (NaN
payload propagation), integer ops, allocating conversions — makes the
emitter decline, and the caller falls back to the Python blocked
kernel.

A *shifted* operand (:mod:`repro.machine.shifted`) is indexed in
place: the loop becomes a row loop over the last axis, each shifted
operand gets a wrapped source-row offset per row, and the columns split
at the wrap points into segments inside which the operand is
``h[i + k]`` for a loop-invariant ``k`` — so the inner loop stays
vectorisable.  Stores to a shifted operand's own source are staged
through scratch and copied back after the loops
(:class:`repro.machine.kernel.Staging`).

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

import numpy as np

from .kernel import Staging
from .plan import (
    _R_CONST,
    _R_MEM,
    _R_SREG,
    _R_VREG,
    _BranchStep,
    _ComputeStep,
    _LoadStep,
    _MoveStep,
    _StoreStep,
)

_CFLAGS = ["-O3", "-shared", "-fPIC", "-fno-math-errno",
           "-ffp-contract=off"]

#: op -> C infix operator (IEEE-exact matches of the numpy ufunc)
_BINOPS = {"faddv": "+", "fsubv": "-", "fmulv": "*", "fdivv": "/"}
_CMPOPS = {"fceqv": "==", "fcnev": "!=", "fcltv": "<",
           "fclev": "<=", "fcgtv": ">", "fcgev": ">="}
_FMAOPS = {"fmav": "+", "fmsv": "-"}


class _CBail(Exception):
    """The plan uses something outside the provable whitelist."""


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


def _literal(value) -> str:
    """An exact C literal for a plan-time constant."""
    if isinstance(value, (bool, np.bool_)):
        return "1.0" if value else "0.0"
    if isinstance(value, (int, np.integer)):
        iv = int(value)
        if abs(iv) > 2 ** 53:
            raise _CBail
        return f"{iv}.0"
    if isinstance(value, (float, np.floating)):
        fv = float(value)
        if fv != fv:
            return "NAN"
        if fv == float("inf"):
            return "INFINITY"
        if fv == float("-inf"):
            return "-INFINITY"
        return fv.hex()  # C99 hexfloat: exact round trip
    raise _CBail


class _CKernel:
    """Callable with the blocked-kernel interface over a native loop."""

    __slots__ = ("_fn", "_lib", "_nslots", "_sregs", "source", "native",
                 "staged", "build_ms")

    def __init__(self, fn, lib, nslots, sregs, source, staged=(),
                 build_ms=None) -> None:
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

    def __call__(self, S, X, n) -> None:
        # ``S`` is a launch's own SlotTable: addresses and the scalar
        # block are packed once, the scalars overwritten per launch.
        ptrs = S.ptrs
        if ptrs is None:
            ptrs = S.ptrs = (ctypes.c_void_p * self._nslots)(
                *[a.ctypes.data for a in S])
            S.xs = (ctypes.c_double * max(1, len(self._sregs)))()
        xs = S.xs
        for j, k in enumerate(self._sregs):
            xs[j] = X[k]
        self._fn(ptrs, xs, n)


class _CEmitter:
    def __init__(self, plan, spec, n, S, shifts=()) -> None:
        self.plan = plan
        self.spec = spec
        self.n = n
        if any(a.dtype != np.float64 for a in S):
            raise _CBail
        self.shifted = {cid: (shape, offsets)
                        for cid, _, shape, offsets in shifts}
        self.staging = Staging(plan.groups, len(S), shifts)
        self.nslots = len(S) + len(self.staging.pairs)
        self.g = 0  # group being emitted (staged loads depend on it)
        self.lines: list[str] = []
        self.used_cids: set[int] = set()
        self.used_sregs: set[int] = set()
        self.ntemps = 0

    def _temp(self, ctype: str, expr: str) -> str:
        name = f"t{self.ntemps}"
        self.ntemps += 1
        self.lines.append(f"    const {ctype} {name} = {expr};")
        return name

    def _mem(self, preg: int, store: bool = False) -> str:
        cid = (self.staging.store(preg) if store
               else self.staging.load(preg, self.g))
        self.used_cids.add(cid)
        if cid in self.shifted:
            return f"h{cid}[i + k{cid}]"
        return f"s{cid}[i]"

    def _read(self, rd, vmap) -> tuple[str, str]:
        """(C expression, kind) for a reader at the current position."""
        tag = rd[0]
        if tag == _R_VREG:
            val = vmap.get(rd[1])
            if val is None:
                raise _CBail
            return val
        if tag == _R_SREG:
            self.used_sregs.add(rd[1])
            return f"x{rd[1]}", "f64"
        if tag == _R_CONST:
            return _literal(rd[1]), "f64"
        if tag == _R_MEM:
            # Memory reads snapshot per element at this step position.
            return self._temp("double", self._mem(rd[1])), "f64"
        raise _CBail

    def _shape_ok(self, token: int) -> np.dtype:
        got = self.spec.get(token)
        if got is None or got[0] != (self.n,):
            raise _CBail
        return np.dtype(got[1])

    def _compute(self, step, vmap) -> tuple[str, str]:
        op = step.op
        dtype = self._shape_ok(step.token)
        args = [self._read(rd, vmap) for rd in step.readers]
        if op in _BINOPS:
            if dtype != np.float64:
                raise _CBail
            (a, _), (b, _) = args
            return self._temp("double",
                              f"({a}) {_BINOPS[op]} ({b})"), "f64"
        if op in _CMPOPS:
            if dtype != np.dtype(bool):
                raise _CBail
            (a, _), (b, _) = args
            return self._temp("int", f"({a}) {_CMPOPS[op]} ({b})"), "bool"
        if op in _FMAOPS:
            if dtype != np.float64:
                raise _CBail
            self._shape_ok(step.aux)
            (a, _), (b, _), (c, _) = args
            tmp = self._temp("double", f"({a}) * ({b})")
            return self._temp("double",
                              f"{tmp} {_FMAOPS[op]} ({c})"), "f64"
        if op == "fselv":
            if dtype != np.float64:
                raise _CBail
            (m, mk), (t, _), (f, _) = args
            cond = m if mk == "bool" else f"({m}) != 0.0"
            return self._temp("double",
                              f"({cond}) ? ({t}) : ({f})"), "f64"
        if op == "fnegv":
            if dtype != np.float64:
                raise _CBail
            return self._temp("double", f"-({args[0][0]})"), "f64"
        if op == "fabsv":
            if dtype != np.float64:
                raise _CBail
            return self._temp("double", f"fabs({args[0][0]})"), "f64"
        if op == "fsqrtv":
            if dtype != np.float64:
                raise _CBail
            return self._temp("double", f"sqrt({args[0][0]})"), "f64"
        raise _CBail

    def build(self):
        vmap: dict[int, tuple[str, str]] = {}
        for self.g, steps in enumerate(self.plan.groups):
            pend: list[tuple[int, tuple[str, str]]] = []
            commits: list[str] = []
            for step in steps:
                if isinstance(step, (_LoadStep, _MoveStep)):
                    pend.append((step.dst, self._read(step.reader, vmap)))
                elif isinstance(step, _StoreStep):
                    expr, kind = self._read(step.reader, vmap)
                    if kind == "bool":
                        expr = f"(double)({expr})"
                    commits.append(
                        f"    {self._mem(step.preg, store=True)} = {expr};")
                elif isinstance(step, _ComputeStep):
                    pend.append((step.dst, self._compute(step, vmap)))
                elif not isinstance(step, _BranchStep):
                    raise _CBail
            self.lines.extend(commits)  # stores commit after the evals
            for dst, val in pend:
                vmap[dst] = val
        if not self.lines:
            raise _CBail
        return self._emit()

    def _emit(self):
        sregs = sorted(self.used_sregs)
        gathers = sorted(self.used_cids & self.shifted.keys())
        pre = [f"  double *s{cid} = (double *)SP[{cid}];"
               for cid in sorted(self.used_cids - self.shifted.keys())]
        pre += [f"  const double *h{cid} = (const double *)SP[{cid}];"
                for cid in gathers]
        pre += [f"  const double x{k} = X[{j}];"
                for j, k in enumerate(sregs)]
        staged = self.staging.pairs
        post = [f"  memcpy(s{cid}, s{scratch}, n * sizeof(double));"
                for cid, scratch in staged]
        if gathers:
            loop, close = self._row_loops(gathers)
            body = ["    " + line for line in self.lines]
        else:
            loop = ["  for (long i = 0; i < n; i++) {"]
            close = ["  }"]
            body = self.lines
        src = "\n".join(
            ["#include <math.h>"]
            + (["#include <string.h>"] if post else [])
            + ["void kernel(void **SP, const double *X, long n) {"]
            + pre + loop + body + close + post + ["}", ""])
        return _load(src, self.nslots, tuple(sregs), staged=staged)

    def _row_loops(self, gathers) -> tuple[list[str], list[str]]:
        """Row/segment/column loop heads for in-place shifted operands.

        Rows are the last axis; the leading axes flatten into ``r``.
        Per row each operand's wrapped source row gives ``b{cid}``, the
        distance from the row's flat start to the source row's; the
        columns split where some operand wraps, and inside a segment an
        operand is ``h[i + k]`` with ``k`` loop-invariant.
        """
        shapes = {self.shifted[cid][0] for cid in gathers}
        if len(shapes) != 1:
            raise _CBail
        shape = shapes.pop()
        cols = shape[-1]
        lead = shape[:-1]
        rows = self.n // cols
        cuts = sorted({0, cols} | {cols - self.shifted[cid][1][-1]
                                   for cid in gathers})
        loop = [f"  static const long cut[] = "
                f"{{{', '.join(map(str, cuts))}}};",
                f"  for (long r = 0; r < {rows}; r++) {{",
                f"    const long o = r * {cols};"]
        for cid in gathers:
            offsets = self.shifted[cid][1]
            terms = []
            stride = 1
            for extent, off in zip(reversed(lead), reversed(offsets[:-1])):
                index = f"r / {stride} % {extent}"
                if off:
                    index = f"({index} + {off}) % {extent}"
                terms.append(f"{index} * {stride}")
                stride *= extent
            row = " + ".join(terms) if any(offsets[:-1]) else "r"
            loop.append(f"    const long b{cid} = ({row}) * {cols} - o;")
        loop += [f"    for (int g = 0; g < {len(cuts) - 1}; g++) {{"]
        for cid in gathers:
            off = self.shifted[cid][1][-1]
            loop.append(f"      const long k{cid} = b{cid} + "
                        f"(cut[g] + {off} < {cols} ? {off} : {off - cols});")
        loop += ["      for (long i = o + cut[g]; i < o + cut[g + 1]; i++) {"]
        return loop, ["      }", "    }", "  }"]


def _load(src: str, nslots: int, sregs: tuple,
          staged: tuple = ()) -> _CKernel:
    """The kernel over ``src``, built once per process whoever asks.

    Raises :class:`BuildFailed` when the text cannot be turned into a
    loaded library (full or read-only ``TMPDIR``, a compiler that
    vanished or exits non-zero, a ``noexec`` mount).
    """
    cached = _SO_CACHE.get(src)
    build_ms = None
    if cached is None:
        cc = _compiler()
        if cc is None:
            raise _CBail
        t0 = time.perf_counter()
        try:
            # Named by content and moved into place whole: whoever else
            # builds the same text writes the same bytes to the same
            # path.
            tag = hashlib.sha256(src.encode()).hexdigest()[:32]
            workdir = _workdir()
            cfile = os.path.join(workdir, f"{tag}.c")
            sofile = os.path.join(workdir, f"{tag}.so")
            with open(cfile, "w") as f:
                f.write(src)
            fd, partial = tempfile.mkstemp(suffix=".so", dir=workdir)
            os.close(fd)
            proc = subprocess.run(
                [cc, *_CFLAGS, "-o", partial, cfile, "-lm"],
                capture_output=True)
            if proc.returncode != 0:
                os.unlink(partial)
                raise BuildFailed(proc.stderr.decode(errors="replace"))
            os.replace(partial, sofile)
            lib = ctypes.CDLL(sofile)
        except OSError as exc:
            raise BuildFailed(str(exc)) from exc
        fn = lib.kernel
        fn.argtypes = [ctypes.POINTER(ctypes.c_void_p),
                       ctypes.POINTER(ctypes.c_double), ctypes.c_long]
        fn.restype = None
        cached = _SO_CACHE[src] = (lib, fn)
        build_ms = (time.perf_counter() - t0) * 1e3
    lib, fn = cached
    return _CKernel(fn, lib, nslots, sregs, src, staged, build_ms)


def retune(kern, extra_flags: tuple) -> object:
    """Nothing calls this: every machine builds with the one set of
    flags.  ``bench/grid.py`` (``_BuildTimer.SITES``) wraps the name at
    set-up, so it stays until a benchmark change drops it there."""
    return kern


def try_native(plan, spec, n, S, shifts=()):
    """A compiled C kernel for a group's merged plan over its slot
    table, or None when the emitter declines it (or there is no
    compiler).  :class:`BuildFailed` passes through: the caller counts
    it and stays on the kernel it has."""
    if _compiler() is None:
        return None
    try:
        return _CEmitter(plan, spec, n, S, shifts).build()
    except _CBail:
        return None
