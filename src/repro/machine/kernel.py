"""Blocked code generation for routine plans (the compiled fast path).

Run step by step, a :class:`~repro.machine.plan.RoutinePlan` makes one
full-array pass per instruction — on large subgrids every pass streams
megabytes through memory.  This module compiles a
plan *specialization* (plan + binding signature + operand alias pattern)
down to a single generated Python function that runs the whole routine
**block by block**: all intermediate values live in small kernel-owned
buffers that stay cache-resident, and only the bound subgrid streams are
read or written at full size.

The generator performs a symbolic SSA walk over the plan's steps:

* loads and chained memory operands stay *lazy* — they turn into plain
  slice expressions ``s3[b:e]`` consumed directly by the ufunc call —
  unless a later store can overwrite them first, in which case a block
  copy materializes the pre-store value (the snapshot the interpreter
  takes of every memory operand, kept only where it can matter);
* a compute whose only consumer is a store gets *forwarded*: the ufunc
  writes ``out=dst[b:e]`` directly and the store disappears;
* values never consumed are dead code and emit nothing;
* dual-issue pairs keep their read-then-commit order: evals are emitted
  before the group's stores, so both halves observe pre-instruction
  state exactly like the interpreter.

Bit-identity with the interpreter is preserved because every emitted
operation is one of the interpreter's own elementwise numpy calls
applied to a contiguous sub-range: element ``i`` sees exactly the same
inputs, operations and rounding in either engine.  Anything the
generator cannot prove safe (overlapping-but-distinct operand views,
non-contiguous streams, mismatched stream lengths, scalar-shaped
intermediates, the allocating conversions) falls back to the plan's
recording walk (:meth:`~repro.machine.plan.RoutinePlan.run_steps`),
which is fully general; the cache entry it leaves behind
(:class:`NoKernel`) says why.

A *shifted* operand (:mod:`repro.machine.shifted`) is read in place:
blocks become whole leading-axis slabs and each block gathers the
operand through a :class:`~repro.machine.shifted.BlockGather` (a plain
slice for an axis-0 shift, a cache-resident two-block copy otherwise).
When the routine also stores the shifted operand's source, that store
is staged through scratch (:class:`Staging`) and copied back after
the loop.

The builder takes a *group's* merged plan — one routine or several,
memory operands already renamed onto the group's slot table
(:mod:`repro.machine.execplan`, which also proves the binding legal
and owns the kernel cache).  Every kernel runs through a
:class:`Launch` — the kernel bound to its slot table — which the
machine keeps as the dispatch site's launch record and runs again on
the next trip (``docs/PIPELINE.md`` §16).
"""

from __future__ import annotations

import numpy as np

from .shifted import BlockGather
from .plan import (
    _FMA_FNS,
    _OUT_FNS,
    _R_CONST,
    _R_MEM,
    _R_SREG,
    _R_VREG,
    _UNBOUND,
    _ComputeStep,
    _MoveStep,
    _StoreStep,
)

_BLOCK = 16384  # block length in elements: intermediates stay in cache
# When a blocked kernel has earned its ``cc`` run (``docs/PIPELINE.md``
# section 6).  The same routine in C saves about 22 us + 5 ns per
# element on every launch, so a launch is worth, per routine of the
# group, its stream length plus ``_LAUNCH_COST`` elements; after
# ``_TIER_UP`` of them the blocked kernel has lost what one ``cc`` run
# costs (about 70 ms), and building then is never worse than twice the
# best choice in hindsight.
_LAUNCH_COST = 4096
_TIER_UP = 1 << 24


# ---------------------------------------------------------------------------
# SSA values
# ---------------------------------------------------------------------------


class _Val:
    """One SSA value flowing between steps during the symbolic walk."""

    __slots__ = ("kind", "cid", "sreg", "const", "dtype", "defg", "uses",
                 "mat", "store_sites", "nonstore_uses", "fwd_cid", "name",
                 "store_src_site")

    def __init__(self, kind: str, *, cid=None, sreg=None, const=None,
                 dtype=None, defg=0) -> None:
        self.kind = kind            # "src"|"gath"|"buf"|"scal"|"const"
        self.cid = cid              # alias-class id (stream values)
        self.sreg = sreg
        self.const = const
        self.dtype = dtype
        self.defg = defg
        self.uses: list[int] = []   # groups where the value is read
        self.mat = False            # src: materialized by a block copy
        self.store_sites: list = []
        self.nonstore_uses = 0
        self.fwd_cid = None         # buf: forwarded to this class
        self.name = None            # assigned buffer variable
        self.store_src_site = None

    @property
    def is_array(self) -> bool:
        return self.kind in ("src", "gath", "buf")

    def last_use(self) -> int:
        last = self.defg
        if self.uses:
            last = max(last, max(self.uses))
        for site in self.store_sites:
            last = max(last, site["g"])
        return last


class _Bail(Exception):
    """Raised internally when a plan cannot be compiled to a kernel;
    its one argument is the reason (``"op fintv"``, ``"shape"``)."""


class NoKernel:
    """The cache entry of a group no kernel runs (the plan's recording
    walk does, on every launch).  Like every entry it has ``declined``, the
    ``(emitter, reason)`` of the better tier it did not get: the
    blocked builder's here, the C emitter's on a blocked kernel that
    was asked about (None before)."""

    native = False

    def __init__(self, reason: str) -> None:
        self.declined = ("blocked", reason)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def hot(kern) -> bool:
    """Whether the C emitter should be asked for cache entry ``kern``
    now: a blocked kernel, never asked about, that has streamed the
    break-even of one ``cc`` run.  Launches and stream lengths decide,
    never the clock, so the trip it falls on is the same in every run."""
    return (not kern.native and kern.declined is None
            and kern.streamed >= _TIER_UP)


class SlotTable(list):
    """A launch's own slot table: the flat operand arrays, by slot.

    Nothing else holds the list and no slot of it is ever rebound, so a
    native kernel packs the operands' addresses (``ptrs``) and a block
    for its scalar arguments (``xs``) beside it on its first launch
    instead of asking every array for ``.ctypes`` and building a fresh
    block on every launch.
    """

    __slots__ = ("ptrs", "xs")

    def __init__(self, arrays) -> None:
        super().__init__(arrays)
        self.ptrs = None
        self.xs = None


class Launch:
    """A kernel bound to its slot table: everything to run it again.

    The launch owns its scratch for as long as it lives: ``S`` holds
    the kernel's staged stores (:class:`Staging`), drawn from the
    buffer pool when it was made, and the ``spills`` slots keep the
    buffers its first run was prepared with (``Machine._prepare``; a
    machine that keeps the launch as a site's record takes them over).
    Spill slots are zeroed before every run, as a freshly prepared
    call's are.  ``counters`` are the ``(metrics dict, key)`` pairs a
    trip through this launch bumps.  ``work`` is what one run streams
    through a blocked kernel (:func:`hot`): each of the group's
    ``routines`` its own pass.
    """

    __slots__ = ("kern", "S", "n", "spills", "counters", "work")

    def __init__(self, kern, S, n: int, spills=(), routines=1) -> None:
        self.kern = kern
        self.S = SlotTable(S)
        self.n = n
        self.spills = spills
        self.work = routines * (n + _LAUNCH_COST)
        self.counters: list = []

    def run(self, X) -> None:
        S = self.S
        for slot in self.spills:
            S[slot].fill(0)
        kern = self.kern
        if kern.native:   # a C loop raises no numpy warning
            kern(S, X, self.n)
        else:
            kern.streamed += self.work
            with np.errstate(all="ignore"):
                kern(S, X, self.n)


class Staging:
    """Which stored slots are staged, and from which group on.

    A kernel runs element by element (or block by block), so a store to
    the slot an in-place shifted operand reads would overwrite
    neighbours a later element still has to see through the shift.
    Those stores go to a scratch slot instead and are copied back
    after the loop; a plain read of the slot *after* the first store
    (in group order) reads the scratch, where its own element already
    landed.  Everything else about the two slots is ordinary, so the
    emitters' hazard and forwarding rules need no special case.

    ``pairs`` is ``((slot, scratch slot), ...)`` — what
    :class:`Launch` lends scratch for and the kernel copies back;
    scratch slots are numbered after the group's ``nslots``.
    """

    def __init__(self, groups, nslots: int, shifts) -> None:
        bases = {base for _, base, _, _ in shifts if base is not None}
        self.first: dict[int, int] = {}   # slot -> first storing group
        if bases:
            for g, steps in enumerate(groups):
                for step in steps:
                    if isinstance(step, _StoreStep) and step.preg in bases:
                        self.first.setdefault(step.preg, g)
        self.scratch = {slot: nslots + j
                        for j, slot in enumerate(sorted(self.first))}
        self.pairs = tuple(sorted(self.scratch.items()))

    def load(self, slot: int, g: int) -> int:
        """The slot a read of ``slot`` at group ``g`` goes to."""
        if slot in self.scratch and g > self.first[slot]:
            return self.scratch[slot]
        return slot

    def store(self, slot: int) -> int:
        return self.scratch.get(slot, slot)


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------


def _build(plan, spec, n, S, shifts=()):
    """The blocked kernel for a group's merged ``plan`` over its slot
    table ``S`` (step operands name slots), or a :class:`NoKernel`."""
    try:
        return _Builder(plan, spec, n, S, shifts).build()
    except _Bail as bail:
        return NoKernel(str(bail))


class _Builder:
    def __init__(self, plan, spec, n, S, shifts=()) -> None:
        self.plan = plan
        self.spec = spec
        self.n = n
        self.class_dtype = {slot: a.dtype for slot, a in enumerate(S)}
        self.shifted = {cid: (shape, offsets)
                        for cid, _, shape, offsets in shifts}
        self.staging = Staging(plan.groups, len(S), shifts)
        for cid, scratch in self.staging.pairs:
            self.class_dtype[scratch] = self.class_dtype[cid]
        self.src_vals: list[_Val] = []
        self.gath_vals: dict[int, _Val] = {}   # shifted class -> its block
        self.buf_vals: list[_Val] = []
        self.aux_vals: list[_Val] = []
        self.store_sites: list[dict] = []
        self.slots: list[list] = []       # per group: ordered slot entries
        self.store_groups: dict[int, list[int]] = {}
        self.consts: dict = {}
        self.fns: dict[int, tuple[str, object]] = {}
        self.hoists: list[str] = []       # preamble lines (scalar masks)
        self.hoist_names: dict = {}

    # -- symbolic walk --------------------------------------------------

    def build(self):
        # A merged plan renames each constituent's vector registers
        # into its own bank (see machine/execplan.py), so the register
        # file is plan-sized rather than the architectural 8.
        vmap: list[_Val | None] = [None] * self.plan.num_vregs
        for g, steps in enumerate(self.plan.groups):
            slot: list = []
            self.slots.append(slot)
            pend: list[tuple[int, _Val]] = []
            for step in steps:
                if isinstance(step, _MoveStep):
                    pend.append((step.dst, self._eval_move(step, vmap, g)))
                elif isinstance(step, _StoreStep):
                    self._eval_store(step, vmap, g)
                elif isinstance(step, _ComputeStep):
                    pend.append((step.dst, self._eval_compute(step, vmap, g)))
                # branches are loop bookkeeping: nothing to emit
            for dst, val in pend:          # commits after all evals
                vmap[dst] = val
        self._decide_materialization()
        self._decide_forwarding()
        self._assign_buffers()
        return self._emit()

    def _term(self, rd, vmap, g) -> _Val:
        tag = rd[0]
        if tag == _R_VREG:
            val = vmap[rd[1]]
            if val is None:
                raise _Bail("undefined register")
            return val
        if tag == _R_SREG:
            return _Val("scal", sreg=rd[1])
        if tag == _R_CONST:
            return _Val("const", const=rd[1])
        # _R_MEM: a chained operand read at this group
        return self._stream(rd[1], g)

    def _stream(self, preg: int, g: int) -> _Val:
        """The value a read of ``preg`` at group ``g`` sees.

        A plain stream is a lazy slice, one value per read.  A shifted
        operand is never stored, so every read sees the same block: one
        value per class, gathered just before its first use into a
        block buffer the allocator hands out like any other.
        """
        cid = self.staging.load(preg, g)
        if cid in self.shifted:
            val = self.gath_vals.get(cid)
            if val is None:
                val = self.gath_vals[cid] = _Val(
                    "gath", cid=cid, dtype=self.class_dtype[cid], defg=g)
            return val
        val = _Val("src", cid=cid, dtype=self.class_dtype[cid], defg=g)
        self.src_vals.append(val)
        return val

    def _eval_move(self, step, vmap, g) -> _Val:
        rd = step.reader
        if rd[0] == _R_MEM:
            val = self._stream(rd[1], g)
            if val.kind == "src":
                self.slots[g].append(("load", val))
            return val
        return self._term(rd, vmap, g)

    def _eval_store(self, step, vmap, g) -> None:
        term = self._term(step.reader, vmap, g)
        cid = self.staging.store(step.preg)
        site = {"g": g, "cid": cid, "term": term, "elide": False}
        if term.is_array:
            term.uses.append(g)
            term.store_sites.append(site)
            if term.kind == "src" and term.defg == g:
                term.store_src_site = site
        self.store_sites.append(site)
        self.slots[g].append(("store", site))
        self.store_groups.setdefault(cid, []).append(g)

    def _eval_compute(self, step, vmap, g) -> _Val:
        if step.mode == "alloc":
            raise _Bail(f"op {step.op}")
        shape, dtype = self.spec[step.token]
        if shape != (self.n,):   # computed from scalars alone, mostly
            raise _Bail(f"scalar-shaped {step.op}" if shape == ()
                        else "shape")
        args = [self._term(rd, vmap, g) for rd in step.readers]
        for a in args:
            if a.is_array:
                a.uses.append(g)
                a.nonstore_uses += 1
        out = _Val("buf", dtype=np.dtype(dtype), defg=g)
        self.buf_vals.append(out)
        aux = None
        if step.mode == "fma":
            ashape, adtype = self.spec[step.aux]
            if ashape != (self.n,):
                raise _Bail("shape")
            aux = np.dtype(adtype)
        elif step.mode == "select":
            mask = args[0]
            if mask.is_array and mask.dtype != np.dtype(bool):
                aux = np.dtype(bool)
        elif step.op == "idivv":    # the float64 quotient, then truncated
            aux = np.dtype(np.float64)
        if aux is not None:
            aux = _Val("buf", dtype=aux, defg=g)
            aux.uses.append(g)
            self.aux_vals.append(aux)
        self.slots[g].append(("compute", step, args, out, aux))
        return out

    # -- scheduling decisions -------------------------------------------

    def _decide_materialization(self) -> None:
        """A lazy stream value read after a store to its class must be
        snapshotted at definition time (pre-store), as the interpreter
        snapshots every memory operand."""
        for val in self.src_vals:
            if not val.uses:
                continue
            stores = self.store_groups.get(val.cid, ())
            val.mat = any(val.defg <= s < u
                          for s in stores for u in val.uses)
            if not val.mat and val.store_src_site is not None:
                # A store source read in a group where *another* store
                # hits the same class: commits run in step order, so
                # snapshot the eval-time value first.
                own = val.store_src_site
                val.mat = any(site["cid"] == val.cid and site["g"] == own["g"]
                              and site is not own
                              for site in self.store_sites)

    def _decide_forwarding(self) -> None:
        # Read positions per class: lazy reads happen at use time,
        # materialized reads at definition time.
        reads: dict[int, list[int]] = {}
        for val in self.src_vals:
            if not val.uses:
                continue
            pos = [val.defg] if val.mat else val.uses
            reads.setdefault(val.cid, []).extend(pos)
        for val in self.buf_vals:
            if val.nonstore_uses or len(val.store_sites) != 1:
                continue
            site = val.store_sites[0]
            d = site["cid"]
            if val.dtype != self.class_dtype[d]:
                continue
            g, j = val.defg, site["g"]
            if any(s["cid"] == d and g <= s["g"] <= j and s is not site
                   for s in self.store_sites):
                continue
            if any(g <= r <= j for r in reads.get(d, ())):
                continue
            val.fwd_cid = d
            site["elide"] = True

    def _assign_buffers(self) -> None:
        """Linear-scan allocation of physical block buffers.

        A buffer frees one group after its owner's last use — never
        within the same group, so dual-issue evals can't clobber a value
        a sibling step still reads.
        """
        need = [v for v in self.src_vals if v.mat and v.uses]
        need += [v for v in self.buf_vals
                 if v.fwd_cid is None and (v.uses or v.store_sites)]
        need += self.aux_vals
        need += [v for v in self.gath_vals.values() if v.uses]
        need.sort(key=lambda v: v.defg)
        self.phys: list[np.dtype] = []
        free: dict[str, list[int]] = {}
        active: list[tuple[int, int, str]] = []  # (last use, idx, dtype)
        for val in need:
            live = []
            for last, idx, dts in active:
                if last < val.defg:
                    free.setdefault(dts, []).append(idx)
                else:
                    live.append((last, idx, dts))
            active = live
            bucket = free.get(val.dtype.str)
            if bucket:
                idx = bucket.pop()
            else:
                idx = len(self.phys)
                self.phys.append(val.dtype)
            val.name = f"v{idx}"
            active.append((val.last_use(), idx, val.dtype.str))

    # -- emission -------------------------------------------------------

    def _fn(self, fn) -> str:
        got = self.fns.get(id(fn))
        if got is None:
            got = (f"g{len(self.fns)}", fn)
            self.fns[id(fn)] = got
        return got[0]

    def _const(self, value) -> str:
        key = (type(value).__name__, repr(value))
        got = self.consts.get(key)
        if got is None:
            got = (f"c{len(self.consts)}", value)
            self.consts[key] = got
        return got[0]

    def _expr(self, val: _Val) -> str:
        if val.kind == "src":
            return val.name if val.mat else f"s{val.cid}[b:e]"
        if val.kind == "gath":
            return f"h{val.cid}"
        if val.kind == "buf":
            return f"s{val.fwd_cid}[b:e]" if val.fwd_cid is not None \
                else val.name
        if val.kind == "scal":
            return f"x{val.sreg}"
        return self._const(val.const)

    def _emit(self):
        lines: list[str] = []
        used_cids: set[int] = set()
        used_sregs: set[int] = set()

        def note(val: _Val) -> None:
            if val.kind in ("src", "gath"):
                used_cids.add(val.cid)
            elif val.kind == "buf" and val.fwd_cid is not None:
                used_cids.add(val.fwd_cid)
            elif val.kind == "scal":
                used_sregs.add(val.sreg)

        for g, slot in enumerate(self.slots):
            evals: list[str] = []
            commits: list[str] = []
            for val in self.gath_vals.values():
                if val.defg == g and val.uses:   # gathered at first use
                    used_cids.add(val.cid)
                    evals.append(f"h{val.cid} = G{val.cid}(s{val.cid}, a, z)")
            for entry in slot:
                kind = entry[0]
                if kind == "load":
                    val = entry[1]
                    if val.mat and val.uses:
                        used_cids.add(val.cid)
                        evals.append(f"_cp({val.name}, s{val.cid}[b:e])")
                elif kind == "compute":
                    _, step, args, out, aux = entry
                    if not out.uses and not out.store_sites:
                        continue  # dead value
                    for a in args:
                        note(a)
                    if out.fwd_cid is not None:
                        used_cids.add(out.fwd_cid)
                    evals.extend(self._emit_compute(step, args, out, aux))
                elif kind == "store":
                    site = entry[1]
                    term = site["term"]
                    if (term.kind == "src" and term.mat
                            and term.store_src_site is site):
                        # Same-group store hazard: snapshot the source
                        # during the eval phase, before any commit.
                        used_cids.add(term.cid)
                        evals.append(f"_cp({term.name}, s{term.cid}[b:e])")
                    if site["elide"]:
                        continue
                    note(term)
                    used_cids.add(site["cid"])
                    commits.append(
                        f"_cp(s{site['cid']}[b:e], {self._expr(term)},"
                        f" casting='unsafe')")
            lines.extend(evals)
            lines.extend(commits)
        if not lines:
            raise _Bail("empty")

        glb: dict = {"_cp": np.copyto}
        for name, fn in self.fns.values():
            glb[name] = fn
        for name, value in self.consts.values():
            glb[name] = value

        pre = [f"s{cid} = S[{cid}]" for cid in sorted(used_cids)]
        pre += [f"x{k} = X[{k}]" for k in sorted(used_sregs)]
        pre += self.hoists
        body = ["def _kernel(S, X, n):"]
        body += [f"    {p}" for p in pre]
        gathers = [val for val in self.gath_vals.values() if val.uses]
        if gathers:
            # Blocks are whole leading-axis slabs, so every shifted
            # operand's block is a rectangle of its source.
            shapes = {self.shifted[val.cid][0] for val in gathers}
            if len(shapes) != 1:
                raise _Bail("shift shapes")
            shape = shapes.pop()
            plane = self.n // shape[0]
            slabs = max(1, min(shape[0], _BLOCK // plane))
            bs = slabs * plane
            body += ["    a = 0",
                     f"    while a < {shape[0]}:",
                     f"        z = a + {slabs}",
                     f"        if z > {shape[0]}: z = {shape[0]}",
                     f"        b = a * {plane}",
                     f"        e = z * {plane}",
                     "        m = e - b"]
            step = "        a = z"
        else:
            bs = min(self.n, _BLOCK)
            body += ["    b = 0",
                     "    while b < n:",
                     f"        e = b + {bs}",
                     "        if e > n: e = n",
                     "        m = e - b"]
            step = "        b = e"
        for i, dt in enumerate(self.phys):
            glb[f"B{i}"] = np.empty(bs, dtype=dt)
        for val in gathers:
            glb[f"G{val.cid}"] = BlockGather(
                shape, self.shifted[val.cid][1], glb["B" + val.name[1:]])
        body += [f"        v{i} = B{i}[:m]" for i in range(len(self.phys))]
        body += [f"        {ln}" for ln in lines]
        body += [step]
        staged = self.staging.pairs
        body += [f"    _cp(S[{cid}], S[{scratch}])" for cid, scratch in staged]
        src = "\n".join(body) + "\n"
        code = compile(src, f"<kernel:{self.plan.name}>", "exec")
        exec(code, glb)
        # Popped, so the function and its block buffers are not a
        # reference cycle: an evicted kernel is freed at once.
        kernel = glb.pop("_kernel")
        kernel.source = src
        kernel.staged = staged
        kernel.native = False
        # What the cache entry remembers for :func:`hot`: the work it
        # has streamed, and why the C emitter declined it once asked.
        kernel.streamed = 0
        kernel.declined = None
        return kernel

    def _emit_compute(self, step, args, out, aux) -> list[str]:
        exprs = [self._expr(a) for a in args]
        target = self._expr(out)
        if step.mode == "ufunc":
            fn = self._fn(step.fn)
            return [f"{fn}({', '.join(exprs)}, out={target})"]
        if step.mode == "fma":
            f1 = self._fn(step.fn)
            f2 = self._fn(step.fn2)
            return [f"{f1}({exprs[0]}, {exprs[1]}, out={aux.name})",
                    f"{f2}({aux.name}, {exprs[2]}, out={target})"]
        if step.mode == "intdiv":
            # ``pe._int_div``/``pe._int_mod`` on a block: the ufunc
            # computes in the oracle's ``dtype`` and the store into
            # ``out`` is its ``astype``.
            if step.op == "idivv":
                return [f"{self._fn(np.divide)}({exprs[0]}, {exprs[1]}, "
                        f"out={aux.name}, dtype={self._const(np.float64)})",
                        f"{self._fn(np.trunc)}({aux.name}, out={target}, "
                        f"casting='unsafe')"]
            return [f"{self._fn(np.fmod)}({exprs[0]}, {exprs[1]}, "
                    f"out={target}, dtype={self._const(np.int64)}, "
                    f"casting='unsafe')"]
        # select: copy the false side, overwrite where the mask holds
        mask = args[0]
        if aux is not None:
            ne = self._fn(np.not_equal)
            conv = [f"{ne}({exprs[0]}, 0, out={aux.name})"]
            mexpr = aux.name
        elif mask.is_array:  # already boolean
            conv = []
            mexpr = exprs[0]
        else:               # scalar mask: hoist the bool conversion
            key = ("mask", exprs[0])
            name = self.hoist_names.get(key)
            if name is None:
                name = f"t{len(self.hoist_names)}"
                self.hoist_names[key] = name
                ab = self._fn(np.asarray)
                self.hoists.append(f"{name} = {ab}({exprs[0]}, dtype=bool)")
            conv = []
            mexpr = name
        return conv + [f"_cp({target}, {exprs[2]})",
                       f"_cp({target}, {exprs[1]}, where={mexpr})"]
