"""Blocked numpy kernels: the Python printer of the loop IR.

Run step by step, a :class:`~repro.machine.plan.RoutinePlan` makes one
full-array pass per instruction — on large subgrids every pass streams
megabytes through memory.  This module prints a group's
:class:`~repro.machine.loopir.Loop` (its routines lowered once, over
the group's slot table) as a single generated Python function that
runs the whole loop **block by block**: all intermediate values live in
small kernel-owned buffers that stay cache-resident, and only the
bound subgrid streams are read or written at full size.

The printer schedules the loop's nodes in a side table of its own:

* loads stay *lazy* — they turn into plain slice expressions
  ``s3[b:e]`` consumed directly by the ufunc call — unless a later
  store can overwrite them first, in which case a block copy
  materializes the pre-store value (the snapshot the interpreter takes
  of every memory operand, kept only where it can matter);
* an op whose only consumer is a store gets *forwarded*: the ufunc
  writes ``out=dst[b:e]`` directly and the store disappears;
* values never consumed are dead code and emit nothing;
* dual-issue pairs keep their read-then-commit order: evals are emitted
  before the group's stores, so both halves observe pre-instruction
  state exactly like the interpreter.

A *one-axis subtree* — ops whose stream operands all read coordinate
slots of one axis (``local_under`` arrays), directly or through such
ops — is evaluated once per launch over that axis's distinct
coordinates, and each block copies its roots' values out of the vectors.

Bit-identity with the interpreter is preserved because every emitted
operation is one of the interpreter's own elementwise numpy calls
applied to a contiguous sub-range — of a block, or of an axis's
distinct-coordinate vector: element ``i`` sees exactly the same inputs,
operations and rounding in either engine.  The printer never
declines: what no kernel may run (bindings the probe rejects, the
loops the lowering declines) runs on the interpreter oracle
(:func:`~repro.machine.execplan.run_oracle`), which is fully general;
the cache entry it leaves behind (:class:`NoKernel`) says why.

A *shifted* operand (:mod:`repro.machine.shifted`) is read in place:
blocks become whole leading-axis slabs and each block gathers the
operand through a :class:`~repro.machine.shifted.BlockGather` (a plain
slice for an axis-0 shift, a cache-resident two-block copy otherwise);
the loop's staged stores go to scratch and are copied back after it.

Every kernel runs through a :class:`Launch` — the kernel bound to its
slot table — which the machine keeps as the dispatch site's launch
record and runs again on the next trip (``docs/PIPELINE.md`` §16).
"""

from __future__ import annotations

import math

import numpy as np

from .loopir import _FMA_FNS, _OUT_FNS
from .shifted import BlockGather

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
# The printer's side table
# ---------------------------------------------------------------------------


class _Val:
    """What the printer decides about one value that lives in blocks: a
    load, an op or a shifted class (kind, slot and dtype are the loop
    node's), or an op's second buffer."""

    __slots__ = ("defg", "uses", "mat", "store_sites", "nonstore_uses",
                 "fwd_cid", "name")

    def __init__(self, defg: int) -> None:
        self.defg = defg            # the group that defines it
        self.uses: list[int] = []   # groups where the value is read
        self.mat = False            # load: materialized by a block copy
        self.store_sites: list = []
        self.nonstore_uses = 0
        self.fwd_cid = None         # op: forwarded to this class
        self.name = None            # assigned buffer variable

    def last_use(self) -> int:
        last = self.defg
        if self.uses:
            last = max(last, max(self.uses))
        for site in self.store_sites:
            last = max(last, site["g"])
        return last


class NoKernel:
    """The cache entry of a group no kernel runs (the oracle does, on
    every launch).  Like every entry it has ``declined``, the
    ``(emitter, reason)`` of the better tier it did not get: the
    lowering's here, the C printer's on a blocked kernel that was asked
    about (None before)."""

    native = False

    def __init__(self, reason: str) -> None:
        self.declined = ("blocked", reason)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def hot(kern) -> bool:
    """Whether the C printer should be asked for cache entry ``kern``
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
    block on every launch.  ``addrs`` are those addresses when whoever
    made the table read them already (a launch template's bind).
    """

    __slots__ = ("ptrs", "xs", "addrs")

    def __init__(self, arrays) -> None:
        super().__init__(arrays)
        self.ptrs = None
        self.xs = None
        self.addrs = None


class Launch:
    """A kernel bound to its slot table: everything to run it again.

    The launch owns its scratch for as long as it lives: ``S`` holds
    the scratch slots of the kernel's staged stores (``Loop.staged``),
    drawn from the buffer pool when it was made, and the ``spills``
    slots keep the buffers its first run was prepared with
    (``Machine._prepare``; a machine that keeps the launch as a site's
    record takes them over).  Spill slots are zeroed before every run,
    as a freshly prepared call's are.  ``counters`` are the ``(metrics
    dict, key)`` pairs a trip through this launch bumps.  ``work`` is
    what one run streams through a blocked kernel (:func:`hot`): each of
    the group's ``routines`` its own pass.
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


# ---------------------------------------------------------------------------
# Kernel construction
# ---------------------------------------------------------------------------


def blocked_kernel(loop, coords):
    """The blocked kernel printed from ``loop``, given the launch
    template's coordinate slots (``coords``)."""
    return _Printer(loop, coords).build()


class _Printer:
    def __init__(self, loop, coords) -> None:
        self.loop = loop
        # Slabs of ``shape`` (the shifts', else a coordinate slot's) are
        # blocks; its coordinate slots whose axis repeats are hoistable.
        self.shape = loop.shape or (coords[0][2] if coords else None)
        self.coord_axes = {slot: axis for slot, axis, shape in coords
                           if shape == self.shape and shape[axis] < loop.n}
        self.axis_of: dict = {}       # hoisted op -> its axis
        self.vec: dict = {}           # hoisted op -> its vector
        # Every load and op node -> its _Val; every read of a shifted
        # class -> the class's one _Val (``gathers``).
        self.vals: dict = {}
        self.gathers: dict[int, _Val] = {}     # shifted class -> its block
        self.aux: list[tuple[np.dtype, _Val]] = []  # ops' second buffers
        self.store_sites: list[dict] = []
        self.entries: list[list] = []     # per group: what it prints
        self.store_groups: dict[int, list[int]] = {}
        self.consts: dict = {}
        self.fns: dict[int, tuple[str, object]] = {}
        self.hoists: list[str] = []       # preamble lines (scalar masks)
        self.hoist_names: dict = {}

    # -- symbolic walk --------------------------------------------------

    def build(self):
        for g, nodes in enumerate(self.loop.groups):
            self.entries.append([])
            for node in nodes:
                if node.kind == "load":
                    self.vals[node] = _Val(g)
                    self.entries[g].append(("load", node))
                elif node.kind == "shift":
                    # A shifted operand is never stored, so every read
                    # sees the same block: one value per class, gathered
                    # just before its first use into a block buffer the
                    # allocator hands out like any other.
                    if node.ref not in self.gathers:
                        self.gathers[node.ref] = _Val(g)
                    self.vals[node] = self.gathers[node.ref]
                elif node.kind == "op":
                    self._eval_op(node, g)
                elif node.kind == "store":
                    self._eval_store(node, g)
                # a scalar or constant a move reads: nothing to schedule
        self._decide_hoists()
        self._decide_materialization()
        self._decide_forwarding()
        self._assign_buffers()
        return self._emit()

    def _use(self, node, g) -> _Val | None:
        """Group ``g`` reads ``node``: its _Val, None for a scalar or a
        constant."""
        val = self.vals.get(node)
        if val is not None:
            val.uses.append(g)
        return val

    def _eval_store(self, node, g) -> None:
        cid = node.ref
        site = {"g": g, "cid": cid, "term": node.args[0], "elide": False}
        val = self._use(node.args[0], g)
        if val is not None:
            val.store_sites.append(site)
        self.store_sites.append(site)
        self.entries[g].append(("store", site))
        self.store_groups.setdefault(cid, []).append(g)

    def _eval_op(self, node, g) -> None:
        for arg in node.args:
            val = self._use(arg, g)
            if val is not None:
                val.nonstore_uses += 1
        self.vals[node] = _Val(g)
        aux = node.aux                  # a multiply-add's product
        if node.ref == "fselv":
            mask = node.args[0]
            if mask in self.vals and mask.dtype != np.dtype(bool):
                aux = bool
        elif node.ref == "idivv":   # the float64 quotient, then truncated
            aux = np.float64
        if aux is not None:
            val = _Val(g)
            val.uses.append(g)
            self.aux.append((np.dtype(aux), val))
            aux = val
        self.entries[g].append(("compute", node, aux))

    # -- scheduling decisions -------------------------------------------

    def _decide_hoists(self) -> None:
        """One-axis subtrees: an op whose stream operands all read the
        coordinate slots of one axis, directly or through such ops, is
        evaluated once per launch over that axis's distinct coordinates;
        the *roots*, read by anything else, are broadcast into blocks."""
        nodes = [node for group in self.loop.groups for node in group]
        for node in nodes:
            if node.kind == "op" and self.coord_axes:
                axes = {self.coord_axes.get(arg.ref) if arg.kind == "load"
                        else self.axis_of.get(arg) for arg in node.args
                        if arg.kind not in ("scalar", "const")}
                if len(axes) == 1 and None not in axes:
                    self.axis_of[node] = axes.pop()
        self.roots = {arg for node in nodes if node not in self.axis_of
                      for arg in node.args if arg in self.axis_of}
        # A hoisted op's second buffer is a vector, never a block.
        owned = {entry[2] for group in self.entries for entry in group
                 if entry[0] == "compute" and entry[1] in self.axis_of}
        self.vec_aux = {val: dt for dt, val in self.aux if val in owned}
        self.aux = [(dt, val) for dt, val in self.aux if val not in owned]

    def _decide_materialization(self) -> None:
        """A lazy stream value read after a store to its class must be
        snapshotted at definition time (pre-store), as the interpreter
        snapshots every memory operand."""
        for node, val in self.vals.items():
            if node.kind != "load" or not val.uses:
                continue
            cid = node.ref
            stores = self.store_groups.get(cid, ())
            val.mat = any(val.defg <= s < u
                          for s in stores for u in val.uses)
            if not val.mat:
                # A store source read in the store's own group, where
                # *another* store hits the same class: commits run in
                # step order, so snapshot the eval-time value first.
                val.mat = any(site["cid"] == cid and site["g"] == val.defg
                              and site is not own
                              for own in val.store_sites
                              if own["g"] == val.defg
                              for site in self.store_sites)

    def _decide_forwarding(self) -> None:
        # Read positions per class: lazy reads happen at use time,
        # materialized reads at definition time.
        reads: dict[int, list[int]] = {}
        for node, val in self.vals.items():
            if node.kind == "load" and val.uses:
                pos = [val.defg] if val.mat else val.uses
                reads.setdefault(node.ref, []).extend(pos)
        for node, val in self.vals.items():
            if (node.kind != "op" or val.nonstore_uses
                    or len(val.store_sites) != 1):
                continue
            site = val.store_sites[0]
            d = site["cid"]
            if node.dtype != self.loop.dtypes[d]:
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
        vals = self.vals.items()
        need = [(node.dtype, v) for node, v in vals
                if node.kind == "load" and v.mat and v.uses]
        need += [(node.dtype, v) for node, v in vals if node.kind == "op"
                 and v.fwd_cid is None and (v.uses or v.store_sites)
                 and (node not in self.axis_of or node in self.roots)]
        need += self.aux
        need += [(self.loop.dtypes[cid], v)
                 for cid, v in self.gathers.items() if v.uses]
        need.sort(key=lambda item: item[1].defg)
        self.phys: list[np.dtype] = []
        free: dict[str, list[int]] = {}
        active: list[tuple[int, int, str]] = []  # (last use, idx, dtype)
        for dtype, val in need:
            live = []
            for last, idx, dts in active:
                if last < val.defg:
                    free.setdefault(dts, []).append(idx)
                else:
                    live.append((last, idx, dts))
            active = live
            bucket = free.get(dtype.str)
            if bucket:
                idx = bucket.pop()
            else:
                idx = len(self.phys)
                self.phys.append(dtype)
            val.name = f"v{idx}"
            active.append((val.last_use(), idx, dtype.str))

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

    def _expr(self, node) -> str:
        if node.kind == "scalar":
            return f"x{node.ref}"
        if node.kind == "const":
            return self._const(node.ref)
        if node.kind == "shift":
            return f"h{node.ref}"
        val = self.vals[node]
        if node.kind == "load":
            return val.name if val.mat else f"s{node.ref}[b:e]"
        return val.name if val.fwd_cid is None else f"s{val.fwd_cid}[b:e]"

    def _emit_vectors(self, note) -> list[str]:
        """The one-axis subtrees, evaluated once per launch: each
        coordinate slot's distinct values read from the bound array into
        a contiguous vector, then every live hoisted op in group order,
        the oracle's own calls into vectors of its dtypes."""
        def vexpr(node) -> str:
            return (f"u{node.ref}" if node.kind == "load"
                    else self.vec.get(node) or self._expr(node))

        shape, lines = self.shape, []
        for slot in sorted({arg.ref for node in self.axis_of
                            for arg in node.args if arg.kind == "load"}):
            used = self.coord_axes[slot]
            d, step = shape[used], math.prod(shape[used + 1:])
            lines.append(f"u{slot} = s{slot}[:{d}]" if step == 1 else
                         f"u{slot} = s{slot}[:{d * step}:{step}].copy()")
        empty = self._fn(np.empty)
        for _, node, aux in (entry for group in self.entries
                             for entry in group if entry[0] == "compute"):
            val = self.vals[node]
            if node not in self.axis_of or not (val.uses or val.store_sites):
                continue
            for arg in node.args:
                note(arg)
            axis = self.axis_of[node]
            name = self.vec[node] = f"w{len(self.vec)}"
            lines.append(f"{name} = {empty}({shape[axis]}, "
                         f"{self._const(node.dtype)})")
            if aux is not None:
                aux.name = f"{name}a"
                lines.append(f"{aux.name} = {empty}({shape[axis]}, "
                             f"{self._const(self.vec_aux[aux])})")
            lines.extend(self._emit_compute(node, aux, vexpr))
            if node in self.roots:      # shaped to broadcast over a slab
                cast = (shape[axis],) + (1,) * (len(shape) - 1 - axis)
                lines.append(f"{name}y = {name}.reshape({cast})")
        return lines

    def _emit(self):
        lines: list[str] = []
        used_cids: set[int] = set()
        used_sregs: set[int] = set()

        def note(node) -> None:
            if node.kind in ("load", "shift"):
                used_cids.add(node.ref)
            elif node.kind == "scalar":
                used_sregs.add(node.ref)
            elif node.kind == "op" and self.vals[node].fwd_cid is not None:
                used_cids.add(self.vals[node].fwd_cid)

        vectors = self._emit_vectors(note)
        rest = ", ".join(str(d) for d in (self.shape or ())[1:])
        for g, entries in enumerate(self.entries):
            evals: list[str] = []
            commits: list[str] = []
            for cid, val in self.gathers.items():
                if val.defg == g and val.uses:   # gathered at first use
                    used_cids.add(cid)
                    evals.append(f"h{cid} = G{cid}(s{cid}, a, z)")
            for entry in entries:
                kind = entry[0]
                if kind == "load":
                    # Snapshot a materialized load when it is read — for
                    # a store's own source, before any commit.
                    node = entry[1]
                    val = self.vals[node]
                    if val.mat and val.uses:
                        used_cids.add(node.ref)
                        evals.append(f"_cp({val.name}, s{node.ref}[b:e])")
                elif kind == "compute":
                    _, node, aux = entry
                    out = self.vals[node]
                    if not out.uses and not out.store_sites:
                        continue  # dead value
                    if node in self.axis_of:    # evaluated per launch
                        if node in self.roots:
                            note(node)
                            cut = "" if self.axis_of[node] else "[a:z]"
                            evals.append(f"_cp({self._expr(node)}.reshape("
                                         f"-1, {rest}), {self.vec[node]}y{cut})")
                        continue
                    for arg in node.args:
                        note(arg)
                    note(node)
                    evals.extend(self._emit_compute(node, aux))
                else:
                    site = entry[1]
                    if site["elide"]:
                        continue
                    term = site["term"]
                    note(term)
                    used_cids.add(site["cid"])
                    commits.append(
                        f"_cp(s{site['cid']}[b:e], {self._expr(term)},"
                        f" casting='unsafe')")
            lines.extend(evals)
            lines.extend(commits)

        glb: dict = {"_cp": np.copyto}
        for name, fn in self.fns.values():
            glb[name] = fn
        for name, value in self.consts.values():
            glb[name] = value

        pre = [f"s{cid} = S[{cid}]" for cid in sorted(used_cids)]
        pre += [f"x{k} = X[{k}]" for k in sorted(used_sregs)]
        pre += self.hoists
        pre += vectors
        gathers = [(cid, val) for cid, val in self.gathers.items() if val.uses]
        shape = self.shape
        if gathers or self.roots:
            # Blocks are whole leading-axis slabs, so every shifted
            # operand's block is a rectangle of its source, and every
            # root's a rectangle of its broadcast vector.
            plane = self.loop.n // shape[0]
            slabs = max(1, min(shape[0], _BLOCK // plane))
            bs = slabs * plane
            loop = ["a = 0",
                    f"while a < {shape[0]}:",
                    f"    z = a + {slabs}",
                    f"    if z > {shape[0]}: z = {shape[0]}",
                    f"    b = a * {plane}",
                    f"    e = z * {plane}",
                    "    m = e - b"]
            step = "    a = z"
        else:
            bs = min(self.loop.n, _BLOCK)
            loop = ["b = 0",
                    "while b < n:",
                    f"    e = b + {bs}",
                    "    if e > n: e = n",
                    "    m = e - b"]
            step = "    b = e"
        # Each running call takes a buffer set of its own (block buffers,
        # gathers laid out over them) from the kernel's free list and
        # gives it back: two threads may launch one kernel at once.
        bufs = [f"B{i}" for i in range(len(self.phys))]
        bufs += [f"G{cid}" for cid, _ in gathers]
        if bufs:
            phys, free = self.phys, []
            laid = [(self.loop.shifts[cid], int(val.name[1:]))
                    for cid, val in gathers]

            def new() -> tuple:
                B = [np.empty(bs, dtype=dt) for dt in phys]
                return (*B, *(BlockGather(shape, offsets, B[i])
                              for offsets, i in laid))

            glb["_take"], glb["_give"], glb["_new"] = free.pop, free.append, new
            names = ", ".join(bufs) + ","
            pre += ["try:", f"    {names} = _take()",
                    "except IndexError:", f"    {names} = _new()"]
        loop += [f"    v{i} = B{i}[:m]" for i in range(len(self.phys))]
        loop += [f"    {ln}" for ln in lines]
        loop += [step]
        staged = self.loop.staged
        loop += [f"_cp(S[{cid}], S[{scratch}])" for cid, scratch in staged]
        if bufs:
            loop.append(f"_give(({names}))")
        body = ["def _kernel(S, X, n):"]
        body += [f"    {ln}" for ln in pre + loop]
        src = "\n".join(body) + "\n"
        code = compile(src, f"<kernel:{self.loop.name}>", "exec")
        exec(code, glb)
        # Popped, so the function and its buffer sets are not a
        # reference cycle: an evicted kernel is freed at once.
        kernel = glb.pop("_kernel")
        kernel.source = src
        kernel.staged = staged
        kernel.native = False
        # What the cache entry remembers for :func:`hot`: the work it
        # has streamed, and why the C printer declined it once asked;
        # and the loop, for the C printer to read once it is hot.
        kernel.streamed = 0
        kernel.declined = None
        kernel.loop = self.loop
        # The axes whose one-axis subtrees run once per coordinate.
        kernel.hoists = tuple(sorted({self.axis_of[r] for r in self.roots}))
        return kernel

    def _emit_compute(self, node, aux, expr=None) -> list[str]:
        op = node.ref
        expr = expr or self._expr
        exprs = [expr(a) for a in node.args]
        target = expr(node)
        if op in _FMA_FNS:
            f1, f2 = (self._fn(fn) for fn in _FMA_FNS[op])
            return [f"{f1}({exprs[0]}, {exprs[1]}, out={aux.name})",
                    f"{f2}({aux.name}, {exprs[2]}, out={target})"]
        if op in ("idivv", "imodv"):
            # ``pe._int_div``/``pe._int_mod`` on a block: the ufunc
            # computes in the oracle's ``dtype`` and the store into
            # ``out`` is its ``astype``.
            if op == "idivv":
                return [f"{self._fn(np.divide)}({exprs[0]}, {exprs[1]}, "
                        f"out={aux.name}, dtype={self._const(np.float64)})",
                        f"{self._fn(np.trunc)}({aux.name}, out={target}, "
                        f"casting='unsafe')"]
            return [f"{self._fn(np.fmod)}({exprs[0]}, {exprs[1]}, "
                    f"out={target}, dtype={self._const(np.int64)}, "
                    f"casting='unsafe')"]
        if op != "fselv":
            return [f"{self._fn(_OUT_FNS[op])}({', '.join(exprs)}, "
                    f"out={target})"]
        # select: copy the false side, overwrite where the mask holds
        if aux is not None:
            ne = self._fn(np.not_equal)
            conv = [f"{ne}({exprs[0]}, 0, out={aux.name})"]
            mexpr = aux.name
        elif node.args[0] in self.vals:  # an array, already boolean
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
