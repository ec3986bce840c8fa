"""The loop IR: a group's steps lowered once, then printed as a kernel.

A dispatch group — k >= 1 routines over one proven-safe slot table
(:mod:`repro.machine.execplan`) — becomes a kernel in two stages, as
the paper's NIR compilers share one form under several targets (§4).
:func:`lower` walks the constituents'
:class:`~repro.machine.plan.RoutinePlan` steps once and produces a
:class:`Loop`; two printers write the same loop out, one as blocked
numpy (:mod:`repro.machine.kernel`) and one as C
(:mod:`repro.machine.ckernel`).  The loop is immutable once lowered:
each printer keeps its own decisions in side tables, so the C printer
asked at tier-up reads exactly what the blocked printer read.

The lowering does what both printers need done the same way:

* registers are banked per constituent and resolved away — an op's
  operands are the :class:`Node` objects that defined them — and scalar
  registers are numbered into one file (constituent ``i``'s ``aS{r}`` is
  ``i * NUM_SREGS + r``, its index into the launch's scalar list);
* memory operands are named by slot; a store to the source of a shifted
  operand is *staged*: it goes to a scratch slot, numbered after the
  group's own, and copied back after the loop, and a plain read of that
  slot after the first such store (in group order) reads the scratch,
  where its own element already landed.  An element-by-element (or
  block-by-block) kernel would otherwise overwrite neighbours a later
  element still has to see through the shift;
* every op and every slot is typed from the binding signatures
  (:func:`step_types`): an op's result by running its own numpy calls
  over stand-ins of its operands, a scalar by its signature.

A group is lowered only for binding signatures whose first trip the
oracle ran, and the oracle raises on a read of an undefined register,
an unbound scalar or an unbound pointer: none of them reaches here.
It declines, with the reason a cache entry keeps as ``("blocked",
reason)``: a conversion op (``op fintv``: it allocates, no kernel runs
it), a result that is not a stream (``scalar-shaped faddv``, ``shape``),
a group that stores nothing (``empty``) and shifted operands of two
shapes (``shift shapes``: blocks are slabs, and C rows, of one shape).
What the C printer declines beyond that is its own (``("c", reason)``).

The op tables sit here side by side: what the blocked printer calls
for each op (``_OUT_FNS``; a multiply-add is the pair of ufuncs
``_FMA_FNS``, which the typing runs too) and what the C printer emits
for it or why it does not (``_C_FORMS``, ``_C_DECLINED``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..peac.isa import NUM_SREGS, NUM_VREGS
from .pe import _APPLY
from .plan import (_R_MEM, _R_SREG, _R_VREG, _ComputeStep, _MoveStep,
                   _StoreStep)


class Declined(Exception):
    """A printer (or the lowering) will not make this kernel; the one
    argument is the reason (``"op fintv"``, ``"divisor 0"``)."""


# numpy ufuncs that compute each _APPLY entry bit-identically with out=.
_OUT_FNS = {
    "faddv": np.add, "fsubv": np.subtract, "fmulv": np.multiply,
    "fdivv": np.divide, "fminv": np.minimum, "fmaxv": np.maximum,
    "fmodv": np.fmod, "fpowv": np.power,
    "fnegv": np.negative, "fabsv": np.absolute, "fsqrtv": np.sqrt,
    "fsinv": np.sin, "fcosv": np.cos, "ftanv": np.tan,
    "fasinv": np.arcsin, "facosv": np.arccos, "fatanv": np.arctan,
    "fexpv": np.exp, "flogv": np.log, "flog10v": np.log10,
    "fceqv": np.equal, "fcnev": np.not_equal, "fcltv": np.less,
    "fclev": np.less_equal, "fcgtv": np.greater, "fcgev": np.greater_equal,
    "candv": np.logical_and, "corv": np.logical_or,
    "cxorv": np.logical_xor, "cnotv": np.logical_not,
    "iaddv": np.add, "isubv": np.subtract, "imulv": np.multiply,
    "inegv": np.negative,
    "finvv": np.divide,     # its readers carry the 1.0 numerator
}

# The two ufuncs of a multiply-add, which ``_APPLY`` runs as one
# lambda: the typing runs them to type the product, and a blocked kernel
# runs them block by block.  Everything else the blocked printer runs
# as the oracle's own calls (``fselv`` as two copies, ``idivv``/``imodv``
# through their dtypes); the conversions allocate, so the lowering
# declines them.
_FMA_FNS = {
    "fmav": (np.multiply, np.add),
    "fmsv": (np.multiply, np.subtract),
}
_CONVERSIONS = ("fintv", "ffloorv", "fceilv", "ffltv", "fdblv")

# What the C printer (:mod:`repro.machine.ckernel`) does with each op:
# every key of ``pe._APPLY`` is in exactly one of the two tables.  A
# form is ``(family, C operator)``; the *kind* an op computes in is the
# dtype the lowering typed it with, never the op's name (``fmulv`` over
# ``int32`` streams is an integer multiply).
_C_FORMS = {
    # computed in the recorded kind; integers in the unsigned twin
    "faddv": ("arith", "+"), "fsubv": ("arith", "-"),
    "fmulv": ("arith", "*"), "fdivv": ("arith", "/"),
    "finvv": ("arith", "/"),
    "iaddv": ("arith", "+"), "isubv": ("arith", "-"),
    "imulv": ("arith", "*"),
    "fmav": ("fma", "+"), "fmsv": ("fma", "-"),
    "fnegv": ("neg", "-"), "inegv": ("neg", "-"),
    "fabsv": ("abs", "fabs"), "fsqrtv": ("sqrt", "sqrt"),
    # C's usual arithmetic conversions are numpy's promotion here
    "fceqv": ("cmp", "=="), "fcnev": ("cmp", "!="), "fcltv": ("cmp", "<"),
    "fclev": ("cmp", "<="), "fcgtv": ("cmp", ">"), "fcgev": ("cmp", ">="),
    # on truth values (an operand that is not one means ``!= 0``)
    "candv": ("logic", "&"), "corv": ("logic", "|"),
    "cxorv": ("logic", "^"), "cnotv": ("not", "!"),
    "fselv": ("select", "?"),
    # by a plan-time constant outside {0, -1} only
    "idivv": ("intdiv", "/"), "imodv": ("intdiv", "%"),
}

_C_DECLINED = {
    **dict.fromkeys(
        ("fsinv", "fcosv", "ftanv", "fasinv", "facosv", "fatanv", "fexpv",
         "flogv", "flog10v", "fpowv", "fmodv"),
        "libm is not numpy's SIMD routine: not bit-identical"),
    **dict.fromkeys(("fminv", "fmaxv"),
                    "numpy propagates a NaN operand's payload, C's "
                    "fmin/fmax and ?: do not"),
    **dict.fromkeys(_CONVERSIONS,
                    "conversion: numpy's cast of NaN and out-of-range "
                    "values is not C's (and no blocked kernel asks)"),
}


class Node:
    """One node of a loop: a value, or a store.

    ``kind`` and ``ref`` say what it is:

    * ``"load"`` / ``"shift"`` — a read of slot ``ref``, plain or
      through the slot's shift (``Loop.shifts``); ``dtype`` the slot's;
    * ``"scalar"`` — scalar register ``ref`` of the group's file;
      ``dtype`` the name of its bound type (:func:`_scalar_type`);
    * ``"const"`` — the plan-time constant ``ref``;
    * ``"op"`` — op ``ref`` over the nodes ``args``; ``dtype`` its
      result dtype and ``aux``, for a multiply-add, its product's
      (:func:`step_types`);
    * ``"store"`` — ``args[0]`` written to slot ``ref`` (of ``dtype``).

    Nodes compare by identity: two reads of one slot are two values.
    """

    __slots__ = ("kind", "ref", "dtype", "args", "aux")

    def __init__(self, kind, ref, dtype=None, args=(), aux=None) -> None:
        self.kind = kind
        self.ref = ref
        self.dtype = dtype
        self.args = args
        self.aux = aux


class Loop(NamedTuple):
    """A group lowered: ``n`` elements, one iteration each, and per
    instruction group the nodes a printer visits in step order.

    ``groups`` holds every memory read, every scalar or constant a move
    reads, every op and every store; an op or store reads the nodes it
    names, so a scalar or constant it takes directly is read there.
    Within a group every read and op evaluates before any store
    commits, as both halves of a dual-issue pair observe
    pre-instruction state.  ``dtypes`` is per slot, scratch slots
    included; ``shifts`` maps each shifted slot to its per-axis offsets
    and ``shape`` is the one shape they are read in (None without
    shifts); ``staged`` is ``((slot, scratch slot), ...)``.
    """

    name: str
    n: int
    dtypes: tuple
    groups: tuple
    shifts: dict
    shape: tuple | None
    staged: tuple


def _scalar_type(sig) -> str:
    """The type name of a scalar register from its signature
    (``RoutinePlan._signature``): Python's or numpy's, 0-d arrays as
    their element's."""
    if sig[0] == "p":
        return sig[1]
    if sig[0] == "a" and sig[1] != ():
        return "array"
    return np.dtype(sig[-1]).name


# A value of each Python type a scalar argument's signature may name.
_PY_SCALARS = {"bool": True, "int": 1, "float": 1.0, "complex": 1j}


def _standin(sig):
    """A value numpy promotes as it does a scalar argument of signature
    ``sig``: one of its Python or numpy type, or an array of its shape
    and dtype."""
    if sig[0] == "a":
        return np.ones(sig[1], sig[2])
    if sig[0] == "n":
        return np.dtype(sig[1]).type(1)
    if sig[1] not in _PY_SCALARS:
        raise Declined(f"scalar {sig[1]}")
    return _PY_SCALARS[sig[1]]


def step_types(plan, sig) -> list:
    """``(result, product)`` per compute step of ``plan`` under binding
    signature ``sig``, in step order: arrays of the rank and dtype the
    oracle computes (``product`` a multiply-add's ``a * b``, else None).

    Each step runs its own numpy calls (``pe._APPLY``, a multiply-add as
    ``_FMA_FNS``) over stand-ins: a stream read is a one-element array
    of the stream's dtype, a scalar register a :func:`_standin`, a
    constant the plan-time constant; a move wraps its value in
    ``np.asarray`` as the oracle does.  NumPy's promotion depends on
    neither values nor lengths, and a result is stream-shaped (rank 1)
    when any operand is.
    """
    streams, scalars = sig
    regs: list = [None] * NUM_VREGS

    def read(rd):
        tag, arg = rd
        if tag == _R_VREG:
            return regs[arg]
        if tag == _R_MEM:
            return np.ones(1, streams[arg][1])
        return _standin(scalars[arg]) if tag == _R_SREG else arg

    types = []
    with np.errstate(all="ignore"):
        for steps in plan.groups:
            pend = []       # registers update as the group retires
            for step in steps:
                if isinstance(step, _MoveStep):
                    pend.append((step.dst, np.asarray(read(step.reader))))
                elif isinstance(step, _ComputeStep):
                    args = [read(rd) for rd in step.readers]
                    product = None
                    if step.op in _FMA_FNS:
                        mul, add = _FMA_FNS[step.op]
                        product = np.asarray(mul(args[0], args[1]))
                        result = np.asarray(add(product, args[2]))
                    else:       # finvv's first reader is its 1.0
                        result = np.asarray(np.divide(*args)
                                            if step.op == "finvv"
                                            else _APPLY[step.op](*args))
                    types.append((result, product))
                    pend.append((step.dst, result))
            for dst, value in pend:
                regs[dst] = value
    return types


def lower(plans, slot_maps, sigs, n, dtypes, shifts) -> Loop:
    """The loop of a group: constituent ``plans`` with their slot maps
    (preg -> slot) and binding signatures, the stream length ``n``, the
    slots' ``dtypes`` and the probe's ``shifts`` (``(slot, staged source
    slot or None, shape, offsets)`` each).  Raises :class:`Declined`."""
    scalars = tuple(k for _, ks in sigs for k in ks)    # the group's file
    offsets = {slot: offs for slot, _, _, offs in shifts}
    shape_of = {slot: shape for slot, _, shape, _ in shifts}
    bases = {base for _, base, _, _ in shifts if base is not None}
    staged = tuple((slot, len(dtypes) + j)
                   for j, slot in enumerate(sorted(bases)))
    scratch = dict(staged)
    dtypes = tuple(dtypes) + tuple(dtypes[slot] for slot, _ in staged)
    first: dict[int, int] = {}      # staged slot -> first storing group
    groups: list[tuple[Node, ...]] = []

    def read(rd, entries, move=False) -> Node:
        tag, arg = rd
        if tag == _R_VREG:
            return regs[arg]
        if tag == _R_MEM:
            slot = smap[arg]
            if slot in first and first[slot] < len(groups):  # stored before
                slot = scratch[slot]
            node = Node("shift" if slot in offsets else "load", slot,
                        dtypes[slot])
        elif tag == _R_SREG:
            k = bank * NUM_SREGS + arg
            node = Node("scalar", k, _scalar_type(scalars[k]))
        else:
            node = Node("const", arg)
        if tag == _R_MEM or move:
            entries.append(node)
        return node

    for bank, (plan, smap, sig) in enumerate(zip(plans, slot_maps, sigs)):
        regs: list[Node | None] = [None] * NUM_VREGS
        typed = iter(step_types(plan, sig))
        for steps in plan.groups:
            entries: list[Node] = []
            pend: list[tuple[int, Node]] = []
            for step in steps:
                if isinstance(step, _MoveStep):
                    pend.append((step.dst, read(step.reader, entries, True)))
                elif isinstance(step, _StoreStep):
                    value = read(step.reader, entries)
                    slot = smap[step.preg]
                    if slot in scratch:
                        first.setdefault(slot, len(groups))
                        slot = scratch[slot]
                    entries.append(Node("store", slot, dtypes[slot],
                                        (value,)))
                elif isinstance(step, _ComputeStep):
                    if step.op in _CONVERSIONS:
                        raise Declined(f"op {step.op}")
                    result, product = next(typed)
                    if result.shape != (1,):   # from scalars alone, mostly
                        raise Declined(f"scalar-shaped {step.op}"
                                       if result.ndim == 0 else "shape")
                    if product is not None and product.shape != (1,):
                        raise Declined("shape")
                    args = tuple(read(rd, entries) for rd in step.readers)
                    node = Node("op", step.op, result.dtype, args,
                                None if product is None else product.dtype)
                    entries.append(node)
                    pend.append((step.dst, node))
                # branches are loop bookkeeping: nothing to lower
            for dst, node in pend:      # registers update as the group retires
                regs[dst] = node
            groups.append(tuple(entries))
    if not any(node.kind == "store" for entries in groups
               for node in entries):
        raise Declined("empty")
    shapes = {shape_of[node.ref] for entries in groups for node in entries
              if node.kind == "shift"}
    if len(shapes) > 1:
        raise Declined("shift shapes")
    return Loop("+".join(plan.name for plan in plans), n, dtypes,
                tuple(groups), offsets, shapes.pop() if shapes else None,
                staged)
