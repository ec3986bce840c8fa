"""Combined static type and shape inference over NIR value trees.

The paper performs static typechecking and *shapechecking* — "an
analogous operation ... over the shape domain" — during semantic
lowering.  This module is the shared inference engine: given symbol and
domain environments it computes, for every value, its elemental scalar
type and its shape (``None`` for front-end scalars), raising
:class:`repro.nir.TypeError_` or :class:`repro.nir.ShapeError` on
disagreement.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import nir
from ..frontend import intrinsics as intr
from .environment import Environment, Symbol


@dataclass(frozen=True)
class VInfo:
    """Inference result: elemental type plus shape (None = scalar)."""

    elem: nir.ScalarType
    shape: nir.Shape | None

    @property
    def is_scalar(self) -> bool:
        return self.shape is None


def _combine_shapes(a: nir.Shape | None, b: nir.Shape | None,
                    env, what: str) -> nir.Shape | None:
    """Shape of a binary interaction: scalar broadcast or conformance."""
    if a is None:
        return b
    if b is None:
        return a
    if nir.same_domain(a, b, env):
        return a
    if nir.conformable(a, b, env):
        # Conformable but differently aligned: legal Fortran, but the
        # interaction implies data motion; keep the left operand's shape.
        return a
    raise nir.ShapeError(
        f"{what}: shapes do not conform: {a} vs {b} "
        f"(extents {nir.extents(a, env)} vs {nir.extents(b, env)})")


class Inference:
    """Type/shape inference bound to one unit's environments.

    ``memo`` maps values to their :class:`VInfo` (the compile's inference
    memo, docs/PIPELINE.md §9); without one nothing is remembered.
    """

    def __init__(self, env: Environment,
                 domain_env: dict[str, nir.Shape] | None = None,
                 memo: dict | None = None) -> None:
        self.env = env
        self.domains = domain_env if domain_env is not None else env.domains
        self.memo = memo

    # -- public API ---------------------------------------------------------

    def infer(self, value: nir.Value) -> VInfo:
        """Infer the elemental type and shape of a value tree."""
        memo = self.memo
        if memo is not None:
            info = memo.get(value)
            if info is not None:
                return info
        method = getattr(self, "_infer_" + type(value).__name__.lower(), None)
        if method is None:
            raise nir.TypeError_(f"cannot infer {type(value).__name__}")
        info = method(value)
        if memo is not None:
            memo[value] = info
        return info

    def shape_of_symbol(self, sym: Symbol) -> nir.Shape | None:
        if not sym.is_array:
            return None
        return nir.full_shape(sym.type, self.domains)

    def section_shape(self, sym: Symbol,
                      sub: nir.Subscript) -> nir.Shape | None:
        """Shape of an array section ``sym(sub)``; None if rank drops to 0.

        Two forms exist.  A *rectangular section* has only ranges and
        scalar subscripts; its shape is the product of the kept ranges.
        A *gather* has at least one field-valued subscript (Figure 9's
        diagonal ``subscript(prod_dom[local_under(beta,1),
        local_under(beta,1)])``); NIR subscripts apply pointwise over a
        common region, so all field-valued subscripts must share one
        shape, which is the result shape.
        """
        dims = nir.dims_of(nir.full_shape(sym.type, self.domains),
                           self.domains)
        if len(sub.indices) != len(dims):
            raise nir.ShapeError(
                f"'{sym.name}' has rank {len(dims)} but "
                f"{len(sub.indices)} subscripts were given")
        infos: list = []
        gather_region: nir.Shape | None = None
        for axis, (index, dim) in enumerate(zip(sub.indices, dims), start=1):
            if isinstance(index, nir.IndexRange):
                infos.append(("range", self._range_shape(sym, axis, index,
                                                         dim)))
                continue
            info = self.infer(index)
            if not info.elem.is_integer:
                raise nir.TypeError_(
                    f"'{sym.name}' axis {axis}: subscript must be integer")
            if info.shape is None:
                infos.append(("scalar", None))
            else:
                resolved = nir.resolve(info.shape, self.domains)
                if gather_region is None:
                    gather_region = resolved
                elif nir.extents(gather_region, self.domains) != \
                        nir.extents(resolved, self.domains):
                    raise nir.ShapeError(
                        f"'{sym.name}': gather subscripts disagree on "
                        f"region shape")
                infos.append(("field", resolved))
        if gather_region is not None:
            # Pointwise gather: ranges are not permitted alongside
            # field-valued subscripts (canonical NIR uses all-coordinate
            # form, as in Figure 9).
            if any(kind == "range" for kind, _ in infos):
                raise nir.ShapeError(
                    f"'{sym.name}': ranges may not mix with field-valued "
                    f"subscripts")
            return gather_region
        kept = [shape for kind, shape in infos if kind == "range"]
        if not kept:
            return None
        if len(kept) == 1:
            return kept[0]
        return nir.ProdDom(tuple(kept))

    def _range_shape(self, sym: Symbol, axis: int, rng: nir.IndexRange,
                     dim: nir.Shape) -> nir.Shape:
        lo = self._const_index(rng.lo, default=_dim_lo(dim))
        hi = self._const_index(rng.hi, default=_dim_hi(dim))
        stride = self._const_index(rng.stride, default=1)
        if stride == 0:
            raise nir.ShapeError(f"'{sym.name}' axis {axis}: zero stride")
        return nir.Interval(lo, hi, stride)

    def _const_index(self, v: nir.Value | None, default: int) -> int:
        if v is None:
            return default
        if isinstance(v, nir.Scalar) and v.type.is_integer:
            return int(v.rep)
        raise nir.ShapeError(
            "section bounds must be integer constants after folding")

    # -- per-node rules -------------------------------------------------------

    def _infer_scalar(self, v: nir.Scalar) -> VInfo:
        return VInfo(v.type, None)

    def _infer_svar(self, v: nir.SVar) -> VInfo:
        sym = self.env.lookup(v.name)
        if sym.is_array:
            raise nir.TypeError_(f"'{v.name}' is an array, not a scalar")
        return VInfo(sym.element, None)

    def _infer_refin(self, v: nir.RefIn) -> VInfo:
        return self._infer_svar(nir.SVar(v.name))

    def _infer_copyin(self, v: nir.CopyIn) -> VInfo:
        return self._infer_svar(nir.SVar(v.name))

    def _infer_avar(self, v: nir.AVar) -> VInfo:
        sym = self.env.lookup(v.name)
        if not sym.is_array:
            raise nir.TypeError_(f"'{v.name}' is not an array")
        if isinstance(v.field, nir.Everywhere):
            return VInfo(sym.element, self.shape_of_symbol(sym))
        if isinstance(v.field, nir.Subscript):
            return VInfo(sym.element, self.section_shape(sym, v.field))
        if isinstance(v.field, nir.LocalUnder):
            return VInfo(nir.INTEGER_32,
                         nir.resolve(v.field.shape, self.domains))
        raise nir.TypeError_(f"unknown field action on '{v.name}'")

    def _infer_localunder(self, v: nir.LocalUnder) -> VInfo:
        shape = nir.resolve(v.shape, self.domains)
        if v.dim > nir.rank(shape, self.domains):
            raise nir.ShapeError(
                f"local_under axis {v.dim} exceeds rank of {shape}")
        return VInfo(nir.INTEGER_32, shape)

    def _infer_binary(self, v: nir.Binary) -> VInfo:
        left = self.infer(v.left)
        right = self.infer(v.right)
        shape = _combine_shapes(left.shape, right.shape, self.domains,
                                f"BINARY({v.op.name})")
        if v.op.is_logical:
            if not (left.elem.is_logical and right.elem.is_logical):
                raise nir.TypeError_(
                    f"{v.op.value}: operands must be logical")
            return VInfo(nir.LOGICAL_32, shape)
        if left.elem.is_logical or right.elem.is_logical:
            raise nir.TypeError_(
                f"{v.op.value}: logical operand in arithmetic")
        if v.op.is_relational:
            return VInfo(nir.LOGICAL_32, shape)
        return VInfo(nir.join_arith(left.elem, right.elem), shape)

    def _infer_unary(self, v: nir.Unary) -> VInfo:
        info = self.infer(v.operand)
        op = v.op
        if op is nir.UnOp.NOT:
            if not info.elem.is_logical:
                raise nir.TypeError_(".not. requires a logical operand")
            return info
        if info.elem.is_logical:
            raise nir.TypeError_(f"{op.value}: logical operand in arithmetic")
        if op is nir.UnOp.TO_INT or op in (nir.UnOp.FLOOR, nir.UnOp.CEILING):
            return VInfo(nir.INTEGER_32, info.shape)
        if op is nir.UnOp.TO_FLOAT32:
            return VInfo(nir.FLOAT_32, info.shape)
        if op is nir.UnOp.TO_FLOAT64:
            return VInfo(nir.FLOAT_64, info.shape)
        if op.is_transcendental:
            elem = info.elem if info.elem.is_float else nir.FLOAT_64
            return VInfo(elem, info.shape)
        return info  # NEG, ABS preserve type

    def _infer_fcncall(self, v: nir.FcnCall) -> VInfo:
        name = v.name.lower()
        if name == "merge":
            t, f, m = (self.infer(a) for a in v.args)
            if not m.elem.is_logical:
                raise nir.TypeError_("merge: mask must be logical")
            shape = _combine_shapes(
                _combine_shapes(t.shape, f.shape, self.domains, "merge"),
                m.shape, self.domains, "merge")
            return VInfo(nir.join_arith(t.elem, f.elem), shape)
        if name in intr.COMMUNICATION:
            return self._infer_comm(name, v)
        if name in intr.REDUCTIONS:
            return self._infer_reduction(name, v)
        raise nir.TypeError_(f"unknown function '{v.name}'")

    def _infer_comm(self, name: str, v: nir.FcnCall) -> VInfo:
        arg = self.infer(v.args[0])
        if arg.shape is None:
            raise nir.ShapeError(f"{name}: argument must be an array")
        if name in ("cshift", "eoshift"):
            return arg
        if name == "transpose":
            dims = nir.dims_of(arg.shape, self.domains)
            if len(dims) != 2:
                raise nir.ShapeError("transpose requires a rank-2 array")
            return VInfo(arg.elem, nir.ProdDom((dims[1], dims[0])))
        if name == "spread":
            dim = self._const_index(v.args[1], default=1)
            ncopies = self._const_index(v.args[2], default=1)
            dims = list(nir.dims_of(arg.shape, self.domains))
            dims.insert(dim - 1, nir.Interval(1, ncopies))
            return VInfo(arg.elem, nir.ProdDom(tuple(dims)))
        raise nir.TypeError_(f"unknown communication intrinsic {name}")

    def _infer_reduction(self, name: str, v: nir.FcnCall) -> VInfo:
        arg = self.infer(v.args[0])
        if arg.shape is None:
            raise nir.ShapeError(f"{name}: argument must be an array")
        if name in ("count",):
            elem = nir.INTEGER_32
        elif name in ("any", "all"):
            elem = nir.LOGICAL_32
        else:
            elem = arg.elem
        if len(v.args) > 1 and v.args[1] is not None:
            dim = self._const_index(v.args[1], default=1)
            dims = list(nir.dims_of(arg.shape, self.domains))
            if not 1 <= dim <= len(dims):
                raise nir.ShapeError(f"{name}: DIM={dim} out of range")
            del dims[dim - 1]
            if not dims:
                return VInfo(elem, None)
            shape = dims[0] if len(dims) == 1 else nir.ProdDom(tuple(dims))
            return VInfo(elem, shape)
        return VInfo(elem, None)


def _dim_lo(dim: nir.Shape) -> int:
    if isinstance(dim, nir.Point):
        return dim.value
    if isinstance(dim, (nir.Interval, nir.SerialInterval)):
        return dim.lo
    raise nir.ShapeError(f"not a one-dimensional shape: {dim}")


def _dim_hi(dim: nir.Shape) -> int:
    if isinstance(dim, nir.Point):
        return dim.value
    if isinstance(dim, (nir.Interval, nir.SerialInterval)):
        return dim.hi
    raise nir.ShapeError(f"not a one-dimensional shape: {dim}")
