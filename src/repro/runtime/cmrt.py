"""CM runtime system (CM/RT): communication and reduction services.

"When compilation to the canonical PEAC format is not possible due to
dependencies, the front end must generate calls to the CM runtime system
to perform communication.  If the dependencies are regular, grid
communications suffice; if they are not, general communications via the
CM router result" (section 2.2).

Each service executes the data motion with numpy (the functional
semantics) and charges the machine's communication meter from the
network cost model.
"""

from __future__ import annotations

import numpy as np

from .. import nir
from ..machine import network
from ..machine.shifted import one_axis, shifted_into
from .nir_eval import NirEvaluator


class RuntimeError_(Exception):
    """Raised on malformed runtime requests."""


def _target_view(machine, tgt: nir.AVar):
    """Numpy view of a MOVE target (everywhere or constant section)."""
    home = machine.home(tgt.name)
    if isinstance(tgt.field, nir.Everywhere):
        return home.data
    if isinstance(tgt.field, nir.Subscript):
        slices = []
        for axis, idx in enumerate(tgt.field.indices):
            n = home.data.shape[axis]
            if isinstance(idx, nir.IndexRange):
                lo = _const(idx.lo, 1)
                hi = _const(idx.hi, n)
                st = _const(idx.stride, 1)
                slices.append(slice(lo - 1, hi, st))
            elif isinstance(idx, nir.Scalar):
                # A width-1 slice keeps the result a writable view.
                i = int(idx.rep)
                slices.append(slice(i - 1, i))
            else:
                raise RuntimeError_(
                    f"'{tgt.name}': runtime targets need constant subscripts")
        return home.data[tuple(slices)]
    raise RuntimeError_(f"cannot form a view for {tgt.field}")


def _const(v, default: int) -> int:
    if v is None:
        return default
    if isinstance(v, nir.Scalar):
        return int(v.rep)
    raise RuntimeError_("section bound is not a constant")


def _write(view: np.ndarray, value) -> None:
    arr = np.asarray(value)
    if arr.shape != view.shape:
        arr = arr.reshape(view.shape)
    np.copyto(view, arr, casting="unsafe")


def _shifted_copy(machine, view: np.ndarray, src: np.ndarray,
                  offsets: tuple[int, ...]) -> None:
    """One-pass CSHIFT: the roll lands straight in the target view.

    The generic path materializes ``np.roll`` (an allocation and a full
    copy) and then copies again into the target.  A circular shift is
    just two block copies, so write them directly — via a pooled
    staging buffer only when source and target share memory.
    """
    if np.may_share_memory(view, src):
        tmp = machine.pool.acquire(src.shape, src.dtype)
        shifted_into(tmp, src, offsets)
        np.copyto(view, tmp, casting="unsafe")
        machine.pool.release(tmp)
    else:
        shifted_into(view, src, offsets)


def _primary_array(value: nir.Value) -> str | None:
    for node in nir.values.walk(value):
        if isinstance(node, nir.AVar):
            return node.name
    return None


def execute_comm(machine, evaluator: NirEvaluator,
                 clause: nir.MoveClause, kind: str,
                 const: tuple | None = None) -> None:
    """Perform one communication MOVE and charge the network meter.

    ``const`` is what the backend resolved at compile time for a
    whole-array CSHIFT by constants — ``(source, extents, dim, shift)``
    — so the per-call work is the copy and a price lookup.  Kind
    ``"folded"`` is such a shift whose readers index the source in
    place (``clause`` is then the host program's ``FoldedShift``, kept
    only for wrappers that trace calls): it is priced, never copied.
    """
    if const is not None:
        src_name, extents, dim, shift = const
        if kind != "folded":
            src = machine.home(src_name).data
            _shifted_copy(machine, machine.home(clause.tgt.name).data, src,
                          one_axis(src.ndim, dim, shift))
        machine.charge_comm(machine.shift_cycles(src_name, extents, dim,
                                                 shift))
        return
    if clause.mask != nir.TRUE:
        raise RuntimeError_("communication phases are unmasked")
    if not isinstance(clause.tgt, nir.AVar):
        raise RuntimeError_("communication target must be an array")
    result = None
    view = _target_view(machine, clause.tgt)
    src_arr = None
    if kind == "cshift" and isinstance(clause.src, nir.FcnCall):
        arg = clause.src.args[0]
        if isinstance(arg, nir.AVar) and isinstance(arg.field, nir.Everywhere):
            data = machine.home(arg.name).data
            if (isinstance(data, np.ndarray) and data.shape == view.shape
                    and data.size):
                src_arr = data
    if src_arr is None:
        result = evaluator.eval(clause.src)
        _write(view, result)

    model = machine.model
    src_name = _primary_array(clause.src)
    geom = (machine.home(src_name).geometry if src_name is not None
            else machine.home(clause.tgt.name).geometry)

    if kind == "cshift" or kind == "eoshift":
        call = clause.src
        assert isinstance(call, nir.FcnCall)
        shift = int(evaluator.eval_scalar(call.args[1]))
        dim_index = 2 if kind == "cshift" else 3
        dim = int(evaluator.eval_scalar(call.args[dim_index]))
        if src_arr is not None:
            if 1 <= dim <= src_arr.ndim:
                _shifted_copy(machine, view, src_arr,
                              one_axis(src_arr.ndim, dim, shift))
            else:
                _write(view, evaluator.eval(clause.src))
        machine.charge_comm(network.cshift_cycles(model, geom, dim, shift))
    elif kind == "transpose":
        machine.charge_comm(network.transpose_cycles(model, geom))
    elif kind == "spread":
        tgt_geom = machine.home(clause.tgt.name).geometry
        machine.charge_comm(network.spread_cycles(model, tgt_geom))
    elif kind == "copy":
        machine.charge_comm(network.section_copy_cycles(
            model, geom, int(np.asarray(result).size), regular=True))
    elif kind == "gather":
        machine.charge_comm(network.router_cycles(
            model, geom, elements_per_pe=max(
                1, int(np.asarray(result).size) // max(1, geom.pes_used))))
    else:
        raise RuntimeError_(f"unknown communication kind {kind!r}")


def execute_reduce(machine, evaluator: NirEvaluator,
                   clause: nir.MoveClause, scalars: dict) -> None:
    """Perform a reduction MOVE: combine tree into the front end."""
    if not isinstance(clause.src, nir.FcnCall):
        raise RuntimeError_("reduction source must be an intrinsic call")
    result = evaluator.eval(clause.src)
    src_name = _primary_array(clause.src)
    geom = machine.home(src_name).geometry if src_name else None
    if geom is not None:
        machine.charge_comm(network.reduction_cycles(machine.model, geom))
        machine.stats.reductions += 1
    if isinstance(clause.tgt, nir.SVar):
        value = result.item() if isinstance(result, np.generic) else result
        if isinstance(value, np.ndarray):
            value = value.reshape(()).item()
        scalars[clause.tgt.name] = value
        machine.charge_host(machine.model.host_op)
    elif isinstance(clause.tgt, nir.AVar):
        view = _target_view(machine, clause.tgt)
        _write(view, result)
    else:
        raise RuntimeError_("invalid reduction target")
