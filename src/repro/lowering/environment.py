"""Symbol and domain environments built from Fortran declarations.

The lowerer assigns every distinct array shape a named domain
(``alpha``, ``beta``, ...) exactly as the paper's examples do
(Figures 8-10), and declares arrays with ``dfield`` types whose shape is
a ``DomainRef`` to that name.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .. import nir
from ..frontend import ast_nodes as A
from ..sourceloc import SourceLoc, attach_loc
from . import fold


class LoweringError(Exception):
    """Raised for semantic errors discovered while building environments."""


_BASE_TYPES = {
    "integer": nir.INTEGER_32,
    "real": nir.FLOAT_32,
    "double": nir.FLOAT_64,
    "logical": nir.LOGICAL_32,
}

# Domain names follow the paper's greek-letter convention.
_GREEK = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta",
    "iota", "kappa", "lambda", "mu", "nu", "xi", "omicron", "pi", "rho",
    "sigma", "tau", "upsilon", "phi", "chi", "psi", "omega",
]


@dataclass(frozen=True)
class Symbol:
    """One declared entity: its NIR type and (for arrays) shape info."""

    name: str
    type: nir.NirType                 # ScalarType or DField(DomainRef, elem)
    extents: tuple[int, ...] = ()     # () for scalars
    domain: str | None = None         # domain name for arrays
    init: object | None = None        # folded initializer, if any
    temp: bool = False                # compiler temporary (fresh_temp)

    @property
    def is_array(self) -> bool:
        return bool(self.extents)

    @property
    def element(self) -> nir.ScalarType:
        return nir.base_element(self.type)


@dataclass
class Environment:
    """Symbols, named constants, and the domain registry for one unit."""

    symbols: dict[str, Symbol] = field(default_factory=dict)
    params: dict[str, object] = field(default_factory=dict)
    domains: dict[str, nir.Shape] = field(default_factory=dict)
    _by_extents: dict[tuple[int, ...], str] = field(default_factory=dict)
    _temp_counter: int = 0

    def domain_for(self, extents: tuple[int, ...]) -> str:
        """Name of the domain covering 1-based parallel ``extents``.

        Registers a fresh greek-lettered domain on first sight of a shape.
        """
        if extents in self._by_extents:
            return self._by_extents[extents]
        idx = len(self.domains)
        name = _GREEK[idx] if idx < len(_GREEK) else f"dom{idx}"
        self.domains[name] = nir.shape_of_extents(extents)
        self._by_extents[extents] = name
        return name

    def lookup(self, name: str) -> Symbol:
        try:
            return self.symbols[name]
        except KeyError:
            raise LoweringError(f"undeclared identifier '{name}'") from None

    def declare(self, sym: Symbol) -> None:
        if sym.name in self.symbols:
            raise LoweringError(f"duplicate declaration of '{sym.name}'")
        self.symbols[sym.name] = sym

    def fresh_temp(self, extents: tuple[int, ...],
                   element: nir.ScalarType) -> Symbol:
        """Declare a compiler temporary array (used by comm extraction)."""
        while f"tmp{self._temp_counter}" in self.symbols:
            self._temp_counter += 1
        name = f"tmp{self._temp_counter}"
        self._temp_counter += 1
        dom = self.domain_for(extents)
        sym = Symbol(
            name=name,
            type=nir.DField(nir.DomainRef(dom), element),
            extents=extents,
            domain=dom,
            temp=True,
        )
        self.declare(sym)
        return sym

    def fresh_scalar_temp(self, element: nir.ScalarType) -> Symbol:
        """Declare a compiler temporary scalar (used by reduction hoisting)."""
        while f"stmp{self._temp_counter}" in self.symbols:
            self._temp_counter += 1
        name = f"stmp{self._temp_counter}"
        self._temp_counter += 1
        sym = Symbol(name=name, type=element)
        self.declare(sym)
        return sym

    def nir_declarations(self) -> nir.DeclSet:
        """The DECLSET for all declared entities, in declaration order."""
        decls = []
        for sym in self.symbols.values():
            if sym.init is not None and not sym.is_array:
                value = _const_value(sym.element, sym.init)
                decls.append(nir.Initialized(sym.name, sym.type, value))
            else:
                decls.append(nir.Decl(sym.name, sym.type))
        return nir.DeclSet(tuple(decls))


def _const_value(elem: nir.ScalarType, val: object) -> nir.Scalar:
    return nir.Scalar(elem, val)


def build_environment(unit: A.ProgramUnit) -> Environment:
    """Process a unit's declaration section into an :class:`Environment`."""
    env = Environment()
    for decl in unit.decls:
        declare_type_decl(env, decl)
    return env


def declare_type_decl(env: Environment, decl: A.TypeDecl) -> None:
    """Process one declaration statement into ``env``.

    Split out from :func:`build_environment` so the lint engine can
    process declarations one at a time, collecting per-declaration
    diagnostics instead of stopping at the first bad one.  Errors carry
    the declaration's source line.
    """
    try:
        _declare_type_decl(env, decl)
    except LoweringError as exc:
        attach_loc(exc, SourceLoc(decl.line) if decl.line else None)
        raise


def _declare_type_decl(env: Environment, decl: A.TypeDecl) -> None:
    base = _BASE_TYPES.get(decl.base)
    if base is None:
        raise LoweringError(f"unsupported type '{decl.base}'")
    shared_dims = decl.dims
    for entity in decl.entities:
        dims = entity.dims or shared_dims
        if decl.parameter:
            if dims:
                raise LoweringError(
                    f"array PARAMETER '{entity.name}' unsupported")
            if entity.init is None:
                raise LoweringError(
                    f"PARAMETER '{entity.name}' lacks a value")
            value = fold.fold(entity.init, env.params)
            env.params[entity.name] = _coerce(base, value)
            env.declare(Symbol(entity.name, base,
                               init=env.params[entity.name]))
            continue
        if dims:
            extents = _fold_extents(entity.name, dims, env.params)
            dom = env.domain_for(extents)
            ty = nir.DField(nir.DomainRef(dom), base)
            env.declare(Symbol(entity.name, ty, extents=extents,
                               domain=dom))
        else:
            init = None
            if entity.init is not None:
                init = _coerce(base, fold.fold(entity.init, env.params))
            env.declare(Symbol(entity.name, base, init=init))


def _fold_extents(name: str, dims, params) -> tuple[int, ...]:
    out = []
    for d in dims:
        if isinstance(d, A.SectionRange):
            raise LoweringError(
                f"'{name}': explicit lower bounds are not supported")
        n = fold.try_fold_int(d, params)
        if n is None:
            raise LoweringError(
                f"'{name}': array extent must be a constant expression")
        if n < 1:
            raise LoweringError(f"'{name}': non-positive extent {n}")
        out.append(n)
    return tuple(out)


def _coerce(base: nir.ScalarType, value: object):
    if base.is_logical:
        return bool(value)
    if base.is_integer:
        return int(value)
    return float(value)
