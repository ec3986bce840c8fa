"""The :class:`Pass` record and its run-time context.

A pass is declarative data: the manager decides *whether* to run it
(``enabled`` over the transform options), *what to verify* afterwards
(the pass name doubles as the verifier stage), *what identifies it* for
artifact caching (``config`` — the option subset that changes its
output), and *where its report lands* (``report_slot`` on
:class:`~repro.transform.pipeline.TransformReport`).  The ``run``
callable itself is the only imperative part.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from .. import nir
from ..lowering.environment import Environment

#: Pass scopes: ``program`` passes see the full WITH_DOMAIN/WITH_DECL
#: scaffolding; ``body`` passes see the bare statement tree and the
#: manager re-wraps afterwards (declarations may have grown).
SCOPES = ("program", "body")


@dataclass
class Memos:
    """What one compile walk computes once (docs/PIPELINE.md §9): the
    inference memo lowering, both checks and normalize share, and the
    phase memo of ``block`` and the backend.  The walk
    owns them and drops them; no pickled object holds them."""

    infer: dict = field(default_factory=dict)
    phases: dict = field(default_factory=dict)


@dataclass
class PassContext:
    """Everything a pass may read or write while running.

    ``node`` is the IR in the pass's declared scope; the ``run``
    callable returns its replacement.  ``report`` is the shared
    :class:`TransformReport`; each pass fills its own slot.
    """

    node: nir.Imperative
    env: Environment
    options: Any
    report: Any
    verify: bool = False
    memos: Memos = field(default_factory=Memos)


def _always(_options: Any) -> bool:
    return True


def _no_config(_options: Any) -> dict:
    return {}


@dataclass(frozen=True)
class Pass:
    """One declarative pipeline stage."""

    name: str
    scope: str
    run: Callable[[PassContext], nir.Imperative]
    enabled: Callable[[Any], bool] = field(default=_always)
    config: Callable[[Any], dict] = field(default=_no_config)
    report_slot: str | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.scope not in SCOPES:
            raise ValueError(
                f"pass {self.name!r}: scope must be one of {SCOPES}, "
                f"got {self.scope!r}")

    def identity(self, options: Any) -> dict:
        """The cache-key contribution of this pass under ``options``."""
        return {"name": self.name, "config": self.config(options)}
