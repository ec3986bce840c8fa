"""Target and cost-model resolution — the retargeting registry.

A :class:`Target` bundles everything target-specific that used to be
scattered across stringly-typed ``if/elif`` chains in the driver, the
CLI, and the service: the backend compiler class (imported lazily so
registering a target costs nothing), the cost models it can run under
and which is the default, and whether the backend's PEAC output is
subject to routine verification.  Every dispatch site resolves through
:func:`get_target` / :func:`resolve_model`, so an unknown target or
model is a loud, typed error — and adding a target is one
:func:`register_target` call.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..machine import MODEL_FACTORIES, CostModel, Machine


class UnknownTargetError(ValueError):
    """A target name that is not registered."""

    def __init__(self, name: str) -> None:
        self.target = name
        super().__init__(
            f"unknown target {name!r}; registered targets: "
            f"{', '.join(target_names())}")


class UnknownModelError(ValueError):
    """A cost-model name that is not registered (no silent fallback)."""

    def __init__(self, name: str) -> None:
        self.model = name
        super().__init__(
            f"unknown cost model {name!r}; registered models: "
            f"{', '.join(MODEL_FACTORIES)}")


class TargetModelMismatchError(ValueError):
    """An explicit model that the chosen target cannot run under."""

    def __init__(self, target: "Target", model: str) -> None:
        self.target = target.name
        self.model = model
        super().__init__(
            f"cost model {model!r} does not run on target "
            f"{target.name!r} (compatible: {', '.join(target.models)}; "
            f"default: {target.default_model})")


@dataclass(frozen=True)
class Target:
    """One compilation target: backend, cost models, verification."""

    name: str
    description: str
    #: Lazy loader for the backend compiler class — resolving a target
    #: must not import its backend.
    compiler_loader: Callable[[], type]
    #: Cost models this target's executables can run under; the first
    #: is the default when the user names a target but no model.
    models: tuple[str, ...]
    #: Run the PEAC routine verifier on the backend output (under
    #: ``--verify`` / ``REPRO_VERIFY=1``).
    verify_peac: bool = False
    default_pes: int = 2048
    paper_section: str = ""
    #: Lazy loader for the machine class executables run on (defaults to
    #: the simulated CM :class:`~repro.machine.Machine`); a target with
    #: its own dispatch engine registers it here.
    machine_loader: Callable[[], type] | None = None

    @property
    def default_model(self) -> str:
        return self.models[0]

    def compiler(self) -> type:
        """The backend compiler class (imported on first use)."""
        return self.compiler_loader()

    def machine_class(self) -> type:
        """The machine class for this target (imported on first use)."""
        if self.machine_loader is None:
            return Machine
        return self.machine_loader()


_TARGETS: dict[str, Target] = {}


def register_target(target: Target) -> Target:
    if target.name in _TARGETS:
        raise ValueError(f"target {target.name!r} registered twice")
    for model in target.models:
        if model not in MODEL_FACTORIES:
            raise UnknownModelError(model)
    _TARGETS[target.name] = target
    return target


def get_target(name: str) -> Target:
    try:
        return _TARGETS[name]
    except KeyError:
        raise UnknownTargetError(name) from None


def target_names() -> list[str]:
    return list(_TARGETS)


def targets() -> list[Target]:
    return list(_TARGETS.values())


# -- cost-model resolution --------------------------------------------------


def get_model_factory(name: str) -> Callable[..., CostModel]:
    try:
        return MODEL_FACTORIES[name]
    except KeyError:
        raise UnknownModelError(name) from None


def resolve_model(target: str | Target, model: str | None = None) -> str:
    """The cost-model name to run under ``target``.

    ``None`` defaults to the target's own model (``--target cm5`` runs
    under the cm5 model without also saying ``--model cm5``); an
    explicit name is validated against the target's compatible set so a
    mismatch is an error instead of silently mis-costing the run.
    """
    record = target if isinstance(target, Target) else get_target(target)
    if model is None:
        return record.default_model
    if model not in MODEL_FACTORIES:
        raise UnknownModelError(model)
    if model not in record.models:
        raise TargetModelMismatchError(record, model)
    return model


def build_machine(target: str | Target, model: str | None = None,
                  pes: int | None = None,
                  exec_mode: str | None = None) -> Machine:
    """A fresh simulated machine for ``target``, via the registries."""
    record = target if isinstance(target, Target) else get_target(target)
    factory = get_model_factory(resolve_model(record, model))
    cls = record.machine_class()
    return cls(factory(pes if pes is not None else record.default_pes),
               exec_mode=exec_mode)
