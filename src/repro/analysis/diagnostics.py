"""Diagnostic records shared by every verifier level and the lint engine.

Error-code namespaces:

* ``F0xx`` — frontend (lexical / syntax) errors,
* ``S1xx`` — semantic errors from lowering (types, shapes, symbols),
* ``W2xx`` — lint warnings (use-before-set, aliasing, unused),
* ``V3xx`` — NIR verifier violations (level 1),
* ``D4xx`` — dependence-audit violations (level 2),
* ``P5xx`` — PEAC/VIR verifier violations (level 3),
* ``R6xx`` — parallel-semantics races (dataflow race detector),
* ``C7xx`` — communication-cost findings (static comm auditor).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from ..sourceloc import SourceLoc


class Severity(enum.Enum):
    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One verifier/lint finding, optionally located in source text."""

    code: str
    message: str
    severity: Severity = Severity.ERROR
    loc: SourceLoc | None = None
    file: str | None = None

    @property
    def line(self) -> int:
        return self.loc.line if self.loc is not None else 0

    @property
    def col(self) -> int:
        return self.loc.col if self.loc is not None else 0

    def format(self) -> str:
        where = self.file or "<nir>"
        if self.loc is not None:
            where += f":{self.loc.line}:{self.loc.col}"
        return f"{where}: {self.severity}: {self.message} [{self.code}]"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "message": self.message,
            "line": self.line,
            "col": self.col,
            "file": self.file,
        }


def error(code: str, message: str, loc: SourceLoc | None = None,
          file: str | None = None) -> Diagnostic:
    return Diagnostic(code, message, Severity.ERROR, loc, file)


def warning(code: str, message: str, loc: SourceLoc | None = None,
            file: str | None = None) -> Diagnostic:
    return Diagnostic(code, message, Severity.WARNING, loc, file)


class VerifyError(Exception):
    """A verifier level rejected the program.

    ``stage`` names the pipeline pass whose *output* failed (so a
    corrupted transform is pinpointed, not just detected);
    ``diagnostics`` holds the individual violations.
    """

    def __init__(self, stage: str, diagnostics: list[Diagnostic]) -> None:
        self.stage = stage
        self.diagnostics = list(diagnostics)
        head = self.diagnostics[0].message if self.diagnostics else "?"
        more = (f" (+{len(self.diagnostics) - 1} more)"
                if len(self.diagnostics) > 1 else "")
        super().__init__(f"verification failed after pass "
                         f"'{stage}': {head}{more}")


@dataclass
class DiagnosticSink:
    """Accumulates diagnostics; the collecting analogue of raising."""

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def add(self, diag: Diagnostic) -> None:
        self.diagnostics.append(diag)

    def error(self, code: str, message: str,
              loc: SourceLoc | None = None) -> None:
        self.add(error(code, message, loc))

    def warning(self, code: str, message: str,
                loc: SourceLoc | None = None) -> None:
        self.add(warning(code, message, loc))

    @property
    def errors(self) -> list[Diagnostic]:
        return [d for d in self.diagnostics
                if d.severity is Severity.ERROR]
