"""Token definitions for the Fortran 90 front end."""

from __future__ import annotations

import enum
from typing import NamedTuple


class TokKind(enum.Enum):
    IDENT = "ident"
    INT = "int"
    REAL = "real"          # single-precision literal (E exponent or plain)
    DREAL = "dreal"        # double-precision literal (D exponent)
    STRING = "string"
    LOGICAL = "logical"    # .true. / .false.
    OP = "op"              # operators and punctuation
    NEWLINE = "newline"    # statement separator (end of line or ';')
    EOF = "eof"


class Token(NamedTuple):
    """One lexeme: immutable, printed and compared by its four fields
    (a tuple, so the lexer builds one without a dataclass ``__init__``)."""

    kind: TokKind
    text: str
    line: int
    col: int

    def __str__(self) -> str:
        if self.kind is TokKind.NEWLINE:
            return "<newline>"
        return self.text

    @property
    def upper(self) -> str:
        return self.text.upper()


# Multi-character operators, longest first so the lexer matches greedily.
OPERATORS = [
    "::", "**", "==", "/=", "<=", ">=", "=>", "(", ")", ",", "=", "+",
    "-", "*", "/", "<", ">", ":", ";", "%",
]

# Dot-delimited operators (case-insensitive).
DOT_OPERATORS = {
    ".eq.": "==",
    ".ne.": "/=",
    ".lt.": "<",
    ".le.": "<=",
    ".gt.": ">",
    ".ge.": ">=",
    ".and.": ".and.",
    ".or.": ".or.",
    ".not.": ".not.",
    ".eqv.": ".eqv.",
    ".neqv.": ".neqv.",
}

DOT_LITERALS = {".true.": "true", ".false.": "false"}
