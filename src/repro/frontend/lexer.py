"""A lexer for the Fortran 90 subset accepted by Fortran-90-Y.

Accepts free-form source with a few fixed-form courtesies used by the
paper's examples: ``C``/``*`` comment lines in column one, numeric
statement labels, and ``&`` continuations (both trailing and leading).
Keywords are case-insensitive; the lexer does not distinguish keywords
from identifiers (the parser does, contextually, as Fortran requires).
"""

from __future__ import annotations

import re

from .tokens import DOT_LITERALS, DOT_OPERATORS, OPERATORS, TokKind, Token


class LexError(Exception):
    """Raised on malformed source text."""

    def __init__(self, message: str, line: int, col: int) -> None:
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


# Everything before a trailing ``!`` comment: characters, and character
# literals (which may hold a ``!``; an unterminated one runs to the end).
_CODE = re.compile(r"""(?:[^'"!]+|'[^']*'?|"[^"]*"?)*""")

_DOTS = "|".join(d.strip(".") for d in (*DOT_OPERATORS, *DOT_LITERALS))

# One alternative per token class, tried in the order the classes are
# told apart: blanks, ';', character literals, numbers (a '.' opens a
# fraction unless a dot operator starts there, as in 1.eq.2), dot
# operators and literals, names, punctuation, and anything else.
_TOKEN = re.compile(rf"""
    [ \t]+
  | (?P<semi>;)
  | '(?P<squote>[^']*)' | "(?P<dquote>[^"]*)" | (?P<open>['"])
  | (?P<num>(?:\d+(?P<frac>\.(?!(?i:{_DOTS})\.)\d*)?|\.\d+)
            (?:(?P<exp>[eEdD])[+-]?\d+)?)
  | (?P<dot>\.(?i:{_DOTS})\.)
  | (?P<bad_dot>\.)
  | (?P<ident>[^\W\d]\w*)
  | (?P<op>{"|".join(re.escape(op) for op in OPERATORS)})
  | (?P<bad>.)
""", re.VERBOSE | re.DOTALL)


def _strip_comment(text: str) -> str:
    """Remove a trailing ``!`` comment, respecting character literals."""
    return text[:_CODE.match(text).end()] if "!" in text else text


def _logical_lines(source: str):
    """Yield ``(line_number, text)`` logical lines after continuation joining."""
    pending: str | None = None
    pending_line = 0
    for lineno, raw in enumerate(source.splitlines(), start=1):
        # Fixed-form '*' comment lines ('C' comments are ambiguous with
        # assignments to a variable named C in free form, so only '!' and
        # column-one '*' comments are recognized).
        if raw[:1] == "*":
            continue
        text = _strip_comment(raw).rstrip()
        if not text.strip():
            if pending is None:
                continue
            # Blank line inside a continuation is skipped.
            continue
        body = text.strip()
        if pending is not None:
            if body.startswith("&"):
                body = body[1:].lstrip()
            pending = pending + " " + body
        else:
            pending = body
            pending_line = lineno
        if pending.endswith("&"):
            pending = pending[:-1].rstrip()
            continue
        yield pending_line, pending
        pending = None
    if pending is not None:
        yield pending_line, pending


def tokenize(source: str) -> list[Token]:
    """Tokenize Fortran 90 source into a flat token list.

    Statement boundaries (end of logical line, or ``;``) appear as
    ``NEWLINE`` tokens; the list always ends with a single ``EOF``.
    """
    tokens: list[Token] = []
    for lineno, text in _logical_lines(source):
        _lex_line(text, lineno, tokens)
        tokens.append(Token(TokKind.NEWLINE, "\n", lineno, len(text) + 1))
    tokens.append(Token(TokKind.EOF, "", -1, 0))
    return tokens


def _lex_line(text: str, lineno: int, out: list[Token]) -> None:
    for m in _TOKEN.finditer(text):
        group = m.lastgroup
        if group is None:  # blanks
            continue
        col = m.start() + 1
        lexeme = m.group()
        if group == "ident":
            out.append(Token(TokKind.IDENT, lexeme, lineno, col))
        elif group == "op":
            out.append(Token(TokKind.OP, lexeme, lineno, col))
        elif group == "num":
            if m.group("exp") in ("d", "D"):
                kind = TokKind.DREAL
            elif m.group("frac") is not None or m.group("exp") \
                    or lexeme[0] == ".":
                kind = TokKind.REAL
            else:
                kind = TokKind.INT
            out.append(Token(kind, lexeme, lineno, col))
        elif group == "semi":
            out.append(Token(TokKind.NEWLINE, ";", lineno, col))
        elif group == "dot":
            dot = lexeme.lower()
            if dot in DOT_LITERALS:
                out.append(Token(TokKind.LOGICAL, dot.strip("."), lineno,
                                 col))
            else:
                out.append(Token(TokKind.OP, DOT_OPERATORS[dot], lineno,
                                 col))
        elif group in ("squote", "dquote"):
            out.append(Token(TokKind.STRING, m.group(group), lineno, col))
        elif group == "open":
            raise LexError("unterminated character literal", lineno, col)
        elif group == "bad_dot":
            raise LexError("unexpected '.'", lineno, col)
        else:
            raise LexError(f"unexpected character {lexeme!r}", lineno, col)
