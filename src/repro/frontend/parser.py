"""Recursive-descent parser for the Fortran 90 subset.

Produces :mod:`repro.frontend.ast_nodes` trees.  Handles both Fortran 90
block forms (``DO ... END DO``, ``IF ... END IF``, ``WHERE``, ``FORALL``)
and the labelled Fortran 77 forms used in the paper's examples
(``DO 10 I=1,128`` ... ``10 CONTINUE``).
"""

from __future__ import annotations

from ..sourceloc import SourceLoc
from . import ast_nodes as A
from .lexer import tokenize
from .tokens import TokKind, Token


class ParseError(Exception):
    """Raised on syntax errors, with source position."""

    def __init__(self, message: str, token: Token) -> None:
        super().__init__(f"line {token.line}: {message} (near {token!s})")
        self.token = token


_TYPE_KEYWORDS = {"INTEGER", "REAL", "LOGICAL", "DOUBLE", "DOUBLEPRECISION"}

_BLOCK_ENDERS = {
    "END", "ENDDO", "ENDIF", "ENDWHERE", "ELSE", "ELSEWHERE", "ELSEIF",
    "ENDPROGRAM", "ENDFORALL", "ENDSUBROUTINE", "ENDFUNCTION",
}


def parse_source(source: str) -> A.SourceFile:
    """Parse a whole source file: one main program plus subroutines."""
    return Parser(tokenize(source)).parse_source()


def parse_program(source: str) -> A.ProgramUnit:
    """Parse source text to an executable main PROGRAM unit.

    Subroutine units, if present, are inline-expanded into the main
    program (call-by-reference for variable actuals, call-by-value
    temporaries for expression actuals), so the result is a single
    self-contained unit — the form every later phase consumes.
    """
    source_file = Parser(tokenize(source)).parse_source()
    if len(source_file.units) == 1 \
            and source_file.units[0].kind == "program":
        return source_file.units[0]
    from .inline import inline_program

    return inline_program(source_file)


def parse_statements(source: str) -> tuple[A.Stmt, ...]:
    """Parse a bare statement sequence (no PROGRAM wrapper); test helper."""
    p = Parser(tokenize(source))
    decls, stmts = p.parse_body(stop=lambda kw: kw == "<eof>")
    if decls:
        raise ParseError("declarations not allowed here", p.peek())
    return stmts


def parse_expression(source: str) -> A.Expr:
    """Parse a single expression; test helper."""
    p = Parser(tokenize(source))
    e = p.parse_expr()
    p.skip_newlines()
    p.expect_kind(TokKind.EOF)
    return e


# Binary operators by precedence level, loosest first (``**``, right
# associative, is ``_parse_factor``'s); relational operators do not chain.
_BINARY = {".or.": 1, ".eqv.": 1, ".neqv.": 1, ".and.": 2,
           "==": 4, "/=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
           "+": 5, "-": 5, "*": 6, "/": 6}
_RELATIONAL = 4
_ANY = 7  # a ceiling every binary level is under
# Prefix operators: the level each sits at and the level of its operand.
_PREFIX = {".not.": (3, 3), "-": (5, 6), "+": (5, 6)}


class Parser:
    def __init__(self, tokens: list[Token]) -> None:
        # Two spare EOFs let lookahead index past the end unchecked.
        self.tokens = tokens + tokens[-1:] * 2
        self.pos = 0
        # Each token's kind test, made once: the text of an operator,
        # the upper-cased text of a name, None otherwise.
        self._ops = [t.text if t.kind is TokKind.OP else None
                     for t in self.tokens]
        self._words = [t.text.upper() if t.kind is TokKind.IDENT else None
                       for t in self.tokens]

    # -- token plumbing -----------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[self.pos + ahead]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind is not TokKind.EOF:
            self.pos += 1
        return tok

    def at_op(self, text: str) -> bool:
        return self._ops[self.pos] == text

    def accept_op(self, text: str) -> bool:
        if self.at_op(text):
            self.next()
            return True
        return False

    def expect_op(self, text: str) -> Token:
        if not self.at_op(text):
            raise ParseError(f"expected '{text}'", self.peek())
        return self.next()

    def at_keyword(self, *words: str) -> bool:
        return self._words[self.pos] in words

    def accept_keyword(self, *words: str) -> bool:
        if self.at_keyword(*words):
            self.next()
            return True
        return False

    def expect_keyword(self, word: str) -> Token:
        if not self.at_keyword(word):
            raise ParseError(f"expected {word}", self.peek())
        return self.next()

    def expect_kind(self, kind: TokKind) -> Token:
        if self.peek().kind is not kind:
            raise ParseError(f"expected {kind.value}", self.peek())
        return self.next()

    def expect_ident(self) -> Token:
        return self.expect_kind(TokKind.IDENT)

    def skip_newlines(self) -> None:
        while self.peek().kind is TokKind.NEWLINE:
            self.next()

    def end_statement(self) -> None:
        t = self.peek()
        if t.kind is TokKind.EOF:
            return
        if t.kind is not TokKind.NEWLINE:
            raise ParseError("expected end of statement", t)
        self.skip_newlines()

    # -- program structure --------------------------------------------------

    def parse_source(self) -> A.SourceFile:
        units: list[A.ProgramUnit] = []
        self.skip_newlines()
        while self.peek().kind is not TokKind.EOF:
            units.append(self.parse_unit())
            self.skip_newlines()
        if not units:
            units.append(A.ProgramUnit(name="main", decls=(), body=()))
        return A.SourceFile(units=tuple(units))

    def parse_program(self) -> A.ProgramUnit:
        return self.parse_unit()

    def parse_unit(self) -> A.ProgramUnit:
        self.skip_newlines()
        name = "main"
        kind = "program"
        params: tuple[str, ...] = ()
        if self.accept_keyword("PROGRAM"):
            name = self.expect_ident().text.lower()
            self.end_statement()
        elif self.at_keyword("SUBROUTINE"):
            self.next()
            kind = "subroutine"
            name = self.expect_ident().text.lower()
            params = self._parse_formals()
            self.end_statement()
        elif self._at_function_header():
            base = None
            if not self.at_keyword("FUNCTION"):
                base = self._parse_type_spec()
            self.expect_keyword("FUNCTION")
            kind = "function"
            name = self.expect_ident().text.lower()
            params = self._parse_formals()
            self.end_statement()
            decls, stmts = self.parse_body(stop=self._at_unit_end)
            self._consume_unit_end()
            if base is not None:
                # A result-type prefix declares the function name.
                decls = (A.TypeDecl(base=base,
                                    entities=(A.Entity(name=name),)),
                         ) + decls
            return A.ProgramUnit(name=name, decls=decls, body=stmts,
                                 kind=kind, params=params)
        decls, stmts = self.parse_body(stop=self._at_unit_end)
        self._consume_unit_end()
        return A.ProgramUnit(name=name, decls=decls, body=stmts,
                             kind=kind, params=params)

    def _parse_formals(self) -> tuple[str, ...]:
        if not self.accept_op("("):
            return ()
        formals: list[str] = []
        if not self.at_op(")"):
            formals.append(self.expect_ident().text.lower())
            while self.accept_op(","):
                formals.append(self.expect_ident().text.lower())
        self.expect_op(")")
        return tuple(formals)

    def _at_function_header(self) -> bool:
        """FUNCTION f(...) or <type> FUNCTION f(...)."""
        if self.at_keyword("FUNCTION"):
            return True
        t = self.peek()
        if t.kind is not TokKind.IDENT or t.upper not in _TYPE_KEYWORDS:
            return False
        j = 1
        if t.upper == "DOUBLE":
            if self.peek(1).kind is TokKind.IDENT \
                    and self.peek(1).upper == "PRECISION":
                j = 2
            else:
                return False
        t2 = self.peek(j)
        return t2.kind is TokKind.IDENT and t2.upper == "FUNCTION"

    def _at_unit_end(self, kw: str) -> bool:
        return kw in ("END", "ENDPROGRAM", "ENDSUBROUTINE",
                      "ENDFUNCTION", "<eof>")

    def _consume_unit_end(self) -> None:
        if self.peek().kind is TokKind.EOF:
            return
        if self.accept_keyword("ENDPROGRAM") \
                or self.accept_keyword("ENDSUBROUTINE") \
                or self.accept_keyword("ENDFUNCTION") \
                or self.accept_keyword("END"):
            # END [PROGRAM|SUBROUTINE|FUNCTION [name]]
            self.accept_keyword("PROGRAM")
            self.accept_keyword("SUBROUTINE")
            self.accept_keyword("FUNCTION")
            if self.peek().kind is TokKind.IDENT:
                self.next()
            self.end_statement()

    def parse_body(self, stop):
        """Parse declarations then statements until ``stop(keyword)``.

        Returns ``(decls, stmts)``.  ``stop`` receives the upper-cased
        leading keyword of each statement ("<eof>" at end of input).
        """
        decls: list[A.TypeDecl] = []
        stmts: list[A.Stmt] = []
        self.skip_newlines()
        while True:
            kw = self._leading_keyword()
            if stop(kw):
                break
            if not stmts and kw in _TYPE_KEYWORDS and self._is_declaration():
                decls.append(self.parse_declaration())
            elif kw == "PARAMETER":
                self._parse_parameter_stmt(decls)
            else:
                stmt = self.parse_statement()
                if isinstance(stmt, _Labelled):
                    stmt = stmt.stmt
                stmts.append(stmt)
            self.skip_newlines()
        return tuple(decls), tuple(stmts)

    def _leading_keyword(self) -> str:
        i = self.pos
        kind = self.tokens[i].kind
        if kind is TokKind.EOF:
            return "<eof>"
        if kind is TokKind.INT:  # statement label
            i += 1
        kw = self._words[i]
        if kw is None:
            return ""
        # Join two-word enders/types: END DO, END IF, DOUBLE PRECISION, ...
        second = self._words[i + 1]
        if second is not None:
            joined = kw + second
            if joined in _BLOCK_ENDERS or joined == "DOUBLEPRECISION":
                return joined
        return kw

    def _is_declaration(self) -> bool:
        """Disambiguate ``REAL x`` (decl) from assignments like ``real = 1``."""
        t1 = self.peek(1)
        if self.peek().upper in ("DOUBLE",) and t1.kind is TokKind.IDENT \
                and t1.upper == "PRECISION":
            return True
        if t1.kind is TokKind.OP and t1.text in ("=", "("):
            # "INTEGER(KIND=4) :: x" is a decl; "integer = 3" is not.
            return t1.text == "(" and self._scan_decl_colons()
        return True

    def _scan_decl_colons(self) -> bool:
        # Look ahead for '::' before the newline.
        i = self.pos
        while i < len(self.tokens):
            t = self.tokens[i]
            if t.kind is TokKind.NEWLINE or t.kind is TokKind.EOF:
                return False
            if t.kind is TokKind.OP and t.text == "::":
                return True
            i += 1
        return False

    # -- declarations ---------------------------------------------------------

    def parse_declaration(self) -> A.TypeDecl:
        line = self.peek().line
        base = self._parse_type_spec()
        dims: tuple[A.Expr, ...] = ()
        parameter = False
        # Attribute list: ", ARRAY(...)", ", DIMENSION(...)", ", PARAMETER"
        while self.accept_op(","):
            attr = self.expect_ident().upper
            if attr in ("ARRAY", "DIMENSION"):
                self.expect_op("(")
                dims = self._parse_dim_list()
                self.expect_op(")")
            elif attr == "PARAMETER":
                parameter = True
            elif attr in ("INTENT", "SAVE"):
                if self.accept_op("("):
                    while not self.accept_op(")"):
                        self.next()
            else:
                raise ParseError(f"unsupported attribute {attr}", self.peek())
        self.accept_op("::")
        entities = [self._parse_entity()]
        while self.accept_op(","):
            entities.append(self._parse_entity())
        self.end_statement()
        return A.TypeDecl(base=base, entities=tuple(entities), dims=dims,
                          parameter=parameter, line=line)

    def _parse_type_spec(self) -> str:
        t = self.expect_ident()
        kw = t.upper
        if kw == "DOUBLE":
            self.expect_keyword("PRECISION")
            return "double"
        if kw == "DOUBLEPRECISION":
            return "double"
        if kw in ("INTEGER", "REAL", "LOGICAL"):
            # Optional kind selector: REAL(KIND=8) / REAL(8).
            if self.at_op("("):
                self.next()
                kind_val: A.Expr | None = None
                if self.at_keyword("KIND"):
                    self.next()
                    self.expect_op("=")
                kind_val = self.parse_expr()
                self.expect_op(")")
                if (kw == "REAL" and isinstance(kind_val, A.IntLit)
                        and kind_val.value == 8):
                    return "double"
            return kw.lower()
        raise ParseError(f"unknown type {t.text}", t)

    def _parse_dim_list(self) -> tuple[A.Expr, ...]:
        dims = [self.parse_expr()]
        while self.accept_op(","):
            dims.append(self.parse_expr())
        return tuple(dims)

    def _parse_entity(self) -> A.Entity:
        name = self.expect_ident().text.lower()
        dims: tuple[A.Expr, ...] = ()
        init: A.Expr | None = None
        if self.accept_op("("):
            dims = self._parse_dim_list()
            self.expect_op(")")
        if self.accept_op("="):
            init = self.parse_expr()
        return A.Entity(name=name, dims=dims, init=init)

    def _parse_parameter_stmt(self, decls: list[A.TypeDecl]) -> None:
        """F77 ``PARAMETER (N=64, M=128)``: retrofit init onto prior decls."""
        self.expect_keyword("PARAMETER")
        self.expect_op("(")
        assigns: list[tuple[str, A.Expr]] = []
        while True:
            name = self.expect_ident().text.lower()
            self.expect_op("=")
            assigns.append((name, self.parse_expr()))
            if not self.accept_op(","):
                break
        self.expect_op(")")
        self.end_statement()
        by_name = dict(assigns)
        for i, decl in enumerate(decls):
            hit = any(e.name in by_name for e in decl.entities)
            if not hit:
                continue
            new_entities = tuple(
                A.Entity(e.name, e.dims, by_name.get(e.name, e.init))
                for e in decl.entities
            )
            decls[i] = A.TypeDecl(decl.base, new_entities, decl.dims,
                                  parameter=True, line=decl.line)

    # -- statements -----------------------------------------------------------

    def parse_statement(self) -> A.Stmt:
        label: int | None = None
        if self.peek().kind is TokKind.INT:
            label = int(self.next().text)
        stmt = self._parse_unlabelled_statement()
        if label is not None:
            stmt = _Labelled(label, stmt)  # unwrapped by labelled-DO parsing
        return stmt

    def _parse_unlabelled_statement(self) -> A.Stmt:
        t = self.peek()
        line = t.line
        if t.kind is not TokKind.IDENT:
            raise ParseError("expected a statement", t)
        kw = t.upper

        if kw == "DO":
            return self._parse_do(line)
        if kw == "IF":
            return self._parse_if(line)
        if kw == "WHERE":
            return self._parse_where(line)
        if kw == "FORALL":
            return self._parse_forall(line)
        if kw == "CALL":
            self.next()
            name = self.expect_ident().text.lower()
            args: tuple[A.Expr, ...] = ()
            if self.accept_op("("):
                args = self._parse_arg_list()
                self.expect_op(")")
            self.end_statement()
            return A.CallStmt(name=name, args=args, line=line)
        if kw == "PRINT":
            self.next()
            self.expect_op("*")
            items: list[A.Expr] = []
            while self.accept_op(","):
                items.append(self.parse_expr())
            self.end_statement()
            return A.PrintStmt(items=tuple(items), line=line)
        if kw == "CONTINUE":
            self.next()
            self.end_statement()
            return A.ContinueStmt(line=line)
        if kw == "RETURN":
            self.next()
            self.end_statement()
            return A.ReturnStmt(line=line)
        if kw == "STOP":
            self.next()
            if self.peek().kind in (TokKind.INT, TokKind.STRING):
                self.next()
            self.end_statement()
            return A.StopStmt(line=line)

        return self._parse_assignment(line)

    def _parse_assignment(self, line: int) -> A.Assignment:
        target = self._parse_designator()
        self.expect_op("=")
        expr = self.parse_expr()
        self.end_statement()
        return A.Assignment(target=target, expr=expr, line=line)

    def _parse_designator(self) -> A.Expr:
        t = self.peek()
        name = self.expect_ident().text.lower()
        loc = SourceLoc(t.line, t.col)
        if self.accept_op("("):
            subs = self._parse_arg_list()
            self.expect_op(")")
            return A.ArrayRef(name=name, subscripts=subs, loc=loc)
        return A.VarRef(name=name, loc=loc)

    # DO loops ---------------------------------------------------------------

    def _parse_do(self, line: int) -> A.Stmt:
        self.expect_keyword("DO")
        # DO WHILE (cond)
        if self.at_keyword("WHILE"):
            self.next()
            self.expect_op("(")
            cond = self.parse_expr()
            self.expect_op(")")
            self.end_statement()
            body = self._parse_block(until={"ENDDO"})
            self._consume_end("DO")
            return A.DoWhile(cond=cond, body=body, line=line)

        term_label: int | None = None
        if self.peek().kind is TokKind.INT:
            term_label = int(self.next().text)
        var = self.expect_ident().text.lower()
        self.expect_op("=")
        lo = self.parse_expr()
        self.expect_op(",")
        hi = self.parse_expr()
        step = None
        if self.accept_op(","):
            step = self.parse_expr()
        self.end_statement()

        if term_label is None:
            body = self._parse_block(until={"ENDDO"})
            self._consume_end("DO")
        else:
            body = self._parse_labelled_body(term_label)
        return A.DoLoop(var=var, lo=lo, hi=hi, step=step, body=body,
                        line=line)

    def _parse_labelled_body(self, term_label: int) -> tuple[A.Stmt, ...]:
        stmts: list[A.Stmt] = []
        while True:
            self.skip_newlines()
            if self.peek().kind is TokKind.EOF:
                raise ParseError(
                    f"missing terminator label {term_label}", self.peek())
            stmt = self.parse_statement()
            if isinstance(stmt, _Labelled) and stmt.label == term_label:
                if not isinstance(stmt.stmt, A.ContinueStmt):
                    stmts.append(stmt.stmt)
                return tuple(stmts)
            if isinstance(stmt, _Labelled):
                stmt = stmt.stmt
            stmts.append(stmt)

    # IF ---------------------------------------------------------------------

    def _parse_if(self, line: int) -> A.Stmt:
        self.expect_keyword("IF")
        self.expect_op("(")
        cond = self.parse_expr()
        self.expect_op(")")
        if not self.at_keyword("THEN"):
            # Logical IF: one trailing statement on the same line.
            stmt = self._parse_unlabelled_statement()
            return A.IfConstruct(arms=((cond, (stmt,)),), line=line)
        self.next()
        self.end_statement()
        arms: list[tuple[A.Expr, tuple[A.Stmt, ...]]] = []
        body = self._parse_block(until={"ELSE", "ELSEIF", "ENDIF"})
        arms.append((cond, body))
        else_body: tuple[A.Stmt, ...] = ()
        while True:
            kw = self._leading_keyword()
            if kw == "ELSEIF":
                self._consume_joined("ELSE", "IF")
                self.expect_op("(")
                c = self.parse_expr()
                self.expect_op(")")
                self.expect_keyword("THEN")
                self.end_statement()
                arms.append(
                    (c, self._parse_block(until={"ELSE", "ELSEIF", "ENDIF"})))
            elif kw == "ELSE":
                self.next()
                self.end_statement()
                else_body = self._parse_block(until={"ENDIF"})
            elif kw == "ENDIF":
                self._consume_end("IF")
                break
            else:
                raise ParseError("expected ELSE/END IF", self.peek())
        return A.IfConstruct(arms=tuple(arms), else_body=else_body, line=line)

    # WHERE --------------------------------------------------------------------

    def _parse_where(self, line: int) -> A.Stmt:
        self.expect_keyword("WHERE")
        self.expect_op("(")
        mask = self.parse_expr()
        self.expect_op(")")
        if self.peek().kind is not TokKind.NEWLINE:
            # Statement form: WHERE (mask) a = b
            assignment = self._parse_assignment(line)
            return A.WhereConstruct(mask=mask, body=(assignment,), line=line)
        self.end_statement()
        body = self._parse_assign_block(until={"ELSEWHERE", "ENDWHERE"})
        elsewhere: tuple[A.Assignment, ...] = ()
        if self._leading_keyword() == "ELSEWHERE":
            self.next()
            self.end_statement()
            elsewhere = self._parse_assign_block(until={"ENDWHERE"})
        self._consume_end("WHERE")
        return A.WhereConstruct(mask=mask, body=body, elsewhere=elsewhere,
                                line=line)

    def _parse_assign_block(self, until) -> tuple[A.Assignment, ...]:
        out: list[A.Assignment] = []
        while True:
            self.skip_newlines()
            if self._leading_keyword() in until:
                return tuple(out)
            stmt = self.parse_statement()
            if isinstance(stmt, _Labelled):
                stmt = stmt.stmt
            if not isinstance(stmt, A.Assignment):
                raise ParseError("only assignments allowed in WHERE",
                                 self.peek())
            out.append(stmt)

    # FORALL -------------------------------------------------------------------

    def _parse_forall(self, line: int) -> A.Stmt:
        self.expect_keyword("FORALL")
        self.expect_op("(")
        triplets: list[A.ForallTriplet] = []
        mask: A.Expr | None = None
        while True:
            if (self.peek().kind is TokKind.IDENT
                    and self.peek(1).kind is TokKind.OP
                    and self.peek(1).text == "="):
                var = self.expect_ident().text.lower()
                self.expect_op("=")
                lo = self.parse_expr()
                self.expect_op(":")
                hi = self.parse_expr()
                stride = None
                if self.accept_op(":"):
                    stride = self.parse_expr()
                triplets.append(A.ForallTriplet(var, lo, hi, stride))
            else:
                mask = self.parse_expr()
            if not self.accept_op(","):
                break
        self.expect_op(")")
        if self.peek().kind is TokKind.NEWLINE:
            self.end_statement()
            assigns = self._parse_assign_block(until={"ENDFORALL"})
            self._consume_end("FORALL")
            if len(assigns) != 1:
                raise ParseError("FORALL blocks must hold one assignment",
                                 self.peek())
            assignment = assigns[0]
        else:
            assignment = self._parse_assignment(line)
        return A.ForallStmt(triplets=tuple(triplets), assignment=assignment,
                            mask=mask, line=line)

    # Block plumbing -------------------------------------------------------------

    def _parse_block(self, until: set[str]) -> tuple[A.Stmt, ...]:
        stmts: list[A.Stmt] = []
        while True:
            self.skip_newlines()
            kw = self._leading_keyword()
            if kw in until:
                return tuple(stmts)
            if kw == "<eof>":
                raise ParseError("unexpected end of input", self.peek())
            stmt = self.parse_statement()
            if isinstance(stmt, _Labelled):
                stmt = stmt.stmt
            stmts.append(stmt)

    def _consume_end(self, which: str) -> None:
        if self.accept_keyword("END" + which):
            self.end_statement()
            return
        self.expect_keyword("END")
        self.expect_keyword(which)
        self.end_statement()

    def _consume_joined(self, first: str, second: str) -> None:
        if self.accept_keyword(first + second):
            return
        self.expect_keyword(first)
        self.expect_keyword(second)

    # -- expressions ----------------------------------------------------------

    def parse_expr(self, level: int = 1) -> A.Expr:
        """An expression of operators at ``level`` or tighter.

        Precedence climbing over ``_BINARY`` and ``_PREFIX``: each
        operator consumed bounds what may follow it at this level
        (``ceiling``), so a relational operator never chains and a
        looser level never resumes inside a tighter one's operand.
        """
        t = self.tokens[self.pos]
        prefix = _PREFIX.get(self._ops[self.pos])
        if prefix is not None and level <= prefix[0]:
            self.pos += 1
            ceiling = prefix[1]
            left = self.parse_expr(ceiling)
            if t.text != "+":
                left = A.UnExpr(t.text, left, loc=SourceLoc(t.line, t.col))
        else:
            left = self._parse_factor()
            ceiling = _ANY
        while True:
            op = self._ops[self.pos]
            prec = _BINARY.get(op)
            if prec is None or not level <= prec < ceiling:
                return left
            self.pos += 1
            ceiling = prec if prec == _RELATIONAL else prec + 1
            left = A.BinExpr(op, left, self.parse_expr(prec + 1),
                             loc=left.loc)

    def _parse_factor(self) -> A.Expr:
        base = self._parse_primary()
        if self.at_op("**"):
            self.next()
            # '**' is right-associative; unary minus binds looser.
            if self.at_op("-"):
                self.next()
                return A.BinExpr(
                    "**", base,
                    A.UnExpr("-", self._parse_factor(), loc=base.loc),
                    loc=base.loc)
            return A.BinExpr("**", base, self._parse_factor(), loc=base.loc)
        return base

    def _parse_primary(self) -> A.Expr:
        t = self.peek()
        loc = SourceLoc(t.line, t.col)
        if t.kind is TokKind.INT:
            self.next()
            return A.IntLit(int(t.text), loc=loc)
        if t.kind is TokKind.REAL:
            self.next()
            return A.RealLit(float(t.text.lower().replace("d", "e")),
                             loc=loc)
        if t.kind is TokKind.DREAL:
            self.next()
            return A.RealLit(float(t.text.lower().replace("d", "e")),
                             double=True, loc=loc)
        if t.kind is TokKind.LOGICAL:
            self.next()
            return A.LogicalLit(t.text.lower() == "true", loc=loc)
        if t.kind is TokKind.STRING:
            self.next()
            return A.StringLit(t.text, loc=loc)
        if t.kind is TokKind.IDENT:
            return self._parse_designator()
        if self.accept_op("("):
            e = self.parse_expr()
            self.expect_op(")")
            return e
        if self.at_op("-") or self.at_op("+"):
            op = self.next().text
            operand = self._parse_factor()
            return operand if op == "+" else A.UnExpr("-", operand, loc=loc)
        raise ParseError("expected an expression", t)

    def _parse_arg_list(self) -> tuple[A.Expr, ...]:
        if self.at_op(")"):
            return ()
        args = [self._parse_arg_item()]
        while self.accept_op(","):
            args.append(self._parse_arg_item())
        return tuple(args)

    def _parse_arg_item(self) -> A.Expr:
        t = self.peek()
        loc = SourceLoc(t.line, t.col)
        # Keyword argument: IDENT '=' expr (DIM=1).
        if (self.peek().kind is TokKind.IDENT
                and self.peek(1).kind is TokKind.OP
                and self.peek(1).text == "="):
            name = self.next().text.lower()
            self.next()
            return A.KeywordArg(name, self.parse_expr(), loc=loc)
        # Section triplet: [expr] ':' [expr] [':' expr]
        lo: A.Expr | None = None
        if not self.at_op(":"):
            lo = self.parse_expr()
            if not self.at_op(":"):
                return lo
        self.expect_op(":")
        hi: A.Expr | None = None
        if not (self.at_op(":") or self.at_op(",") or self.at_op(")")):
            hi = self.parse_expr()
        stride: A.Expr | None = None
        if self.accept_op(":"):
            stride = self.parse_expr()
        return A.SectionRange(lo=lo, hi=hi, stride=stride, loc=loc)


class _Labelled(A.Stmt):
    """Internal wrapper carrying a numeric statement label."""

    def __init__(self, label: int, stmt: A.Stmt) -> None:
        self.label = label
        self.stmt = stmt
