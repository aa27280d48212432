"""Lexer and recursive-descent parser for Jaqal source text.

Both entry points are total: they return a best-effort result together with
a list of diagnostics rather than raising, so a single run can report many
problems.  A parse counts as successful when the diagnostic list contains
no errors.

Syntax rules enforced here (semantic rules live in the analyzer):

* header statements precede body statements;
* ``;`` separates statements within a line in sequential context and ``|``
  must be used instead inside parallel blocks;
* the opening bracket of a macro or loop body sits on the same line as the
  ``macro``/``loop`` head;
* loops appear only where sequential statements are allowed;
* blocks never directly nest inside a block of the same kind;
* macro and loop bodies are blocks, never a single bare gate;
* there are no arithmetic expressions: ``/`` outside a comment and ``-``
  not starting a numeric literal are lexical errors.

On an error the parser skips to the next statement boundary (newline,
separator, or block close) and keeps going.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Union

from .ast import (
    KEYWORDS,
    FloatLiteral,
    GateBlock,
    GateStatement,
    IntLiteral,
    LetConstant,
    LoopStatement,
    MacroDef,
    MapAlias,
    NameRef,
    Program,
    QubitRef,
    RegisterDecl,
    Slice,
)
from .diagnostics import Diagnostic, error

_PUNCT = frozenset("{}<>[]:;|")


@dataclass(frozen=True)
class Token:
    kind: str  # IDENT, KEYWORD, INT, FLOAT, NEWLINE, EOF, or the punctuation char
    value: Union[str, int, float, None]
    line: int
    column: int


def _is_ident_start(ch: str) -> bool:
    return "A" <= ch <= "Z" or "a" <= ch <= "z" or ch == "_"


def _is_ident_char(ch: str) -> bool:
    return _is_ident_start(ch) or _is_digit(ch)


def _is_digit(ch: str) -> bool:
    # ASCII only: str.isdigit() admits Unicode digits the grammar rejects
    return "0" <= ch <= "9"


def lex(source: str):
    """Tokenize source text.

    Returns ``(tokens, diagnostics)``.  Whitespace and comments disappear;
    newlines survive as NEWLINE tokens because they terminate statements.
    A ``//`` comment ends its line even at end of input, while newlines
    inside a ``/* */`` comment are plain whitespace.  Both LF and CRLF are
    accepted.
    """
    tokens: list = []
    diags: list = []
    i, line, col = 0, 1, 1
    n = len(source)

    def emit(kind, value, l, c):
        tokens.append(Token(kind, value, l, c))

    while i < n:
        ch = source[i]
        if ch in " \t":
            i += 1
            col += 1
        elif ch == "\n":
            emit("NEWLINE", None, line, col)
            i += 1
            line += 1
            col = 1
        elif ch == "\r":
            if i + 1 < n and source[i + 1] == "\n":
                emit("NEWLINE", None, line, col)
                i += 2
                line += 1
                col = 1
            else:
                diags.append(error(line, col, "illegal-character",
                                   "stray carriage return"))
                i += 1
                col += 1
        elif ch == "/":
            if source.startswith("//", i):
                while i < n and source[i] != "\n":
                    i += 1
                    col += 1
                if i >= n:
                    # the comment ran to end of input, which ends the line
                    emit("NEWLINE", None, line, col)
            elif source.startswith("/*", i):
                start_line, start_col = line, col
                end = source.find("*/", i + 2)
                if end < 0:
                    diags.append(error(start_line, start_col,
                                       "unterminated-comment",
                                       "block comment is never closed"))
                    for c2 in source[i:]:
                        if c2 == "\n":
                            line += 1
                    i = n
                else:
                    # comments do not nest: the first */ closes
                    for c2 in source[i:end + 2]:
                        if c2 == "\n":
                            line += 1
                            col = 1
                        else:
                            col += 1
                    i = end + 2
            else:
                diags.append(error(line, col, "illegal-character",
                                   "'/' is only valid inside comments"))
                i += 1
                col += 1
        elif _is_ident_start(ch):
            start, start_col = i, col
            while i < n and _is_ident_char(source[i]):
                i += 1
                col += 1
            text = source[start:i]
            emit("KEYWORD" if text in KEYWORDS else "IDENT", text, line, start_col)
        elif _is_digit(ch) or ch in "-.":
            i, col = _lex_number(source, i, line, col, emit, diags)
        elif ch in _PUNCT:
            emit(ch, ch, line, col)
            i += 1
            col += 1
        else:
            diags.append(error(line, col, "illegal-character",
                               f"illegal character {ch!r}"))
            i += 1
            col += 1
    return tokens, diags


def _lex_number(source, i, line, col, emit, diags):
    n = len(source)
    start, start_col = i, col
    if i < n and source[i] == "-":
        i += 1
    int_digits = 0
    while i < n and _is_digit(source[i]):
        i += 1
        int_digits += 1
    is_float = False
    if i < n and source[i] == ".":
        is_float = True
        i += 1
        while i < n and _is_digit(source[i]):
            i += 1
            int_digits += 1
    if int_digits and i < n and source[i] in "eE":
        j = i + 1
        if j < n and source[j] in "+-":
            j += 1
        if j < n and _is_digit(source[j]):
            is_float = True
            i = j
            while i < n and _is_digit(source[i]):
                i += 1
    # a literal immediately followed by name characters (e.g. "0q") or
    # more dots is one malformed token, not two adjacent ones
    bad = int_digits == 0
    while i < n and (_is_ident_char(source[i]) or source[i] == "."):
        bad = True
        i += 1
    text = source[start:i]
    if bad:
        diags.append(error(line, start_col, "bad-number",
                           f"malformed numeric literal {text!r}"))
    elif is_float:
        value = float(text)
        if math.isfinite(value):
            emit("FLOAT", value, line, start_col)
        else:
            diags.append(error(line, start_col, "bad-number",
                               f"numeric literal {text!r} is too large for "
                               "a finite number"))
    else:
        emit("INT", int(text), line, start_col)
    return i, col + (i - start)


_TERMINATORS = frozenset({"NEWLINE", ";", "|", "}", ">", "EOF"})


class _Parser:
    def __init__(self, tokens, diags):
        if tokens:
            last = tokens[-1]
            eof = Token("EOF", None, last.line, last.column + 1)
        else:
            eof = Token("EOF", None, 1, 1)
        self.toks = tokens + [eof]
        self.pos = 0
        self.diags = diags

    # -- primitives ---------------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.toks[self.pos]

    def at(self, kind) -> bool:
        return self.cur.kind == kind

    def advance(self) -> Token:
        tok = self.toks[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def diag(self, code, message, tok=None):
        tok = tok or self.cur
        self.diags.append(error(tok.line, tok.column, code, message))

    def recover(self):
        """Skip to the next statement boundary without consuming it."""
        while self.cur.kind not in _TERMINATORS:
            self.advance()

    def skip_separators(self, parallel: Optional[bool]):
        """Consume empty statements; flag the separator that belongs to the
        other block kind.  ``parallel`` is None at top level (sequential)."""
        while True:
            kind = self.cur.kind
            if kind == "NEWLINE":
                self.advance()
            elif kind == ";":
                if parallel:
                    self.diag("semicolon-in-parallel",
                              "';' cannot separate statements in a parallel "
                              "block; use '|'")
                self.advance()
            elif kind == "|":
                if not parallel:
                    self.diag("pipe-in-sequential",
                              "'|' only separates statements in a parallel "
                              "block; use ';' or a newline")
                self.advance()
            else:
                return

    # -- grammar ------------------------------------------------------------

    def program(self) -> Program:
        headers: list = []
        body: list = []
        while True:
            self.skip_separators(parallel=False)
            tok = self.cur
            if tok.kind == "EOF":
                break
            if tok.kind == "KEYWORD" and tok.value in ("register", "map", "let"):
                if body:
                    self.diag("header-after-body",
                              f"'{tok.value}' statement appears after the "
                              "body has begun")
                stmt = self.header_statement()
                if stmt is not None:
                    headers.append(stmt)
            else:
                stmt = self.body_statement(parallel=False, top_level=True)
                if stmt is not None:
                    body.append(stmt)
        return Program(tuple(headers), tuple(body))

    def header_statement(self):
        tok = self.advance()
        if tok.value == "register":
            return self.register_decl(tok)
        if tok.value == "map":
            return self.map_alias(tok)
        return self.let_constant(tok)

    def register_decl(self, kw):
        name = self.ident("register name")
        if name is None:
            return None
        if not self.expect("[", "'[' after register name"):
            return None
        size = self.int_expr("register size")
        if size is None or not self.expect("]", "']' after register size"):
            return None
        return RegisterDecl(name, size, line=kw.line, column=kw.column)

    def map_alias(self, kw):
        name = self.ident("alias name")
        target = self.ident("alias target") if name is not None else None
        if target is None:
            return None
        selector = None
        if self.at("["):
            self.advance()
            selector = self.selector()
            if selector is None or not self.expect("]", "']' after map selector"):
                return None
        return MapAlias(name, target, selector, line=kw.line, column=kw.column)

    def selector(self):
        """Index or Python-style slice inside a map statement's brackets."""
        parts: list = []
        saw_colon = False
        while True:
            if self.at(":"):
                parts.append(None)
                saw_colon = True
                self.advance()
                continue
            if self.at("]") or self.cur.kind in _TERMINATORS:
                parts.append(None)
                break
            expr = self.int_expr("map selector component")
            if expr is None:
                return None
            if self.at(":"):
                parts.append(expr)
                saw_colon = True
                self.advance()
                continue
            parts.append(expr)
            break
        if not saw_colon:
            return parts[0] if parts[0] is not None else None
        if len(parts) > 3:
            self.diag("bad-slice", "a slice has at most three components")
            return None
        while len(parts) < 3:
            parts.append(None)
        return Slice(*parts)

    def let_constant(self, kw):
        name = self.ident("constant name")
        if name is None:
            return None
        tok = self.cur
        if tok.kind == "INT":
            self.advance()
            return LetConstant(name, int(tok.value), line=kw.line, column=kw.column)
        if tok.kind == "FLOAT":
            self.advance()
            return LetConstant(name, float(tok.value), line=kw.line, column=kw.column)
        self.diag("syntax-error", "let requires a numeric value")
        self.recover()
        return None

    def body_statement(self, parallel: bool, top_level: bool = False):
        tok = self.cur
        if tok.kind == "IDENT":
            return self.gate_statement()
        if tok.kind in ("{", "<"):
            # the top level is only an implicit sequential context, so a
            # literal brace block there is not same-kind nesting
            return self.block(parallel_context=None if top_level else parallel)
        if tok.kind == "KEYWORD" and tok.value == "loop":
            if parallel:
                self.diag("loop-in-parallel",
                          "loop statements are not allowed inside parallel "
                          "blocks")
            return self.loop_statement()
        if tok.kind == "KEYWORD" and tok.value == "macro":
            if not top_level:
                self.diag("macro-in-block",
                          "macro definitions are not allowed inside gate "
                          "blocks")
                self.macro_def()  # consume it anyway
                return None
            return self.macro_def()
        if tok.kind == "KEYWORD":
            self.diag("header-in-block",
                      f"'{tok.value}' statement is not allowed inside gate "
                      "blocks")
        else:
            self.diag("syntax-error", f"unexpected {self.describe(tok)}")
        self.advance()
        self.recover()
        return None

    def gate_statement(self):
        name_tok = self.advance()
        args: list = []
        while self.cur.kind not in _TERMINATORS:
            tok = self.cur
            if tok.kind == "IDENT":
                self.advance()
                if self.at("["):
                    self.advance()
                    index = self.int_expr("qubit index")
                    if index is None or not self.expect("]", "']' after qubit index"):
                        self.recover()
                        break
                    args.append(QubitRef(tok.value, index))
                else:
                    args.append(NameRef(tok.value))
            elif tok.kind == "INT":
                self.advance()
                args.append(IntLiteral(int(tok.value)))
            elif tok.kind == "FLOAT":
                self.advance()
                args.append(FloatLiteral(float(tok.value)))
            else:
                self.diag("bad-gate-arg",
                          f"{self.describe(tok)} cannot be a gate argument")
                self.recover()
                break
        return GateStatement(name_tok.value, tuple(args),
                             line=name_tok.line, column=name_tok.column)

    def block(self, parallel_context: Optional[bool]):
        open_tok = self.advance()
        parallel = open_tok.kind == "<"
        if parallel_context is not None and parallel == parallel_context:
            kind = "parallel" if parallel else "sequential"
            self.diag(
                "same-kind-nesting",
                f"a {kind} block cannot be nested directly inside another "
                f"{kind} block", open_tok)
        close = ">" if parallel else "}"
        statements: list = []
        while True:
            self.skip_separators(parallel)
            tok = self.cur
            if tok.kind == close:
                self.advance()
                break
            if tok.kind == "EOF":
                self.diag("unclosed-block",
                          f"block opened here is never closed with '{close}'",
                          open_tok)
                break
            if tok.kind in ("}", ">"):
                self.diag("syntax-error",
                          f"mismatched '{tok.kind}' closing a "
                          f"'{open_tok.kind}' block")
                self.advance()
                break
            stmt = self.body_statement(parallel=parallel)
            if stmt is not None:
                statements.append(stmt)
        return GateBlock(parallel, tuple(statements),
                         line=open_tok.line, column=open_tok.column)

    def loop_statement(self):
        kw = self.advance()
        tok = self.cur
        count = None
        if tok.kind == "INT":
            self.advance()
            count = IntLiteral(int(tok.value))
        elif tok.kind == "IDENT":
            self.advance()
            count = NameRef(tok.value)
        elif tok.kind == "FLOAT":
            self.advance()
            self.diag("bad-loop-count",
                      "loop count must be an integer", tok)
            count = IntLiteral(0)
        else:
            self.diag("syntax-error", "loop requires an iteration count", tok)
            self.recover()
            return None
        body = self.headed_block("loop")
        if body is None:
            return None
        return LoopStatement(count, body, line=kw.line, column=kw.column)

    def macro_def(self):
        kw = self.advance()
        name = self.ident("macro name")
        if name is None:
            return None
        params: list = []
        while self.cur.kind == "IDENT":
            params.append(self.advance().value)
        body = self.headed_block("macro")
        if body is None:
            return None
        return MacroDef(name, tuple(params), body, line=kw.line, column=kw.column)

    def headed_block(self, construct: str):
        """Parse the block that a loop or macro head requires.

        The opening bracket must be on the same line as the head; a bare
        gate does not satisfy the block requirement.
        """
        if self.cur.kind in ("{", "<"):
            return self.block(parallel_context=None)
        if self.at("NEWLINE"):
            # look past blank lines: a bracket further down is the classic
            # "brace on the next line" mistake and deserves its own message
            ahead = self.pos
            while self.toks[ahead].kind == "NEWLINE":
                ahead += 1
            if self.toks[ahead].kind in ("{", "<"):
                self.diag("newline-before-brace",
                          f"line break is not allowed before the opening "
                          f"bracket of a {construct} body", self.toks[ahead])
                self.pos = ahead
                return self.block(parallel_context=None)
        self.diag("expected-block",
                  f"{construct} requires a gate block, not a single gate")
        self.recover()
        return None

    # -- helpers ------------------------------------------------------------

    def ident(self, what: str):
        tok = self.cur
        if tok.kind == "IDENT":
            self.advance()
            return tok.value
        if tok.kind == "KEYWORD":
            self.diag("syntax-error",
                      f"keyword '{tok.value}' cannot be used as {what}")
        else:
            self.diag("syntax-error",
                      f"expected {what}, found {self.describe(tok)}")
        self.recover()
        return None

    def int_expr(self, what: str):
        tok = self.cur
        if tok.kind == "INT":
            self.advance()
            return IntLiteral(int(tok.value))
        if tok.kind == "IDENT":
            self.advance()
            return NameRef(tok.value)
        self.diag("syntax-error",
                  f"expected integer or constant name as {what}, found "
                  f"{self.describe(tok)}")
        return None

    def expect(self, kind: str, what: str) -> bool:
        if self.at(kind):
            self.advance()
            return True
        self.diag("syntax-error", f"expected {what}")
        self.recover()
        return False

    @staticmethod
    def describe(tok: Token) -> str:
        if tok.kind == "EOF":
            return "end of input"
        if tok.kind == "NEWLINE":
            return "end of line"
        if tok.kind in ("INT", "FLOAT"):
            return f"number {tok.value!r}"
        return f"{tok.value!r}"


def parse(source: str):
    """Parse source text into ``(Program, diagnostics)``.

    The program is best-effort: when diagnostics contain errors it covers
    whatever could be recovered and must not be executed.
    """
    tokens, diags = lex(source)
    program = _Parser(tokens, diags).program()
    diags.sort(key=lambda d: (d.line, d.column, d.code))
    return program, diags
