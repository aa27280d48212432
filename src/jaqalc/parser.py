"""Lexer and recursive-descent parser for Jaqal source text.

Both entry points are total: they return a best-effort result together with
a list of diagnostics rather than raising, so a single run can report many
problems.  A parse counts as successful when the diagnostic list contains
no errors.

The lexer is one compiled pattern, ``_TOKEN``, matched once per token:
spaces and tabs, then the first alternative that fits: a LF or CRLF line
break (NEWLINE); a ``from <gate set> usepulses ...`` statement up to a
CR or LF, ``/``, separator or bracket (one KEYWORD ``from``, and
``unknown-gate-set`` unless it is ``STANDARD_HEADER``, the built-in gate
set); an identifier (IDENT or KEYWORD); a punctuation mark; an integer
literal not followed by a name character or dot (INT); a ``//``
comment (NEWLINE only at end of input); a ``/* */`` comment, closed by the
first ``*/``; an unclosed ``/*`` (``unterminated-comment``); any other
number with the name characters or dots that follow it (FLOAT, or
``bad-number`` when malformed, not finite or too long for ``int()``); any
other character, such as a lone CR or ``/`` (``illegal-character``); or
the end of input, so trailing whitespace is one match.  Letters and digits
are ASCII only.  Each position is computed once, from the token's start.

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
  not starting a numeric literal are lexical errors;
* blocks nest at most ``ast.MAX_NESTING`` deep; the first opening bracket
  past the limit is reported and its block skipped unparsed, so parsing
  never recurses deeper.

On an error the parser skips to the next statement boundary (newline,
separator, or block close) and keeps going.
"""

from __future__ import annotations

import re
from math import inf, isfinite
from typing import Optional

from .ast import (
    IDENTIFIER,
    KEYWORDS,
    MAX_NESTING,
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
from .diagnostics import error

# Letters and digits are the ASCII ranges written here, never \d or \w,
# which admit Unicode.
_TOKEN = re.compile(r"""[ \t]*(?:
    (?P<newline>\r?\n)
  | (?P<usepulses>from[ \t]+[^\s;/|{}<>]+[ \t]+usepulses\b[^\r\n;/|{}<>]*)
  | (?P<ident>""" + IDENTIFIER + r""")
  | (?P<punct>[{}<>\[\]:;|])
  | (?P<int>-?[0-9]+)(?![A-Za-z0-9_.])
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<open_comment>/\*.*)
  | (?=[-.0-9])(?P<number>-?(?P<literal>(?:[0-9]+\.?[0-9]*|\.[0-9]+)
        (?:[eE][+-]?[0-9]+)?)?[A-Za-z0-9_.]*)  # "0q" is one bad token
  | (?P<other>.)
  | \Z  # spaces and tabs that end the input
)""", re.VERBOSE | re.DOTALL)

# the one gate set a ``from ... usepulses ...`` statement may name
STANDARD_HEADER = ("from", "qscout.v1.std", "usepulses", "*")
_STRAY = {"\r": "stray carriage return",
          "/": "'/' is only valid inside comments"}


class Token:
    __slots__ = ("kind", "value", "line", "column")
    def __init__(self, kind: str, value, line: int, column: int):
        # IDENT, KEYWORD, INT, FLOAT, NEWLINE, EOF, or the punctuation char
        self.kind, self.value = kind, value
        self.line, self.column = line, column


def lex(source: str):
    """Tokenize source text into ``(tokens, diagnostics)``.

    Whitespace and comments disappear; line breaks outside ``/* */``
    comments survive as NEWLINE tokens because they terminate statements.
    """
    tokens: list = []
    diags: list = []
    line, line_start = 1, 0
    for match in _TOKEN.finditer(source):
        kind = match.lastgroup
        if kind is None:  # the end of input
            break
        text, column = match.group(kind), match.start(kind) - line_start + 1
        if kind == "ident":
            tokens.append(Token("KEYWORD" if text in KEYWORDS else "IDENT",
                                text, line, column))
        elif kind == "punct":
            tokens.append(Token(text, text, line, column))
        elif kind == "newline":
            tokens.append(Token("NEWLINE", None, line, column))
            line, line_start = line + 1, match.end()
        elif kind == "int":
            try:
                tokens.append(Token("INT", int(text), line, column))
            except ValueError:  # more digits than int() converts
                diags.append(error(line, column, "bad-number",
                                   _number(text, True)))
        elif kind == "number":
            well_formed = match.end("literal") == match.end()
            value = float(text) if well_formed else inf
            if isfinite(value):
                tokens.append(Token("FLOAT", value, line, column))
            else:
                diags.append(error(line, column, "bad-number",
                                   _number(text, well_formed)))
        elif kind == "line_comment" and match.end() == len(source):
            # the comment ran to end of input, which ends the line
            tokens.append(Token("NEWLINE", None, line, column + len(text)))
        elif kind == "block_comment" and "\n" in text:
            line += text.count("\n")
            line_start = match.start(kind) + text.rindex("\n") + 1
        elif kind == "open_comment":
            diags.append(error(line, column, "unterminated-comment",
                               "block comment is never closed"))
        elif kind == "other":
            message = _STRAY.get(text, f"illegal character {text!r}")
            diags.append(error(line, column, "illegal-character", message))
        elif kind == "usepulses":
            if tuple(text.split()) != STANDARD_HEADER:
                diags.append(error(line, column, "unknown-gate-set",
                                   "the only gate set is the built-in one, "
                                   "'from qscout.v1.std usepulses *'"))
            tokens.append(Token("KEYWORD", "from", line, column))
    return tokens, diags


def _number(text: str, well_formed: bool) -> str:
    """Why ``lex`` could not convert a numeric literal, told by its length,
    not by the literal, which can be thousands of characters long."""
    if not well_formed:
        return f"malformed numeric literal of length {len(text)}"
    digits = text.lstrip("-")
    if digits.isdigit():
        return f"a {len(digits)}-digit integer literal is too long to read"
    return (f"numeric literal of length {len(text)} is too large for a "
            "finite number")


_HEADERS = ("register", "map", "let", "from")
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
        self.cur = self.toks[0]  # the token at pos; advance moves both
        self.diags = diags
        self.depth = 0  # blocks open around the current token

    # -- primitives ---------------------------------------------------------

    def advance(self) -> Token:
        tok = self.cur
        if tok.kind != "EOF":
            self.pos += 1
            self.cur = self.toks[self.pos]
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
            if tok.kind == "KEYWORD" and tok.value in _HEADERS:
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
        if tok.value == "from":  # its gate set was checked by ``lex``
            return None
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
        if self.cur.kind == "[":
            self.advance()
            selector = self.selector()
            if selector is None or not self.expect("]", "']' after map selector"):
                return None
        return MapAlias(name, target, selector, line=kw.line, column=kw.column)

    def selector(self):
        """Index or Python-style slice inside a map statement's brackets."""
        parts: list = []  # one per component; None where it is omitted
        while True:
            kind = self.cur.kind
            if kind == ":" or kind == "]" or kind in _TERMINATORS:
                parts.append(None)
            else:
                expr = self.int_expr("map selector component")
                if expr is None:
                    return None
                parts.append(expr)
            if self.cur.kind != ":":
                break
            self.advance()
        if len(parts) == 1:
            return parts[0]
        if len(parts) > 3:
            self.diag("bad-slice", "a slice has at most three components")
            return None
        return Slice(*parts)

    def let_constant(self, kw):
        name = self.ident("constant name")
        if name is None:
            return None
        if self.cur.kind in ("INT", "FLOAT"):
            value = self.advance().value
            return LetConstant(name, value, line=kw.line, column=kw.column)
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
        while (tok := self.cur).kind not in _TERMINATORS:
            if tok.kind == "IDENT":
                self.advance()
                if self.cur.kind == "[":
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
                args.append(IntLiteral(tok.value))
            elif tok.kind == "FLOAT":
                self.advance()
                args.append(FloatLiteral(tok.value))
            else:
                self.diag("bad-gate-arg",
                          f"{self.describe(tok)} cannot be a gate argument")
                self.recover()
                break
        return GateStatement(name_tok.value, tuple(args),
                             line=name_tok.line, column=name_tok.column)

    def block(self, parallel_context: Optional[bool]):
        open_tok = self.advance()
        if self.depth == MAX_NESTING:
            self.diag("nesting-too-deep",
                      f"blocks nest more than {MAX_NESTING} deep", open_tok)
            self.skip_block()
            return None
        parallel = open_tok.kind == "<"
        if parallel_context is not None and parallel == parallel_context:
            kind = "parallel" if parallel else "sequential"
            self.diag(
                "same-kind-nesting",
                f"a {kind} block cannot be nested directly inside another "
                f"{kind} block", open_tok)
        close = ">" if parallel else "}"
        statements: list = []
        self.depth += 1
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
        self.depth -= 1
        return GateBlock(parallel, tuple(statements),
                         line=open_tok.line, column=open_tok.column)

    def skip_block(self):
        """Skip past the bracket that closes the block just opened."""
        open_blocks = 1
        while open_blocks and self.cur.kind != "EOF":
            kind = self.advance().kind
            if kind in ("{", "<"):
                open_blocks += 1
            elif kind in ("}", ">"):
                open_blocks -= 1

    def loop_statement(self):
        kw = self.advance()
        tok = self.cur
        if tok.kind in ("INT", "IDENT"):
            count = self.int_expr("loop count")
        elif tok.kind == "FLOAT":
            self.advance()
            self.diag("bad-loop-count",
                      "loop count must be an integer", tok)
            count = IntLiteral(0)
        else:
            self.diag("syntax-error", "loop requires an iteration count", tok)
            self.recover()
            return None
        body = self.block(None) if self.find_body("loop") else None
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
        body = self.block(None) if self.find_body("macro") else None
        if body is None:
            return None
        return MacroDef(name, tuple(params), body, line=kw.line, column=kw.column)

    def find_body(self, construct: str) -> bool:
        """Move to the opening bracket of the block a loop or macro head
        requires, or report its absence and return False.

        The opening bracket must be on the same line as the head; a bare
        gate does not satisfy the block requirement.
        """
        if self.cur.kind in ("{", "<"):
            return True
        if self.cur.kind == "NEWLINE":
            # look past blank lines: a bracket further down is the classic
            # "brace on the next line" mistake and deserves its own message
            ahead = self.pos
            while self.toks[ahead].kind == "NEWLINE":
                ahead += 1
            if self.toks[ahead].kind in ("{", "<"):
                self.diag("newline-before-brace",
                          f"line break is not allowed before the opening "
                          f"bracket of a {construct} body", self.toks[ahead])
                self.pos, self.cur = ahead, self.toks[ahead]
                return True
        self.diag("expected-block",
                  f"{construct} requires a gate block, not a single gate")
        self.recover()
        return False

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
            return IntLiteral(tok.value)
        if tok.kind == "IDENT":
            self.advance()
            return NameRef(tok.value)
        self.diag("syntax-error",
                  f"expected integer or constant name as {what}, found "
                  f"{self.describe(tok)}")
        return None

    def expect(self, kind: str, what: str) -> bool:
        if self.cur.kind == kind:
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
