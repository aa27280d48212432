"""Syntax tree for Jaqal programs.

All nodes are plain slotted records that nothing mutates once built, so
trees can be shared freely and compared structurally with ``==``.  Source
positions are carried on statement nodes for diagnostics only and are
excluded from comparison, which is what makes the pretty-print round trip
(parse, print, reparse, compare) a meaningful equality check.

A program has a header section (register, map, let) followed by a body
section (gates, blocks, loops, macro definitions).  Gate arguments and the
integer expressions inside declarations are one of a small closed set of
node types; there is deliberately no arithmetic expression grammar.

``pretty_print`` renders a tree as canonical source.  Every statement's
printer returns its newline-terminated text; a gate block, a loop and a
macro definition share one block path (head, bracket, children, bracket).
"""

from __future__ import annotations

import re
from typing import Optional, Union

from .record import Record

KEYWORDS = frozenset({"register", "map", "let", "macro", "loop"})

# The one identifier rule, shared with the lexer's token pattern.  Written
# with explicit ASCII ranges: the grammar rejects Unicode letters and digits.
IDENTIFIER = r"[A-Za-z_][A-Za-z0-9_]*"

# How deep blocks may nest along one path once macros are expanded: every
# block, loop body and macro body is one level, so invoking a macro adds
# the levels of its body.  The limit keeps each recursive walk of the tree
# and of the expanded circuit well inside Python's recursion limit.
MAX_NESTING = 200


def is_valid_identifier(text: str) -> bool:
    """True for a legal name: ASCII letters/digits/underscore, not starting
    with a digit, and not one of the statement keywords."""
    return re.fullmatch(IDENTIFIER, text) is not None and text not in KEYWORDS


class _Statement(Record):  # its position is not part of its value
    __slots__ = ("line", "column")


class IntLiteral(Record):
    __slots__ = ("value",)
    def __init__(self, value: int):
        self.value = value


class FloatLiteral(Record):
    __slots__ = ("value",)
    def __init__(self, value: float):
        self.value = value


class NameRef(Record):
    """A bare name in an argument or size position.

    Which namespace it refers to (let constant, single-qubit alias, macro
    parameter) is resolved semantically, not syntactically.
    """

    __slots__ = ("name",)
    def __init__(self, name: str):
        self.name = name


IntExpr = Union[IntLiteral, NameRef]


class QubitRef(Record):
    """``base[index]`` as a gate argument; index may be absent when the
    reference is to a single-qubit alias or macro parameter."""

    __slots__ = ("base", "index")
    def __init__(self, base: str, index: Optional[IntExpr] = None):
        self.base, self.index = base, index


class Slice(Record):
    """Python-style slice selector in a map statement; None marks an
    omitted component."""

    __slots__ = ("start", "stop", "step")
    def __init__(self, start=None, stop=None, step=None):
        self.start, self.stop, self.step = start, stop, step


class RegisterDecl(_Statement):
    __slots__ = ("name", "size")
    def __init__(self, name: str, size: IntExpr, line=0, column=0):
        self.name, self.size, self.line, self.column = name, size, line, column


class MapAlias(_Statement):
    """``map name target[selector]``; selector None aliases the whole
    target, an IntExpr selects one qubit, a Slice selects an array view."""

    __slots__ = ("name", "target", "selector")
    def __init__(self, name, target, selector=None, line=0, column=0):
        self.name, self.target, self.selector = name, target, selector
        self.line, self.column = line, column


class LetConstant(_Statement):
    """An immutable named number; int/float is distinguished by the Python
    type of ``value`` and decides which argument positions accept it."""

    __slots__ = ("name", "value")
    def __init__(self, name: str, value, line=0, column=0):
        self.name, self.value = name, value
        self.line, self.column = line, column


class GateStatement(_Statement):
    __slots__ = ("name", "args")
    def __init__(self, name: str, args: tuple = (), line=0, column=0):
        self.name, self.args, self.line, self.column = name, args, line, column


class GateBlock(_Statement):
    """Sequential (``{}``) or parallel (``<>``) group of body statements."""

    __slots__ = ("parallel", "statements")
    def __init__(self, parallel, statements=(), line=0, column=0):
        self.parallel, self.statements = parallel, statements
        self.line, self.column = line, column


class LoopStatement(_Statement):
    __slots__ = ("count", "body")
    def __init__(self, count: IntExpr, body: GateBlock, line=0, column=0):
        self.count, self.body = count, body  # a sequential block if valid
        self.line, self.column = line, column


class MacroDef(_Statement):
    """A named composite gate; the body block may be sequential or parallel
    and may only invoke macros defined earlier in the file."""

    __slots__ = ("name", "params", "body")
    def __init__(self, name, params=(), body=GateBlock(False), line=0,
                 column=0):
        self.name, self.params, self.body = name, params, body
        self.line, self.column = line, column


class Program(Record):
    __slots__ = ("headers", "body")
    def __init__(self, headers: tuple = (), body: tuple = ()):
        self.headers, self.body = headers, body


# ---------------------------------------------------------------------------
# Pretty printing
# ---------------------------------------------------------------------------

_INDENT = "    "


def _num(value) -> str:
    # repr of a float is the shortest string that parses back to the same
    # value, which is what the round-trip property needs
    return repr(value) if isinstance(value, float) else str(value)


def _int_expr(expr) -> str:
    if expr is None:
        return ""
    if isinstance(expr, IntLiteral):
        return str(expr.value)
    return expr.name


def _arg(arg) -> str:
    if isinstance(arg, QubitRef):
        if arg.index is None:
            return arg.base
        return f"{arg.base}[{_int_expr(arg.index)}]"
    if isinstance(arg, NameRef):
        return arg.name
    return _num(arg.value)


def _selector(selector) -> str:
    if selector is None:
        return ""
    if isinstance(selector, Slice):
        text = f"{_int_expr(selector.start)}:{_int_expr(selector.stop)}"
        if selector.step is not None:
            text += f":{_int_expr(selector.step)}"
        return f"[{text}]"
    return f"[{_int_expr(selector)}]"


def _emit(stmt, indent: int) -> str:
    """A statement's text, ``indent`` levels deep, ending in a newline."""
    pad = _INDENT * indent
    if isinstance(stmt, RegisterDecl):
        return f"{pad}register {stmt.name}[{_int_expr(stmt.size)}]\n"
    if isinstance(stmt, MapAlias):
        return f"{pad}map {stmt.name} {stmt.target}{_selector(stmt.selector)}\n"
    if isinstance(stmt, LetConstant):
        return f"{pad}let {stmt.name} {_num(stmt.value)}\n"
    if isinstance(stmt, GateStatement):
        return pad + " ".join([stmt.name, *map(_arg, stmt.args)]) + "\n"
    # a block's opening bracket shares a line with its loop or macro head
    if isinstance(stmt, GateBlock):
        head, block = [], stmt
    elif isinstance(stmt, LoopStatement):
        head, block = ["loop", _int_expr(stmt.count)], stmt.body
    elif isinstance(stmt, MacroDef):
        head, block = ["macro", stmt.name, *stmt.params], stmt.body
    else:
        raise TypeError(f"cannot print {type(stmt).__name__}")
    open_ch, close_ch = ("<", ">") if block.parallel else ("{", "}")
    children = "".join(_emit(child, indent + 1) for child in block.statements)
    return f"{pad}{' '.join([*head, open_ch])}\n{children}{pad}{close_ch}\n"


def pretty_print(program: Program) -> str:
    """Render a program as canonical source: one statement per line,
    each ending in a newline, 4-space indentation.  Reparsing the result
    yields a structurally equal tree."""
    return "".join(_emit(stmt, 0) for stmt in program.headers + program.body)
