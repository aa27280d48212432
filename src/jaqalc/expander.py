"""The flat circuit of an analyzed program, and what reads one.

Analysis checks the program and builds its flat circuit in one walk, and
decides qubit exclusivity, so ``expand`` walks no syntax tree, resolves no
argument and checks nothing: it hands the circuit over.  The IR records
live in the analyzer, so neither ``check`` nor ``run`` loads the expander;
this module re-exports them next to gate counts, execution order and the
text dump, which repeats a held loop's text (``analyzer.held``) and walks
other loops an iteration at a time, holding one held body's text at most.
"""

from __future__ import annotations

from .analyzer import (  # noqa: F401  (the IR records are public here)
    FlatBlock,
    FlatCircuit,
    FlatLoop,
    PrimitiveGate,
    SymbolTable,
    analyze,
    count_primitive_gates,
    held,
)
from .ast import Program
from .errors import JaqalError

CHUNK_BYTES = 1 << 16  # a held loop's text is repeated in blocks this size
LINES_KEPT = 1 << 12  # gate lines kept per indent before the memo restarts


def expand(program: Program, gates: dict,
           symbols: SymbolTable = None) -> FlatCircuit:
    """The FlatCircuit analysis built for a program.

    Pass in the symbol table analysis returned to avoid re-analyzing.
    Raises JaqalError if the analysis found errors.
    """
    if symbols is None:
        symbols = analyze(program, gates)[0]
    if symbols.circuit is None:
        raise JaqalError("program has analysis errors; expansion "
                         "requires a clean analysis")
    return symbols.circuit


def iter_gates(circuit: FlatCircuit):
    """All primitive gates in execution order (parallel siblings in listed
    order; they commute because they touch disjoint qubits), a loop body's
    gate objects again on every iteration."""

    def walk(items):
        for item in items:
            if isinstance(item, PrimitiveGate):
                yield item
            else:
                for _ in range(item.count):
                    yield from walk(item.items)

    yield from walk(circuit.root.items)


def _pieces(items, indent: int, lines: dict):
    """The text of items, in execution order.  ``lines`` keeps, for the
    walk, each gate object's line at each indent, keyed by ``id``, up to
    ``LINES_KEPT`` of them, so a gate run again costs a lookup."""
    pad = "    " * indent
    known = lines.setdefault(indent, {})
    for item in items:
        if isinstance(item, PrimitiveGate):
            line = known.get(id(item))
            if line is None:
                if len(known) == LINES_KEPT:
                    known.clear()
                line = known[id(item)] = f"{pad}{item}\n"
            yield line
        elif isinstance(item, FlatBlock):
            yield f"{pad}{'<' if item.parallel else '{'}\n"
            yield from _pieces(item.items, indent + 1, lines)
            yield f"{pad}{'>' if item.parallel else '}'}\n"
        elif held(item):  # rendered once, repeated about CHUNK_BYTES at a time
            text = "".join(_pieces(item.items, indent, lines))
            block = max(1, CHUNK_BYTES // (len(text) or 1))
            for done in range(0, item.count, block):
                yield text * min(block, item.count - done)
        else:  # walked on each iteration
            for _ in range(item.count):
                yield from _pieces(item.items, indent, lines)


def flat_chunks(circuit: FlatCircuit):
    """Readable text form: a line ``name offsets... floats...`` per
    primitive, indented markers around blocks, a loop's body ``count``
    times; in chunks of at most ``CHUNK_BYTES``, or one longer body."""
    parts, size = [], 0
    for piece in _pieces(circuit.root.items, 0, {}):
        if size + len(piece) > CHUNK_BYTES and parts:
            yield "".join(parts)
            parts, size = [], 0
        parts.append(piece)
        size += len(piece)
    yield "".join(parts)


def dump_flat(circuit: FlatCircuit) -> str:
    """``flat_chunks``' text as one string."""
    return "".join(flat_chunks(circuit))
