"""The flat circuit of an analyzed program, and what reads one.

Analysis checks the program and builds its flat circuit in one walk, and
decides qubit exclusivity, so ``expand`` walks no syntax tree, resolves no
argument and checks nothing: it hands the circuit over.  The IR records
live in the analyzer, so ``check`` loads no expander; this module
re-exports them next to gate counts, execution order and the text dump.
"""

from __future__ import annotations

from .analyzer import (  # noqa: F401  (the IR records are public here)
    FlatBlock,
    FlatCircuit,
    FlatLoop,
    PrimitiveGate,
    SymbolTable,
    analyze,
)
from .ast import Program
from .errors import JaqalError


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


def count_primitive_gates(circuit) -> int:
    """Primitive gates a circuit, or one of its IR nodes, runs; a loop
    multiplies its body's."""
    item = getattr(circuit, "root", circuit)
    if isinstance(item, PrimitiveGate):
        return 1
    return item.count * sum(map(count_primitive_gates, item.items))


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


def flat_chunks(circuit: FlatCircuit):
    """Readable text form, in chunks: one primitive per line as ``name
    offsets... floats...``, nested blocks bracketed by indented markers,
    top-level items at indent zero without them.  A loop has none either:
    its body's text is repeated ``count`` times, in 64 KiB blocks, unless
    loops in it make it run more than 1024 gates: then it streams on each
    iteration as the top level does."""

    def render(items, indent: int) -> str:
        pad = "    " * indent
        parts = []
        for item in items:
            if isinstance(item, PrimitiveGate):
                parts.append(f"{pad}{item}\n")
            elif isinstance(item, FlatLoop):
                parts.append(render(item.items, indent) * item.count)
            else:
                open_ch, close_ch = ("<", ">") if item.parallel else ("{", "}")
                inner = render(item.items, indent + 1)
                parts.append(f"{pad}{open_ch}\n{inner}{pad}{close_ch}\n")
        return "".join(parts)

    def chunks(items):  # the items since the last loop make one chunk
        start = 0
        for index, item in enumerate(items):
            if isinstance(item, FlatLoop):
                yield render(items[start:index], 0)
                nested = any(isinstance(i, FlatLoop) for i in item.items)
                if nested and count_primitive_gates(item) > 1024 * item.count:
                    for _ in range(item.count):  # its loops stream in turn
                        yield from chunks(item.items)
                else:  # a short body is rendered once
                    text = render(item.items, 0)
                    block = max(1, (1 << 16) // (len(text) or 1))
                    for done in range(0, item.count, block):
                        yield text * min(block, item.count - done)
                start = index + 1
        yield render(items[start:], 0)

    return chunks(circuit.root.items)


def dump_flat(circuit: FlatCircuit) -> str:
    """``flat_chunks``' text as one string."""
    return "".join(flat_chunks(circuit))
