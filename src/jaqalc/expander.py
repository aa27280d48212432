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
from .gateset import MEASUREMENT, PREPARATION


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


def count_primitive_gates(circuit: FlatCircuit) -> int:
    """Primitive gates the circuit runs; a loop multiplies its body's."""
    def count(item) -> int:
        if isinstance(item, PrimitiveGate):
            return 1
        return item.count * sum(count(child) for child in item.items)

    return count(circuit.root)


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


def gate_qubits(gate: PrimitiveGate, n_qubits: int) -> set:
    """Offsets a primitive occupies; all-qubit operations cover everything."""
    if gate.definition.kind in (PREPARATION, MEASUREMENT):
        return set(range(n_qubits))
    return set(gate.qubits)


def dump_flat(circuit: FlatCircuit) -> str:
    """Readable text form: one primitive per line as ``name offsets...
    floats...``, nested blocks bracketed by indented markers.  Top-level
    items print at indent zero with no brackets; a loop has none either:
    its body is rendered once and its text repeated ``count`` times."""

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

    return render(circuit.root.items, 0)
