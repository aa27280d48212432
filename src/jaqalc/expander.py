"""Lowering an analyzed program to a flat circuit.

Expansion substitutes let constants, resolves aliases to absolute register
offsets, inlines macro bodies with their arguments bound (arguments are
resolved in the caller's environment first, so substitution cannot capture
names), and unrolls loops into the stated number of copies.  The result
contains only primitive gate applications inside alternating
sequential/parallel block structure: a block expanding inside a block of
the same kind is spliced inline, and a one-iteration loop leaves no wrapper
behind.

Substitution can create qubit conflicts that are invisible in the source
(for example a macro invoked with the same qubit for two parameters), so
the analyzer's exclusivity rules run again on the flat structure and raise
ConflictError on violation.  Together with analysis this is where
exclusivity is decided: a circuit ``expand`` returns never has two gates
on one qubit at once, and the scheduler and simulator check nothing
further.  A hand-built circuit gets the same guarantee by passing
``check_flat_conflicts``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .analyzer import (
    MacroInfo,
    SymbolTable,
    Usage,
    _number,
    _qubit_offset,
    analyze,
    parallel_conflicts,
)
from .ast import (
    GateBlock,
    GateStatement,
    LoopStatement,
    MacroDef,
    NameRef,
    Program,
)
from .diagnostics import has_errors
from .errors import ConflictError, JaqalError
from .gateset import FLOAT, GateDefinition, MEASUREMENT, PREPARATION, QUBIT


@dataclass(frozen=True)
class PrimitiveGate:
    definition: GateDefinition
    qubits: tuple = ()  # absolute register offsets
    float_args: tuple = ()
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)

    @property
    def name(self) -> str:
        return self.definition.name


@dataclass(frozen=True)
class FlatBlock:
    parallel: bool
    items: tuple = ()  # PrimitiveGate | FlatBlock, same-kind never nests


@dataclass(frozen=True)
class FlatCircuit:
    n_qubits: int
    root: FlatBlock  # always sequential


class _Expander:
    """Expands statements in an environment ``env``: the arguments bound
    to the parameters of the macro being expanded, as a dict from each
    parameter name to its register offset or number."""

    def __init__(self, table: SymbolTable, gates: dict):
        self.table = table
        self.gates = gates

    def expand_body(self, statements, parallel: bool, env: dict) -> list:
        items: list = []
        for stmt in statements:
            if isinstance(stmt, MacroDef):
                continue  # declarations produce no gates
            if isinstance(stmt, GateStatement):
                items.extend(self.expand_gate(stmt, parallel, env))
            elif isinstance(stmt, GateBlock):
                items.extend(self.expand_block(stmt, parallel, env))
            elif isinstance(stmt, LoopStatement):
                count = self.resolve(stmt.count, env, FLOAT, "loop count")
                body = self.expand_body(stmt.body.statements, False, env)
                for _ in range(count):
                    items.extend(body)
            else:
                raise JaqalError(
                    f"cannot expand {type(stmt).__name__}")
        return items

    def expand_block(self, block: GateBlock, parallel: bool,
                     env: dict) -> list:
        items = self.expand_body(block.statements, block.parallel, env)
        if block.parallel == parallel or not items:
            return items  # same-kind splice; empty blocks vanish
        return [FlatBlock(block.parallel, tuple(items))]

    def expand_gate(self, stmt: GateStatement, parallel: bool,
                    env: dict) -> list:
        macro = self.table.names.get(stmt.name)
        if not isinstance(macro, MacroInfo):
            return [self.primitive(stmt, env)]
        binding = {}
        for param, arg in zip(macro.params, stmt.args):
            kind = macro.param_kinds[param]
            if kind is not None:  # the body never reads a kind-None one
                binding[param] = self.resolve(arg, env, kind)
        return self.expand_block(macro.body, parallel, binding)

    def primitive(self, stmt: GateStatement, env: dict) -> PrimitiveGate:
        definition = self.gates[stmt.name]
        qubits: list = []
        floats: list = []
        for arg, kind in zip(stmt.args, definition.param_kinds):
            if kind == QUBIT:
                qubits.append(self.resolve(arg, env, kind))
            else:
                floats.append(self.resolve(arg, env, kind))
        return PrimitiveGate(definition, tuple(qubits), tuple(floats),
                             line=stmt.line, column=stmt.column)

    def resolve(self, arg, env: dict, kind, what=None):
        """The register offset of a QUBIT argument or the value of a FLOAT
        one: a macro parameter's binding, else what the analyzer's resolver
        gives; ``what`` names an integer slot, as there."""
        if isinstance(arg, NameRef) and arg.name in env:
            return env[arg.name]
        resolved = (_qubit_offset(arg, self.table) if kind == QUBIT
                    else _number(arg, self.table, what))
        if isinstance(resolved, tuple):
            code, message = resolved
            raise JaqalError(message, code=code or "bad-register-size")
        return resolved


def expand(program: Program, gates: dict,
           symbols: SymbolTable = None) -> FlatCircuit:
    """Lower an analyzed program to a FlatCircuit.

    The program must have passed analysis with no errors; pass the symbol
    table in to avoid re-analyzing.  Raises ConflictError when substitution
    produced a qubit-exclusivity violation.
    """
    if symbols is None:
        symbols, diags = analyze(program, gates)
        if has_errors(diags):
            raise JaqalError("program has analysis errors; expansion "
                             "requires a clean analysis")
    register = symbols.register
    n_qubits = register.size if register is not None else 0
    expander = _Expander(symbols, gates)
    items = expander.expand_body(program.body, False, {})
    circuit = FlatCircuit(n_qubits, FlatBlock(False, tuple(items)))
    check_flat_conflicts(circuit)
    return circuit


def count_primitive_gates(circuit: FlatCircuit) -> int:
    def count(item) -> int:
        if isinstance(item, PrimitiveGate):
            return 1
        return sum(count(child) for child in item.items)

    return count(circuit.root)


def iter_gates(circuit: FlatCircuit):
    """All primitive gates in execution order (parallel siblings in listed
    order; they commute because they touch disjoint qubits)."""

    def walk(item):
        if isinstance(item, PrimitiveGate):
            yield item
        else:
            for child in item.items:
                yield from walk(child)

    yield from walk(circuit.root)


def gate_qubits(gate: PrimitiveGate, n_qubits: int) -> set:
    """Offsets a primitive occupies; all-qubit operations cover everything."""
    if gate.definition.kind in (PREPARATION, MEASUREMENT):
        return set(range(n_qubits))
    return set(gate.qubits)


def check_flat_conflicts(circuit: FlatCircuit):
    """Check the qubit-exclusivity rules on the expanded structure and
    raise ConflictError at the first violation.

    Unrolled loop iterations share their gate and block objects, so each
    distinct object is summarised and checked once.
    """
    usages: dict = {}  # id(item) -> Usage
    checked: set = set()

    def usage(item) -> Usage:
        key = id(item)
        if key not in usages:
            if isinstance(item, PrimitiveGate):
                usages[key] = Usage.of_gate(item.definition, item.qubits)
            else:
                usages[key] = Usage.union(usage(c) for c in item.items)
        return usages[key]

    def walk(item):
        if id(item) in checked:
            return
        checked.add(id(item))
        if isinstance(item, PrimitiveGate):
            if len(set(item.qubits)) != len(item.qubits):
                raise ConflictError(
                    f"{item.name} uses the same qubit twice",
                    code="duplicate-qubit")
            return
        if item.parallel:
            children = [usage(child) for child in item.items]
            if any(child.global_gate for child in children):
                raise ConflictError(
                    "an all-qubit preparation or measurement cannot "
                    "appear inside a parallel block",
                    code="global-gate-in-parallel")
            for _, code, message in parallel_conflicts(children,
                                                       circuit.n_qubits):
                raise ConflictError(message, code=code)
        for child in item.items:
            walk(child)

    walk(circuit.root)


def dump_flat(circuit: FlatCircuit) -> str:
    """Readable text form: one primitive per line as ``name offsets...
    floats...``, nested blocks bracketed by indented markers.  Top-level
    items print at indent zero (the implicit sequential root shows no
    brackets)."""
    lines: list = []

    def emit(item, indent: int):
        pad = "    " * indent
        if isinstance(item, PrimitiveGate):
            parts = [item.name]
            parts += [str(q) for q in item.qubits]
            parts += [repr(f) for f in item.float_args]
            lines.append(pad + " ".join(parts))
        else:
            open_ch, close_ch = ("<", ">") if item.parallel else ("{", "}")
            lines.append(pad + open_ch)
            for child in item.items:
                emit(child, indent + 1)
            lines.append(pad + close_ch)

    for item in circuit.root.items:
        emit(item, 0)
    if not lines:
        return ""
    return "\n".join(lines) + "\n"
