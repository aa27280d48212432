"""Lowering an analyzed program to a flat circuit.

Expansion substitutes let constants, resolves aliases to absolute register
offsets and inlines macro bodies with their arguments bound (arguments are
resolved in the caller's environment first, so substitution cannot capture
names).  The result holds primitive gate applications in alternating
sequential/parallel blocks (a block expanding inside one of the same kind
is spliced inline) and loops: a ``FlatLoop`` holds its body once, so
expansion costs time in proportion to the source, not to the gates run.  A
one-iteration loop splices its body; a zero-iteration or empty one leaves
nothing.

Expansion checks nothing.  Analysis decides qubit exclusivity, including
the conflicts substitution creates (a macro invoked with the same qubit for
two parameters), by checking each macro body again with its qubits bound.
So a circuit ``expand`` returns from a program that analysis accepted never
has two gates on one qubit at once, and the scheduler and simulator do not
check it again.
"""

from __future__ import annotations

from .analyzer import MacroInfo, SymbolTable, _number, analyze, resolve_qubit
from .ast import (
    GateBlock,
    GateStatement,
    LoopStatement,
    MacroDef,
    NameRef,
    Program,
)
from .diagnostics import has_errors
from .errors import JaqalError
from .gateset import FLOAT, MEASUREMENT, PREPARATION, QUBIT
from .record import Record


class PrimitiveGate(Record):
    __slots__ = ("definition", "qubits", "float_args")
    def __init__(self, definition, qubits=(), float_args=()):
        self.definition, self.qubits = definition, qubits  # absolute offsets
        self.float_args = float_args

    @property
    def name(self) -> str:
        return self.definition.name

    def __str__(self) -> str:
        """``name offsets... floats...``, as the dumps print a gate."""
        return " ".join([self.name, *map(str, self.qubits),
                         *map(repr, self.float_args)])


class FlatBlock(Record):
    __slots__ = ("parallel", "items")
    count = 1  # walkers repeat a node's items ``count`` times
    def __init__(self, parallel: bool, items: tuple = ()):
        # items: PrimitiveGate | FlatBlock | FlatLoop; no block of one kind
        self.parallel, self.items = parallel, items


class FlatLoop(Record):
    __slots__ = ("count", "items")
    parallel = False
    def __init__(self, count: int, items: tuple):
        # the body, never empty, runs count (at least 2) times in sequence
        self.count, self.items = count, items


class FlatCircuit(Record):
    __slots__ = ("n_qubits", "root")
    def __init__(self, n_qubits: int, root: FlatBlock):
        self.n_qubits, self.root = n_qubits, root  # root is sequential


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
                if count == 0:
                    continue  # runs nothing; no gate budget bounds its body
                body = self.expand_body(stmt.body.statements, False, env)
                if count >= 2 and body:
                    items.append(FlatLoop(count, tuple(body)))
                elif count == 1:
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
        if not macro.usage.gates:
            return []  # runs nothing, but may nest 2**40 invocations
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
        return PrimitiveGate(definition, tuple(qubits), tuple(floats))

    def resolve(self, arg, env: dict, kind, what=None):
        """The register offset of a QUBIT argument or the value of a FLOAT
        one: a macro parameter's binding, else the analyzer's resolver's
        value, or its JaqalError; ``what`` names an integer slot."""
        if isinstance(arg, NameRef) and arg.name in env:
            return env[arg.name]
        if kind == QUBIT:
            return resolve_qubit(arg, self.table)
        return _number(arg, self.table, what)


def expand(program: Program, gates: dict,
           symbols: SymbolTable = None) -> FlatCircuit:
    """Lower an analyzed program to a FlatCircuit.

    The program must have passed analysis with no errors, which decided
    qubit exclusivity; pass the symbol table in to avoid re-analyzing.
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
    return FlatCircuit(n_qubits, FlatBlock(False, tuple(items)))


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
