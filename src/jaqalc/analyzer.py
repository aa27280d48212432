"""Semantic analysis: name resolution, hardware-model checks and the flat
circuit.

Validates a parsed program against a gate set and, in the same walk,
builds the flat circuit it runs.  Jaqal has one flat namespace, so the
symbol table is one dict from each name to what it denotes; the kind of
the entry picks the diagnostic for a name in the wrong slot.  Two
resolvers read it, one for qubits (``resolve_qubit``) and one for numbers;
each returns a value or raises JaqalError with the diagnostic's code, and
analysis turns each failure into a diagnostic in one place.  Aliases
resolve to affine views (start, stride, length) over the single qubit
register, so chained Python-style slices compose without materializing
index lists.

Checks performed, each with its own diagnostic code:

* exactly one register when the program has anything to execute, and its
  size is a positive integer (``no-register``, ``duplicate-register``,
  ``bad-register-size``);
* every name is declared before use, exactly once across all namespaces
  (``undefined-name``, ``duplicate-name``, ``forward-macro-reference``,
  ``recursive-macro``);
* map targets are registers/aliases and every resolved offset is in bounds
  (``bad-index``, ``bad-slice``, ``index-out-of-bounds``, warning
  ``empty-alias``);
* gate names exist, arities match, and each argument fits its slot: integer
  slots take integer constants only, angle slots take either numeric kind
  if it fits a float, qubit slots take qubits (``unknown-gate``,
  ``arity-mismatch``, ``type-mismatch``, ``bad-number``,
  ``bad-loop-count``);
* block shape rules: no loop inside a parallel block, no same-kind direct
  nesting (``loop-in-parallel``, ``same-kind-nesting``), and no macro
  invocation that, expanded, nests blocks more than ``MAX_NESTING`` deep
  (``nesting-too-deep``);
* hardware exclusivity: one gate may not use a qubit twice, directly
  parallel statements may not share qubits, the two-qubit entangler runs
  with no parallel siblings, and all-qubit preparation/measurement never
  sits inside a parallel block (``duplicate-qubit``, ``parallel-conflict``,
  ``ms-in-parallel``, ``global-gate-in-parallel``);
* a budget: the program expands to at most ``MAX_GATES`` primitive gates,
  counted algebraically (loops multiply their body, a macro invocation
  adds its body's count), and the first top-level statement that passes it
  is reported (``too-many-gates``).

Each statement is summarised once, as a ``Usage``, while it is checked; the
parallel-sibling rules read only those summaries.  Analysis alone decides
exclusivity, and walks each macro body once, where it is defined, with
parameters standing for their names.  A check that depends on an invocation's
qubits becomes pairs of terms (parameters or offsets) that must not name one
qubit, kept with the walk position of the check.  An invocation on offsets
reports each distinct error of the pairs that meet, in walk order; one
passing a parameter on hands its caller the pairs that may still meet.  The
rules apply to statements as written, even a ``loop 0`` body.

The same walk builds the body's flat items; an invocation adds a ``_Call``
of them with its arguments.  When ``SymbolTable.circuit`` is first read,
``_splice`` inlines every call and binds every parameter, giving a
FlatCircuit of primitive gates on register offsets in alternating
sequential/parallel blocks, and loops that hold their body once; ``check``
never reads it.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .ast import (
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
    _arg,
)
from .diagnostics import error, has_errors, warning
from .errors import JaqalError
from .gateset import MEASUREMENT, PREPARATION, QUBIT
from .record import Record

# The most primitive gates a program may run.  Expansion keeps loops whole,
# but the dumps, scheduling and simulation take time in proportion to the
# gates run, so past it analysis fails before any of them start.
MAX_GATES = 2 ** 22


class Usage(NamedTuple):
    """What a statement occupies, as the exclusivity rules see it.

    ``offsets`` holds the register offsets it is known to touch, and None
    when it holds an all-qubit gate and so occupies every offset.
    ``global_gate`` and ``entangler`` say whether it holds an all-qubit
    preparation/measurement or the two-qubit entangler, also through
    macro invocations.  ``gates`` counts the primitive gates it expands
    to.  ``later`` holds, in a macro body, the terms whose checks wait for
    a binding: parameters, and what an invocation passing one on touches.
    """

    offsets: frozenset = frozenset()
    global_gate: bool = False
    entangler: bool = False
    gates: int = 0
    later: frozenset = frozenset()

    @classmethod
    def of_gate(cls, definition, offsets) -> "Usage":
        is_global = definition.kind in (PREPARATION, MEASUREMENT)
        rotation = definition.rotation
        return cls(frozenset((None,) if is_global else offsets), is_global,
                   rotation is not None and rotation.family == "ms", 1)

    @classmethod
    def union(cls, usages) -> "Usage":
        offsets, later = set(), set()
        global_gate = entangler = False
        gates = 0
        for usage in usages:
            offsets |= usage.offsets
            later |= usage.later
            global_gate = global_gate or usage.global_gate
            entangler = entangler or usage.entangler
            gates += usage.gates
        return cls(frozenset(offsets), global_gate, entangler, gates,
                   frozenset(later))


_NO_USAGE = Usage()


def _shared(offset) -> str:
    return (f"qubit offset {offset} is used by two statements in the same "
            "parallel block")


def parallel_conflicts(usages, n_qubits: int):
    """The exclusivity violations among the children of one parallel block.

    Takes each child's Usage and yields ``(child index, code, message)``:
    first every register offset a child shares with an earlier sibling (in
    child order, then offset order), then the entangler when it has
    parallel company.  A child that holds an all-qubit gate occupies
    offsets 0 to ``n_qubits - 1``.
    """
    taken: set = set()
    everything = False  # an earlier child occupies every offset
    for idx, usage in enumerate(usages):
        if None in usage.offsets:
            shared = range(n_qubits) if everything else sorted(taken)
            everything = True
        else:
            shared = sorted(usage.offsets if everything
                            else usage.offsets & taken)
            taken |= usage.offsets
        for offset in shared:
            yield idx, "parallel-conflict", _shared(offset)
    if len(usages) > 1:
        for idx, usage in enumerate(usages):
            if usage.entangler:
                yield (idx, "ms-in-parallel",
                       "the two-qubit entangling gate runs in parallel with "
                       "no other gates")
                break


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


HOLD_GATES = 4096  # a dump holds a loop body that runs at most this many


def count_primitive_gates(circuit) -> int:
    """Primitive gates a circuit, or one of its IR nodes, runs; a loop
    multiplies its body's."""
    item = getattr(circuit, "root", circuit)
    if isinstance(item, PrimitiveGate):
        return 1
    return item.count * sum(map(count_primitive_gates, item.items))


def held(loop: FlatLoop) -> bool:
    """Whether the dumps hold ``loop``'s body once and repeat it, rather
    than walk each iteration: an iteration runs at most ``HOLD_GATES``."""
    return count_primitive_gates(loop) <= loop.count * HOLD_GATES


class FlatCircuit(Record):
    __slots__ = ("n_qubits", "root")
    def __init__(self, n_qubits: int, root: FlatBlock):
        self.n_qubits, self.root = n_qubits, root  # root is sequential


class _Unbound(Record):
    """A gate in a macro body, whose arguments may name parameters;
    ``bound`` keeps the gate it makes on each tuple of offsets."""

    __slots__ = ("definition", "qubits", "float_args", "angles", "bound")
    def __init__(self, definition, qubits, float_args):
        self.definition, self.qubits = definition, qubits
        self.float_args, self.bound = float_args, {}
        self.angles = str in map(type, float_args)


class _Call(Record):
    """A macro invocation: the body's items, and pairs binding each of its
    parameters to an offset, a number or a parameter of the caller."""

    __slots__ = ("parallel", "items", "numbers")
    def __init__(self, parallel: bool, items: list, numbers: tuple):
        self.parallel, self.items, self.numbers = parallel, items, numbers


def _splice(items, parallel: bool, numbers: dict, out: list):
    """Append ``items``, built in a block of kind ``parallel``, to ``out`` as
    flat IR.  Analysis builds them as the source is written: a FlatBlock
    per block, a FlatLoop of any count per loop, a _Call per invocation.
    Here calls are inlined, parameters bound from ``numbers`` (name ->
    offset or number), a block spliced into one of its kind, empty blocks
    and loops dropped and a loop run once unwrapped.  Loops sit in
    sequential blocks: analysis rejects one in a parallel block."""
    for item in items:
        kind = type(item)
        if kind is PrimitiveGate:
            out.append(item)
        elif kind is _Unbound:
            qubits = tuple(map(numbers.get, item.qubits, item.qubits))
            gate = item.bound.get(qubits) or item.bound.setdefault(
                qubits, PrimitiveGate(item.definition, qubits, item.float_args))
            if item.angles:  # 1 == 1.0, but they print apart
                gate = PrimitiveGate(item.definition, gate.qubits, tuple(
                    map(numbers.get, gate.float_args, gate.float_args)))
            out.append(gate)
        elif kind is FlatLoop:
            if item.count == 1:
                _splice(item.items, False, numbers, out)
            elif item.count >= 2:
                body: list = []
                _splice(item.items, False, numbers, body)
                if body:
                    out.append(FlatLoop(item.count, tuple(body)))
        else:  # a FlatBlock, or a _Call, which binds its body's parameters
            inner = numbers if kind is FlatBlock else {
                param: numbers[arg] if type(arg) is str else arg
                for param, arg in item.numbers}
            if item.parallel == parallel:
                _splice(item.items, parallel, inner, out)
                continue
            block: list = []
            _splice(item.items, item.parallel, inner, block)
            if block:
                out.append(FlatBlock(item.parallel, tuple(block)))


class SingleView(Record):
    """An alias naming exactly one register offset."""

    __slots__ = ("offset",)
    def __init__(self, offset: int):
        self.offset = offset


class ArrayView(Record):
    """An affine view over the register: offsets start + step*i."""

    __slots__ = ("start", "step", "length")
    def __init__(self, start: int, step: int, length: int):
        self.start, self.step, self.length = start, step, length

    def offset(self, index: int) -> int:
        return self.start + self.step * index

    def offsets(self):
        return [self.offset(i) for i in range(self.length)]


class RegisterInfo(Record):
    __slots__ = ("name", "size")
    def __init__(self, name: str, size: Optional[int]):
        self.name, self.size = name, size  # None if the size did not resolve


class MacroInfo(Record):
    __slots__ = ("name", "params", "param_kinds", "body", "usage", "depth",
                 "clean", "items", "pairs")
    def __init__(self, name, params, param_kinds, body, usage, depth, clean,
                 items, pairs):
        # param_kinds: param name -> QUBIT | FLOAT | None (unused); usage:
        # the body's; depth: how deep the expanded body nests blocks;
        # clean: the definition drew no diagnostic; items: the body's;
        # pairs: (code, message or None, term, term) -> walk position
        self.name, self.params, self.param_kinds = name, params, param_kinds
        self.body, self.usage, self.depth = body, usage, depth
        self.clean, self.items, self.pairs = clean, items, pairs


class SymbolTable:
    """The one namespace of a program.

    ``names`` maps each declared name to what it denotes: the register's
    name to its RegisterInfo, an alias to its SingleView or ArrayView, a
    let constant to its int or float value and a macro to its MacroInfo.
    ``circuit``, built when first read, is the program's FlatCircuit, or
    None if it has errors.
    """

    __slots__ = ("names", "register", "_items", "_circuit")
    def __init__(self):  # _items: what analysis built, until spliced
        self.names, self.register = {}, None
        self._items = self._circuit = None

    @property
    def circuit(self) -> Optional[FlatCircuit]:
        if self._items is not None:
            root: list = []
            _splice(self._items, False, {}, root)
            size = self.register.size if self.register else 0
            self._circuit = FlatCircuit(size, FlatBlock(False, tuple(root)))
            self._items = None
        return self._circuit


def _contains_gate(stmt) -> bool:
    if isinstance(stmt, GateStatement):
        return True
    if isinstance(stmt, GateBlock):
        return any(_contains_gate(c) for c in stmt.statements)
    if isinstance(stmt, LoopStatement):
        return _contains_gate(stmt.body)
    return False


class _Analyzer:
    def __init__(self, program: Program, gates: dict):
        self.program = program
        self.gates = gates
        self.diags: list = []
        self.table = SymbolTable()
        # the macro being checked: its name, its param name -> inferred
        # kind (mutated), the deepest nesting in its body and its pairs
        self.current_macro = None
        self.params: dict = {}
        self.deepest, self.pairs = 0, {}
        self.tick = 0  # counts checks that deferred pairs: walk positions
        self.live = True  # False in a loop body that runs no times
        # every macro's name, for forward-reference messages
        self.macro_names = {stmt.name for stmt in program.body
                            if isinstance(stmt, MacroDef)}

    def diag(self, stmt, code, message):
        self.diags.append(error(stmt.line, stmt.column, code, message))

    def warn(self, stmt, code, message):
        self.diags.append(warning(stmt.line, stmt.column, code, message))

    # -- headers -------------------------------------------------------------

    def check_collision(self, stmt, name) -> bool:
        if name in self.table.names:
            self.diag(stmt, "duplicate-name",
                      f"the name {name!r} is already defined")
            return True
        return False

    def do_register(self, stmt: RegisterDecl):
        if self.table.register is not None:
            other = self.table.register.name
            self.diag(stmt, "duplicate-register",
                      f"a register {other!r} is already declared; programs "
                      "use a single register")
            return
        if self.check_collision(stmt, stmt.name):
            return
        size = self.resolve_int(stmt.size, stmt, "register size")
        if size is not None and size <= 0:
            self.diag(stmt, "bad-register-size",
                      f"register size must be positive, got {size}")
            size = None
        self.table.register = RegisterInfo(stmt.name, size)
        self.table.names[stmt.name] = self.table.register

    def do_map(self, stmt: MapAlias):
        if self.check_collision(stmt, stmt.name):
            return
        view = self.target_view(stmt)
        if view is None:
            return
        view = self.apply_selector(stmt, view)
        if view is None:
            return
        if isinstance(view, ArrayView) and view.length == 0:
            self.warn(stmt, "empty-alias",
                      f"alias {stmt.name!r} selects no qubits")
        self.table.names[stmt.name] = view

    def target_view(self, stmt: MapAlias):
        name = stmt.target
        entry = self.table.names.get(name)
        if isinstance(entry, RegisterInfo):
            return _register_view(entry)  # a bad size is reported already
        if isinstance(entry, (SingleView, ArrayView)):
            return entry
        if entry is None:
            self.diag(stmt, "undefined-name",
                      f"map target {name!r} is not declared")
        else:  # headers declare no macros, so this is a let constant
            self.diag(stmt, "type-mismatch",
                      f"map target {name!r} is a constant, not a register "
                      "or alias")
        return None

    def apply_selector(self, stmt: MapAlias, view):
        selector = stmt.selector
        if selector is None:
            return view
        if not isinstance(view, ArrayView):
            self.diag(stmt, "bad-index",
                      f"{stmt.target!r} is a single qubit and cannot be "
                      "indexed or sliced")
            return None
        if isinstance(selector, Slice):
            parts = []
            for component in (selector.start, selector.stop, selector.step):
                if component is None:
                    parts.append(None)
                    continue
                value = self.resolve_int(component, stmt, "slice component")
                if value is None:
                    return None
                parts.append(value)
            if parts[2] == 0:
                self.diag(stmt, "bad-slice", "slice step cannot be zero")
                return None
            start, stop, step = slice(*parts).indices(view.length)
            length = len(range(start, stop, step))
            return ArrayView(view.offset(start), view.step * step, length)
        index = self.resolve_int(selector, stmt, "map index")
        if index is None:
            return None
        if index < 0:
            index += view.length
        if not 0 <= index < view.length:
            self.diag(stmt, "index-out-of-bounds",
                      f"index {_arg(selector)} is out of range for "
                      f"{stmt.target!r} of length {view.length}")
            return None
        return SingleView(view.offset(index))

    def do_let(self, stmt: LetConstant):
        if self.check_collision(stmt, stmt.name):
            return
        self.table.names[stmt.name] = stmt.value

    # -- expressions ----------------------------------------------------------

    def report(self, stmt, resolver, *args):
        """Call ``resolver(*args)`` and return its value, or report its
        failure at ``stmt`` and return None.  A register without a valid
        size is reported at the register already."""
        try:
            return resolver(*args)
        except JaqalError as exc:
            if exc.code != "bad-register-size":
                self.diag(stmt, exc.code, str(exc))
            return None

    def resolve_int(self, expr, stmt, what: str) -> Optional[int]:
        return self.report(stmt, _number, expr, self.table, what, self.params)

    # -- body -----------------------------------------------------------------

    def run(self):
        for stmt in self.program.headers:
            if isinstance(stmt, RegisterDecl):
                self.do_register(stmt)
            elif isinstance(stmt, MapAlias):
                self.do_map(stmt)
            else:
                self.do_let(stmt)
        first_gate_stmt = None
        items: list = []
        total = 0  # primitive gates up to here
        for stmt in self.program.body:
            if isinstance(stmt, MacroDef):
                self.do_macro(stmt)
                continue
            if first_gate_stmt is None and _contains_gate(stmt):
                first_gate_stmt = stmt
            gates = self.check_statement(stmt, False, 0, items).gates
            total += gates
            if total > MAX_GATES >= total - gates:  # first passed here
                self.diag(stmt, "too-many-gates",
                          f"the program expands to more than {MAX_GATES} "
                          "primitive gates by the end of this statement")
        if first_gate_stmt is not None and self.table.register is None:
            self.diag(first_gate_stmt, "no-register",
                      "the program executes gates but declares no register")
        if not has_errors(self.diags):
            self.table._items = items
        return self.table, self.diags

    def do_macro(self, stmt: MacroDef):
        mark, self.deepest, self.pairs = len(self.diags), 0, {}
        collision = stmt.name in self.table.names or stmt.name in self.gates
        if collision:
            self.diag(stmt, "duplicate-name",
                      f"the name {stmt.name!r} is already defined")
        param_kinds: dict = {}
        for p in stmt.params:
            if p in param_kinds or p in self.table.names:
                self.diag(stmt, "duplicate-name",
                          f"macro parameter {p!r} collides with another name")
            param_kinds.setdefault(p, None)
        self.current_macro, self.params = stmt.name, param_kinds
        items: list = []
        usage = self.check_block(stmt.body, False, 0, items)
        self.current_macro, self.params = None, {}
        if not collision:
            self.table.names[stmt.name] = MacroInfo(
                stmt.name, stmt.params, param_kinds, stmt.body, usage,
                self.deepest, len(self.diags) == mark, items, self.pairs)

    def check_statement(self, stmt, in_parallel: bool, depth: int,
                        out: list) -> Usage:
        """Check one statement, append the items it builds to ``out`` and
        return its Usage.  ``in_parallel`` says whether a parallel block
        encloses it, ``depth`` how many blocks."""
        if isinstance(stmt, GateStatement):
            return self.check_gate(stmt, in_parallel, depth, out)
        if isinstance(stmt, GateBlock):
            items: list = []
            out.append(FlatBlock(stmt.parallel, items))
            return self.check_block(stmt, in_parallel, depth, items)
        if isinstance(stmt, LoopStatement):
            if in_parallel:
                self.diag(stmt, "loop-in-parallel",
                          "loop statements are not allowed inside parallel "
                          "blocks")
            count = self.resolve_int(stmt.count, stmt, "loop count")
            if count is not None and count < 0:
                self.diag(stmt, "bad-loop-count",
                          f"loop count must be non-negative, got {count}")
            if stmt.body.parallel:
                self.diag(stmt, "expected-block",
                          "a loop body must be a sequential block")
            live, self.live = self.live, self.live and (count or 0) > 0
            items = []
            out.append(FlatLoop(count, items))
            usage = self.check_block(stmt.body, in_parallel, depth, items)
            self.live = live
            # a count that did not resolve, or is negative, is reported; the
            # cap keeps nested huge counts from multiplying huge integers
            gates = min(usage.gates * max(count or 0, 0), MAX_GATES + 1)
            return usage._replace(gates=gates)
        if isinstance(stmt, MacroDef):
            self.diag(stmt, "macro-in-block",
                      "macro definitions are not allowed inside gate blocks")
            return _NO_USAGE
        raise JaqalError(f"unexpected statement {type(stmt).__name__}")

    def check_block(self, block: GateBlock, in_parallel: bool, depth: int,
                    out: list) -> Usage:
        """Check a block's statements, appending their items to ``out``."""
        in_parallel = in_parallel or block.parallel
        depth += 1
        self.deepest = max(self.deepest, depth)
        usages = []
        for child in block.statements:
            if isinstance(child, GateBlock) and child.parallel == block.parallel:
                kind = "parallel" if block.parallel else "sequential"
                self.diag(child, "same-kind-nesting",
                          f"a {kind} block cannot be nested directly inside "
                          f"another {kind} block")
            usages.append(self.check_statement(child, in_parallel, depth,
                                               out))
        usage = Usage.union(usages)
        if not block.parallel:
            return usage
        register = self.table.register
        n_qubits = register.size if register and register.size else 0
        for idx, code, message in parallel_conflicts(usages, n_qubits):
            self.diag(block.statements[idx], code, message)
        if usage.later and None not in usage.offsets:  # terms yet to bind
            seen: set = set()
            for child in usages:  # each sibling's pairs at its own position
                self.defer((("parallel-conflict", None, a, b), ())
                           for a in child.offsets | child.later for b in seen)
                seen |= child.offsets | child.later
        return usage

    def check_gate(self, stmt: GateStatement, in_parallel: bool, depth: int,
                   out: list) -> Usage:
        name = stmt.name
        definition = self.gates.get(name)
        if definition is not None:
            if definition.kind in (PREPARATION, MEASUREMENT) and in_parallel:
                self.diag(stmt, "global-gate-in-parallel",
                          f"{name} acts on every qubit and cannot appear "
                          "inside a parallel block")
            return self.check_native_args(stmt, definition, out)
        macro = self.table.names.get(name)
        if isinstance(macro, MacroInfo):
            if in_parallel and macro.usage.global_gate:
                self.diag(stmt, "global-gate-in-parallel",
                          f"macro {name!r} prepares or measures all qubits "
                          "and cannot appear inside a parallel block")
            qubits, binding = self.check_macro_args(stmt, macro)
            depth += macro.depth
            if depth > MAX_NESTING:
                self.diag(stmt, "nesting-too-deep",
                          f"macro {name!r} nests blocks {depth} deep here, "
                          f"more than {MAX_NESTING}")
            else:
                self.deepest = max(self.deepest, depth)
            if not (depth <= MAX_NESTING and macro.clean and qubits is not None
                    and self.live and macro.usage.gates):
                # too deep, a faulty definition or qubit, or no gate to run
                return macro.usage._replace(offsets=frozenset(),
                                            later=frozenset())
            out.append(_Call(macro.body.parallel, macro.items, binding))
            binding, usage = dict(binding), macro.usage
            bound = usage.offsets.union(map(binding.get, usage.later,
                                            usage.later))
            pairs = [((c, m, binding.get(a, a), binding.get(b, b)), at)
                     for (c, m, a, b), at in macro.pairs.items()]
            if str in map(type, qubits):  # passes a parameter on: wait
                self.defer(pairs)
                return usage._replace(offsets=frozenset(), later=bound)
            # each distinct error of the pairs that meet, in walk order
            met = sorted((position, a, code, message or _shared(a))
                         for (code, message, a, b), position in pairs
                         if a == b)
            for code, message in dict.fromkeys(m[2:] for m in met):
                self.diag(stmt, code, message)
            return usage._replace(offsets=bound, later=frozenset())
        if name == self.current_macro:
            self.diag(stmt, "recursive-macro",
                      f"macro {name!r} cannot invoke itself; a macro is "
                      "complete only at the end of its block")
        elif name in self.macro_names:
            self.diag(stmt, "forward-macro-reference",
                      f"macro {name!r} is defined later in the file; macros "
                      "may only reference macros defined earlier")
        else:
            self.diag(stmt, "unknown-gate",
                      f"{name!r} is not a known gate or macro")
        return _NO_USAGE

    def check_native_args(self, stmt, definition, out: list) -> Usage:
        """Check a native gate's arguments and append the gate they make, on
        the qubit arguments that resolved, to ``out``: an _Unbound one in a
        macro body.  Returns the gate's Usage."""
        kinds = definition.param_kinds
        if len(stmt.args) != len(kinds):
            self.diag(stmt, "arity-mismatch",
                      f"{definition.name} takes {len(kinds)} argument(s), "
                      f"got {len(stmt.args)}")
            kinds = ()  # and no argument is checked
        qubits, floats = [], []
        for arg, kind in zip(stmt.args, kinds):
            resolved = self.check_arg(stmt, arg, kind)
            if kind != QUBIT:
                floats.append(resolved)
            elif resolved is not None:
                qubits.append(resolved)
        twice, fixed = f"{definition.name} uses the same qubit twice", qubits
        if str in map(type, qubits):  # a parameter: pairs wait for binding
            fixed = [q for q in qubits if type(q) is int]
            self.defer((("duplicate-qubit", twice, a, b), ())
                       for j, b in enumerate(qubits) for a in qubits[:j])
        if len(set(fixed)) != len(fixed):
            self.diag(stmt, "duplicate-qubit", twice)
        out.append((_Unbound if self.current_macro else PrimitiveGate)(
            definition, tuple(qubits), tuple(floats)))
        usage = Usage.of_gate(definition, fixed)
        return usage if fixed is qubits else usage._replace(
            later=frozenset(qubits).difference(fixed))

    def check_macro_args(self, stmt, macro: MacroInfo):
        """Check an invocation's arguments; returns the terms bound to its
        qubit parameters, or None if one did not resolve, and ``(parameter,
        term or number)`` pairs binding the parameters its body uses."""
        if len(stmt.args) != len(macro.params):
            self.diag(stmt, "arity-mismatch",
                      f"macro {macro.name} takes {len(macro.params)} "
                      f"argument(s), got {len(stmt.args)}")
            return None, ()
        qubits, binding = [], []
        for arg, param in zip(stmt.args, macro.params):
            kind = macro.param_kinds.get(param)
            # a parameter the body never uses (kind None) takes any
            # argument that resolves cleanly
            if kind is not None or isinstance(arg, QubitRef):
                value = self.check_arg(stmt, arg, kind or QUBIT)
                if kind is not None:
                    binding.append((param, value))
                if kind == QUBIT:
                    qubits.append(value)
            elif (isinstance(arg, NameRef) and arg.name not in self.table.names
                  and arg.name not in self.params):
                self.diag(stmt, "undefined-name",
                          f"{arg.name!r} is not declared")
        return None if None in qubits else qubits, tuple(binding)

    def check_arg(self, stmt, arg, kind):
        """Validate an argument in a QUBIT or FLOAT slot; returns its
        register offset or number when statically resolvable, or None.
        Naming a parameter of the enclosing macro infers its kind and gives
        its name, bound when the circuit is spliced."""
        if isinstance(arg, NameRef) and arg.name in self.params:
            self.infer_param(stmt, arg.name, kind)
            return arg.name
        if kind == QUBIT:
            return self.report(stmt, resolve_qubit, arg, self.table,
                               self.params)
        return self.report(stmt, _number, arg, self.table)

    def defer(self, pairs):
        """Keep the pairs that may yet meet, at this check's walk position."""
        self.tick += 1
        for (code, message, a, b), position in pairs:
            if a == b or type(a) is str or type(b) is str:
                self.pairs.setdefault((code, message, a, b),
                                      (self.tick, position))

    def infer_param(self, stmt, name, kind):
        current = self.params.get(name)
        if current is None:
            self.params[name] = kind
        elif current != kind:
            role = "a qubit" if kind == QUBIT else "a number"
            self.diag(stmt, "type-mismatch",
                      f"macro parameter {name!r} is used both as {role} and "
                      "as something else")


def analyze(program: Program, gates: dict):
    """Validate a program against a gate set.

    Returns ``(SymbolTable, diagnostics)``; analysis is total and never
    raises on bad programs.  The symbol table is only meaningful when the
    diagnostics contain no errors.
    """
    return _Analyzer(program, gates).run()


def _register_view(register: RegisterInfo) -> Optional[ArrayView]:
    """The whole register as a view, or None if its size did not resolve."""
    if register.size is None:
        return None
    return ArrayView(0, 1, register.size)


def _fail(code: str, message: str):
    """Fail a resolution with the diagnostic analysis reports for it."""
    raise JaqalError(message, code=code)


def _number(expr, table: SymbolTable, what: Optional[str] = None,
            params=()):
    """The one number resolver.

    Resolves a numeric argument to its value, or raises JaqalError with the
    code and message of the diagnostic saying why it has none.  ``what``
    names an integer slot, which rejects float constants rather than
    truncating them; without it the slot is an angle, which takes either
    kind but only integers that convert to a finite float (float literals
    and constants are finite already: the lexer rejects the rest).
    ``params`` are the enclosing macro's parameter names, which no integer
    slot accepts.
    """
    if isinstance(expr, QubitRef):
        _fail("type-mismatch", f"expected a number, got qubit {_arg(expr)}")
    if isinstance(expr, (IntLiteral, FloatLiteral)):
        name, value = None, expr.value
    else:
        name = expr.name
        if name in params:
            _fail("type-mismatch",
                  f"macro parameter {name!r} cannot be used as {what}")
        value = table.names.get(name)
        if value is None:
            _fail("undefined-name", f"{name!r} is not declared")
        if not isinstance(value, (int, float)):
            _fail("type-mismatch", f"{name!r} is not a numeric constant")
    if what is not None:
        if isinstance(value, float):
            source = (f"{_arg(expr)} is a float literal" if name is None
                      else f"{name!r} is a float constant")
            _fail("type-mismatch", f"{what} requires an integer, but {source}")
        return value
    try:
        float(value)
    except OverflowError:
        source = "integer literal" if name is None else f"constant {name!r}"
        _fail("bad-number", f"{source} is too large for a float angle")
    return value


def resolve_qubit(ref, table: SymbolTable, params=()) -> int:
    """The one qubit-reference resolver.

    Resolves a qubit-slot argument, a QubitRef (indexed array access) or a
    NameRef naming a single-qubit alias, to its absolute register offset.
    Aliases of aliases resolve directly because every alias is stored as a
    view over the register.  Raises JaqalError, with the code analysis
    reports for the same argument, when the name is unknown, the index is
    missing/extra/out of range, or the name is not a qubit; a register
    whose size did not resolve raises ``bad-register-size``.  ``params``
    are the enclosing macro's parameter names, which take no index and
    cannot be one.
    """
    if isinstance(ref, (IntLiteral, FloatLiteral)):
        _fail("type-mismatch",
              f"expected a qubit, got the number {_arg(ref)}")
    if isinstance(ref, NameRef) or ref.index is None:
        name = ref.name if isinstance(ref, NameRef) else ref.base
        entry = table.names.get(name)
        if isinstance(entry, SingleView):
            return entry.offset
        if isinstance(entry, (ArrayView, RegisterInfo)):
            _fail("bad-index", f"{name!r} is an array and needs an index")
        if isinstance(entry, MacroInfo):
            _fail("type-mismatch", f"{name!r} is a macro, not a qubit")
        if entry is None:
            _fail("undefined-name", f"{name!r} is not declared")
        _fail("type-mismatch", f"{name!r} is a constant and cannot be "
              "a qubit argument")
    base = ref.base
    if base in params:
        _fail("bad-index", f"macro parameter {base!r} is a single qubit "
              "and takes no index")
    view = table.names.get(base)
    if isinstance(view, RegisterInfo):
        view = _register_view(view)
        if view is None:
            _fail("bad-register-size", f"register {base!r} has no valid size")
    if isinstance(view, SingleView):
        _fail("bad-index", f"{base!r} is a single qubit and takes no index")
    if view is None:
        _fail("undefined-name", f"{base!r} is not declared")
    if not isinstance(view, ArrayView):
        _fail("type-mismatch", f"{base!r} is not a qubit array")
    index = _number(ref.index, table, "qubit index", params)
    if not 0 <= index < view.length:
        _fail("index-out-of-bounds", f"index {index} is out of range for "
              f"{base!r} of length {view.length}")
    return view.offset(index)
