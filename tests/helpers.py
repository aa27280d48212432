"""Shared test utilities: phase alignment, dense-matrix references, the
lexer reference, the expansion reference, the flat-circuit exclusivity
reference, the timeline reference, the per-shot measurement reference, the
``expand`` and ``run -p`` text references and a text comparison that fails
fast."""

import math
import re

import numpy as np

from jaqalc.analyzer import (
    FlatBlock,
    FlatCircuit,
    FlatLoop,
    MacroInfo,
    PrimitiveGate,
    SymbolTable,
    Usage,
    _number,
    analyze,
    parallel_conflicts,
    resolve_qubit,
)
from jaqalc.ast import (
    IDENTIFIER,
    KEYWORDS,
    GateBlock,
    GateStatement,
    LoopStatement,
    MacroDef,
    NameRef,
    Program,
)
from jaqalc.diagnostics import error, has_errors
from jaqalc.errors import JaqalError
from jaqalc.expander import iter_gates
from jaqalc.gateset import FLOAT, IDLE, MEASUREMENT, PREPARATION, QUBIT
from jaqalc.parser import Token
from jaqalc.scheduler import IdleEntry, Timeline, TimelineEntry, dump_timeline
from jaqalc.simulator import (
    SplitMix64,
    _check_qubit_cap,
    _check_register,
    _Outcomes,
    _simulate,
    born_probabilities,
)


def align_phase(u, reference):
    """Multiply u by the unit phase that best matches it to reference,
    using the largest-magnitude entry of the reference as the anchor."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    phase = reference[idx] / u[idx]
    phase /= abs(phase)
    return u * phase


def max_phase_deviation(u, reference):
    return np.max(np.abs(align_phase(u, reference) - reference))


def embed_dense(unitary, qubits, n_qubits):
    """Full 2**n x 2**n matrix acting as ``unitary`` on the given qubits
    (qubits[0] is the most significant bit of the small matrix's index) and
    identity elsewhere.  Built index by index, independent of any axis
    shuffling the simulator does."""
    unitary = np.asarray(unitary, dtype=complex)
    k = len(qubits)
    dim = 2 ** n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n_qubits) if q not in qubits]
    for col in range(dim):
        small_col = 0
        for pos, q in enumerate(qubits):
            small_col |= ((col >> q) & 1) << (k - 1 - pos)
        for small_row in range(2 ** k):
            amp = unitary[small_row, small_col]
            if amp == 0:
                continue
            row = 0
            for pos, q in enumerate(qubits):
                row |= ((small_row >> (k - 1 - pos)) & 1) << q
            for q in rest:
                row |= ((col >> q) & 1) << q
            full[row, col] += amp
    return full


def random_state(rng, n_qubits):
    """A normalized random complex vector."""
    vec = rng.standard_normal(2 ** n_qubits) + 1j * rng.standard_normal(2 ** n_qubits)
    return vec / np.linalg.norm(vec)


def random_unitary(rng, dim):
    """Haar-ish random unitary from the QR decomposition of a Ginibre
    matrix."""
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_unitary_reference(state, unitary, qubits):
    """The simulator's kernel before it reused a scratch vector: two
    ``np.moveaxis`` calls around one ``np.matmul`` and a contiguous copy.
    ``simulator.apply_unitary`` must match it bit for bit."""
    qubits = tuple(qubits)
    k = len(qubits)
    unitary = np.asarray(unitary, dtype=complex)
    n = state.n_qubits
    if k == 0:
        return state
    # row-major reshape puts qubit q on axis n-1-q
    axes = [n - 1 - q for q in qubits]
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, axes, range(k))
    psi = unitary @ psi.reshape(2 ** k, -1)
    psi = np.moveaxis(psi.reshape((2,) * n), range(k), axes)
    state.amplitudes = np.ascontiguousarray(psi).reshape(-1)
    return state


def bitstring_of(index: int, n_qubits: int) -> str:
    """Little-endian rendering: character t is the state of qubit t.  The
    reference for ``simulator._bitstrings``."""
    return "".join("1" if index >> t & 1 else "0" for t in range(n_qubits))


def sample_full_vector(probs, u: float, n_qubits: int) -> str:
    """The simulator's sampler before it kept only nonzero outcomes: the
    first index whose running sum over the whole Born vector reaches
    ``u``, else the last nonzero index.  ``simulator._Outcomes.sample``
    must pick the same bitstring for every ``u`` in (0, 1]."""
    cumulative = np.cumsum(probs)
    nonzero = np.nonzero(probs)[0]
    last = int(nonzero[-1]) if len(nonzero) else 0
    index = int(np.searchsorted(cumulative, u, side="left"))
    if index >= len(cumulative):  # float sums can land a hair under 1.0
        index = last
    return bitstring_of(index, n_qubits)


def register_error_reference(circuit: FlatCircuit, gates: dict):
    """The destroyed-state message the simulator raised gate by gate, in
    execution order, before it checked the register ahead: any gate but
    ``prepare_all`` after ``measure_all`` without one between; else None.
    ``simulator._check_register`` must raise the same message."""
    destroyed = False
    for gate in iter_gates(circuit):
        kind = gates[gate.name].kind
        if destroyed and kind != PREPARATION:
            return (f"{gate.name} applied after measure_all destroyed the "
                    "register; prepare_all must intervene")
        destroyed = kind == MEASUREMENT
    return None


def measurements_reference(circuit: FlatCircuit, gates, quantize: bool):
    """The simulator's measurement walk before it yielded runs: the
    ``_Outcomes`` of each measure_all in execution order, gate by gate
    through ``iter_gates``; a segment equal to the one measured just
    before yields the very same table, and gates that no measurement
    follows are simulated too, so they raise the same errors."""
    n_qubits = circuit.n_qubits
    _check_qubit_cap(n_qubits)
    _check_register(circuit.root.items, gates)
    segment: list = []
    measured = table = None  # the last measured segment and its outcomes
    for gate in iter_gates(circuit):
        kind = gates[gate.name].kind
        if kind == PREPARATION:
            if segment:
                _simulate(n_qubits, segment, gates, quantize)
                segment = []
        elif kind == MEASUREMENT:
            segment = tuple(segment)
            if segment != measured:
                measured = table = None  # free the old table first
                table = _Outcomes(born_probabilities(
                    _simulate(n_qubits, segment, gates, quantize)), n_qubits)
                measured = segment
            yield table
            segment = []
        elif kind != IDLE:
            segment.append(gate)
    if segment:
        _simulate(n_qubits, segment, gates, quantize)


def run_reference(circuit: FlatCircuit, gates: dict, seed: int = 0,
                  quantize: bool = False) -> list:
    """``simulator.run`` as it sampled shot by shot: one
    ``SplitMix64.uniform`` and one ``_Outcomes.pick`` per measurement, in
    the order of ``measurements_reference``, and each name made anew."""
    rng = SplitMix64(seed)
    return [bitstring_of(int(table.pick(np.array([rng.uniform()]))[0]),
                         circuit.n_qubits)
            for table in measurements_reference(circuit, gates, quantize)]


def probability_text_reference(distributions) -> str:
    """``run -p``'s text as the command line built it before it streamed:
    one line per distribution, its pairs sorted by bitstring, each
    probability its ``repr``; an equal distribution reuses the line.
    ``simulator.probability_chunks`` must join to the same text."""
    lines = []
    previous = None
    for distribution in distributions:
        if distribution != previous:  # repeated shots share a line
            pairs = sorted(distribution.items())
            line = " ".join(f"{bits} {p!r}" for bits, p in pairs) + "\n"
            previous = distribution
        lines.append(line)
    return "".join(lines)


def assert_same_text(got: str, want: str, window: int = 40):
    """Assert two texts are equal.  On a difference, report both lengths
    and the first differing offset with a short window of each, at once:
    pytest's own diff of two megabyte strings runs for minutes."""
    if got == want:
        return
    at = 0
    while got[at:at + 4096] == want[at:at + 4096]:
        at += 4096
    while got[at:at + 1] == want[at:at + 1]:
        at += 1
    raise AssertionError(
        f"lengths {len(got)} and {len(want)}; first difference at offset "
        f"{at}: {got[at:at + window]!r} != {want[at:at + window]!r}")


def flat_text_reference(circuit: FlatCircuit) -> str:
    """``expand``'s text as ``expander.flat_chunks`` rendered it before it
    streamed blocks: one string per block, a loop's body text repeated
    ``count`` times.  ``flat_chunks`` must join to the same text."""
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


def unroll(circuit):
    """``circuit`` with every ``FlatLoop`` replaced by ``count`` copies of
    its items, spliced into the enclosing sequence: the flat IR as
    expansion built it before loops stayed nodes.  Copies share their gate
    and block objects, as the unrolled iterations did."""
    def spliced(items) -> list:
        out = []
        for item in items:
            if isinstance(item, FlatLoop):
                out.extend(spliced(item.items) * item.count)
            elif isinstance(item, FlatBlock):
                out.append(FlatBlock(item.parallel,
                                     tuple(spliced(item.items))))
            else:
                out.append(item)
        return out

    return FlatCircuit(circuit.n_qubits,
                       FlatBlock(False, tuple(spliced(circuit.root.items))))


def check_flat_conflicts(circuit):
    """Check the qubit-exclusivity rules on a flat circuit and raise
    JaqalError, with the diagnostic's code, at the first violation.

    The reference that analysis, which alone decides exclusivity, is
    compared against, and the check for hand-built circuits.  One
    post-order walk returns each node's Usage and first violation, so a
    loop body is checked once.  A parallel block's own violation comes
    before any inside it, as in execution order.
    """
    def walk(item) -> tuple:  # (Usage, JaqalError or None)
        if isinstance(item, PrimitiveGate):
            error = None
            if len(set(item.qubits)) != len(item.qubits):
                error = JaqalError(f"{item.name} uses the same qubit twice",
                                   code="duplicate-qubit")
            return Usage.of_gate(item.definition, item.qubits), error
        children = [walk(child) for child in item.items]
        usages = [usage for usage, _ in children]
        own = None
        if item.parallel and any(usage.global_gate for usage in usages):
            own = JaqalError("an all-qubit preparation or measurement "
                             "cannot appear inside a parallel block",
                             code="global-gate-in-parallel")
        elif item.parallel:
            own = next((JaqalError(message, code=code) for _, code, message
                        in parallel_conflicts(usages, circuit.n_qubits)), None)
        return Usage.union(usages), own or next(
            (error for _, error in children if error), None)

    violation = walk(circuit.root)[1]
    if violation is not None:
        raise violation


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


def expand_reference(program: Program, gates: dict,
                     symbols: SymbolTable = None) -> FlatCircuit:
    """Lower an analyzed program to a FlatCircuit by walking its syntax
    tree again: expansion as it was before analysis built the circuit, and
    the reference ``expand`` is compared against.  It needs no clean
    analysis: given a symbol table, it expands what the table resolves, so
    a test can compare a rejected program's expansion with its verdict.
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


# The timeline reference: ``place_reference`` makes a TimelineEntry per
# gate run and pads every parallel block from them, and
# ``scheduler.dump_timeline`` sorts one keyed row per entry.  The
# scheduler's streamed rows are compared against them.

def gate_qubits(gate: PrimitiveGate, n_qubits: int) -> set:
    """Offsets a primitive occupies; all-qubit operations cover everything."""
    if gate.definition.kind in (PREPARATION, MEASUREMENT):
        return set(range(n_qubits))
    return set(gate.qubits)


def _coverage(intervals, lo: float, hi: float):
    """Gaps of [lo, hi) not covered by the given (start, end) intervals.
    Overlapping intervals, possible only in a circuit that breaks the
    scheduler's precondition, merge, so such a circuit still lays out."""
    gaps = []
    cursor = lo
    for start, end in sorted(intervals):
        if start > cursor:
            gaps.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def place_reference(circuit: FlatCircuit, gates, entries, idles) -> float:
    """Lay out the circuit from time 0 and return its end.  Each gate run
    appends a ``TimelineEntry`` to ``entries`` and each padding gap an
    ``IdleEntry`` to ``idles``, unless the lists are None; no end time
    depends on what is appended."""

    def place(item, t0: float) -> float:
        if isinstance(item, PrimitiveGate):
            duration = gates[item.definition.name].duration
            if entries is not None:
                entries.append(TimelineEntry(item, t0, duration))
            return t0 + duration
        if item.parallel:
            return place_parallel(item, t0)
        t = t0
        for _ in range(item.count):
            for child in item.items:
                t = place(child, t)
        return t

    def place_parallel(block: FlatBlock, t0: float) -> float:
        marks = None if entries is None else (len(entries), len(idles))
        end = t0
        for child in block.items:
            end = max(end, place(child, t0))
        if marks is None:
            return end
        # pad every participating qubit out to the block end
        occupancy: dict = {}
        for entry in entries[marks[0]:]:
            for q in gate_qubits(entry.gate, circuit.n_qubits):
                occupancy.setdefault(q, []).append((entry.start, entry.end))
        for idle in idles[marks[1]:]:
            occupancy.setdefault(idle.qubit, []).append((idle.start, idle.end))
        for qubit in sorted(occupancy):
            for gap_start, gap_end in _coverage(occupancy[qubit], t0, end):
                idles.append(IdleEntry(qubit, gap_start, gap_end))
        return end

    return place(circuit.root, 0.0)


def schedule_reference(circuit: FlatCircuit, gates: dict) -> Timeline:
    """The timeline as one recursive walk made it, a ``TimelineEntry`` per
    gate run, before the scheduler built each node's step once and
    streamed rows: the reference ``scheduler.schedule`` is compared
    against."""
    entries: list = []
    idles: list = []
    total = place_reference(circuit, gates, entries, idles)
    return Timeline(entries, idles, total)


def schedule_text_reference(circuit: FlatCircuit, gates: dict) -> str:
    """What ``jaqalc schedule`` wrote before it streamed: the reference
    dump of the reference timeline, then the ``total`` line."""
    timeline = schedule_reference(circuit, gates)
    total = f"total {timeline.total_duration:g}\n"
    return dump_timeline(timeline) + total


# Letters and digits are the ASCII ranges written here, never \d or \w,
# which admit Unicode.
_TOKEN_REFERENCE = re.compile(r"""
    (?P<space>[ \t]+)
  | (?P<newline>\r?\n)
  | (?P<line_comment>//[^\n]*)
  | (?P<block_comment>/\*.*?\*/)
  | (?P<open_comment>/\*.*)
  | (?P<usepulses>from[ \t]+[^\s;/|{}<>]+[ \t]+usepulses\b[^\r\n;/|{}<>]*)
  | (?P<ident>""" + IDENTIFIER + r""")
  | (?=[-.0-9])(?P<number>-?(?P<literal>(?:[0-9]+\.?[0-9]*|\.[0-9]+)
        (?:[eE][+-]?[0-9]+)?)?[A-Za-z0-9_.]*)  # "0q" is one bad token
  | (?P<punct>[{}<>\[\]:;|])
  | (?P<other>.)
""", re.VERBOSE | re.DOTALL)

_STRAY_REFERENCE = {"\r": "stray carriage return",
                    "/": "'/' is only valid inside comments"}


def lex_reference(source: str):
    """Tokenize source text into ``(tokens, diagnostics)``: the lexer
    before each match took the spaces and tabs before its token, one match
    per run of spaces as well as per token, each literal converted by
    ``_number_reference``, and a ``from ... usepulses ...`` statement read
    as one KEYWORD ``from``.  ``parser.lex`` must give the same tokens
    (kind, value and its type, line, column) and diagnostics for every
    input.

    Whitespace and comments disappear; line breaks outside ``/* */``
    comments survive as NEWLINE tokens because they terminate statements.
    """
    tokens: list = []
    diags: list = []
    line, line_start = 1, 0
    for match in _TOKEN_REFERENCE.finditer(source):
        kind, text = match.lastgroup, match.group()
        column = match.start() - line_start + 1
        if kind == "ident":
            tokens.append(Token("KEYWORD" if text in KEYWORDS else "IDENT",
                                text, line, column))
        elif kind == "punct":
            tokens.append(Token(text, text, line, column))
        elif kind == "newline":
            tokens.append(Token("NEWLINE", None, line, column))
        elif kind == "number":
            token = _number_reference(text,
                                      match.end("literal") == match.end())
            if isinstance(token, str):
                diags.append(error(line, column, "bad-number", token))
            else:
                tokens.append(Token(*token, line, column))
        elif kind == "line_comment" and match.end() == len(source):
            # the comment ran to end of input, which ends the line
            tokens.append(Token("NEWLINE", None, line, column + len(text)))
        elif kind == "open_comment":
            diags.append(error(line, column, "unterminated-comment",
                               "block comment is never closed"))
        elif kind == "other":
            message = _STRAY_REFERENCE.get(text,
                                           f"illegal character {text!r}")
            diags.append(error(line, column, "illegal-character", message))
        elif kind == "usepulses":  # one statement, the header KEYWORD
            if text.split() != ["from", "qscout.v1.std", "usepulses", "*"]:
                diags.append(error(line, column, "unknown-gate-set",
                                   "the only gate set is the built-in one, "
                                   "'from qscout.v1.std usepulses *'"))
            tokens.append(Token("KEYWORD", "from", line, column))
        if "\n" in text:
            line += text.count("\n")
            line_start = match.start() + text.rindex("\n") + 1
    return tokens, diags


def _number_reference(text: str, well_formed: bool):
    """A numeric literal's ``(kind, value)``, or why it is a bad number.

    The reasons give the literal's length, not the literal, which can be
    thousands of characters long.
    """
    if not well_formed:
        return f"malformed numeric literal of length {len(text)}"
    if any(c in text for c in ".eE"):
        value = float(text)
        if math.isfinite(value):
            return "FLOAT", value
        return (f"numeric literal of length {len(text)} is too large for a "
                "finite number")
    try:
        return "INT", int(text)
    except ValueError:  # more digits than int() converts
        digits = len(text.lstrip("-"))
        return f"a {digits}-digit integer literal is too long to read"
