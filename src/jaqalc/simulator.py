"""Noiseless state-vector execution of flat circuits.

Basis-state indices are little-endian: bit b of an amplitude index is the
state of qubit b, and measurement bitstrings put qubit 0 in the first
character.  The k-th ``measure_all`` draws exactly the k-th number of a
SplitMix64 stream seeded by the caller, so measurement records are
bit-reproducible across platforms for a given (circuit, seed) pair.

Measurement physically destroys the register: after ``measure_all`` every
operation except ``prepare_all`` raises, as a check finds before anything
runs.  So a measurement's distribution depends only on its segment, the
gates since the last ``prepare_all`` (or the start), simulated from the
all-zeros state unless it equals the segment measured just before; gates
that no measurement follows are checked, never simulated.  With no
classical feedback, a loop iteration measures what the one before did
once both start alike, so measurements come as runs of outcome tables
repeated many times in a row, and SplitMix64, being counter-based, draws a
run's numbers in one numpy pass.

A state holds one 2**n complex vector in basis order (256 MiB at the
24-qubit cap) and, from its first gate, two buffers of up to BLOCK
amplitudes.  A gate updates the vector in place a block at a time: each
block is gathered into one buffer with the gate's axes first, multiplied
into the other and written back where it was read, so no gate allocates a
vector.  A segment builds each gate object's unitary once.  The Born
probabilities are written over the vector, which is then cut to their
bytes; a table of every outcome keeps them as they are and any other
copies its nonzero ones, so ``run`` peaks near one vector (plus that copy
when more than half but not all outcomes are possible), 45 MiB for a
dense 20-qubit register.  ``run -p`` streams each line in chunks of
``CHUNK`` outcomes.

This is the only module that builds unitaries, and the only one that
imports numpy.  Unitaries follow the half-angle convention: a rotation by
theta about axis A is exp(-i*theta/2 * A), and the general Molmer-Sorensen
gate is

    MS(phi, theta) = exp(-i*(theta/2) * (cos(phi) X + sin(phi) Y)^{tensor 2})

with Sxx = MS(0, pi/2).
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .analyzer import FlatCircuit, PrimitiveGate
from .errors import SimulationError
from .gateset import (
    IDLE,
    MEASUREMENT,
    PREPARATION,
    ROTATION,
    GateDefinition,
    quantize_angle,
)

_PAULI = {
    "x": np.array([[0, 1], [1, 0]], dtype=complex),
    "y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def unitary_of(definition: GateDefinition, float_args=()) -> np.ndarray:
    """Build the unitary matrix of a rotation or idle gate.

    ``float_args`` supplies the gate's float arguments; fixed-angle gates
    take none.  Preparation and measurement are not unitary operations and
    are rejected.
    """
    float_args = [float(a) for a in float_args]
    if len(float_args) != definition.float_arity:
        raise ValueError(
            f"{definition.name} takes {definition.float_arity} float "
            f"argument(s), got {len(float_args)}")
    if any(not math.isfinite(a) for a in float_args):
        raise ValueError(f"{definition.name}: angle must be finite")
    if definition.kind == IDLE:
        return np.eye(2 ** definition.qubit_arity, dtype=complex)
    if definition.kind != ROTATION:
        raise ValueError(f"{definition.name} has no unitary")
    spec = definition.rotation
    args = list(float_args)
    if spec.family == "axis":
        theta = spec.theta if spec.theta is not None else args.pop(0)
        axis = _PAULI[spec.axis]
        return (math.cos(theta / 2) * np.eye(2, dtype=complex)
                - 1j * math.sin(theta / 2) * axis)
    phi = spec.phi if spec.phi is not None else args.pop(0)
    theta = spec.theta if spec.theta is not None else args.pop(0)
    axis = math.cos(phi) * _PAULI["x"] + math.sin(phi) * _PAULI["y"]
    pair = np.kron(axis, axis)
    # (A tensor A) squares to the identity, so the exponential closes
    return (math.cos(theta / 2) * np.eye(4, dtype=complex)
            - 1j * math.sin(theta / 2) * pair)


MAX_QUBITS = 24  # 2**24 complex amplitudes is the practical cap
BLOCK = 1 << 14  # amplitudes per block of a gate or of the probabilities
CHUNK = 1 << 12  # outcomes per chunk of a ``run -p`` line
DRAWS = 1 << 12  # measurements per batch of draws; bytes per block of text
PATTERN_BYTES = 1 << 22  # table bytes a repeated loop iteration may name

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15  # the state's increment per draw


class SplitMix64:
    """Counter-based 64-bit generator (Steele, Lea, Flood 2014 mixing
    constants): the k-th output mixes the seed plus k increments, so
    ``uniforms`` computes many at once; portable, being integer math."""

    def __init__(self, seed: int):
        if not 0 <= seed <= _MASK64:  # masking would alias distinct seeds
            raise ValueError("seed must be in [0, 2**64)")
        self._state = seed

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK64
        return _mix(self._state)

    def uniform(self) -> float:
        """One double in (0, 1] using the top 53 bits.

        Excluding zero makes inverse-CDF sampling immune to probability
        entries below 2**-53, which is where pure float noise lives.
        """
        return ((self.next_u64() >> 11) + 1) * 2.0 ** -53

    def uniforms(self, count: int) -> np.ndarray:
        """The next ``count`` draws of ``uniform`` in one numpy uint64
        pass: the k-th state is the seed plus k increments, mod 2**64."""
        z = np.arange(1, count + 1, dtype=np.uint64) * _GAMMA + self._state
        self._state = (self._state + count * _GAMMA) & _MASK64
        return ((_mix(z) >> 11) + 1) * 2.0 ** -53


def _mix(z):  # SplitMix64's output of a state: an int or a uint64 array
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _check_qubit_cap(n_qubits: int):
    if n_qubits > MAX_QUBITS:
        size = str(n_qubits)
        if len(size) > 10:  # keep the diagnostic on one readable line
            size = f"a {len(size)}-digit number of"
        raise SimulationError(
            f"{size} qubits exceeds the {MAX_QUBITS}-qubit "
            "simulation cap", code="too-many-qubits")


class QuantumState:
    """A normalized complex amplitude vector over 2**n_qubits basis states,
    in basis order, starting in the all-zeros state.  Assigning
    ``amplitudes`` copies the values, because ``apply_unitary`` writes into
    the state's own vector; ``born_probabilities`` takes the vector away.
    """

    def __init__(self, n_qubits: int):
        _check_qubit_cap(n_qubits)
        self.n_qubits = n_qubits
        self._amplitudes = np.zeros(2 ** n_qubits, dtype=complex)
        self._amplitudes[0] = 1.0
        self._buffers = None  # the two block buffers, made at the first gate
        self._shaped: dict = {}  # a block's (rows, columns) -> buffer views
        self._walks: dict = {}  # qubits -> ``_walk`` over this vector

    @property
    def amplitudes(self) -> np.ndarray:
        return self._amplitudes

    @amplitudes.setter
    def amplitudes(self, values):
        self._amplitudes = np.array(values, dtype=complex)
        self._walks = {}


def _checked_args(unitary, qubits, n: int) -> tuple:
    """``apply_unitary``'s tests of its arguments, which read no state."""
    qubits = tuple(qubits)
    k = len(qubits)
    unitary = np.asarray(unitary, dtype=complex)
    if unitary.shape != (2 ** k, 2 ** k):
        raise SimulationError(
            f"unitary shape {unitary.shape} does not act on {k} qubit(s)")
    if len(set(qubits)) != k:
        raise SimulationError("duplicate qubit in unitary application",
                              code="duplicate-qubit")
    for q in qubits:
        if not 0 <= q < n:
            raise SimulationError(f"qubit {q} out of range for {n}-qubit "
                                  "state")
    return unitary, qubits


def apply_unitary(state: QuantumState, unitary, qubits) -> QuantumState:
    """Apply a unitary to the given qubits, identity on the rest.

    The matrix is indexed with ``qubits[0]`` as the most significant bit of
    its row/column index.  Works in place and returns the state.
    """
    unitary, qubits = _checked_args(unitary, qubits, state.n_qubits)
    if qubits:
        _apply(state, unitary, qubits)
    return state


def _apply(state: QuantumState, unitary: np.ndarray, qubits: tuple):
    """``apply_unitary`` on checked arguments, in place, a block at a time.

    The ``np.moveaxis`` formulation kept in tests/helpers.py multiplies
    the unitary by the amplitudes arranged as a (2**k, 2**(n-k)) matrix:
    the gate's axes first, the others ascending.  Here that matrix is
    walked in blocks of whole columns that fix its leading non-gate axes:
    each block is gathered into one buffer, multiplied into the other by
    the same ``np.matmul`` and written back where it was read.  This rests
    on one property of ``np.matmul``, pinned by tests: a block of at least
    4 columns comes out with the same bits as those columns of the whole
    product (blocks of 1 or 2 columns do not).  A state of at most BLOCK
    amplitudes is one block, with operands identical to the formulation's
    by construction.
    """
    walk = state._walks.get(qubits)
    if walk is None:
        walk = state._walks[qubits] = _walk(state, qubits)
    tensor, fixed, (source, matrix, out, result) = walk
    for index in itertools.product((0, 1), repeat=fixed):
        view = tensor[index]
        source[...] = view
        np.matmul(unitary, matrix, out=out)
        view[...] = result


def _walk(state: QuantumState, qubits: tuple) -> tuple:
    """What ``_apply`` reuses for every gate on ``qubits`` of this vector:
    the vector as a tensor in ``_plan``'s axis order, how many axes a block
    fixes, and the two block buffers, each shaped as one of that tensor's
    blocks and as a (2**k, columns) matrix."""
    n = state.n_qubits
    order, fixed, matrix = _plan(n, qubits, BLOCK)
    tensor = state._amplitudes.reshape((2,) * n).transpose(order)
    shaped = state._shaped.get(matrix)
    if shaped is None:
        size = matrix[0] * matrix[1]
        if state._buffers is None or len(state._buffers[0]) < size:
            state._buffers = np.empty(size, complex), np.empty(size, complex)
        gathered, product = (buffer[:size] for buffer in state._buffers)
        block = tensor.shape[fixed:]
        shaped = state._shaped[matrix] = (
            gathered.reshape(block), gathered.reshape(matrix),
            product.reshape(matrix), product.reshape(block))
    return tensor, fixed, shaped


@functools.lru_cache(maxsize=4096)
def _plan(n: int, qubits: tuple, block: int) -> tuple:
    """The walk of a gate on ``qubits`` of n: the tensor axes in walk order
    (the non-gate axes that each block fixes, the gate's axes, then the
    other non-gate axes, both ascending), how many are fixed, and a block's
    (2**k, columns) shape.  A block holds ``block`` amplitudes, or 4 columns
    if more (for a gate on over 12 qubits), or the whole vector if fewer."""
    k = len(qubits)
    axes = [n - 1 - q for q in qubits]  # row-major: qubit q on axis n-1-q
    rest = [a for a in range(n) if a not in axes]
    columns = min(2 ** (n - k), max(block >> k, 4))
    fixed = n - k - (columns.bit_length() - 1)
    return tuple(rest[:fixed] + axes + rest[fixed:]), fixed, (2 ** k, columns)


def _bitstrings(indices: np.ndarray, n_qubits: int) -> list:
    """The little-endian name of every index, in one numpy step:
    character t is the state of qubit t."""
    if n_qubits == 0:  # a zero-width string dtype does not exist
        return [""] * len(indices)
    digits = indices[:, None] >> np.arange(n_qubits)
    digits &= 1  # in place: one int64 digit array at a time
    digits += ord("0")
    digits = digits.astype(np.uint8)
    return digits.view(f"S{n_qubits}").ravel().astype(str).tolist()


def born_probabilities(state: QuantumState) -> np.ndarray:
    """|amplitude|**2 in basis order, written over the first half of the
    bytes of the state's vector, which the state gives up; the vector is
    then cut to those bytes, unless something else still refers to it.
    Each block of BLOCK entries goes through a separate buffer, because
    ``np.abs`` into an output that overlaps its input can change the last
    bit; entry i then overwrites amplitude i // 2, already read."""
    amplitudes, state._amplitudes, state._walks = state._amplitudes, None, {}
    size = len(amplitudes)
    probs, buffer = amplitudes.view(float)[:size], np.empty(min(size, BLOCK))
    for start in range(0, size, BLOCK):
        part = buffer[:min(BLOCK, size - start)]
        np.square(np.abs(amplitudes[start:start + BLOCK], out=part), out=part)
        probs[start:start + len(part)] = part
    del probs  # a view would keep the vector from being cut
    try:  # a realloc: the second half's pages go back to the system
        amplitudes.resize((size + 1) // 2)
    except ValueError:  # a view or another name holds the vector
        pass
    return amplitudes.view(float)[:size]


def _unitary(gate: PrimitiveGate, gates, quantize: bool) -> np.ndarray:
    floats = gate.float_args
    if quantize:
        floats = tuple(quantize_angle(f) for f in floats)
    return unitary_of(gates[gate.name], floats)


def _simulate(n_qubits: int, segment, gates, quantize: bool):
    """The state that ``segment``'s gates make from the all-zeros state."""
    state = QuantumState(n_qubits)
    checked = _check_segment(n_qubits, segment, gates, quantize)
    for gate in segment:
        _apply(state, *checked[id(gate)])
    return state


def _check_segment(n_qubits: int, segment, gates, quantize: bool) -> dict:
    """Raise what simulating ``segment`` would, simulating nothing: each
    distinct gate's ``unitary_of`` and ``apply_unitary``'s tests.  Return
    the checked ``(unitary, qubits)`` of each gate object, by ``id``."""
    return {id(gate): _checked_args(_unitary(gate, gates, quantize),
                                    gate.qubits, n_qubits)
            for gate in {id(gate): gate for gate in segment}.values()}


class _Outcomes:
    """One measured segment's nonzero outcomes, in basis-index order.  A
    table of every outcome keeps ``probs`` itself and no index array, since
    each outcome's index is its position (``_indices`` is None)."""

    def __init__(self, probs: np.ndarray, n_qubits: int):
        self._n_qubits = n_qubits
        if np.count_nonzero(probs) == len(probs):
            self._indices, self._probs = None, probs
        else:
            self._indices = np.flatnonzero(probs)
            self._probs = probs[self._indices]

    @functools.cached_property
    def _cumulative(self) -> np.ndarray:
        # summed once the caller has freed ``probs``; zero entries would
        # not change a running sum or win a draw u > 0
        return np.cumsum(self._probs)

    @functools.cached_property
    def mapping(self) -> dict:
        """Bitstring to probability."""
        indices = (np.arange(len(self._probs)) if self._indices is None
                   else self._indices)
        names = _bitstrings(indices, self._n_qubits)
        return dict(zip(names, self._probs.tolist()))

    def pick(self, draws: np.ndarray) -> np.ndarray:
        """The basis index of the first outcome whose running sum reaches
        each draw u in (0, 1]; float sums can land a hair under 1.0, so a
        u past them takes the last, as a search without the last sum
        finds."""
        at = np.searchsorted(self._cumulative[:-1], draws, side="left")
        return at if self._indices is None else self._indices.take(at)

    def line_chunks(self):
        """The ``run -p`` line: ``bits p`` pairs sorted by bitstring, which
        sorts as the bit-reversed index, each p its ``repr``.  Every
        outcome's table sorts as the bit reversal of the positions, so it
        is reversed a chunk at a time and nothing is sorted."""
        indices, n = self._indices, self._n_qubits
        if indices is not None:
            # stable: the default SIMD sort faults in 0.3 MiB more code
            order = np.argsort(_bit_reversed(indices, n), kind="stable")
        for start in range(0, len(self._probs), CHUNK):
            if indices is None:
                at = named = _bit_reversed(np.arange(
                    start, min(start + CHUNK, len(self._probs))), n)
            else:
                at = order[start:start + CHUNK]
                named = indices[at]
            values = repr(self._probs[at].tolist())[1:-1].split(", ")
            yield " " * (start > 0) + " ".join(
                map(" ".join, zip(_bitstrings(named, n), values)))
        yield "\n"


def _bit_reversed(values: np.ndarray, n: int) -> np.ndarray:
    """Each value's lowest n bits in reverse order."""
    out = np.zeros_like(values)
    for t in range(n):
        out |= (values >> t & 1) << (n - 1 - t)
    return out


def _first(item):  # the first gate a node runs; no node is empty
    return item if isinstance(item, PrimitiveGate) else _first(item.items[0])


def _check_register(items, gates, destroyed=False) -> bool:
    """Raise destroyed-state where running would, before it runs; return
    whether the register ends measured.  A loop iteration started so runs
    as the first did once its first gate prepares, and raises otherwise."""
    for item in items:
        if isinstance(item, PrimitiveGate):
            definition = gates[item.name]
            if destroyed and definition.kind != PREPARATION:
                raise SimulationError(
                    f"{item.name} applied after measure_all destroyed the "
                    "register; prepare_all must intervene",
                    code="destroyed-state")
            destroyed = definition.kind == MEASUREMENT
        else:
            destroyed = _check_register(item.items, gates, destroyed)
            if destroyed and item.count > 1:  # the next iteration starts so
                _check_register([_first(item)], gates, True)
    return destroyed


def _measurements(circuit: FlatCircuit, gates, quantize: bool):
    """Yield the measurements as runs ``(tables, repeats)``: the
    ``_Outcomes`` in ``tables`` measured in turn, ``repeats`` times over;
    a segment equal to the one measured just before yields the same table.

    A loop is walked an iteration at a time until two in a row start
    alike, with equal open and last measured segments.  Each iteration
    left then yields what the last did, so its tables are yielded once if
    they name at most PATTERN_BYTES of outcomes."""
    n_qubits = circuit.n_qubits
    _check_qubit_cap(n_qubits)
    _check_register(circuit.root.items, gates)
    segment: list = []  # the open segment: appended to, then replaced
    measured = table = None  # the last measured segment and its outcomes

    def walk(items):
        nonlocal segment, measured, table
        for item in items:
            if isinstance(item, PrimitiveGate):
                kind = gates[item.name].kind
                if kind == PREPARATION and segment:
                    _check_segment(n_qubits, segment, gates, quantize)
                    segment = []
                elif kind == MEASUREMENT:
                    segment = tuple(segment)
                    if segment != measured:
                        measured = table = None  # free the old table first
                        table = _Outcomes(born_probabilities(_simulate(
                            n_qubits, segment, gates, quantize)), n_qubits)
                        measured = segment
                    yield (table,), 1
                    segment = []
                elif kind not in (IDLE, PREPARATION):
                    segment.append(item)
                continue
            last = pattern = None  # a block is a loop of one iteration
            for done in range(item.count):
                # by length first, then mostly by identity: iterations
                # reuse gate objects, and a list is only appended to
                start = len(segment), segment, measured
                if pattern is not None and start[0] == last[0] and (
                        measured is last[2] or measured == last[2]) and (
                        segment is last[1] or segment == last[1][:last[0]]):
                    if pattern:
                        yield tuple(pattern), item.count - done
                    break
                last, pattern, size = start, [], 0
                for tables, repeats in walk(item.items):
                    yield tables, repeats
                    # an index, a probability and a running sum each
                    size += 24 * repeats * sum(len(t._probs)
                                               for t in tables)
                    if pattern is not None and size <= PATTERN_BYTES:
                        pattern += tables * repeats
                    else:
                        pattern = None
            pattern = tables = None  # hold no table past the loop

    yield from walk(circuit.root.items)
    if segment:
        _check_segment(n_qubits, segment, gates, quantize)


def samples(circuit: FlatCircuit, gates: dict, seed: int = 0,
            quantize: bool = False):
    """The measurement record in batches ``(names, codes)`` of about DRAWS
    measurements: measurement i of a batch reads ``names[codes[i]]``, and
    ``names`` maps each distinct basis index drawn to its bitstring.  The
    numbers are drawn DRAWS at a time, ahead of the runs that take them."""
    rng, ahead, drawn, size = SplitMix64(seed), np.empty(0), [], 0
    for tables, repeats in _measurements(circuit, gates, quantize):
        columns: dict = {}
        for column, table in enumerate(tables):
            columns.setdefault(table, []).append(column)
        step = max(1, DRAWS // len(tables))
        for done in range(0, repeats, step):
            count = min(step, repeats - done) * len(tables)
            if len(ahead) < count:
                ahead = np.concatenate([ahead, rng.uniforms(max(count,
                                                                DRAWS))])
            draws = ahead[:count].reshape(-1, len(tables))
            ahead = ahead[count:]
            picked = np.empty(draws.shape, dtype=np.int64)
            for table, at in columns.items():
                picked[:, at] = table.pick(draws[:, at])
            drawn.append(picked.ravel())
            size += count
            if size >= DRAWS:
                yield _named(drawn, circuit.n_qubits)
                drawn, size = [], 0
        del tables, columns, table  # free them before the next is built
    if drawn:
        yield _named(drawn, circuit.n_qubits)


def _named(drawn: list, n_qubits: int) -> tuple:
    codes = np.concatenate(drawn).tolist()  # no sort: its code costs memory
    distinct = list(dict.fromkeys(codes))
    names = _bitstrings(np.array(distinct), n_qubits)
    return dict(zip(distinct, names)), codes


def run(circuit: FlatCircuit, gates: dict, seed: int = 0,
        quantize: bool = False) -> list:
    """Execute a circuit, returning one little-endian bitstring per
    measure_all in execution order.

    The k-th measurement samples the k-th SplitMix64 uniform, so identical
    (circuit, seed) pairs reproduce identical records anywhere.  With
    ``quantize`` every angle is first snapped to the hardware grid.
    """
    return [names[code] for names, codes in
            samples(circuit, gates, seed, quantize) for code in codes]


def probabilities(circuit: FlatCircuit, gates: dict,
                  quantize: bool = False) -> list:
    """Exact Born distributions instead of samples: one mapping of
    bitstring to probability (nonzero outcomes only, in basis-index order)
    per measure_all."""
    return [dict(table.mapping)
            for tables, repeats in _measurements(circuit, gates, quantize)
            for _ in range(repeats) for table in tables]


def probability_chunks(circuit: FlatCircuit, gates: dict,
                       quantize: bool = False):
    """The ``run -p`` text in chunks, one line per measure_all.  A run's
    lines of at most CHUNK outcomes each are formatted once, kept while
    the same tables repeat, and written in blocks of about DRAWS bytes; a
    longer line is formatted again at each measurement, so no step holds
    more than a run's tables and a chunk."""
    kept = text = None
    for tables, repeats in _measurements(circuit, gates, quantize):
        if tables != kept and all(len(t._probs) <= CHUNK for t in tables):
            kept, text = tables, "".join(map({t: "".join(t.line_chunks())
                                              for t in set(tables)}.get,
                                             tables))
        if tables == kept:
            block = max(1, DRAWS // len(text))
            for done in range(0, repeats, block):
                yield text * min(block, repeats - done)
        else:
            yield from (chunk for _ in range(repeats) for table in tables
                        for chunk in table.line_chunks())
        del tables  # free them before the next run is built
