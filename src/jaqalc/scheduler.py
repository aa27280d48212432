"""Start-time assignment for flat circuits.

In a sequential block each child starts when the previous one ends; in a
parallel block every child starts at the block's start and the block lasts
as long as its longest child.  Each qubit that participates in a parallel
block is padded with synthetic idle entries (one ``I_pad`` per gap, sized
exactly) so that its busy time plus inserted idle time equals the block
duration.  Qubits the block never mentions receive no padding.  One walk,
``_layout``, serves ``schedule``, ``total_duration`` and the streamed dump,
``timeline_chunks``, building each IR node's step once for all loop
iterations.  At each step of the root's sequential chain the dump writes
the rows that start before it and holds the rest, so memory is bounded by
a loop body, a top-level parallel block, or a run of rows that all start
at one time (a long loop of zero-duration gates is held whole).

Precondition: the circuit is the expansion of a program that analysis
accepted, or a hand-built circuit that keeps the same rules, and no
duration is negative.  Qubit exclusivity is decided by analysis, never
here; a circuit that breaks it still lays out (overlapping spans on one
qubit merge when padding), but its timeline is meaningless.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count
from math import inf

from .analyzer import FlatCircuit, PrimitiveGate
from .gateset import MEASUREMENT, PREPARATION
from .record import Record

PAD_IDLE_NAME = "I_pad"
FLUSH_ROWS = 4096  # rows held before a step of the root's chain writes them


class TimelineEntry(Record):
    __slots__ = ("gate", "start", "duration")
    def __init__(self, gate: PrimitiveGate, start: float, duration: float):
        self.gate, self.start, self.duration = gate, start, duration

    @property
    def end(self) -> float:
        return self.start + self.duration


class IdleEntry(Record):
    """A synthetic variable-length idle inserted to pad a parallel block.

    It keeps the exact end of the gap it fills: ``start + duration`` can
    round past the start of the gate that follows.
    """

    __slots__ = ("qubit", "start", "end")
    name = PAD_IDLE_NAME
    def __init__(self, qubit: int, start: float, end: float):
        self.qubit, self.start, self.end = qubit, start, end

    @property
    def duration(self) -> float:
        return self.end - self.start


class Timeline(Record):
    __slots__ = ("entries", "inserted_idles", "total_duration")
    def __init__(self, entries, inserted_idles, total_duration):
        # TimelineEntries in execution order, IdleEntries, the end time
        self.entries, self.inserted_idles = entries, inserted_idles
        self.total_duration = total_duration


def _layout(circuit: FlatCircuit, gates, rows, limit=inf):
    """Lay out the circuit from time 0, adding to ``rows`` a row ``(start,
    (first qubit, name, kind), seq, text, ref)`` per gate run and idle:
    rows sort in dump order, and ref is the gate's step or the idle's end.
    A generator: at a step of the root's sequential chain, once ``rows``
    holds ``limit`` rows, it yields the step's start; last, the end.  Each
    node's step is built once, keyed by ``id``: a gate's ``(0, duration,
    key, text, qubits, gate)``, a block's ``(1 + parallel, count, steps)``.
    If ``rows`` is None, it adds no rows, pads nothing and builds no text."""
    steps, ids, add = {}, count(), rows is not None and rows.append

    def step_of(node):
        if id(node) in steps:
            return steps[id(node)]
        if isinstance(node, PrimitiveGate):
            d, qubits = gates[node.definition.name].duration, node.qubits
            occupied = range(circuit.n_qubits) if (  # lazily: q[10**400]
                node.definition.kind in (PREPARATION, MEASUREMENT)) else qubits
            step = (0, d, (min(qubits, default=-1), node.name, 0),
                    add and f" {d:g} {node}\n", occupied, node)
        else:
            step = (1 + node.parallel, node.count,
                    [step_of(child) for child in node.items])
        steps[id(node)] = step
        return step

    def pad(q, start, end):
        add((start, (q, PAD_IDLE_NAME, 1), next(ids),
             f" {end - start:g} {PAD_IDLE_NAME} {q}\n", end))

    def place(step, t0: float) -> float:
        if not step[0]:
            if add:
                add((t0, step[2], next(ids), step[3], step))
            return t0 + step[1]
        if step[0] == 1:
            for _ in range(step[1]):
                for child in step[2]:
                    t0 = place(child, t0)
            return t0
        end, mark = t0, add and len(rows)
        for child in step[2]:
            end = max(end, place(child, t0))
        if not add:
            return end
        spans: dict = {}  # each qubit's busy spans, gates' and idles'
        for start, key, _, _, ref in rows[mark:]:
            for q in (key[0],) if key[2] else ref[4]:
                spans.setdefault(q, []).append(
                    (start, ref if key[2] else start + ref[1]))
        # pad the gaps; spans overlap only against the precondition: merge
        for q in sorted(spans):
            cursor = t0
            for start, stop in sorted(spans[q]):
                if start > cursor:
                    pad(q, cursor, start)
                cursor = max(cursor, stop)
            if cursor < end:
                pad(q, cursor, end)
        return end

    def chain(step, t: float):  # a sequence on the root's chain
        nonlocal limit
        for _ in range(step[1]):
            for child in step[2]:
                if rows and len(rows) >= limit:
                    yield t  # held rows count: a run of ties is not
                    limit = 2 * len(rows) + FLUSH_ROWS  # sorted every step
                if child[0] == 1:
                    t = yield from chain(child, t)
                else:
                    t = place(child, t)
        return t

    yield (yield from chain(step_of(circuit.root), 0.0))


def _lines(rows) -> str:
    return "".join([f"{start:g}{text}" for start, _, _, text, _ in rows])


def timeline_chunks(circuit: FlatCircuit, gates: dict):
    """``dump_timeline(schedule(circuit, gates))`` and a ``total`` line, in
    chunks of about ``FLUSH_ROWS`` rows, without a row per gate kept."""
    rows: list = []
    for t in _layout(circuit, gates, rows, FLUSH_ROWS):
        rows.sort()
        cut = bisect_left(rows, (t,))  # the rows that start before t
        yield _lines(rows[:cut])
        del rows[:cut]
    yield _lines(rows) + f"total {t:g}\n"  # sorted: none came after the end


def schedule(circuit: FlatCircuit, gates: dict) -> Timeline:
    """Assign start times and durations to every gate of a flat circuit.

    Durations come from ``gates``, the gate set by name (for example one
    with manifest overrides applied), not from each gate's own definition.
    The circuit must satisfy the module's precondition.
    """
    rows: list = []
    *_, total = _layout(circuit, gates, rows)
    return Timeline([TimelineEntry(ref[5], start, ref[1])
                     for start, key, _, _, ref in rows if not key[2]],
                    [IdleEntry(key[0], start, ref)
                     for start, key, _, _, ref in rows if key[2]], total)


def total_duration(circuit: FlatCircuit, gates: dict) -> float:
    """Total runtime of a circuit: sequential blocks add, parallel blocks
    take the maximum.  It is ``schedule``'s walk keeping no rows, so the
    two agree to the last bit.  The circuit must meet ``schedule``'s
    precondition; nothing is checked here."""
    *_, end = _layout(circuit, gates, None)
    return end


def dump_timeline(timeline: Timeline) -> str:
    """One line per entry, ``start duration name qubits... floats...``,
    sorted by (start, first qubit); inserted idles appear as I_pad lines."""
    rows, known = [], {}  # known: id(gate) -> (first qubit, name, tail)
    for entry in timeline.entries:
        row = known.get(id(entry.gate))
        if row is None:  # a loop runs the same gate objects again
            gate = entry.gate
            first = min(gate.qubits) if gate.qubits else -1
            row = known[id(gate)] = (first, gate.name,
                                     f" {entry.duration:g} {gate}\n")
        first, name, tail = row
        rows.append(((entry.start, first, name), f"{entry.start:g}{tail}"))
    for idle in timeline.inserted_idles:
        rows.append(((idle.start, idle.qubit, idle.name), f"{idle.start:g} "
                     f"{idle.duration:g} {idle.name} {idle.qubit}\n"))
    rows.sort(key=lambda r: r[0])
    return "".join(text for _, text in rows)
