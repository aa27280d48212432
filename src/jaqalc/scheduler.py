"""Start-time assignment for flat circuits.

In a sequential block each child starts when the previous one ends; in a
parallel block every child starts at the block's start and the block lasts
as long as its longest child.  Each qubit that participates in a parallel
block is padded with synthetic idle entries (one ``I_pad`` per gap, sized
exactly) so that its busy time plus inserted idle time equals the block
duration.  Qubits the block never mentions receive no padding.  One walk,
``_place``, does the layout: ``schedule`` keeps its entries and idles, and
``total_duration`` keeps nothing per gate.

Precondition: the circuit is the expansion of a program that analysis
accepted, or a hand-built circuit that keeps the same rules.  Qubit
exclusivity is decided by analysis, never here; a circuit that breaks it
still lays out (overlapping spans on one qubit merge when padding), but its
timeline is meaningless.
"""

from __future__ import annotations

from .expander import FlatBlock, FlatCircuit, PrimitiveGate, gate_qubits
from .record import Record

PAD_IDLE_NAME = "I_pad"


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


def _coverage(intervals, lo: float, hi: float):
    """Gaps of [lo, hi) not covered by the given (start, end) intervals.
    Overlapping intervals, possible only in a circuit that breaks the
    module's precondition, merge, so such a circuit still lays out."""
    gaps = []
    cursor = lo
    for start, end in sorted(intervals):
        if start > cursor:
            gaps.append((cursor, start))
        cursor = max(cursor, end)
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps


def _place(circuit: FlatCircuit, gates, entries, idles) -> float:
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


def schedule(circuit: FlatCircuit, gates: dict) -> Timeline:
    """Assign start times and durations to every gate of a flat circuit.

    Durations come from ``gates``, the gate set by name (for example one
    with manifest overrides applied), not from each gate's own definition.
    The circuit must satisfy the module's precondition.
    """
    entries: list = []
    idles: list = []
    total = _place(circuit, gates, entries, idles)
    return Timeline(entries, idles, total)


def total_duration(circuit: FlatCircuit, gates: dict) -> float:
    """Total runtime of a circuit: sequential blocks add, parallel blocks
    take the maximum.  It is ``schedule``'s walk keeping nothing per gate,
    so the two agree to the last bit.  The circuit must meet ``schedule``'s
    precondition; nothing is checked here."""
    return _place(circuit, gates, None, None)


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
