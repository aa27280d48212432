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
the rows that start before it and holds the rest.

Times are exact if the circuit's end, in units of 1/D, is at most 2**53, where
D, at most 2**64, is the largest denominator of the durations used.  Each step
keeps its exact end in 2**-64s: a gate's duration, a loop's count times its
children's sum, a parallel block's longest child.  Then iteration k of a loop
is its first shifted by k spans, to the bit.  So the dump lays out a held loop
(``analyzer.held``) on the root's chain once, its inner loops walked, and
writes the rest shifted: a body that takes no time always, as each sort key's
share repeated, any other if times are exact and its last row does not tie
with the next's first.  Other loops are walked an iteration at a time.  So it
holds one held body's rows (``HOLD_GATES`` gates and their idles), a top-level
parallel block or a run of rows at one time outside held bodies.

Precondition: the circuit is the expansion of a program that analysis
accepted, or a hand-built circuit that keeps the same rules, and every
duration is finite and not negative.  Qubit exclusivity is decided by
analysis, never here; a circuit that breaks it still lays out (overlapping
spans on one qubit merge when padding), but its timeline is meaningless.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import count, groupby
from math import inf

from .analyzer import FlatCircuit, PrimitiveGate, held
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
    holds ``limit`` rows, it yields the step's start; last, the end.  A
    finite ``limit`` is the dump's: a held loop on the chain there is a
    row of text, key ``(inf,)``, that only ``_write`` reads.  Each node's
    step is built once, keyed by ``id``: a gate's ``(0, duration, key,
    end, qubits, gate, text)``, a block's ``(1 + parallel, count, steps,
    end, held)``, end the exact end in 2**-64s.  If ``rows`` is None, it
    adds no rows, pads nothing and builds no text; if times are also exact
    (the circuit's end, in units of 1/D, at most 2**53), it walks nothing."""
    steps, ids, add, den = {}, count(), rows is not None and rows.append, 1

    def step_of(node):
        nonlocal den
        if id(node) in steps:
            return steps[id(node)]
        if isinstance(node, PrimitiveGate):
            d, qubits = gates[node.definition.name].duration, node.qubits
            occupied = range(circuit.n_qubits) if (  # lazily: q[10**400]
                node.definition.kind in (PREPARATION, MEASUREMENT)) else qubits
            numerator, denominator = d.as_integer_ratio()
            den = max(den, denominator)
            step = (0, d, (min(qubits, default=-1), node.name, 0),
                    numerator * (2 ** 64 // denominator), occupied, node,
                    add and f" {d:g} {node}\n")
        else:
            children = [step_of(child) for child in node.items]
            ends = [child[3] for child in children]
            end = max(ends, default=0) if node.parallel else sum(ends)
            step = (1 + node.parallel, node.count, children,
                    node.count * end, node.count > 1 and held(node))
        steps[id(node)] = step
        return step

    def pad(q, start, end):
        add((start, (q, PAD_IDLE_NAME, 1), next(ids),
             f" {end - start:g} {PAD_IDLE_NAME} {q}\n", end))

    def place(step, t0: float) -> float:
        if not step[0]:
            if add:
                add((t0, step[2], next(ids), step[6], step))
            return t0 + step[1]
        if step[0] == 1:
            t = t0
            for _ in range(step[1]):
                for child in step[2]:
                    t = place(child, t)
            return t
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

    def replay(step, t0):  # hold a loop on the root's chain as text: the
        mark, n = len(rows), step[1]  # rows of its first iteration
        t = place((1, 1, step[2]), t0)
        body = sorted(rows[mark:])
        del rows[mark:]
        if t == t0:  # every row ties: one row per key, its share of a body
            for key, share in groupby(body, lambda row: row[1]):
                add((t0, key, next(ids), (list(share), n, 0.0, 0), None))
            return t0
        if body[-1][0] == t or not exact:  # they tie, or shifts round
            return (yield from chain(step, t0))
        first = bisect_left(body, (t0, (inf,)))  # (inf,): after t0's keys
        rows.extend(body[:first])  # rows at t0 may tie with earlier ones
        add((t0, (inf,), next(ids), (body, n, t - t0, first), None))
        return t0 + n * (t - t0)

    def chain(step, t: float):  # a sequence on the root's chain
        nonlocal limit
        for _ in range(step[1]):
            for child in step[2]:
                if rows and len(rows) >= limit:
                    yield t  # held rows count: a run of ties is not
                    limit = 2 * len(rows) + FLUSH_ROWS  # sorted every step
                if child[0] != 1 or limit == inf:  # a gate, a block, no dump
                    t = place(child, t)
                elif child[4] and (exact or not child[3]):  # held: replayed
                    t = yield from replay(child, t)
                else:
                    t = yield from chain(child, t)
        return t

    root = step_of(circuit.root)
    exact = den <= 2 ** 64 and root[3] * den <= 2 ** 117  # end <= 2**53/D
    # with no rows and exact times, the end needs no walk
    yield root[3] / 2 ** 64 if exact and not add else (
        yield from chain(root, 0.0))


def _write(rows, out: list):
    """Add the lines of sorted ``rows`` to ``out``; yield its text,
    emptied, at ``FLUSH_ROWS``.  A replayed loop's text is ``(body,
    count, span, first)``: ``count`` iterations of its sorted rows, a
    ``span`` apart, less the ``first`` rows of the first."""
    for start, _, _, text, _ in rows:
        if type(text) is str:
            out.append(f"{start:g}{text}")
            continue
        body, n, span, first = text
        for k in range(n):
            shift = k * span
            out += [f"{row[0] + shift:g}{row[3]}"
                    for row in (body[first:] if k == 0 else body)]
            if len(out) >= FLUSH_ROWS:
                yield _take(out)


def _take(out: list) -> str:
    """``out``'s text; ``out`` is emptied before the text is written."""
    text = "".join(out)
    out.clear()
    return text


def timeline_chunks(circuit: FlatCircuit, gates: dict):
    """``dump_timeline(schedule(circuit, gates))`` and a ``total`` line, in
    chunks of about ``FLUSH_ROWS`` rows, without a row per gate kept."""
    rows, out = [], []
    for t in _layout(circuit, gates, rows, FLUSH_ROWS):
        rows.sort()
        cut = bisect_left(rows, (t,))  # the rows that start before t
        yield from _write(rows[:cut], out)
        yield _take(out)
        del rows[:cut]
    yield from _write(rows, out)
    out.append(f"total {t:g}\n")  # sorted: none came after the end
    yield _take(out)


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
    take the maximum.  With exact times (the circuit's end, in units of
    1/D, at most 2**53) it is the exact end, unwalked, else ``schedule``'s
    walk keeping no rows: the two agree to the last bit.  The circuit must
    meet ``schedule``'s precondition; nothing is checked here."""
    *_, end = _layout(circuit, gates, None)
    return end


def dump_timeline(timeline: Timeline) -> str:
    """One line per entry, ``start duration name qubits... floats...``,
    sorted by (start, first qubit); inserted idles appear as I_pad lines."""
    rows = [((entry.start, min(entry.gate.qubits, default=-1),
              entry.gate.name),
             f"{entry.start:g} {entry.duration:g} {entry.gate}\n")
            for entry in timeline.entries]
    for idle in timeline.inserted_idles:
        rows.append(((idle.start, idle.qubit, idle.name), f"{idle.start:g} "
                     f"{idle.duration:g} {idle.name} {idle.qubit}\n"))
    rows.sort(key=lambda r: r[0])
    return "".join(text for _, text in rows)
