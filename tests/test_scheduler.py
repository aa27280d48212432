import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaqalc import analyzer, scheduler
from jaqalc.diagnostics import has_errors
from jaqalc.errors import JaqalError
from jaqalc.expander import (
    FlatBlock,
    FlatCircuit,
    FlatLoop,
    PrimitiveGate,
    expand,
)
from jaqalc.gateset import (
    IDLE,
    QUBIT,
    GateDefinition,
    apply_durations,
    load_duration_manifest,
)
from jaqalc.parser import parse
from jaqalc.scheduler import (
    dump_timeline,
    schedule,
    timeline_chunks,
    total_duration,
)

from helpers import (
    assert_same_text,
    check_flat_conflicts,
    gate_qubits,
    schedule_reference,
    schedule_text_reference,
)
from program_gen import bound_macro_program, random_program


def circuit_of(source, gates):
    program, diags = parse(source)
    assert not has_errors(diags), diags
    return expand(program, gates)


def build(gates, parallel, *items):
    return FlatBlock(parallel, tuple(items))


def single(gates, name, qubit, duration=None):
    return PrimitiveGate(gates[name], (qubit,))


# -- examples -------------------------------------------------------------------

def test_equal_durations_start_together_no_idles(gates):
    circuit = circuit_of("register q[3]\n< Rx q[1] 0.1 | Sx q[2] >\n", gates)
    timeline = schedule(circuit, gates)
    assert [e.start for e in timeline.entries] == [0.0, 0.0]
    assert timeline.inserted_idles == []
    assert timeline.total_duration == 1.0


def test_nested_sequence_pads_the_short_side(gates):
    circuit = circuit_of(
        "register q[2]\n< Px q[0] | { Sx q[1]; Sy q[1] } >\n", gates)
    timeline = schedule(circuit, gates)
    assert timeline.total_duration == 2.0
    spans = {(e.gate.name, e.start, e.duration) for e in timeline.entries}
    assert spans == {("Px", 0.0, 1.0), ("Sx", 0.0, 1.0), ("Sy", 1.0, 1.0)}
    (idle,) = timeline.inserted_idles
    assert (idle.qubit, idle.start, idle.duration) == (0, 1.0, 1.0)


def test_empty_circuit_schedules_to_zero(gates):
    circuit = circuit_of("register q[1]\n", gates)
    timeline = schedule(circuit, gates)
    assert timeline.total_duration == 0.0
    assert timeline.entries == []


def test_sequential_sum_rule(gates):
    circuit = circuit_of("register q[1]\nSx q[0]\nSy q[0]\nSz q[0]\n", gates)
    assert total_duration(circuit, gates) == 3.0


def test_parallel_max_rule(gates):
    # durations 1 and 10 side by side: the block lasts 10
    circuit = FlatCircuit(3, build(
        gates, False,
        build(gates, True,
              PrimitiveGate(gates["Sx"], (0,)),
              PrimitiveGate(gates["I_Sxx"], (1, 2)))))
    assert total_duration(circuit, gates) == 10.0


def test_loop_seven_total_is_eighty_four(gates):
    circuit = circuit_of(
        "register q[2]\nloop 7 { Sx q[0]\nSz q[1]\nSxx q[0] q[1] }\n", gates)
    assert total_duration(circuit, gates) == 84.0
    assert schedule(circuit, gates).total_duration == 84.0


def test_total_duration_formats_no_gate(gates, monkeypatch):
    """Only the dump reads a gate's text, so the layout walk without rows,
    which ``total_duration`` makes, formats no gate."""
    circuit = circuit_of("register q[3]\nloop 3 { < Sx q[0] | Rz q[1] 0.5 >\n"
                         "Sxx q[1] q[2] }\nprepare_all\n", gates)

    def text(gate):
        raise AssertionError(f"formatted {gate.name}")

    monkeypatch.setattr(PrimitiveGate, "__str__", text)
    assert total_duration(circuit, gates) == 53.0


def test_durations_can_come_from_an_override_mapping(gates):
    from jaqalc.gateset import apply_durations

    circuit = circuit_of("register q[1]\nSx q[0]\n", gates)
    slow = apply_durations(gates, {"Sx": 5.0})
    assert total_duration(circuit, slow) == 5.0
    assert total_duration(circuit, gates) == 1.0


def test_global_gates_occupy_every_qubit(gates):
    circuit = circuit_of(
        "register q[3]\nprepare_all\nSx q[0]\nmeasure_all\n", gates)
    timeline = schedule(circuit, gates)
    assert timeline.total_duration == 41.0
    prep = timeline.entries[0]
    assert gate_qubits(prep.gate, 3) == {0, 1, 2}


# -- invariants ------------------------------------------------------------------

def random_disjoint_circuit(rng, gates, qubits):
    """A block tree whose parallel children always touch disjoint qubits."""

    def node(pool, depth, parallel):
        if depth == 0 or len(pool) == 1 or rng.random() < 0.4:
            q = rng.choice(pool)
            name = rng.choice(["Sx", "Sy", "Sz", "Px", "Rx"])
            if name == "Rx":
                return PrimitiveGate(gates["Rx"], (q,), (0.3,))
            return PrimitiveGate(gates[name], (q,))
        if parallel:
            chunks = [pool[i::2] for i in range(2) if pool[i::2]]
            children = tuple(node(chunk, depth - 1, False)
                             for chunk in chunks)
            return FlatBlock(True, children)
        children = tuple(node(pool, depth - 1, True)
                         for _ in range(rng.randint(1, 3)))
        return FlatBlock(False, children)

    root = node(list(qubits), depth=3, parallel=False)
    if isinstance(root, PrimitiveGate) or root.parallel:
        root = FlatBlock(False, (root,))
    return FlatCircuit(len(qubits), root)


def test_sequential_additivity_and_parallel_maximality(gates):
    rng = random.Random(5)
    for _ in range(200):
        a = random_disjoint_circuit(rng, gates, range(0, 2))
        b = random_disjoint_circuit(rng, gates, range(2, 4))
        da = total_duration(a, gates)
        db = total_duration(b, gates)
        seq = FlatCircuit(4, FlatBlock(False, (a.root, b.root)))
        par = FlatCircuit(4, FlatBlock(False, (
            FlatBlock(True, (a.root, b.root)),)))
        assert total_duration(seq, gates) == da + db
        assert total_duration(par, gates) == max(da, db)
        # the two duration routes agree
        assert schedule(seq, gates).total_duration == da + db
        assert schedule(par, gates).total_duration == max(da, db)


def test_idle_conservation_in_parallel_blocks(gates):
    """Busy time plus inserted idle time equals the block duration for
    every qubit participating in a parallel block."""
    rng = random.Random(6)
    for _ in range(100):
        circuit = random_disjoint_circuit(rng, gates, range(4))
        timeline = schedule(circuit, gates)
        covered = {}
        for entry in timeline.entries:
            for q in gate_qubits(entry.gate, 4):
                covered.setdefault(q, []).append((entry.start, entry.end))
        for idle in timeline.inserted_idles:
            covered.setdefault(idle.qubit, []).append((idle.start, idle.end))

        def check(item, start):
            if isinstance(item, PrimitiveGate):
                return start + item.definition.duration
            if not item.parallel:
                t = start
                for child in item.items:
                    t = check(child, t)
                return t
            end = start
            for child in item.items:
                end = max(end, check(child, start))
            participating = _qubits_of(item, 4)
            for q in sorted(participating):
                busy = sum(min(e, end) - max(s, start)
                           for s, e in covered.get(q, [])
                           if s < end and e > start)
                assert busy == pytest.approx(end - start), (q, start, end)
            return end

        check(circuit.root, 0.0)


def _qubits_of(item, n):
    if isinstance(item, PrimitiveGate):
        return gate_qubits(item, n)
    out = set()
    for child in item.items:
        out |= _qubits_of(child, n)
    return out


def test_determinism(gates):
    rng = random.Random(8)
    circuit = random_disjoint_circuit(rng, gates, range(4))
    assert schedule(circuit, gates) == schedule(circuit, gates)


def test_total_duration_is_max_entry_end(gates):
    rng = random.Random(13)
    for _ in range(100):
        circuit = random_disjoint_circuit(rng, gates, range(4))
        timeline = schedule(circuit, gates)
        ends = [e.end for e in timeline.entries]
        ends += [i.end for i in timeline.inserted_idles]
        assert timeline.total_duration == max(ends, default=0.0)
        assert timeline.total_duration == total_duration(circuit, gates)


NESTED_TIMES = """register q[3]
prepare_all
loop 3 { < Sx q[0] | { Rx q[1] 0.5; Sy q[1] } > ; Sxx q[0] q[2] }
< { Sy q[2]; Sz q[2] } | Sz q[1] >
measure_all
"""

DECIMAL = st.integers(0, 99).map(lambda tenths: str(tenths / 10))


@settings(max_examples=300, deadline=None)
@given(names=st.lists(st.sampled_from(["Sx", "Sy", "Sz", "Rx", "Sxx",
                                       "prepare_all", "measure_all"]),
                      min_size=1, max_size=7),
       durations=st.lists(DECIMAL, min_size=7, max_size=7),
       seed=st.integers(0, 2 ** 16))
def test_total_duration_equals_the_schedule_under_decimal_manifests(
        gates, names, durations, seed):
    """Both add the same floats in the same order, so decimal durations,
    whose sums round, give the same total to the last bit."""
    manifest = "".join(f"{name} {duration}\n"
                       for name, duration in zip(names, durations))
    timed = apply_durations(gates, load_duration_manifest(manifest, gates))
    sources = [NESTED_TIMES,
               random_program(random.Random(seed), max_qubits=3)]
    for source in sources:
        circuit = circuit_of(source, gates)
        assert (total_duration(circuit, timed)
                == schedule(circuit, timed).total_duration), manifest


# -- conflicts ---------------------------------------------------------------------

def raster_conflict(timeline, n_qubits, resolution=Fraction(1, 4)):
    """Brute-force oracle: sample qubit occupancy on a fine time grid and
    look for double booking."""
    spans = []
    for entry in timeline.entries:
        for q in gate_qubits(entry.gate, n_qubits):
            spans.append((q, Fraction(entry.start), Fraction(entry.end)))
    for idle in timeline.inserted_idles:
        spans.append((idle.qubit, Fraction(idle.start), Fraction(idle.end)))
    if not spans:
        return False
    horizon = max(end for _, _, end in spans)
    t = Fraction(0)
    while t < horizon:
        for qubit in range(n_qubits):
            hits = sum(1 for q, s, e in spans if q == qubit and s <= t < e)
            if hits > 1:
                return True
        t += resolution
    return False


def random_maybe_conflicting_circuit(rng, gates):
    """Unvalidated circuits: parallel children pick qubits freely, so some
    are in conflict."""
    qubits = list(range(rng.randint(1, 4)))

    def node(depth, parallel):
        if depth == 0 or rng.random() < 0.45:
            q = rng.choice(qubits)
            name = rng.choice(["Sx", "Sy", "Pz"])
            return PrimitiveGate(gates[name], (q,))
        children = tuple(node(depth - 1, not parallel)
                         for _ in range(rng.randint(1, 3)))
        return FlatBlock(not parallel, children)

    return FlatCircuit(len(qubits), FlatBlock(False, tuple(
        node(2, False) for _ in range(rng.randint(1, 3)))))


def rejected(circuit) -> bool:
    try:
        check_flat_conflicts(circuit)
    except JaqalError:
        return True
    return False


def test_conflict_detection_matches_raster_oracle(gates):
    """``check_flat_conflicts`` rejects every circuit the raster oracle
    finds double-booked, and every circuit it accepts schedules with no
    overlap.  The relation is an implication, not an equality, because the
    structural rule is stricter: ``< { Sx q[0]; Sy q[1] } | { Sy q[1];
    Sx q[0] } >`` shares qubits across siblings, so it is rejected, but
    its gates never overlap in time."""
    rng = random.Random(9)
    accepted = overlapping = 0
    for _ in range(150):
        circuit = random_maybe_conflicting_circuit(rng, gates)
        overlaps = raster_conflict(schedule(circuit, gates),
                                   circuit.n_qubits)
        if not rejected(circuit):
            assert not overlaps
            accepted += 1
        overlapping += overlaps
    # the sample must exercise both verdicts
    assert accepted > 0 and overlapping > 0
    crossed = FlatCircuit(2, FlatBlock(False, (FlatBlock(True, (
        build(gates, False, single(gates, "Sx", 0), single(gates, "Sy", 1)),
        build(gates, False, single(gates, "Sy", 1), single(gates, "Sx", 0)),
    )),)))
    assert rejected(crossed)
    assert not raster_conflict(schedule(crossed, gates), 2)


def test_conflict_error_names_qubit_and_gates(gates):
    circuit = FlatCircuit(1, FlatBlock(False, (FlatBlock(True, (
        PrimitiveGate(gates["Sx"], (0,)),
        PrimitiveGate(gates["Sy"], (0,)),
    )),)))
    with pytest.raises(JaqalError) as err:
        check_flat_conflicts(circuit)
    assert err.value.code == "parallel-conflict"
    assert "qubit offset 0 " in str(err.value)


def test_total_duration_checks_conflicts_too(gates):
    circuit = FlatCircuit(1, FlatBlock(False, (FlatBlock(True, (
        PrimitiveGate(gates["Sx"], (0,)),
        PrimitiveGate(gates["Sy"], (0,)),
    )),)))
    assert total_duration(circuit, gates) == 1.0  # algebraic, unchecked
    assert rejected(circuit)


def test_padding_idle_ends_exactly_at_the_block_end(gates):
    """With these durations 0.35 + (1.45 - 0.35) rounds past 1.45, so an
    idle stored as start + duration overlapped the next gate by one ulp."""
    durations = apply_durations(gates, {"Sx": 0.05, "Sy": 0.1, "Px": 0.7})
    circuit = circuit_of(
        "register q[2]\n"
        "< { Sy q[1]; Sx q[1]; Sy q[1]; Sy q[1] } | { Px q[0]; Sx q[0]; "
        "Px q[0] } >\n"
        "Sy q[1]\n", durations)
    timeline = schedule(circuit, durations)
    (idle,) = timeline.inserted_idles
    assert idle.end == timeline.entries[-1].start
    assert "0.35 1.1 I_pad 1\n" in dump_timeline(timeline)


def random_decimal_durations(rng, gates):
    """A duration manifest giving some gates decimal durations, as a
    hardware calibration file would."""
    names = sorted(name for name in gates if not name.startswith("I_"))
    text = "".join(f"{name} {rng.randint(0, 300) / 100}\n"
                   for name in rng.sample(names, k=rng.randint(1, len(names))))
    return apply_durations(gates, load_duration_manifest(text, gates))


def overlapping_spans(timeline, n_qubits):
    """The first two spans, gate or idle, that overlap on one qubit, or
    None.  Spans are half-open and compared exactly as Fractions; an empty
    span occupies nothing."""
    per_qubit: dict = {}
    for entry in timeline.entries:
        for q in gate_qubits(entry.gate, n_qubits):
            per_qubit.setdefault(q, []).append(
                (Fraction(entry.start), Fraction(entry.end), entry.gate.name))
    for idle in timeline.inserted_idles:
        per_qubit.setdefault(idle.qubit, []).append(
            (Fraction(idle.start), Fraction(idle.end), idle.name))
    for qubit, spans in sorted(per_qubit.items()):
        spans = sorted(span for span in spans if span[1] > span[0])
        # sorted by start, any overlap shows between neighbours
        for first, second in zip(spans, spans[1:]):
            if second[0] < first[1]:
                return qubit, first, second
    return None


def test_expanded_programs_never_fail_the_conflict_sweep(gates):
    """Analysis and expansion decide qubit exclusivity, which is why the
    scheduler checks nothing: no two spans of an expanded program overlap
    on one qubit, under any durations."""
    rng = random.Random(17)
    for _ in range(300):
        durations = random_decimal_durations(rng, gates)
        source = random_program(rng, max_qubits=4, max_gates=24)
        program, diags = parse(source)
        assert not has_errors(diags), source
        circuit = expand(program, durations)
        timeline = schedule(circuit, durations)
        assert overlapping_spans(timeline, circuit.n_qubits) is None, source


# -- dump --------------------------------------------------------------------------

def test_timeline_dump_sorted_by_start_then_qubit(gates):
    circuit = circuit_of(
        "register q[2]\n< Px q[0] | { Sx q[1]; Sy q[1] } >\n", gates)
    text = dump_timeline(schedule(circuit, gates))
    assert text == ("0 1 Px 0\n"
                    "0 1 Sx 1\n"
                    "1 1 I_pad 0\n"
                    "1 1 Sy 1\n")


def test_timeline_dump_sorts_across_loop_iterations(gates):
    """A zero-duration gate ending one iteration ties with the next
    iteration's first gate, and the sort puts that gate first, so the dump
    cannot be sorted one iteration at a time."""
    circuit = circuit_of("register q[1]\nloop 2 { Sx q[0]\nSz q[0] }\n",
                         gates)
    timed = apply_durations(gates, {"Sz": 0.0})
    assert dump_timeline(schedule(circuit, timed)) == ("0 1 Sx 0\n"
                                                       "1 1 Sx 0\n"
                                                       "1 0 Sz 0\n"
                                                       "2 0 Sz 0\n")


def test_timeline_dump_empty(gates):
    circuit = circuit_of("register q[1]\n", gates)
    assert dump_timeline(schedule(circuit, gates)) == ""


# -- streamed dump ------------------------------------------------------------

def random_tree_circuit(rng, gates, disjoint=True):
    """A hand-built circuit of loops, sequences and parallel blocks nested
    in any order: parallel blocks in sequences in parallel blocks inside
    loops, and parallel blocks at top level.  Unless ``disjoint``, parallel
    siblings may share qubits and all-qubit gates may sit in them, which
    breaks the scheduler's precondition; padding merges the overlaps."""
    n = rng.randint(1, 5)

    def gate(pool):
        if not disjoint and rng.random() < 0.1:
            return PrimitiveGate(gates[rng.choice(["prepare_all",
                                                   "measure_all"])])
        if len(pool) >= 2 and rng.random() < 0.2:
            return PrimitiveGate(gates["I_Sxx"], tuple(rng.sample(pool, 2)))
        name = rng.choice(["Sx", "Sy", "Sz", "Px", "Rz"])
        floats = (0.25,) if name == "Rz" else ()
        return PrimitiveGate(gates[name], (rng.choice(pool),), floats)

    def node(pool, depth, parallel):
        if depth == 0 or rng.random() < 0.3:
            return gate(pool)
        if parallel:
            if disjoint:
                shuffled = rng.sample(pool, len(pool))
                cut = rng.randint(1, len(pool))
                pools = [p for p in (shuffled[:cut], shuffled[cut:]) if p]
            else:
                pools = [pool] * rng.randint(1, 3)
            return FlatBlock(True, tuple(node(p, depth - 1, False)
                                         for p in pools))
        items = tuple(node(pool, depth - 1, True)
                      for _ in range(rng.randint(1, 3)))
        if rng.random() < 0.4:
            return FlatLoop(rng.randint(2, 4), items)
        return FlatBlock(False, items)

    qubits = list(range(n))
    items = [node(qubits, 4, rng.random() < 0.5)
             for _ in range(rng.randint(1, 4))]
    if rng.random() < 0.5:
        items.insert(rng.randint(0, len(items)), FlatLoop(
            rng.randint(2, 5), (PrimitiveGate(gates["prepare_all"]),
                                node(qubits, 3, True),
                                PrimitiveGate(gates["measure_all"]))))
    return FlatCircuit(n, FlatBlock(False, tuple(items)))


# zero durations make rows tie across loop iterations and flushes
DURATION = st.sampled_from([0.0, 0.0, 0.1, 0.25, 0.3, 0.7, 1.0, 2.5, 10.0])
TIMED = ["Sx", "Sy", "Sz", "Px", "Rz", "Sxx", "MS", "prepare_all",
         "measure_all"]


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       source=st.sampled_from(["random", "bound", "tree", "overlapping"]),
       durations=st.lists(DURATION, min_size=len(TIMED),
                          max_size=len(TIMED)),
       timed=st.booleans(), flush=st.sampled_from([1, 2, 3, 5, 4096]))
def test_the_streamed_schedule_equals_the_reference(
        gates, seed, source, durations, timed, flush):
    """``jaqalc schedule``'s bytes, the timeline and its total are those of
    the reference walk that made a TimelineEntry per gate run, however
    small the batches written between steps of the root's chain."""
    rng = random.Random(seed)
    if timed:  # the manifest's rules: an idle twin takes its gate's time
        manifest = "".join(f"{name} {d}\n" for name, d in zip(TIMED,
                                                              durations))
        gates = apply_durations(gates, load_duration_manifest(manifest,
                                                              gates))
    if source in ("tree", "overlapping"):
        circuit = random_tree_circuit(rng, gates, source == "tree")
    else:
        make = random_program if source == "random" else bound_macro_program
        program_source = make(rng, max_qubits=4)
        program, diags = parse(program_source)
        assert not has_errors(diags), program_source
        try:
            circuit = expand(program, gates)
        except JaqalError:  # a bound-macro program analysis rejects
            return
    reference = schedule_reference(circuit, gates)
    with mock.patch.object(scheduler, "FLUSH_ROWS", flush):
        chunks = list(timeline_chunks(circuit, gates))
        assert total_duration(circuit, gates) == reference.total_duration
    assert "".join(chunks) == schedule_text_reference(circuit, gates)
    assert schedule(circuit, gates) == reference


def test_a_tie_at_a_flush_is_held_for_the_next_batch(gates):
    """A step of the root's chain writes only the rows that start before
    it.  At the second step, at t = 1, the one row is the zero-duration Sz
    that starts at 1, so nothing is written: the next iteration's Sx
    starts at 1 too and sorts first."""
    circuit = circuit_of("register q[1]\nloop 3 { Sx q[0]\nSz q[0] }\n",
                         gates)
    timed = apply_durations(gates, {"Sz": 0.0})
    with mock.patch.object(scheduler, "FLUSH_ROWS", 1):
        chunks = list(timeline_chunks(circuit, timed))
    assert chunks == ["0 1 Sx 0\n", "", "1 1 Sx 0\n1 0 Sz 0\n",
                      "2 1 Sx 0\n2 0 Sz 0\n", "3 0 Sz 0\ntotal 3\n"]


def test_a_top_level_parallel_block_is_written_whole(gates):
    """Its rows, idles included, wait for the step after it."""
    circuit = circuit_of("register q[2]\n< { Sx q[0]; Sy q[0] } | Px q[1] >"
                         "\nSz q[1]\n", gates)
    with mock.patch.object(scheduler, "FLUSH_ROWS", 1):
        chunks = list(timeline_chunks(circuit, gates))
    assert chunks == ["0 1 Sx 0\n0 1 Px 1\n1 1 Sy 0\n1 1 I_pad 1\n",
                      "2 1 Sz 1\n", "total 3\n"]


def test_a_gate_named_like_the_padding_sorts_before_the_idle_it_ties_with(
        gates):
    """Rows sort by (start, first qubit, name), then entries before idles:
    only a hand-made gate set can name a gate I_pad and tie with an idle."""
    named = GateDefinition("I_pad", (QUBIT,), 0.0, IDLE)
    timed = {**gates, "I_pad": named}
    circuit = FlatCircuit(2, FlatBlock(False, (FlatBlock(True, (
        FlatBlock(False, (single(gates, "Sx", 0),
                          PrimitiveGate(named, (0,)))),
        FlatBlock(False, (single(gates, "Sy", 1), single(gates, "Sy", 1))),
    )),)))
    text = "".join(timeline_chunks(circuit, timed))
    assert text == schedule_text_reference(circuit, timed) == (
        "0 1 Sx 0\n0 1 Sy 1\n1 0 I_pad 0\n1 1 I_pad 0\n1 1 Sy 1\n"
        "total 2\n")


# -- replayed loops -------------------------------------------------------------

def random_loop_circuit(rng, gates, budget=3000):
    """A hand-built circuit of loops of 2 to 60 iterations, nested in one
    another and in sequences, whose bodies hold parallel blocks that pad,
    zero-duration gates (under a manifest that makes them take no time)
    at their ends, and bodies made only of such gates.  ``budget`` bounds
    the gate runs, so the reference walk stays quick."""
    n = rng.randint(1, 4)

    def gate(pool, zero=False):
        if zero or rng.random() < 0.15:
            return PrimitiveGate(gates["Rz"], (rng.choice(pool),), (0.5,))
        if len(pool) >= 2 and rng.random() < 0.15:
            return PrimitiveGate(gates["Sxx"], tuple(rng.sample(pool, 2)))
        if len(pool) == n and rng.random() < 0.05:  # not in a branch
            return PrimitiveGate(gates[rng.choice(["prepare_all",
                                                   "measure_all"])])
        return PrimitiveGate(gates[rng.choice(["Sx", "Sy", "Px"])],
                             (rng.choice(pool),))

    def parallel(pool):
        shuffled = rng.sample(pool, len(pool))
        cut = rng.randint(1, len(pool))
        branches = [p for p in (shuffled[:cut], shuffled[cut:]) if p]
        return FlatBlock(True, tuple(
            FlatBlock(False, tuple(gate([q]) for q in rng.choices(
                branch, k=rng.randint(1, 3)))) for branch in branches))

    def body(pool, depth, runs):
        items = []
        for _ in range(rng.randint(1, 4)):
            roll = rng.random()
            count = rng.randint(2, max(2, min(60, budget // runs // 16)))
            if depth and roll < 0.35:
                items.append(FlatLoop(count, tuple(
                    body(pool, depth - 1, runs * count))))
            elif roll < 0.55 and len(pool) > 1:
                items.append(parallel(pool))
            elif roll < 0.65:  # a body that takes no time
                items.append(FlatLoop(count, tuple(
                    gate(pool, zero=True) for _ in range(rng.randint(1, 2)))))
            else:
                items.append(gate(pool))
        if rng.random() < 0.3:  # a zero-duration tail
            items.append(gate(pool, zero=True))
        return items

    return FlatCircuit(n, FlatBlock(False, tuple(body(list(range(n)), 3,
                                                      1))))


# exact durations, a zero, and a decimal one, whose loops are walked
REPLAY_DURATION = st.sampled_from([0.0, 0.0, 0.25, 0.5, 1.0, 2.5, 10.0, 0.1])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       durations=st.lists(REPLAY_DURATION, min_size=len(TIMED),
                          max_size=len(TIMED)),
       flush=st.sampled_from([1, 2, 3, 5, 4096]),
       hold=st.sampled_from([1, 3, 8, 4096]))
def test_replayed_loops_equal_the_reference(gates, seed, durations, flush,
                                            hold):
    """A held loop laid out once and written shifted, or as each sort
    key's share when its body takes no time, writes the bytes of the walk
    that placed every iteration; so do loops past ``HOLD_GATES``, loops
    that tie across iterations and durations that are not exact, which
    are walked."""
    manifest = "".join(f"{name} {d}\n" for name, d in zip(TIMED, durations))
    gates = apply_durations(gates, load_duration_manifest(manifest, gates))
    circuit = random_loop_circuit(random.Random(seed), gates)
    reference = schedule_reference(circuit, gates)
    with mock.patch.object(scheduler, "FLUSH_ROWS", flush), \
            mock.patch.object(analyzer, "HOLD_GATES", hold):
        text = "".join(timeline_chunks(circuit, gates))
    assert_same_text(text, schedule_text_reference(circuit, gates))
    assert total_duration(circuit, gates) == reference.total_duration
    assert schedule(circuit, gates) == reference


def _starts(circuit, gates):
    return [entry.start for entry in schedule_reference(circuit,
                                                        gates).entries]


@pytest.mark.parametrize("manifest, source", [
    # B = 3 (2**52 + 1.5) in quarters passes 2**53: 2**52 + 0.75 rounds
    ("Sx 4503599627370496\nSy 0.75\n",
     "register q[1]\nloop 3 { Sx q[0]; Sy q[0]; Sy q[0] }\n"),
    # 0.1 is not a dyadic fraction: every start is rounded
    ("Sx 0.1\n", "register q[1]\nloop 1000 { Sx q[0] }\n"),
], ids=["past-2**53", "decimal"])
def test_inexact_times_are_walked_not_shifted(gates, manifest, source):
    """Past the exactness bound, a start shifted from the first iteration
    is not the one the walk accumulates, so the loop must be walked: the
    dump equals the reference's, whose starts differ from the shifted."""
    timed = apply_durations(gates, load_duration_manifest(manifest, gates))
    circuit = circuit_of(source, timed)
    starts = _starts(circuit, timed)
    loop = circuit.root.items[0]
    per = len(loop.items)
    span = starts[per] - starts[0]
    assert any(start != starts[i % per] + i // per * span
               for i, start in enumerate(starts))
    with mock.patch.object(scheduler, "FLUSH_ROWS", 7):
        text = "".join(timeline_chunks(circuit, timed))
    assert_same_text(text, schedule_text_reference(circuit, timed))
    assert total_duration(circuit, timed) == schedule_reference(
        circuit, timed).total_duration


def test_times_at_the_exactness_bound_are_replayed(gates):
    """B = 2**53 exactly: every time is exact, so the loop is replayed."""
    timed = apply_durations(gates, {"Sx": 2.0 ** 51})
    circuit = circuit_of("register q[1]\nloop 4 { Sx q[0] }\n", timed)
    rows = Appends()
    assert list(scheduler._layout(circuit, timed, rows, 1)) == [2.0 ** 53]
    assert rows.appends == 2  # the first iteration's row, then the text
    assert "".join(timeline_chunks(circuit, timed)) == (
        schedule_text_reference(circuit, timed))


class Appends(list):
    """Rows that count the rows the layout adds one by one."""
    appends = 0

    def append(self, row):
        self.appends += 1
        super().append(row)


def _appends(circuit, gates) -> int:
    """The rows the dump's layout adds one by one."""
    rows = Appends()
    *_, end = scheduler._layout(circuit, gates, rows, FLUSH)
    assert end == total_duration(circuit, gates)
    return rows.appends


@pytest.mark.parametrize("counts", [(1000,), (10, 50), (2, 10, 50)])
def test_a_loop_body_is_placed_once_per_loop_entry(gates, counts):
    """However many iterations, a held loop adds the rows of its first
    iteration, its inner loops walked, and one row of text."""
    source = "register q[3]\n"
    for count in counts:
        source += f"loop {count} {{ "
    source += ("prepare_all; < Sx q[0] | { Sy q[1]; Sz q[1] } >; "
               "Sxx q[0] q[2]; measure_all" + " }" * len(counts) + "\n")
    circuit = circuit_of(source, gates)
    appends = _appends(circuit, gates)
    assert_same_text("".join(timeline_chunks(circuit, gates)),
                     schedule_text_reference(circuit, gates))
    # prepare, Sx, Sy, Sz, the idle padding q[0], Sxx, measure: 7 rows
    if len(counts) == 1:
        assert appends == 7 + 1
        return
    body = circuit.root.items[0].items  # as many for 2 iterations as 2000
    for outer in (2, 2000):
        again = FlatCircuit(3, FlatBlock(False, (FlatLoop(outer, body),)))
        assert _appends(again, gates) == appends
    assert appends <= 7 * math.prod(counts[1:]) + 1


FLUSH = 4096


def test_a_zero_span_body_is_held_as_one_row_per_key(gates):
    """``loop n { Rz q[0] 0.5; Sz q[0]; Rz q[0] 0.7 }`` under a manifest
    that gives them no time ties every run: the lines sort by key, so each
    key's share of the body repeats, both Rz in execution order, and the
    layout holds a row per key, not one per run.  Gates before and after
    the loop that tie with it on a key sort around its share."""
    timed = apply_durations(gates, {"Rz": 0.0, "Sz": 0.0})
    circuit = circuit_of("register q[1]\nRz q[0] 0.1\nSz q[0]\nloop 3000 { "
                         "Rz q[0] 0.5; Sz q[0]; Rz q[0] 0.7 }\nRz q[0] 0.2\n"
                         "Sx q[0]\nRz q[0] 0.3\n", timed)
    rows = Appends()
    list(scheduler._layout(circuit, timed, rows, FLUSH))
    assert rows.appends <= 10
    with mock.patch.object(scheduler, "FLUSH_ROWS", 100):
        chunks = list(timeline_chunks(circuit, timed))
    want = ("0 0 Rz 0 0.1\n" + "0 0 Rz 0 0.5\n0 0 Rz 0 0.7\n" * 3000
            + "0 0 Rz 0 0.2\n0 1 Sx 0\n" + "0 0 Sz 0\n" * 3001
            + "1 0 Rz 0 0.3\ntotal 1\n")
    assert_same_text(schedule_text_reference(circuit, timed), want)
    assert_same_text("".join(chunks), want)
    assert max(chunk.count("\n") for chunk in chunks) <= 2 * 100 + 2


def test_a_zero_span_body_is_held_whatever_the_other_durations(gates):
    """A body that takes no time ties every run whatever the sums outside
    it, so it is held as one row per key even after a ``0.1`` loop, whose
    times are walked: 3 rows, then 2 of the body's first iteration and 2
    shares, where a walk added a row per gate run."""
    timed = apply_durations(gates, {"Rz": 0.0, "Sz": 0.0, "Sx": 0.1})
    circuit = circuit_of("register q[1]\nloop 3 { Sx q[0] }\nloop 3000 { "
                         "Rz q[0] 0.5; Sz q[0] }\n", timed)
    assert _appends(circuit, timed) == 3 + 2 + 2
    assert_same_text("".join(timeline_chunks(circuit, timed)),
                     schedule_text_reference(circuit, timed))


def test_a_parallel_block_counts_its_longest_child_not_their_sum(gates):
    """Three parallel gates of 2**52 end at 2**52, below 2**53, though
    their durations sum past it: times stay exact, so the loop after them
    is replayed, its first iteration's row and one row of text."""
    timed = apply_durations(gates, {"Sx": 2.0 ** 52})
    circuit = circuit_of("register q[3]\n< Sx q[0] | Sx q[1] | Sx q[2] >\n"
                         "loop 1000 { Sy q[0] }\n", timed)
    assert _appends(circuit, timed) == 3 + 1 + 1
    assert "".join(timeline_chunks(circuit, timed)) == (
        schedule_text_reference(circuit, timed))
    assert total_duration(circuit, timed) == schedule_reference(
        circuit, timed).total_duration == 2.0 ** 52 + 1000


@pytest.mark.parametrize("root", [
    FlatBlock(True, ()), FlatBlock(False, (FlatBlock(True, ()),))],
    ids=["root", "nested"])
def test_an_empty_parallel_block_ends_at_its_start(gates, root):
    """A hand-built parallel block with no children takes no time."""
    circuit = FlatCircuit(1, root)
    assert total_duration(circuit, gates) == 0.0
    assert schedule(circuit, gates).total_duration == 0.0
