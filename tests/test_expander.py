import os
import random
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaqalc import analyzer, expander
from jaqalc.analyzer import _Analyzer, analyze
from jaqalc.diagnostics import has_errors
from jaqalc.errors import JaqalError
from jaqalc.expander import (
    FlatBlock,
    FlatCircuit,
    FlatLoop,
    PrimitiveGate,
    count_primitive_gates,
    dump_flat,
    expand,
    flat_chunks,
    iter_gates,
)
from jaqalc.parser import parse
from jaqalc.scheduler import dump_timeline, schedule, total_duration
from jaqalc.simulator import probabilities, run

from helpers import (
    assert_same_text,
    check_flat_conflicts,
    expand_reference,
    flat_text_reference,
    unroll,
)
from oracle import interpret_probabilities
from program_gen import (
    NUMBER_FORMS,
    bound_macro_program,
    loop_block_program,
    number_macro_program,
    random_program,
)


def flat(source, gates):
    program, diags = parse(source)
    assert not has_errors(diags), diags
    return expand(program, gates)


def gate_list(circuit):
    return [(g.name, g.qubits, g.float_args) for g in iter_gates(circuit)]


# -- loops ------------------------------------------------------------------

def test_loop_unrolls_to_twentyone_gates(gates):
    circuit = flat(
        "register q[2]\nloop 7 { Sx q[0]\nSz q[1]\nSxx q[0] q[1] }\n", gates)
    assert count_primitive_gates(circuit) == 21
    names = [g.name for g in iter_gates(circuit)]
    assert names == ["Sx", "Sz", "Sxx"] * 7


def test_loop_zero_unrolls_to_nothing(gates):
    circuit = flat("register q[1]\nloop 0 { Sx q[0] }\n", gates)
    assert count_primitive_gates(circuit) == 0
    assert circuit.root.items == ()


def test_loop_one_leaves_no_wrapper(gates):
    circuit = flat("register q[1]\nloop 1 { Sx q[0] }\n", gates)
    assert [type(item) for item in circuit.root.items] == [PrimitiveGate]


def test_nested_loops_multiply(gates):
    circuit = flat("register q[1]\nloop 2 { loop 3 { Sx q[0] } }\n", gates)
    assert count_primitive_gates(circuit) == 6


def test_loop_count_from_let(gates):
    circuit = flat("register q[1]\nlet n 4\nloop n { Sx q[0] }\n", gates)
    assert count_primitive_gates(circuit) == 4


def test_loop_stays_one_node_holding_its_body_once(gates):
    circuit = flat("register q[1]\nloop 5 { Sx q[0]\nSy q[0] }\n", gates)
    (loop,) = circuit.root.items
    assert isinstance(loop, FlatLoop) and loop.count == 5
    assert [g.name for g in loop.items] == ["Sx", "Sy"]


def test_empty_loop_leaves_nothing(gates):
    circuit = flat("register q[1]\nloop 3 { < > }\n", gates)
    assert circuit.root.items == ()


def _gate_nodes(item) -> int:
    """Primitive gates stored in the IR, each counted once."""
    if isinstance(item, PrimitiveGate):
        return 1
    return sum(_gate_nodes(child) for child in item.items)


def test_million_iteration_loop_expands_to_its_body(gates):
    program, diags = parse("register q[2]\nloop 1000000 { prepare_all; "
                           "Sxx q[0] q[1]; measure_all }\n")
    assert not has_errors(diags)
    started = time.perf_counter()
    circuit = expand(program, gates)
    assert count_primitive_gates(circuit) == 3_000_000
    assert time.perf_counter() - started < 1.0
    assert _gate_nodes(circuit.root) == 3


@pytest.mark.parametrize("count", [0, 1, 2, 5])
def test_unroll_linearity(gates, count):
    body = "Sx q[0]\nSy q[1]\nSxx q[0] q[1]"
    looped = flat(f"register q[2]\nloop {count} {{ {body} }}\n", gates)
    once = flat(f"register q[2]\n{body}\n", gates)
    assert count_primitive_gates(looped) == \
        count * count_primitive_gates(once)


# -- macros -----------------------------------------------------------------

MACRO_SOURCE = """register q[3]

macro foo a b {
    Sx a
    Sxx a q[0]
    Sxx b q[0]
}

foo q[2] q[1]
"""


def test_macro_expands_with_substituted_arguments(gates):
    circuit = flat(MACRO_SOURCE, gates)
    assert gate_list(circuit) == [
        ("Sx", (2,), ()),
        ("Sxx", (2, 0), ()),
        ("Sxx", (1, 0), ()),
    ]


def test_macro_float_parameter(gates):
    circuit = flat(
        "register q[1]\nmacro rot a t { Rx a t }\nrot q[0] 0.25\n", gates)
    assert gate_list(circuit) == [("Rx", (0,), (0.25,))]


def test_macro_invoking_earlier_macro(gates):
    source = ("register q[2]\n"
              "macro one a { Sx a }\n"
              "macro two a b { one a\none b }\n"
              "two q[0] q[1]\n")
    circuit = flat(source, gates)
    assert [g.qubits for g in iter_gates(circuit)] == [(0,), (1,)]


def test_macro_referential_transparency(gates):
    """Invoking a macro equals inlining its body with arguments
    substituted."""
    rng = random.Random(99)
    bodies = [
        ("Sx {0}\nSy {1}", 2),
        ("Sxx {0} {1}\nPz {0}", 2),
        ("Rx {0} 0.5\nSz {1}\nSxx {1} {0}", 2),
    ]
    for template, nparams in bodies:
        qubits = rng.sample(range(4), k=nparams)
        params = [f"p{i}" for i in range(nparams)]
        args = [f"q[{q}]" for q in qubits]
        with_macro = (f"register q[4]\n"
                      f"macro m {' '.join(params)} "
                      f"{{ {template.format(*params)} }}\n"
                      f"m {' '.join(args)}\n")
        inlined = f"register q[4]\n{template.format(*args)}\n"
        assert gate_list(flat(with_macro, gates)) == \
            gate_list(flat(inlined, gates))


def test_macro_with_parallel_body_lands_parallel(gates):
    source = ("register q[2]\n"
              "macro pair a b < Sx a | Sy b >\n"
              "pair q[0] q[1]\n")
    circuit = flat(source, gates)
    (block,) = circuit.root.items
    assert isinstance(block, FlatBlock) and block.parallel
    assert len(block.items) == 2


# -- aliases and constants ------------------------------------------------------

def test_aliases_resolve_to_absolute_offsets(gates):
    circuit = flat(
        "register q[7]\nmap ancilla q[1:7:2]\nSx ancilla[2]\n", gates)
    assert gate_list(circuit) == [("Sx", (5,), ())]


def test_lets_resolve_to_values(gates):
    circuit = flat(
        "register q[1]\nlet angle 0.75\nRy q[0] angle\n", gates)
    assert gate_list(circuit) == [("Ry", (0,), (0.75,))]


def test_integer_literal_promotes_in_angle_slot(gates):
    circuit = flat("register q[1]\nRx q[0] 2\n", gates)
    assert gate_list(circuit) == [("Rx", (0,), (2,))]


# -- structure -------------------------------------------------------------------

def test_block_alternation_preserved(gates):
    source = ("register q[2]\n"
              "{ Sxx q[0] q[1]; < Sx q[0] | Sy q[1] >; }\n")
    circuit = flat(source, gates)
    # the braces splice into the sequential root; the parallel child stays
    kinds = [type(item).__name__ for item in circuit.root.items]
    assert kinds == ["PrimitiveGate", "FlatBlock"]
    assert circuit.root.items[1].parallel


def test_empty_blocks_vanish(gates):
    circuit = flat("register q[1]\n{ }\n< >\nSx q[0]\n", gates)
    assert len(circuit.root.items) == 1


def test_expansion_is_deterministic_and_idempotent(gates):
    source = MACRO_SOURCE
    program, _ = parse(source)
    first = expand(program, gates)
    second = expand(program, gates)
    assert first == second
    # re-encode the flat circuit as a plain program and expand again
    lines = ["register q[3]"]
    for gate in iter_gates(first):
        args = [f"q[{q}]" for q in gate.qubits]
        args += [repr(f) for f in gate.float_args]
        lines.append(" ".join([gate.name, *args]))
    reencoded, diags = parse("\n".join(lines) + "\n")
    assert not has_errors(diags)
    assert gate_list(expand(reencoded, gates)) == gate_list(first)


def test_worked_output_example_has_twelve_primitives(gates):
    source = ("register q[2]\n"
              "loop 2 { prepare_all\nPx q[0]\nmeasure_all }\n"
              "loop 2 { prepare_all\nPx q[1]\nmeasure_all }\n")
    circuit = flat(source, gates)
    assert count_primitive_gates(circuit) == 12


def test_expand_requires_clean_analysis(gates):
    program, _ = parse("register q[1]\nQz q[0]\n")
    with pytest.raises(JaqalError):
        expand(program, gates)


def test_expand_walks_and_resolves_nothing(gates, monkeypatch):
    """Analysis built the circuit; ``expand`` hands it over."""
    program, diags = parse("register q[2]\nlet x 0.5\n"
                           "macro m a t { Rz a t; Sxx a q[1] }\n"
                           "loop 2 { m q[0] x }\n< Sx q[0] | Sy q[1] >\n")
    assert not has_errors(diags)
    symbols, sem = analyze(program, gates)
    assert not has_errors(sem)

    def walk(*args, **kwargs):
        raise JaqalError("expand walked the syntax tree")

    monkeypatch.setattr(analyzer, "resolve_qubit", walk)
    monkeypatch.setattr(analyzer, "_number", walk)
    monkeypatch.setattr(_Analyzer, "check_block", walk)
    assert dump_flat(expand(program, gates, symbols)) == (
        "Rz 0 0.5\nSxx 0 1\n" * 2 + "<\n    Sx 0\n    Sy 1\n>\n")


def test_equal_numbers_keep_their_own_forms_through_nested_macros(gates):
    """1, 1.0, -0.0 and 0.0 are equal under ``==`` but print apart, so the
    checks, keyed on qubits alone, never merge them; neither does a let."""
    invocations = "".join(f"outer q[0] {form}\n" for form in NUMBER_FORMS)
    source = ("register q[1]\nlet one 1\nmacro inner a t { Rz a t }\n"
              "macro outer a t { inner a t; inner a one }\n" + invocations)
    assert dump_flat(flat(source, gates)) == "".join(
        f"Rz 0 {form}\nRz 0 1\n" for form in NUMBER_FORMS)


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       generator=st.sampled_from([random_program, bound_macro_program,
                                  number_macro_program]))
def test_analysis_builds_the_circuit_the_reference_expands(gates, seed,
                                                           generator):
    """On every accepted program the circuit analysis builds equals the
    one the syntax-tree walk of ``helpers.expand_reference`` builds, and
    dumps the same text, which tells 1 from 1.0 and -0.0 from 0.0."""
    source = generator(random.Random(seed))
    program, diags = parse(source)
    assert not has_errors(diags), diags
    symbols, sem = analyze(program, gates)
    if has_errors(sem):  # only bound_macro_program makes conflicts
        assert generator is bound_macro_program and symbols.circuit is None
        return
    circuit = expand(program, gates, symbols)
    reference = expand_reference(program, gates, symbols)
    assert circuit == reference, source
    assert dump_flat(circuit) == dump_flat(reference), source


# -- post-substitution conflicts ----------------------------------------------------

def analysis_of(source, gates):
    program, diags = parse(source)
    assert not has_errors(diags)
    symbols, sem = analyze(program, gates)
    return program, symbols, [str(d) for d in sem]


def test_macro_substitution_can_create_duplicate_qubit(gates):
    source = ("register q[2]\n"
              "macro m a b { Sxx a b }\n"
              "m q[0] q[0]\n")
    _, _, sem = analysis_of(source, gates)
    assert sem == ["3:1: duplicate-qubit: Sxx uses the same qubit twice"]


def test_macro_substitution_can_create_parallel_conflict(gates):
    source = ("register q[2]\n"
              "macro m a { Sx a }\n"
              "< m q[0] | Sy q[0] >\n")
    _, _, sem = analysis_of(source, gates)
    assert sem == ["3:12: parallel-conflict: qubit offset 0 is used by two "
                   "statements in the same parallel block"]


def test_parallel_conflict_comes_before_a_duplicate_inside_it(gates):
    """Analysis reports both violations where they are, the duplicate at
    the invocation first; the flat reference reports the parallel block's
    own violation, not the duplicate inside the macro body that comes later
    in a pre-order walk."""
    source = ("register q[2]\n"
              "macro d a b { I_Sxx a b }\n"
              "< d q[0] q[0] | Sz q[0] >\n")
    program, symbols, sem = analysis_of(source, gates)
    assert sem == ["3:3: duplicate-qubit: I_Sxx uses the same qubit twice",
                   "3:17: parallel-conflict: qubit offset 0 is used by two "
                   "statements in the same parallel block"]
    with pytest.raises(JaqalError) as err:
        check_flat_conflicts(expand_reference(program, gates, symbols))
    assert err.value.code == "parallel-conflict"


def test_entangler_hidden_in_macro_caught_at_analysis(gates):
    source = ("register q[3]\n"
              "macro m a b { Sxx a b }\n"
              "< m q[0] q[1] | Sz q[2] >\n")
    program, diags = parse(source)
    assert not has_errors(diags)
    _, sem = analyze(program, gates)
    assert "ms-in-parallel" in {d.code for d in sem}


def test_flat_recheck_catches_entangler_with_company(gates):
    from jaqalc.expander import FlatCircuit

    sxx = PrimitiveGate(gates["Sxx"], (0, 1))
    sz = PrimitiveGate(gates["Sz"], (2,))
    circuit = FlatCircuit(3, FlatBlock(False, (
        FlatBlock(True, (sxx, sz)),
    )))
    with pytest.raises(JaqalError) as err:
        check_flat_conflicts(circuit)
    assert err.value.code == "ms-in-parallel"


# -- dump ---------------------------------------------------------------------

def test_flat_dump_lines(gates):
    circuit = flat(MACRO_SOURCE, gates)
    assert dump_flat(circuit) == "Sx 2\nSxx 2 0\nSxx 1 0\n"


def test_flat_dump_marks_blocks(gates):
    circuit = flat("register q[2]\n< Sx q[0] | Rz q[1] 0.5 >\n", gates)
    assert dump_flat(circuit) == "<\n    Sx 0\n    Rz 1 0.5\n>\n"


def test_flat_dump_indents_one_gate_object_at_each_depth(gates):
    """The dump keeps a gate object's line per indent, so an object met
    inside a block and again outside it is printed at each depth."""
    sx = PrimitiveGate(gates["Sx"], (0,))
    root = FlatBlock(False, (sx, FlatBlock(True, (sx,)), FlatLoop(2, (sx,))))
    assert dump_flat(FlatCircuit(1, root)) == (
        "Sx 0\n<\n    Sx 0\n>\nSx 0\nSx 0\n")


def test_flat_dump_empty_program(gates):
    assert dump_flat(flat("register q[1]\n", gates)) == ""


def test_flat_dump_repeats_a_loop_body_inside_a_parallel_block(gates):
    source = ("register q[2]\n"
              "macro m a { loop 2 { Sx a\nRz a 0.5 } }\n"
              "< m q[0] | Sz q[1] >\n")
    body = "        Sx 0\n        Rz 0 0.5\n"
    assert dump_flat(flat(source, gates)) == (
        "<\n    {\n" + body * 2 + "    }\n    Sz 1\n>\n")


def test_flat_dump_repeats_indented_brackets_inside_a_loop(gates):
    source = ("register q[2]\n"
              "loop 2 { < Sx q[0] | { Sy q[1]; Sz q[1] } >; "
              "loop 3 { Sxx q[0] q[1] } }\n")
    body = ("<\n    Sx 0\n    {\n        Sy 1\n        Sz 1\n    }\n>\n"
            + "Sxx 0 1\n" * 3)
    assert dump_flat(flat(source, gates)) == body * 2


def test_a_top_level_loop_is_written_in_blocks_of_its_body(gates):
    """``expand`` writes the chunks as they come, each at most 64 KiB and
    none that would fit with the next: a loop's body text is repeated in
    blocks, so memory stays bounded by one body however often it runs."""
    source = ("register q[2]\nSx q[0]\nSy q[1]\n"
              "loop 100000 { < Sx q[0] | Sz q[1] >; loop 3 { Sy q[0] } }\n"
              "Sz q[0]\nloop 2 { Sx q[1] }\n")
    body = "<\n    Sx 0\n    Sz 1\n>\n" + "Sy 0\n" * 3
    chunks = list(flat_chunks(flat(source, gates)))
    assert "".join(chunks) == ("Sx 0\nSy 1\n" + body * 100000 + "Sz 0\n"
                               + "Sx 1\n" * 2)
    assert chunks[0] == "Sx 0\nSy 1\n"
    assert max(map(len, chunks)) <= 1 << 16
    assert all(len(a) + len(b) > 1 << 16 for a, b in zip(chunks, chunks[1:]))


def test_a_loop_body_renders_once_if_short_and_streams_if_long(
        gates, monkeypatch):
    """A loop body is rendered once and repeated in blocks, unless loops
    in it make it run more than 1024 gates: then it streams per iteration
    as the top level does, so a loop in it is joined once per outer
    iteration, in blocks too, from gate lines formatted once per dump.
    A long body without loops is bounded by the circuit, and is rendered
    once."""
    rendered = []
    text_of = PrimitiveGate.__str__
    monkeypatch.setattr(PrimitiveGate, "__str__",
                        lambda gate: rendered.append(gate.name) or
                        text_of(gate))
    short = flat("register q[2]\nloop 100000 { Sx q[0]; loop 3 { Sy q[1] } "
                 "}\n", gates)
    chunks = list(flat_chunks(short))
    assert_same_text("".join(chunks), ("Sx 0\n" + "Sy 1\n" * 3) * 100000)
    assert sorted(rendered) == ["Sx", "Sy"]
    assert max(map(len, chunks)) <= 1 << 16
    rendered.clear()
    long = flat("register q[2]\nloop 3 { Sy q[1]\nloop 2 { loop 300000 { "
                "Sx q[0] } } }\n", gates)
    chunks = list(flat_chunks(long))
    assert_same_text("".join(chunks), ("Sy 1\n" + "Sx 0\n" * 600000) * 3)
    assert sorted(rendered) == ["Sx", "Sy"]
    assert max(map(len, chunks)) <= 1 << 16
    rendered.clear()
    plain = flat("register q[1]\nloop 3 {" + " Sx q[0];" * 1100 + " }\n",
                 gates)
    assert_same_text(dump_flat(plain), "Sx 0\n" * 3300)
    assert len(rendered) == 1100


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), small=st.booleans(),
       hold=st.sampled_from([1, 3, 8, 4096]),
       kept=st.sampled_from([1, 2, 4096]))
def test_the_streamed_dump_equals_the_reference(gates, seed, small, hold,
                                                kept):
    """Loops in macros invoked inside parallel and sequential blocks, at
    every depth: the chunks join to the text rendered one string per block,
    and no two neighbouring chunks would fit in one.  A small
    ``HOLD_GATES`` sends most loops down the per-iteration walk, a small
    ``CHUNK_BYTES`` splits the text into many chunks, and a small
    ``LINES_KEPT`` restarts the memo of gate lines often."""
    circuit = flat(loop_block_program(random.Random(seed)), gates)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "HOLD_GATES", hold)
        patch.setattr(expander, "LINES_KEPT", kept)
        if small:
            patch.setattr(expander, "CHUNK_BYTES", 64)
        chunks = list(flat_chunks(circuit))
        assert all(len(a) + len(b) > expander.CHUNK_BYTES
                   for a, b in zip(chunks, chunks[1:]))
    text, reference = "".join(chunks), flat_text_reference(circuit)
    at = len(os.path.commonprefix([text, reference]))  # diffing is slow
    assert text[at:at + 100] == reference[at:at + 100], text[:at][-100:]


# -- cross-module equivalence ---------------------------------------------------

def test_simulation_matches_ast_oracle_on_random_programs(gates):
    rng = random.Random(7)
    for _ in range(25):
        source = random_program(rng)
        program, diags = parse(source)
        assert not has_errors(diags), source
        circuit = expand(program, gates)
        mine = probabilities(circuit, gates)
        reference = interpret_probabilities(program)
        assert len(mine) == len(reference)
        for d, o in zip(mine, reference):
            keys = set(d) | set(o)
            tvd = 0.5 * sum(abs(d.get(k, 0.0) - o.get(k, 0.0)) for k in keys)
            assert tvd <= 1e-9, source


# -- loops against their unrolled twin ----------------------------------------

def _in_a_parallel_block(source: str) -> str:
    """``source`` with its gates moved into a macro that runs, between one
    prepare_all and measure_all, in a parallel block; the block gives the
    macro an extra qubit's company unless the body holds an entangler,
    which may have none."""
    header, *lines = source.splitlines()
    n = int(header[len("register q["):-1])
    lets = [line for line in lines if line.startswith("let ")]
    body = [line for line in lines if line and line not in lets
            and line not in ("prepare_all", "measure_all")]
    company = ("" if re.search(r"\b(Sxx|MS)\b", source)
               else f" | Sz q[{n}]")
    return "\n".join([f"register q[{n + 1}]", *lets, "macro m {", *body,
                      "}", "loop 2 {", "prepare_all", f"< m{company} >",
                      "measure_all", "}"]) + "\n"


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), wrap=st.booleans())
def test_loops_behave_as_their_unrolled_copies(gates, seed, wrap):
    rng = random.Random(seed)
    source = random_program(rng)
    if wrap:
        source = _in_a_parallel_block(source)
    circuit = flat(source, gates)
    twin = unroll(circuit)
    assert dump_flat(circuit) == dump_flat(twin)
    timeline, twin_timeline = schedule(circuit, gates), schedule(twin, gates)
    assert dump_timeline(timeline) == dump_timeline(twin_timeline)
    assert timeline.total_duration == twin_timeline.total_duration \
        == total_duration(circuit, gates)
    run_seed = rng.randrange(2 ** 64)
    assert run(circuit, gates, seed=run_seed) == \
        run(twin, gates, seed=run_seed)
    assert probabilities(circuit, gates) == probabilities(twin, gates)
    assert count_primitive_gates(circuit) == len(list(iter_gates(circuit)))
