import random
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaqalc import analyzer
from jaqalc.analyzer import (
    ArrayView,
    SingleView,
    _Analyzer,
    analyze,
    resolve_qubit,
)
from jaqalc.ast import (
    MAX_NESTING,
    FloatLiteral,
    GateBlock,
    GateStatement,
    IntLiteral,
    LoopStatement,
    MacroDef,
    NameRef,
    Program,
    QubitRef,
    RegisterDecl,
)
from jaqalc.diagnostics import has_errors
from jaqalc.errors import JaqalError
from jaqalc.expander import count_primitive_gates, expand
from jaqalc.parser import parse
from helpers import check_flat_conflicts, expand_reference
from program_gen import bound_macro_program, macro_chain, random_program


def analyzed(source, gates):
    program, diags = parse(source)
    assert not has_errors(diags), diags
    return analyze(program, gates)


def codes(source, gates):
    _, diags = analyzed(source, gates)
    return {d.code for d in diags}


def accept(source, gates):
    table, diags = analyzed(source, gates)
    assert not has_errors(diags), diags
    return table


# -- alias resolution ------------------------------------------------------------

def test_slice_alias_materializes_odd_qubits(gates):
    table = accept("register q[7]\nmap ancilla q[1:7:2]\n", gates)
    view = table.names["ancilla"]
    assert view.offsets() == [1, 3, 5]
    for i, expected in enumerate([1, 3, 5]):
        ref = QubitRef("ancilla", IntLiteral(i))
        assert resolve_qubit(ref, table) == expected


def test_whole_register_alias(gates):
    table = accept("register q[3]\nmap qubits q\n", gates)
    assert resolve_qubit(QubitRef("qubits", IntLiteral(2)), table) == 2


def test_single_qubit_alias(gates):
    table = accept("register q[3]\nmap ancilla q[0]\n", gates)
    assert table.names["ancilla"] == SingleView(0)
    assert resolve_qubit(NameRef("ancilla"), table) == 0


def test_chained_slices_compose(gates):
    table = accept("register q[7]\nmap a q[1:7:2]\nmap b a[1:3]\n", gates)
    assert resolve_qubit(QubitRef("b", IntLiteral(0)), table) == 3
    assert table.names["b"].offsets() == [3, 5]


def test_negative_slice_components(gates):
    table = accept("register q[5]\nmap tail q[-2:]\n", gates)
    assert table.names["tail"].offsets() == [3, 4]


def test_negative_map_index_counts_from_end(gates):
    table = accept("register q[5]\nmap last q[-1]\n", gates)
    assert table.names["last"] == SingleView(4)


def test_empty_alias_is_a_warning_not_error(gates):
    table, diags = analyzed("register q[3]\nmap none q[2:1]\n", gates)
    assert not has_errors(diags)
    assert {d.code for d in diags} == {"empty-alias"}


def test_let_in_register_size_and_slice(gates):
    table = accept("let n 6\nregister q[n]\nmap half q[0:n:2]\n", gates)
    assert table.register.size == 6
    assert table.names["half"].offsets() == [0, 2, 4]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_slice_composition_matches_list_oracle(data):
    """Affine view composition agrees with brute-force Python list slicing
    for chains up to three selectors deep."""
    size = data.draw(st.integers(min_value=1, max_value=16))
    depth = data.draw(st.integers(min_value=1, max_value=3))
    component = st.one_of(st.none(),
                          st.integers(min_value=-2 * size, max_value=2 * size))
    view = ArrayView(0, 1, size)
    reference = list(range(size))
    for _ in range(depth):
        start = data.draw(component)
        stop = data.draw(component)
        step = data.draw(st.one_of(
            st.none(),
            st.integers(min_value=-size, max_value=size).filter(lambda v: v)))
        reference = reference[slice(start, stop, step)]
        i0, i1, istep = slice(start, stop, step).indices(view.length)
        view = ArrayView(view.offset(i0), view.step * istep,
                         len(range(i0, i1, istep)))
    assert view.offsets() == reference


def test_resolve_qubit_error_codes(gates):
    table = accept("register q[3]\nmap one q[0]\nlet n 2\n", gates)
    with pytest.raises(JaqalError) as err:
        resolve_qubit(QubitRef("nope", IntLiteral(0)), table)
    assert err.value.code == "undefined-name"
    with pytest.raises(JaqalError) as err:
        resolve_qubit(NameRef("q"), table)
    assert err.value.code == "bad-index"
    with pytest.raises(JaqalError) as err:
        resolve_qubit(QubitRef("one", IntLiteral(0)), table)
    assert err.value.code == "bad-index"
    with pytest.raises(JaqalError) as err:
        resolve_qubit(QubitRef("q", IntLiteral(3)), table)
    assert err.value.code == "index-out-of-bounds"
    with pytest.raises(JaqalError) as err:
        resolve_qubit(NameRef("n"), table)
    assert err.value.code == "type-mismatch"
    # a macro parameter takes no index and cannot be one
    with pytest.raises(JaqalError) as err:
        resolve_qubit(QubitRef("a", IntLiteral(0)), table, params=("a",))
    assert err.value.code == "bad-index"
    with pytest.raises(JaqalError) as err:
        resolve_qubit(QubitRef("q", NameRef("a")), table, params=("a",))
    assert err.value.code == "type-mismatch"


# -- hand-built trees ------------------------------------------------------------
# The parser rejects these shapes itself; analysis must still report them,
# and never raise.

SX = GateStatement("Sx", (QubitRef("q", IntLiteral(0)),))


@pytest.mark.parametrize("body, expected", [
    ((GateBlock(False, (MacroDef("m", ("a",), GateBlock(False, (
        GateStatement("Sx", (NameRef("a"),)),))),)),),
     "macro-in-block: macro definitions are not allowed inside gate "
     "blocks"),
    ((GateBlock(False, (GateBlock(False, (SX,)),)),),
     "same-kind-nesting: a sequential block cannot be nested directly "
     "inside another sequential block"),
    ((GateStatement("Rx", (QubitRef("q", IntLiteral(0)), QubitRef("q"))),),
     "type-mismatch: expected a number, got qubit q"),
    ((LoopStatement(FloatLiteral(1.5), GateBlock(False, (SX,))),),
     "type-mismatch: loop count requires an integer, but 1.5 is a float "
     "literal"),
], ids=["macro-in-block", "same-kind-nesting", "bare-qubit-angle",
        "float-literal-loop-count"])
def test_hand_built_trees_get_diagnostics(gates, body, expected):
    program = Program((RegisterDecl("q", IntLiteral(2)),), body)
    _, diags = analyze(program, gates)
    assert [str(d) for d in diags] == [f"0:0: {expected}"]


# -- per-rule diagnostics ----------------------------------------------------------

def test_second_register_rejected(gates):
    assert "duplicate-register" in codes(
        "register q[2]\nregister r[2]\nSx q[0]\n", gates)


def test_no_register_rejected_when_gates_run(gates):
    assert "no-register" in codes("prepare_all\nmeasure_all\n", gates)


def test_header_only_program_needs_no_register(gates):
    table, diags = analyzed("let total_count 4\nlet rotations 1.5\n", gates)
    assert not has_errors(diags)


def test_register_size_must_be_positive(gates):
    assert "bad-register-size" in codes("register q[0]\n", gates)
    assert "bad-register-size" in codes("register q[-3]\n", gates)


def test_register_size_requires_integer_constant(gates):
    assert "type-mismatch" in codes("let f 1.5\nregister q[f]\n", gates)


def test_unknown_gate(gates):
    assert "unknown-gate" in codes("register q[1]\nQz q[0]\n", gates)


def test_arity_mismatch(gates):
    assert "arity-mismatch" in codes("register q[2]\nSx q[0] q[1]\n", gates)


def test_qubit_where_number_expected(gates):
    assert "type-mismatch" in codes("register q[2]\nRx q[0] q[1]\n", gates)


def test_number_where_qubit_expected(gates):
    assert "type-mismatch" in codes("register q[2]\nSx 3\n", gates)


def test_let_cannot_be_a_qubit(gates):
    assert "type-mismatch" in codes(
        "register q[2]\nlet n 1\nSx n\n", gates)


def test_int_let_is_fine_as_angle(gates):
    accept("register q[1]\nlet turns 2\nRx q[0] turns\n", gates)


HUGE = "1" + "0" * 400  # an integer no float can hold


@pytest.mark.parametrize("source, line", [
    (f"register q[1]\nRx q[0] {HUGE}\n", 2),
    (f"register q[1]\nlet big {HUGE}\nRx q[0] big\n", 3),
    (f"register q[1]\nmacro m a {{ Rx q[0] a }}\nm {HUGE}\n", 3),
    (f"register q[2]\nMS q[0] q[1] 0 {HUGE}\n", 2),
])
def test_integer_angle_too_large_for_a_float_is_a_bad_number(
        source, line, gates):
    _, diags = analyzed(source, gates)
    assert [(d.code, d.line, d.column) for d in diags] == [
        ("bad-number", line, 1)]


def test_large_finite_integer_angle_is_fine(gates):
    accept(f"register q[1]\nlet big {10 ** 300}\nRx q[0] big\n"
           f"Ry q[0] {2 ** 1023}\n", gates)


def test_huge_integer_is_fine_outside_angle_slots(gates):
    # an unused macro parameter is never converted to a float
    accept(f"register q[1]\nlet big {HUGE}\nmacro m a {{ Sx q[0] }}\n"
           f"m {HUGE}\nm big\n", gates)


RESOLVER_HEADER = ("register q[2]\nmap one q[0]\nmap arr q\nlet n 1\n"
                   "let f 1.5\nmacro m a { Sx a }\n")
# every kind of name: what the namespace holds, a parameter, and nothing
RESOLVER_NAMES = {"register": "q", "single alias": "one", "array alias": "arr",
                  "int let": "n", "float let": "f", "macro": "m",
                  "parameter": "p", "undeclared": "nope"}
RESOLVER_SLOTS = {"loop count": "loop {} {{ Sx q[0] }}",
                  "qubit index": "Sx q[{}]",
                  "angle": "Rx q[0] {}",
                  "indexed qubit": "Sx {}[0]",
                  "bare qubit": "Sx {}",
                  "indexed angle": "Rx q[1] {}[0]"}
NOT_NUMERIC = ("type-mismatch", "'{}' is not a numeric constant")
NOT_DECLARED = ("undefined-name", "'{}' is not declared")
AS_CONSTANT = ("type-mismatch", "'{}' is a constant and cannot be a qubit "
               "argument")
NOT_ARRAY = ("type-mismatch", "'{}' is not a qubit array")
NEEDS_INDEX = ("bad-index", "'{}' is an array and needs an index")
# an indexed reference is a qubit whatever its name is
GOT_QUBIT = ("type-mismatch", "expected a number, got qubit {}[0]")
RESOLVER_EXPECTED = {
    "register": [NOT_NUMERIC, NOT_NUMERIC, NOT_NUMERIC, None, NEEDS_INDEX],
    "single alias": [
        NOT_NUMERIC, NOT_NUMERIC, NOT_NUMERIC,
        ("bad-index", "'{}' is a single qubit and takes no index"), None],
    "array alias": [NOT_NUMERIC, NOT_NUMERIC, NOT_NUMERIC, None, NEEDS_INDEX],
    "int let": [None, None, None, NOT_ARRAY, AS_CONSTANT],
    "float let": [
        ("type-mismatch",
         "loop count requires an integer, but '{}' is a float constant"),
        ("type-mismatch",
         "qubit index requires an integer, but '{}' is a float constant"),
        None, NOT_ARRAY, AS_CONSTANT],
    "macro": [NOT_NUMERIC, NOT_NUMERIC, NOT_NUMERIC, NOT_ARRAY,
              ("type-mismatch", "'{}' is a macro, not a qubit")],
    "parameter": [
        ("type-mismatch",
         "macro parameter '{}' cannot be used as loop count"),
        ("type-mismatch",
         "macro parameter '{}' cannot be used as qubit index"),
        None,
        ("bad-index", "macro parameter '{}' is a single qubit and takes no "
         "index"),
        None],
    "undeclared": [NOT_DECLARED] * 5,
}


@pytest.mark.parametrize("kind, slot, expected", [
    (kind, slot, expected)
    for kind, row in RESOLVER_EXPECTED.items()
    for slot, expected in zip(RESOLVER_SLOTS, row + [GOT_QUBIT])
])
def test_resolver_messages_for_every_kind_of_name_in_every_slot(
        gates, kind, slot, expected):
    """Each kind of name in each slot gets one diagnostic, pinned by code,
    position and message, or none where it fits.  A parameter's statement
    sits in its macro's body."""
    name = RESOLVER_NAMES[kind]
    statement = RESOLVER_SLOTS[slot].format(name)
    column = 1
    if kind == "parameter":
        statement = f"macro k p {{ {statement} }}"
        column = 13
    _, diags = analyzed(RESOLVER_HEADER + statement + "\n", gates)
    got = [(d.code, f"{d.line}:{d.column}", d.message) for d in diags]
    if expected is None:
        assert got == []
    else:
        code, message = expected
        assert got == [(code, f"7:{column}", message.format(name))]


def test_register_without_a_valid_size_is_reported_only_at_the_register(
        gates):
    table, diags = analyzed("register q[0]\nSx q[0]\n", gates)
    assert [str(d) for d in diags] == [
        "1:1: bad-register-size: register size must be positive, got 0"]
    with pytest.raises(JaqalError) as err:
        resolve_qubit(QubitRef("q", IntLiteral(0)), table)
    assert (err.value.code, str(err.value)) == (
        "bad-register-size", "register 'q' has no valid size")


def test_macro_used_as_a_qubit_is_a_type_mismatch(gates):
    _, diags = analyzed(
        "register q[1]\nmacro m a { Sx a }\nSx m\nm m\n", gates)
    assert [(d.code, d.line, d.message) for d in diags] == [
        ("type-mismatch", 3, "'m' is a macro, not a qubit"),
        ("type-mismatch", 4, "'m' is a macro, not a qubit")]
    table = analyzed("register q[1]\nmacro m a { Sx a }\n", gates)[0]
    with pytest.raises(JaqalError) as err:
        resolve_qubit(NameRef("m"), table)
    assert err.value.code == "type-mismatch"


def test_float_let_rejected_as_loop_count(gates):
    assert "type-mismatch" in codes(
        "register q[1]\nlet f 1.5\nloop f { Sx q[0] }\n", gates)


def test_negative_loop_count_rejected(gates):
    assert "bad-loop-count" in codes(
        "register q[1]\nloop -1 { Sx q[0] }\n", gates)


def test_gate_index_out_of_bounds(gates):
    assert "index-out-of-bounds" in codes("register q[2]\nSx q[5]\n", gates)


def test_negative_gate_index_rejected(gates):
    assert "index-out-of-bounds" in codes("register q[2]\nSx q[-1]\n", gates)


def test_undefined_qubit_base(gates):
    assert "undefined-name" in codes("register q[2]\nSx r[0]\n", gates)


def test_missing_index_on_array(gates):
    assert "bad-index" in codes("register q[2]\nSx q\n", gates)


def test_duplicate_qubit_in_one_gate(gates):
    assert "duplicate-qubit" in codes(
        "register q[2]\nSxx q[0] q[0]\n", gates)


def test_duplicate_names_across_namespaces(gates):
    assert "duplicate-name" in codes(
        "register q[2]\nlet q 3\n", gates)
    assert "duplicate-name" in codes(
        "register q[2]\nmap a q[0]\nmap a q[1]\n", gates)


def test_macro_cannot_shadow_native_gate(gates):
    assert "duplicate-name" in codes(
        "register q[1]\nmacro Sx a { Sy a }\n", gates)


def test_recursive_macro_rejected(gates):
    assert "recursive-macro" in codes(
        "register q[1]\nmacro spin a { Sx a\nspin a }\nspin q[0]\n", gates)


def test_forward_macro_reference_rejected(gates):
    source = ("register q[1]\n"
              "macro first a { second a }\n"
              "macro second a { Sx a }\n"
              "first q[0]\n")
    assert "forward-macro-reference" in codes(source, gates)


@pytest.mark.parametrize("alternate", [False, True])
def test_macro_chain_up_to_the_nesting_limit_is_accepted(gates, alternate):
    accept(macro_chain(MAX_NESTING, alternate)
           + f"m{MAX_NESTING - 1} q[0]\n", gates)


@pytest.mark.parametrize("alternate", [False, True])
def test_macro_chain_past_the_nesting_limit_is_reported_once(gates,
                                                             alternate):
    length = MAX_NESTING + 50
    _, diags = analyzed(macro_chain(length, alternate)
                        + f"m{length - 1} q[0]\n", gates)
    (diag,) = diags
    # m200's body invokes m199, whose body nests 200 blocks: 201 in all
    assert (diag.code, diag.line, diag.column) == (
        "nesting-too-deep", MAX_NESTING + 2, 16)
    assert diag.message == (f"macro 'm{MAX_NESTING - 1}' nests blocks "
                            f"{MAX_NESTING + 1} deep here, more than "
                            f"{MAX_NESTING}")


def test_invocation_depth_adds_the_enclosing_blocks(gates):
    length = MAX_NESTING - 2  # the last macro nests MAX_NESTING - 2 blocks
    chain = macro_chain(length)
    last = f"m{length - 1} q[0]"
    assert "nesting-too-deep" not in codes(chain + f"{{ < {last} > }}\n",
                                           gates)
    _, diags = analyzed(chain + f"{{ < {{ {last} }} > }}\n", gates)
    (diag,) = diags
    assert (diag.code, diag.line, diag.column) == (
        "nesting-too-deep", length + 2, 7)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), cap=st.integers(0, 70),
       as_macro=st.booleans())
def test_too_many_gates_exactly_when_the_expansion_passes_the_cap(
        gates, seed, cap, as_macro):
    """The analyzer's algebraic count equals the expanded count: loops
    multiply their body, and a macro's body counts at each invocation."""
    source = random_program(random.Random(seed), max_qubits=3)
    if as_macro:
        headers, _, body = source.partition("\n\n")
        source = (f"{headers}\nmacro whole {{\n{body}}}\n"
                  "whole\nloop 2 { whole }\n")
    program, diags = parse(source)
    assert not has_errors(diags), diags
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "MAX_GATES", cap)
        table, diags = analyze(program, gates)
    over = count_primitive_gates(expand_reference(program, gates, table)) > cap
    assert [d.code for d in diags] == (["too-many-gates"] if over else [])


def test_too_many_gates_is_reported_once_where_the_total_passes(gates):
    source = ("register q[1]\nmacro m a { loop 2 { Sx a } }\nSx q[0]\n"
              "loop 3 { m q[0] }\nm q[0]\nloop 1000000000000 { m q[0] }\n")
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(analyzer, "MAX_GATES", 8)
        _, diags = analyzed(source, gates)
    # 1 gate, then 7, then 9: the third statement passes 8
    assert [str(d) for d in diags] == [
        "5:1: too-many-gates: the program expands to more than 8 primitive "
        "gates by the end of this statement"]


def test_macro_param_used_as_qubit_and_number(gates):
    assert "type-mismatch" in codes(
        "register q[1]\nmacro m a { Sx a\nRx q[0] a }\n", gates)


def test_macro_param_cannot_be_loop_count(gates):
    assert "type-mismatch" in codes(
        "register q[1]\nmacro m a { loop a { Sx q[0] } }\n", gates)


def test_macro_param_shadowing_global_rejected(gates):
    assert "duplicate-name" in codes(
        "register q[2]\nmap a q[0]\nmacro m a { Sx a }\n", gates)


def test_macro_arity_checked_at_invocation(gates):
    assert "arity-mismatch" in codes(
        "register q[2]\nmacro m a { Sx a }\nm q[0] q[1]\n", gates)


def test_parallel_conflict_on_shared_qubit(gates):
    assert "parallel-conflict" in codes(
        "register q[1]\n< Sx q[0] | Sy q[0] >\n", gates)


def test_parallel_conflict_through_nested_block(gates):
    assert "parallel-conflict" in codes(
        "register q[2]\n< Px q[0] | { Sx q[1]; Sy q[0] } >\n", gates)


def test_disjoint_parallel_is_fine(gates):
    accept("register q[2]\n< Px q[0] | { Sx q[1] ; Sy q[1] } >\n", gates)


def test_entangler_needs_parallel_exclusivity(gates):
    assert "ms-in-parallel" in codes(
        "register q[3]\n< Sxx q[0] q[1] | Sz q[2] >\n", gates)
    accept("register q[2]\n< Sxx q[0] q[1] >\n", gates)


def test_global_gates_not_in_parallel(gates):
    assert "global-gate-in-parallel" in codes(
        "register q[2]\n< prepare_all | Sx q[0] >\n", gates)
    assert "global-gate-in-parallel" in codes(
        "register q[2]\n< { measure_all } >\n", gates)


def test_all_qubit_gate_shares_every_qubit_with_its_siblings(gates):
    _, diags = analyzed(
        "register q[4]\n"
        "< Sx q[1] | prepare_all | { Sy q[0]; Sz q[2] } | measure_all >\n",
        gates)
    conflicts = [(d.column, d.message.split()[2]) for d in diags
                 if d.code == "parallel-conflict"]
    # each sibling is charged with every offset an earlier one occupies
    assert conflicts == [(13, "1"), (27, "0"), (27, "2"),
                         (50, "0"), (50, "1"), (50, "2"), (50, "3")]


def test_macro_with_global_gate_flagged_in_parallel(gates):
    source = ("register q[2]\n"
              "macro m { prepare_all }\n"
              "< m | Sx q[0] >\n")
    assert "global-gate-in-parallel" in codes(source, gates)


def test_analysis_is_deterministic(gates):
    source = "register q[1]\nQz q[0]\nSx q[5]\nloop -2 { Sx q[0] }\n"
    program, _ = parse(source)
    _, first = analyze(program, gates)
    _, second = analyze(program, gates)
    assert first == second


def test_paper_style_listings_pass(gates):
    accept("register q[3]\nmap ancilla q[1]\nSxx q[0] ancilla\n", gates)
    accept("register q[7]\nmap ancilla q[1:7:2]\n", gates)
    accept("register q[2]\n< Sx q[0] | Sy q[1] >\n", gates)
    accept("register q[2]\nloop 7 { Sx q[0]\nSz q[1]\nSxx q[0] q[1] }\n",
           gates)


# -- exclusivity through macro arguments ---------------------------------------

EXCLUSIVITY = {"duplicate-qubit", "parallel-conflict", "ms-in-parallel"}


def verdicts(source, gates):
    """Analysis's error codes and the flat reference's first violation
    (None if it accepts) on the expansion of the same program."""
    program, diags = parse(source)
    assert not has_errors(diags), diags
    symbols, sem = analyze(program, gates)
    try:
        check_flat_conflicts(expand_reference(program, gates, symbols))
    except JaqalError as exc:
        return {d.code for d in sem if d.severity == "error"}, exc
    return {d.code for d in sem if d.severity == "error"}, None


@settings(max_examples=600, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), register=st.booleans())
def test_analysis_rejects_exactly_what_the_flat_reference_rejects(
        gates, seed, register):
    """Analysis decides exclusivity alone: it reports an exclusivity error
    exactly when the expanded circuit breaks the rules, and its codes
    include the one the flat reference reports first.  With ``register``,
    bodies name register qubits too, and pass them on beside parameters,
    so a pair a macro hands its caller may hold two offsets."""
    source = bound_macro_program(random.Random(seed), register=register)
    found, reference = verdicts(source, gates)
    assert found <= EXCLUSIVITY, source
    assert bool(found) == (reference is not None), (source, found)
    if reference is not None:
        assert reference.code in found, (source, found, reference.code)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_each_invocation_is_rejected_exactly_when_its_expansion_is(gates,
                                                                    seed):
    """Top-level statements are checked apart, so each is rejected exactly
    when the flat reference rejects the program of it alone; one program's
    other conflicts cannot hide a missed one.  Bodies name register qubits
    and pass them on beside parameters, so macros hand their callers pairs
    of two offsets, which meet at every invocation."""
    source = bound_macro_program(random.Random(seed), 5, register=True)
    lines = source.splitlines()
    _, diags = analyzed(source, gates)
    for number, line in enumerate(lines, 1):
        if line.startswith(("macro", "register", "prepare_all",
                            "measure_all")):
            continue
        alone = [text for text in lines if text.startswith(
            ("register", "macro"))] + ["prepare_all", line, "measure_all"]
        _, reference = verdicts("\n".join(alone) + "\n", gates)
        found = {d.code for d in diags if d.line == number}
        assert bool(found) == (reference is not None), (source, line, found)
        assert reference is None or reference.code in found, (source, line)


def test_bound_macro_programs_reach_every_verdict(gates):
    """The generated programs exercise acceptance and each exclusivity
    code, through macro arguments and not only in top-level code."""
    accepted, at_invocations = 0, set()
    for seed in range(300):
        source = bound_macro_program(random.Random(seed))
        accepted += verdicts(source, gates)[1] is None
        lines = source.splitlines()
        _, diags = analyzed(source, gates)
        at_invocations |= {d.code for d in diags
                           if re.search(r"\bm\d ", lines[d.line - 1])}
    assert accepted >= 30
    assert at_invocations == EXCLUSIVITY


@pytest.mark.parametrize("source", [
    # a repeated argument, a permuted one, a conflict with a literal qubit
    "register q[2]\nmacro m a b { Sxx a b }\nm q[1] q[1]\n",
    "register q[2]\nmacro m a b < Sx a | Sy b >\nm q[0] q[0]\n",
    "register q[3]\nmacro m a b < Sx a | Sy q[2] >\nm q[2] q[0]\n",
    # a duplicate inside a parallel block and the block's own violation
    "register q[2]\nmacro m a b c < I_Sxx a b | Sx c | Sy c >\n"
    "m q[0] q[0] q[1]\n",
    # a parallel body inside a parallel block, where expansion splices it
    "register q[2]\nmacro p c d < Sx c | Sy d >\n"
    "macro m a b c d < I_Sxx a b | p c d >\nm q[0] q[0] q[1] q[1]\n",
    # two macros deep, and in a loop
    "register q[2]\nmacro d a b { Sxx a b }\nmacro m a { d a a }\nm q[1]\n",
    "register q[2]\nmacro m a b { loop 3 { < Sx a | Sy b > } }\n"
    "m q[1] q[1]\n",
    # a register qubit passed on beside a parameter, or named in the body
    # of the macro invoked, meets a sibling's; two passed on meet in a gate
    "register q[2]\nmacro d a b { Sx a; Sx b }\n"
    "macro m a < d a q[1] | Sx q[1] >\nm q[0]\n",
    "register q[2]\nmacro d a { Sx a; Sx q[1] }\n"
    "macro m a < d a | Sy q[1] >\nm q[0]\n",
    "register q[2]\nmacro d a b c { Sxx b c; Sx a }\n"
    "macro m a { d a q[1] q[1] }\nm q[0]\n",
], ids=["duplicate", "parallel", "literal", "own-first", "spliced",
        "two-deep", "loop", "passed-offset", "callee-offset",
        "offsets-in-a-gate"])
def test_a_substitution_conflict_is_reported_at_the_invocation(gates,
                                                               source):
    """Each distinct error once, at the one top-level invocation on the
    program's last line, among them the code and message the flat
    reference gives."""
    _, diags = analyzed(source, gates)
    _, reference = verdicts(source, gates)
    line = source.count("\n")
    found = [str(d) for d in diags]
    assert len(set(found)) == len(found)
    assert all(text.startswith(f"{line}:1: ") for text in found), found
    assert f"{line}:1: {reference.code}: {reference}" in found


def test_a_conflict_in_a_definition_is_reported_once(gates):
    """Literal arguments are bound where the macro is defined, so the
    conflict is reported there, and not again where it is invoked."""
    _, diags = analyzed("register q[2]\nmacro d a b { I_Sxx a b }\n"
                        "macro m a { d q[0] q[0]; Sx a }\nm q[0]\nm q[1]\n",
                        gates)
    assert [str(d) for d in diags] == [
        "3:13: duplicate-qubit: I_Sxx uses the same qubit twice"]


def test_each_macro_body_is_checked_once(gates, monkeypatch):
    """A chain whose every macro invokes the one before twice, with its
    arguments swapped the second time, reaches m0 on 2**11 paths; each
    body is still walked once, where it is defined, and an invocation
    walks none.  An angle passed down the chain adds no walk either."""
    levels = 12
    checked = []
    check_block = _Analyzer.check_block

    def counting(self, block, in_parallel, depth, out):
        if depth == 0:
            checked.append(id(block))
        return check_block(self, block, in_parallel, depth, out)

    monkeypatch.setattr(_Analyzer, "check_block", counting)
    for t, m0_body, angles in [("", "Sxx a b", ["", ""]),
                               (" t", "Sxx a b; Rz a t",
                                [" 0.5", " 1", " -0.0"])]:
        lines = ["register q[2]", f"macro m0 a b{t} {{ {m0_body} }}"]
        lines += [f"macro m{k} a b{t} {{ m{k - 1} a b{t}; m{k - 1} b a{t} }}"
                  for k in range(1, levels)]
        lines += [f"m{levels - 1} q[0] q[1]{angle}" for angle in angles]
        program, diags = parse("\n".join(lines) + "\n")
        assert not has_errors(diags)
        checked.clear()
        assert not has_errors(analyze(program, gates)[1])
        assert checked == [id(stmt.body) for stmt in program.body
                           if isinstance(stmt, MacroDef)]


def test_checks_with_bound_qubits_ignore_the_gate_budget(gates,
                                                         monkeypatch):
    """Checking an invocation costs time in proportion to the source, not
    to the gates it runs, so no check waits for the gate budget: a
    conflict in a definition is reported there even when the invocations
    before it run more than ``MAX_GATES`` gates, and an invocation past
    the budget is checked as well as rejected for the program's size."""
    monkeypatch.setattr(analyzer, "MAX_GATES", 4)
    _, diags = analyzed(
        "register q[2]\nmacro m a b { Sxx a b; Sxx a b }\n"
        "macro d1 { m q[0] q[1]; m q[1] q[0] }\nmacro d2 { m q[0] q[0] }\n"
        "d2\nd2\nm q[1] q[1]\n", gates)
    duplicate = "duplicate-qubit: Sxx uses the same qubit twice"
    assert [str(d) for d in diags] == [
        f"4:12: {duplicate}", f"7:1: {duplicate}",
        "7:1: too-many-gates: the program expands to more than 4 primitive "
        "gates by the end of this statement"]


@pytest.mark.parametrize("alternate", [False, True])
def test_a_chain_at_the_nesting_limit_is_analyzed_on_a_deep_stack(
        gates, alternate):
    """Analysis walks each macro body once, where it is defined, and an
    invocation walks no body, so analysis of an invocation at the nesting
    limit leaves room for a caller already deep in the stack."""
    program, diags = parse(macro_chain(MAX_NESTING, alternate)
                           + f"m{MAX_NESTING - 1} q[0]\n")
    assert not has_errors(diags)
    frames = 0
    frame = sys._getframe()
    while frame is not None:
        frames, frame = frames + 1, frame.f_back

    def at_depth(n):
        return analyze(program, gates) if n == 0 else at_depth(n - 1)

    # 700 frames stay free; a walk through the chain's levels at four
    # frames a level would need 800
    _, sem = at_depth(sys.getrecursionlimit() - frames - 700)
    assert not has_errors(sem), sem
