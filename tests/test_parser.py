import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaqalc.ast import (
    FloatLiteral,
    GateBlock,
    GateStatement,
    IntLiteral,
    LoopStatement,
    MacroDef,
    NameRef,
    QubitRef,
    MAX_NESTING,
    RegisterDecl,
    Slice,
)
from jaqalc.diagnostics import has_errors
from jaqalc.parser import parse
from program_gen import nested_blocks, nested_loops


def parse_ok(source):
    program, diags = parse(source)
    assert not has_errors(diags), diags
    return program


def error_codes(source):
    _, diags = parse(source)
    return {d.code for d in diags}


# -- structure ---------------------------------------------------------------

def test_register_declaration():
    program = parse_ok("register q[7]\n")
    assert program.headers == (RegisterDecl("q", IntLiteral(7)),)
    assert program.body == ()


def test_parallel_inside_sequential():
    program = parse_ok("{ Sxx q[0] q[1]; < Sx q[0] | Sy q[1] >; }")
    (block,) = program.body
    assert isinstance(block, GateBlock) and not block.parallel
    gate, parallel = block.statements
    assert gate.name == "Sxx"
    assert parallel.parallel
    assert [s.name for s in parallel.statements] == ["Sx", "Sy"]


def test_sequential_inside_parallel():
    program = parse_ok("< Px q[0] | { Sx q[1] ; Sy q[1] } >")
    (block,) = program.body
    assert block.parallel
    gate, seq = block.statements
    assert gate.name == "Px"
    assert not seq.parallel
    assert [s.name for s in seq.statements] == ["Sx", "Sy"]


def test_top_level_brace_block_is_legal():
    program = parse_ok("{ Sx q[0] }")
    assert isinstance(program.body[0], GateBlock)


def test_macro_with_params():
    program = parse_ok(
        "macro foo a b {\n    Sx a\n    Sxx a q[0]\n    Sxx b q[0]\n}\n")
    (macro,) = program.body
    assert isinstance(macro, MacroDef)
    assert macro.params == ("a", "b")
    assert len(macro.body.statements) == 3
    assert macro.body.statements[0].args == (NameRef("a"),)


def test_loop_with_let_count():
    program = parse_ok("loop reps { Sx q[0] }")
    (loop,) = program.body
    assert isinstance(loop, LoopStatement)
    assert loop.count == NameRef("reps")


def test_gate_argument_kinds():
    program = parse_ok("MS q[0] ancilla -0.5 2\n")
    (gate,) = program.body
    ref, name, f, i = gate.args
    assert ref == QubitRef("q", IntLiteral(0))
    assert name == NameRef("ancilla")
    assert f.value == -0.5
    assert i.value == 2


@pytest.mark.parametrize("selector_text, selector", [
    ("", None),
    ("[0]", IntLiteral(0)),
    ("[n]", NameRef("n")),
    ("[1:7:2]", Slice(IntLiteral(1), IntLiteral(7), IntLiteral(2))),
    ("[1:7]", Slice(IntLiteral(1), IntLiteral(7))),
    ("[::2]", Slice(step=IntLiteral(2))),
    ("[:]", Slice()),
    ("[:-1]", Slice(stop=IntLiteral(-1))),
])
def test_map_selectors(selector_text, selector):
    program = parse_ok(f"map a q{selector_text}\n")
    (alias,) = program.headers
    assert alias.selector == selector


# -- separators ---------------------------------------------------------------

def test_semicolons_equal_newlines():
    by_semicolon = parse_ok("register q[2]\nSx q[0]; Sy q[1]; Sz q[0]\n")
    by_newline = parse_ok("register q[2]\nSx q[0]\nSy q[1]\nSz q[0]\n")
    assert by_semicolon == by_newline


def test_pipes_equal_newlines_in_parallel():
    one_line = parse_ok("< Sx q[0] | Sy q[1] >")
    multi_line = parse_ok("<\n    Sx q[0]\n    Sy q[1]\n>")
    assert one_line == multi_line


def test_crlf_lf_same_ast():
    source = "register q[2]\nloop 2 {\n    Sx q[0]\n}\n"
    assert parse_ok(source) == parse_ok(source.replace("\n", "\r\n"))


def test_nodes_compare_by_class_and_fields_never_by_position():
    """A statement equals, and hashes as, its twin at another position; a
    node never equals a node of another class with the same fields, nor a
    plain tuple or value."""
    args = (QubitRef("q", IntLiteral(0)),)
    here = GateStatement("Sx", args, line=1, column=1)
    there = GateStatement("Sx", args, line=7, column=3)
    assert here == there and hash(here) == hash(there)
    assert GateBlock(False, (here,)) == GateBlock(False, (there,), 4, 2)
    assert here != GateStatement("Sy", args, line=1, column=1)
    assert IntLiteral(2) == IntLiteral(2) and IntLiteral(2) != FloatLiteral(2)
    assert here != ("Sx", args) and NameRef("a") != ("a",)
    assert IntLiteral(2) != 2 and NameRef("a") != "a"


def test_trailing_separator_makes_no_empty_statement():
    program = parse_ok("{ Sx q[0]; }")
    assert len(program.body[0].statements) == 1


def test_empty_file_is_a_valid_empty_program():
    program = parse_ok("")
    assert program.headers == () and program.body == ()


# -- enforced syntax rules ------------------------------------------------------

def test_newline_before_loop_brace_rejected():
    assert "newline-before-brace" in error_codes("loop 7\n{ Sx q[0] }")


def test_newline_before_macro_brace_rejected():
    assert "newline-before-brace" in error_codes("macro m a\n{ Sx a }")


def test_loop_requires_block_not_bare_gate():
    assert "expected-block" in error_codes("loop 7 Sx q[0]")


def test_macro_requires_block_not_bare_gate():
    assert "expected-block" in error_codes("macro m a Sx a")


def test_pipe_in_sequential_rejected():
    assert "pipe-in-sequential" in error_codes("{ Sx q[0] | Sy q[1] }")


def test_semicolon_in_parallel_rejected():
    assert "semicolon-in-parallel" in error_codes("< Sx q[0] ; Sy q[1] >")


def test_same_kind_nesting_rejected():
    assert "same-kind-nesting" in error_codes("{ Sx q[0]; { Sy q[1] } }")
    assert "same-kind-nesting" in error_codes("< Sx q[0] | < Sy q[1] > >")


def test_loop_inside_parallel_rejected():
    assert "loop-in-parallel" in error_codes("< loop 2 { Sx q[0] } >")


def test_header_after_body_rejected():
    assert "header-after-body" in error_codes("Sx q[0]\nregister q[2]\n")


def test_header_inside_block_rejected():
    assert "header-in-block" in error_codes("{ register q[2] }")


@pytest.mark.parametrize("header", [
    "from qscout.v1.std usepulses *",
    "from \t qscout.v1.std  usepulses\t*  // the built-in gates",
    "from qscout.v1.std usepulses * /* the gates */",
])
def test_the_standard_header_names_the_builtin_gate_set(header):
    """QSCOUT's first line; it gave bad-number, illegal-character and
    header-after-body, and leaves nothing in the tree."""
    program = parse_ok(f"{header}\nregister q[2]\nSx q[0]\n")
    assert program == parse_ok("register q[2]\nSx q[0]\n")


@pytest.mark.parametrize("header", [
    "from qscout.v2.std usepulses *",
    "from qscout.v1.std usepulses Sx Sy",
    "  from qscout.v1.std usepulses",
    "from qscout.v1.std.x usepulses * *",
])
def test_another_gate_set_is_one_error_at_its_first_column(header):
    column = len(header) - len(header.lstrip()) + 1
    _, diags = parse(f"{header}\nregister q[2]\nSx q[0] 1..2\n")
    found = [(d.line, d.column, d.code) for d in diags]
    # the rest of the program is still checked
    assert found == [(1, column, "unknown-gate-set"), (3, 9, "bad-number")]


def test_the_standard_header_ends_at_a_carriage_return():
    assert parse_ok("from qscout.v1.std usepulses *\r\nregister q[1]\r\n")
    _, diags = parse("from qscout.v1.std usepulses *\rregister q[1]\n")
    assert [(d.line, d.column, d.code) for d in diags] == [
        (1, 31, "illegal-character")]


def test_a_gate_set_stays_in_the_header():
    _, diags = parse("register q[2]\nSx q[0]\nfrom qscout.v1.std usepulses *\n"
                     "{ from qscout.v1.std usepulses * }\n")
    assert [(d.line, d.column, d.code) for d in diags] == [
        (3, 1, "header-after-body"), (4, 3, "header-in-block")]


def test_from_without_usepulses_is_a_gate_name():
    program = parse_ok("from q[0] x\n")
    assert program.body[0].name == "from"


def test_macro_inside_block_rejected():
    assert "macro-in-block" in error_codes("{ macro m a { Sx a } }")


def test_unclosed_block_rejected():
    assert "unclosed-block" in error_codes("{ Sx q[0]\nSy q[1]\n")


def test_arithmetic_is_not_in_the_grammar():
    assert "illegal-character" in error_codes(
        "register q[1]\nlet pi 3.1415926536\nRy q[0] pi/32\n")
    assert "bad-number" in error_codes(
        "macro CRz t angle { Rz t -angle }\n")


def test_nesting_up_to_the_limit_is_accepted():
    parse_ok(nested_blocks(MAX_NESTING))
    parse_ok(nested_loops(MAX_NESTING))


@pytest.mark.parametrize("depth", [MAX_NESTING + 1, 5000])
def test_nesting_too_deep_is_reported_at_the_first_block_past_the_limit(
        depth):
    program, diags = parse(nested_blocks(depth) + "\nSy q[1]\n")
    (diag,) = diags
    assert (diag.code, diag.line, diag.column) == (
        "nesting-too-deep", 1, MAX_NESTING + 1)
    # the skipped block ends at its matching bracket; parsing goes on
    assert program.body[-1] == GateStatement(
        "Sy", (QubitRef("q", IntLiteral(1)),))


def test_nested_loops_too_deep_are_reported_at_the_loop_bracket():
    depth = MAX_NESTING + 1
    _, diags = parse(nested_loops(depth))
    (diag,) = diags
    assert (diag.code, diag.line, diag.column) == (
        "nesting-too-deep", depth, 8)


# -- recovery -------------------------------------------------------------------

def test_multiple_errors_reported_in_one_run():
    _, diags = parse("loop 7\n{ Sx q[0] }\n< Sx q[0] ; Sy q[1] >\n")
    codes = {d.code for d in diags}
    assert {"newline-before-brace", "semicolon-in-parallel"} <= codes


def test_recovery_continues_after_bad_statement():
    program, diags = parse("register q[2]\nSx q[0] }\nSy q[1]\n")
    assert has_errors(diags)
    names = [s.name for s in program.body if isinstance(s, GateStatement)]
    assert "Sy" in names


def test_diagnostics_are_ordered_by_position():
    _, diags = parse("< Sx q[0] ; Sy q[1] >\nloop 2\n{ Sx q[0] }\n")
    positions = [(d.line, d.column) for d in diags]
    assert positions == sorted(positions)


# -- totality ---------------------------------------------------------------------

@given(st.text(max_size=200))
@settings(max_examples=300, deadline=None)
def test_parse_never_raises_on_arbitrary_text(source):
    program, diags = parse(source)
    for d in diags:
        assert d.line >= 1 and d.column >= 1


@given(st.text(alphabet="{}<>[]:;|register maploopmacrolet q0123456789.\n\t -",
               max_size=120))
@settings(max_examples=300, deadline=None)
def test_parse_never_raises_on_grammar_shaped_text(source):
    parse(source)
