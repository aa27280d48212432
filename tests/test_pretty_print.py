import random

import pytest

from jaqalc.ast import (
    FloatLiteral,
    GateBlock,
    GateStatement,
    IntLiteral,
    Program,
    QubitRef,
    RegisterDecl,
    is_valid_identifier,
    pretty_print,
)
from jaqalc.diagnostics import has_errors
from jaqalc.parser import parse

from program_gen import random_program


def roundtrip(source):
    program, diags = parse(source)
    assert not has_errors(diags)
    printed = pretty_print(program)
    reparsed, diags2 = parse(printed)
    assert not has_errors(diags2), printed
    assert reparsed == program, printed
    return printed


def test_register_prints_canonically():
    program = Program(headers=(RegisterDecl("q", IntLiteral(7)),))
    assert pretty_print(program) == "register q[7]\n"


def test_empty_program_prints_nothing():
    assert pretty_print(Program()) == ""


def test_parallel_block_prints_multiline():
    block = GateBlock(True, (
        GateStatement("Sx", (QubitRef("q", IntLiteral(0)),)),
        GateStatement("Sy", (QubitRef("q", IntLiteral(1)),)),
    ))
    program = Program(body=(block,))
    text = pretty_print(program)
    assert text == "<\n    Sx q[0]\n    Sy q[1]\n>\n"
    reparsed, diags = parse(text)
    assert not has_errors(diags)
    assert reparsed == program


@pytest.mark.parametrize("source, expected", [
    ("register q[2]\n{ Sx q[0]; Sy q[1] }\n",
     "register q[2]\n{\n    Sx q[0]\n    Sy q[1]\n}\n"),
    ("register q[1]\nloop 3 { Sx q[0] }\n",
     "register q[1]\nloop 3 {\n    Sx q[0]\n}\n"),
    ("register q[1]\nlet n 2\nloop n { Sx q[0]; Sy q[0] }\n",
     "register q[1]\nlet n 2\nloop n {\n    Sx q[0]\n    Sy q[0]\n}\n"),
    ("register q[2]\nmacro m a b { Sxx a b }\nm q[0] q[1]\n",
     "register q[2]\nmacro m a b {\n    Sxx a b\n}\nm q[0] q[1]\n"),
    ("register q[1]\nmacro z { Sx q[0] }\nz\n",
     "register q[1]\nmacro z {\n    Sx q[0]\n}\nz\n"),
    ("register q[2]\nmacro p a b < Sx a | Sy b >\np q[0] q[1]\n",
     "register q[2]\nmacro p a b <\n    Sx a\n    Sy b\n>\np q[0] q[1]\n"),
    ("register q[2]\nloop 2 { < Sx q[0] | Sy q[1] > }\n",
     "register q[2]\nloop 2 {\n    <\n        Sx q[0]\n        Sy q[1]\n"
     "    >\n}\n"),
], ids=["sequential", "loop-literal", "loop-named",
        "macro-params", "macro-no-params", "macro-parallel",
        "loop-of-parallel"])
def test_block_like_nodes_print_head_bracket_children_bracket(source,
                                                              expected):
    """Blocks, loops and macros print through one path: the head and the
    opening bracket on one line, each child indented one level deeper,
    then the closing bracket at the head's indent."""
    assert roundtrip(source) == expected


def test_float_literals_survive_the_roundtrip():
    program = Program(body=(
        GateStatement("Rz", (QubitRef("q", IntLiteral(1)),
                             FloatLiteral(-0.3926990817))),
    ))
    text = pretty_print(program)
    assert "-0.3926990817" in text
    reparsed, _ = parse(text)
    assert reparsed == program


@pytest.mark.parametrize("source", [
    "register q[7]\nmap ancilla q[1:7:2]\n",
    "register q[3]\nmap ancilla q[0]\nmap qubits q\n",
    "register q[2]\nlet n 4\nlet angle 1.5\nloop n { Rx q[0] angle }\n",
    "register q[2]\n{ Sxx q[0] q[1]; < Sx q[0] | Sy q[1] >; }\n",
    "register q[2]\n< Px q[0] | { Sx q[1] ; Sy q[1] } >\n",
    "register q[3]\nmacro foo a b { Sx a\nSxx a q[0]\nSxx b q[0] }\nfoo q[2] q[1]\n",
    "register q[2]\nmap rest q[::2]\nloop 2 { loop 3 { Sx q[0] } }\n",
    "register q[1]\nmacro par a < Rx a 0.25 >\npar q[0]\n",
])
def test_roundtrip_on_fixed_programs(source):
    roundtrip(source)


def test_roundtrip_is_a_fixpoint():
    source = "register q[2]\nloop 2 { prepare_all; Px q[0]; measure_all }\n"
    printed = roundtrip(source)
    assert pretty_print(parse(printed)[0]) == printed


def test_roundtrip_on_random_programs():
    rng = random.Random(2024)
    for _ in range(50):
        roundtrip(random_program(rng))


@pytest.mark.parametrize("text, ok", [
    ("q0", True),
    ("ancilla_1", True),
    ("_x", True),
    ("prepare_all", True),
    ("0q", False),
    ("régistre", False),
    ("loop", False),
    ("register", False),
    ("", False),
])
def test_identifier_predicate(text, ok):
    assert is_valid_identifier(text) is ok
