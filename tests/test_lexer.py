import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import lex_reference
from jaqalc.corpus import corpus_manifest
from jaqalc.diagnostics import has_errors
from jaqalc.parser import lex

BENCH = Path(__file__).resolve().parent.parent / "bench"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402


def kinds(tokens):
    return [t.kind for t in tokens]


def test_gate_line_with_comment():
    tokens, diags = lex("Sx q[0] // flip")
    assert not diags
    assert [(t.kind, t.value) for t in tokens] == [
        ("IDENT", "Sx"),
        ("IDENT", "q"),
        ("[", "["),
        ("INT", 0),
        ("]", "]"),
        ("NEWLINE", None),
    ]


def test_empty_input_has_no_tokens():
    tokens, diags = lex("")
    assert tokens == []
    assert diags == []


def test_block_comments_do_not_nest():
    tokens, diags = lex("/* a /* b */ Sx")
    assert not diags
    assert [(t.kind, t.value) for t in tokens] == [("IDENT", "Sx")]


def test_block_comment_newline_is_whitespace():
    tokens, diags = lex("Sx q[0] /*\n*/ q[1]")
    assert not diags
    assert kinds(tokens).count("NEWLINE") == 0


def test_crlf_and_lf_tokenize_identically():
    unix, d1 = lex("register q[2]\nSx q[0]\n")
    windows, d2 = lex("register q[2]\r\nSx q[0]\r\n")
    assert not d1 and not d2
    assert [(t.kind, t.value) for t in unix] == \
        [(t.kind, t.value) for t in windows]


def test_keywords_are_not_identifiers():
    tokens, _ = lex("loop register foo")
    assert kinds(tokens)[:3] == ["KEYWORD", "KEYWORD", "IDENT"]


@pytest.mark.parametrize("text, value", [
    ("0", 0),
    ("-3", -3),
    ("42", 42),
])
def test_integer_literals(text, value):
    tokens, diags = lex(text)
    assert not diags
    assert tokens[0].kind == "INT" and tokens[0].value == value


@pytest.mark.parametrize("text, value", [
    ("0.1", 0.1),
    ("-0.3926990817", -0.3926990817),
    ("1.5e-3", 1.5e-3),
    ("2e3", 2000.0),
    (".5", 0.5),
])
def test_float_literals(text, value):
    tokens, diags = lex(text)
    assert not diags
    assert tokens[0].kind == "FLOAT" and tokens[0].value == value


@pytest.mark.parametrize("source, code", [
    ("/* never closed", "unterminated-comment"),
    ("Ry q[0] pi/32", "illegal-character"),
    ("a @ b", "illegal-character"),
    ("régistre", "illegal-character"),
    ("0q", "bad-number"),
    ("1.2.3", "bad-number"),
    ("- 5", "bad-number"),
    ("1e", "bad-number"),
])
def test_lexical_errors(source, code):
    _, diags = lex(source)
    assert has_errors(diags)
    assert code in {d.code for d in diags}


@pytest.mark.parametrize("source, column", [
    ("1e400", 1),
    ("-1e400", 1),
    ("Rx q[0] 1e400", 9),
    pytest.param("1" * 5000, 1, id="5000-digit-integer"),
    pytest.param("1" * 5000 + ".0", 1, id="5000-digit-float"),
    pytest.param("1" * 5000 + "q", 1, id="5001-character-malformed"),
])
def test_non_finite_literals_are_bad_numbers(source, column):
    tokens, diags = lex(source)
    (diag,) = diags
    assert (diag.code, diag.column) == ("bad-number", column)
    assert all(t.kind != "FLOAT" for t in tokens)
    assert len(diag.message) < 200


def test_positions_are_one_based():
    tokens, _ = lex("Sx q[0]\n  Sy q[1]")
    sy = [t for t in tokens if t.value == "Sy"][0]
    assert (sy.line, sy.column) == (2, 3)


def test_line_comment_ends_line_at_eof():
    tokens, _ = lex("Sx q[0] // trailing comment, no newline")
    assert tokens[-1].kind == "NEWLINE"


@pytest.mark.parametrize("literal", ["1" * 5000, "-" + "9" * 4301],
                         ids=["5000-digits", "minus-4301-digits"])
def test_overlong_integer_message_gives_the_digit_count(literal):
    """int() refuses more than 4300 digits; the literal is reported by its
    length, not echoed."""
    tokens, diags = lex(f"loop {literal} {{")
    (diag,) = diags
    assert (diag.code, diag.line, diag.column) == ("bad-number", 1, 6)
    digits = len(literal.lstrip("-"))
    assert diag.message == (f"a {digits}-digit integer literal is too long "
                            "to read")
    assert [t.kind for t in tokens] == ["KEYWORD", "{"]


_PIECES = st.sampled_from([
    "Sx", "q", "loop", "register", "_a1", "0", "12", "-3", "1.5", ".5",
    "1e3", "1e", "0q", "-", ".", "/", "*", "@", "\u00e9", "\u0661", " ", "\t",
    "\n", "\r\n", "\r", "{", "}", "<", ">", "[", "]", ":", ";", "|",
    "// note", "//", "/* a */", "/* a\nb */", "/*\r\n*/", "/*", "*/",
    "from ", "qscout.v1.std", " usepulses", "from qscout.v1.std usepulses *",
])


@settings(max_examples=400, deadline=None)
@given(st.lists(_PIECES, max_size=40).map("".join))
def test_positions_point_at_their_text(source):
    """Token and diagnostic positions index ``source.split("\\n")``, with
    LF and CRLF line breaks, lone CRs, and comments spanning lines."""
    lines = source.split("\n")
    tokens, diags = lex(source)
    for token in tokens:
        rest = lines[token.line - 1][token.column - 1:]
        if token.kind in ("IDENT", "KEYWORD") or token.kind == token.value:
            assert rest.startswith(token.value), (token, source)
        elif token.kind in ("INT", "FLOAT"):
            assert rest[:1] in set("0123456789-."), (token, source)
        elif token.kind == "NEWLINE":  # at the line break or end of input
            assert rest in ("", "\r"), (token, source)
    for diag in diags:
        assert 1 <= diag.line <= len(lines), (diag, source)
        assert 1 <= diag.column <= len(lines[diag.line - 1]), (diag, source)


def assert_lexed_as_reference(source):
    """``lex`` gives ``lex_reference``'s tokens, value types included,
    and its diagnostics, in order."""
    tokens, diags = lex(source)
    want_tokens, want_diags = lex_reference(source)
    got = [(t.kind, t.value, type(t.value), t.line, t.column) for t in tokens]
    want = [(t.kind, t.value, type(t.value), t.line, t.column)
            for t in want_tokens]
    assert got == want, source
    assert diags == want_diags, source


_LONG_PIECES = st.sampled_from([
    "1e400", "-1e400", "1" * 5000, "-" + "9" * 4301, "1" * 5000 + ".0",
    "1" * 5000 + "q", "1" * 4300, ".5e", "1.e5", "-.5E+3", "0x1", "1-2",
    "q[ 0 ]", "  \t ", "\t\t", " " * 300,
])


@settings(max_examples=400, deadline=None)
@given(st.lists(_PIECES | _LONG_PIECES, max_size=40).map("".join),
       st.text(" \t", max_size=50))
def test_lex_matches_the_reference_lexer(source, tail):
    """Pieces at the lexer's edges (line breaks, comments, signs, dots,
    exponents, non-ASCII letters), long and non-finite literals, and
    spaces and tabs that end the input."""
    assert_lexed_as_reference(source)
    assert_lexed_as_reference(source + tail)


@pytest.mark.parametrize("case", corpus_manifest(), ids=lambda c: c.name)
def test_corpus_lexes_as_the_reference(case):
    source = case.source
    assert_lexed_as_reference(source)
    assert_lexed_as_reference(source.replace("\n", "\r\n"))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_programs_lex_as_the_reference(workload):
    for program in generate(workload, DEFAULT_SEED).programs:
        assert_lexed_as_reference(program.source)


@pytest.mark.parametrize("source", [
    pytest.param("Sx q[0]" + " " * 2_000_000, id="2M-trailing-spaces"),
    pytest.param("Sx q[0]" + " \t" * 1_000_000, id="1M-trailing-space-tabs"),
    pytest.param("".join(f"Sx q[{i % 7}]" + " " * 1000 + "\n"
                         for i in range(2000)), id="2000-lines-of-1000-spaces"),
])
def test_whitespace_is_lexed_in_linear_time(source):
    """Spaces and tabs are matched in front of the token after them, and
    at the end of input by an alternative of their own, so no run of them
    is matched again from each of its positions.  The bound allows a
    microsecond a character, some hundred times what it takes."""
    start = time.perf_counter()
    tokens, diags = lex(source)
    elapsed = time.perf_counter() - start
    assert not diags
    assert tokens[-1].kind in ("]", "NEWLINE")
    assert elapsed < 0.2 + 1e-6 * len(source), elapsed
