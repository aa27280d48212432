import hashlib
import os
import random
import re
import subprocess
import sys
import time
from datetime import timedelta
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from jaqalc.ast import MAX_NESTING
from jaqalc.cli import main
from jaqalc.simulator import MAX_QUBITS
from program_gen import (
    PARALLEL_ALL,
    SX_ALL,
    doubling_chain,
    fan_chain,
    macro_chain,
    mutant,
    nested_blocks,
    nested_loops,
    random_program,
    shift_register,
)

SRC = Path(__file__).resolve().parent.parent / "src"

WORKED_EXAMPLE = """register q[2]

loop 2 {
    prepare_all
    Px q[0]
    measure_all
}

loop 2 {
    prepare_all
    Px q[1]
    measure_all
}
"""

BELL = """register q[2]
prepare_all
Sxx q[0] q[1]
measure_all
"""


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


def write(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return str(path)


# -- check ---------------------------------------------------------------------

def test_check_accepts_valid_program(workdir, capsys):
    path = write(workdir, "ok.jaqal", "register q[3]\nmacro foo a b {\n"
                 "    Sx a\n    Sxx a q[0]\n    Sxx b q[0]\n}\nfoo q[2] q[1]\n")
    assert main(["check", path]) == 0
    assert capsys.readouterr().err == ""


def test_check_rejects_arithmetic(workdir, capsys):
    path = write(workdir, "arith.jaqal",
                 "register q[1]\nlet pi 3.1415926536\nRy q[0] pi/32\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert "illegal-character" in err
    assert err.startswith(path + ":")


def test_check_missing_file_is_environment_error(workdir, capsys):
    assert main(["check", str(workdir / "nope.jaqal")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_check_reports_a_lone_carriage_return(workdir, capsys):
    path = workdir / "cr.jaqal"
    path.write_bytes(b"register q[1]\rSx q[0]\n")
    assert main(["check", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"{path}:1:14: illegal-character: stray carriage return\n")


def test_crlf_source_gives_the_positions_of_its_lf_twin(workdir, capsys):
    lf = ("register q[3]\n// c\nmap none q[2:1]\n"
          "  map e q[1:1] /* x\n */ ; map f q[0:0]\nSx q[0]\n")
    reports = []
    for name, text in (("lf", lf), ("crlf", lf.replace("\n", "\r\n"))):
        path = workdir / "twin.jaqal"
        path.write_bytes(text.encode())
        assert main(["check", str(path)]) == 0, name
        reports.append(capsys.readouterr().err)
    assert reports[0] == reports[1]
    assert [line.split(": ")[0] for line in reports[0].splitlines()] == [
        f"{workdir / 'twin.jaqal'}:{position}"
        for position in ("3:1", "4:3", "5:7")]


def test_diagnostic_format_has_line_and_column(workdir, capsys):
    path = write(workdir, "bad.jaqal", "register q[2]\nSx q[5]\n")
    assert main(["check", path]) == 1
    err = capsys.readouterr().err
    assert f"{path}:2:1: index-out-of-bounds:" in err


# -- run -----------------------------------------------------------------------

def test_run_writes_worked_example_bytes(workdir, capsys):
    path = write(workdir, "example.jaqal", WORKED_EXAMPLE)
    assert main(["run", path]) == 0
    out = workdir / "example.out"
    assert out.read_bytes() == b"10\n10\n01\n01\n"


def test_run_single_qubit_trivial(workdir):
    path = write(workdir, "one.jaqal",
                 "register q[1]\nprepare_all\nmeasure_all\n")
    assert main(["run", path]) == 0
    assert (workdir / "one.out").read_bytes() == b"0\n"


def test_run_respects_output_flag(workdir):
    path = write(workdir, "example.jaqal", WORKED_EXAMPLE)
    target = workdir / "custom.bits"
    assert main(["run", path, "-o", str(target)]) == 0
    assert target.read_bytes() == b"10\n10\n01\n01\n"


def test_run_never_writes_its_default_output_over_the_source(workdir, capsys):
    """``run prog.out`` wrote its record over prog.out, the program; a
    default output path that links to the source is refused too."""
    source = "register q[1]\nprepare_all\nSx q[0]\nmeasure_all\n"
    named = write(workdir, "prog.out", source)
    linked = write(workdir, "linked.jaqal", source)
    (workdir / "linked.out").symlink_to("linked.jaqal")
    for path, out in ((named, named), (linked, str(workdir / "linked.out"))):
        for flags in ([], ["-p"]):
            assert main(["run", *flags, path]) == 2
            assert capsys.readouterr().err == (
                f"{out}: the default output path is the source file; name "
                "another with -o\n")
    assert Path(named).read_text() == Path(linked).read_text() == source
    assert main(["run", named, "-o", str(workdir / "bits")]) == 0
    assert (workdir / "bits").read_text() == "1\n"


@pytest.mark.parametrize("command", [
    ["expand"], ["schedule"], ["run"], ["run", "-p"]],
    ids=["expand", "schedule", "run", "run-p"])
def test_no_command_writes_its_output_over_the_source(workdir, monkeypatch,
                                                      capsys, command):
    """``-o`` naming the program, by any spelling or through a link, wrote
    the output over it and exited 0."""
    monkeypatch.chdir(workdir)
    source = "register q[1]\nprepare_all\nSx q[0]\nmeasure_all\n"
    write(workdir, "p.jaqal", source)
    (workdir / "link.jaqal").symlink_to("p.jaqal")
    for out in ("p.jaqal", "./p.jaqal", str(workdir / "p.jaqal"),
                "link.jaqal"):
        assert main([*command, "p.jaqal", "-o", out]) == 2
        assert capsys.readouterr().err == (
            f"{out}: the output path is the source file; name another "
            "with -o\n")
    assert (workdir / "p.jaqal").read_text() == source
    assert main([*command, "p.jaqal", "-o", "p.txt"]) == 0
    assert (workdir / "p.txt").stat().st_size > 0


@pytest.mark.parametrize("command", ["schedule", "run"])
def test_no_command_writes_its_output_over_the_duration_manifest(
        workdir, monkeypatch, capsys, command):
    """``-o`` naming the manifest wrote the output over it and exited 0, so
    the next ``-d`` of it exited 1 with bad-manifest.  A default output
    path that is the manifest is refused too."""
    monkeypatch.chdir(workdir)
    write(workdir, "p.jaqal", "register q[1]\nprepare_all\nSx q[0]\n"
          "measure_all\n")
    write(workdir, "m.txt", "Sx 2\n")
    for out in ("m.txt", "./m.txt", str(workdir / "m.txt")):
        assert main([command, "p.jaqal", "-d", "m.txt", "-o", out]) == 2
        assert capsys.readouterr().err == (
            f"{out}: the output path is the duration manifest; name another "
            "with -o\n")
    assert (workdir / "m.txt").read_text() == "Sx 2\n"
    if command == "run":
        write(workdir, "p.out", "Sx 2\n")
        assert main([command, "p.jaqal", "-d", "p.out"]) == 2
        assert capsys.readouterr().err == (
            "p.out: the default output path is the duration manifest; name "
            "another with -o\n")
        assert (workdir / "p.out").read_text() == "Sx 2\n"
    assert main([command, "p.jaqal", "-d", "m.txt", "-o", "p.txt"]) == 0
    assert (workdir / "p.txt").stat().st_size > 0


def test_run_seed_changes_sampled_records(workdir):
    path = write(workdir, "bell.jaqal",
                 "register q[2]\nloop 40 { prepare_all\nSxx q[0] q[1]\n"
                 "measure_all }\n")
    main(["run", path, "-o", str(workdir / "a.out"), "--seed", "0"])
    main(["run", path, "-o", str(workdir / "b.out"), "--seed", "1"])
    assert (workdir / "a.out").read_bytes() != (workdir / "b.out").read_bytes()


@pytest.mark.parametrize("seed", [
    "-1", str(2 ** 64), str(-(2 ** 64)), "0x10", "1.5", "9" * 5000],
    ids=["-1", "2**64", "-2**64", "hex", "float", "5000-digits"])
def test_run_refuses_seeds_outside_64_bits(workdir, capsys, seed):
    """Masking to 64 bits made -s 2**64 write the same record as -s 0."""
    path = write(workdir, "bell.jaqal", BELL)
    with pytest.raises(SystemExit) as exit_:
        main(["run", path, "--seed", seed])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: jaqalc run") and len(err) < 300
    assert "--seed: must be an integer from 0 to 2**64-1" in err
    assert not (workdir / "bell.out").exists()


def test_run_accepts_the_largest_seed(workdir):
    path = write(workdir, "bell.jaqal", BELL)
    assert main(["run", path, "--seed", str(2 ** 64 - 1)]) == 0


def test_run_probabilities_bell(workdir):
    path = write(workdir, "bell.jaqal", BELL)
    assert main(["run", path, "--probabilities"]) == 0
    text = (workdir / "bell.out").read_text()
    assert text.endswith("\n") and text.count("\n") == 1
    fields = text.split()
    # only the two entangled outcomes appear, sorted, each within 1e-12
    assert fields[0] == "00" and fields[2] == "11" and len(fields) == 4
    assert abs(float(fields[1]) - 0.5) <= 1e-12
    assert abs(float(fields[3]) - 0.5) <= 1e-12


def test_run_rejects_schedule_conflict(workdir, capsys):
    path = write(workdir, "conflict.jaqal",
                 "register q[1]\n< Sx q[0] | Sy q[0] >\n")
    assert main(["run", path]) == 1
    assert "parallel-conflict" in capsys.readouterr().err


def test_run_empty_body_warns(workdir, capsys):
    path = write(workdir, "hdr.jaqal", "register q[2]\n")
    assert main(["run", path]) == 0
    assert "warning" in capsys.readouterr().err
    assert (workdir / "hdr.out").read_bytes() == b""


def test_run_qubit_cap_is_a_runtime_error(workdir, capsys):
    path = write(workdir, "big.jaqal",
                 "register q[25]\nprepare_all\nmeasure_all\n")
    assert main(["run", path]) == 1
    assert "too-many-qubits" in capsys.readouterr().err


def test_run_rejects_non_finite_literal_without_traceback(workdir, capsys):
    path = write(workdir, "inf.jaqal",
                 "register q[1]\nprepare_all\nRx q[0] 1e400\nmeasure_all\n")
    for argv in (["check", path], ["run", path], ["run", "-p", path]):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"{path}:3:9: bad-number:" in err
        assert "Traceback" not in err


def test_run_rejects_integer_angle_too_large_for_a_float(workdir, capsys):
    huge = "1" + "0" * 400
    sources = {
        "literal.jaqal": f"register q[1]\nprepare_all\nRx q[0] {huge}\n"
                         "measure_all\n",
        "let.jaqal": f"register q[1]\nlet big {huge}\nprepare_all\n"
                     "Rx q[0] big\nmeasure_all\n",
        "macro.jaqal": "register q[1]\nmacro m a { Rx q[0] a }\n"
                       f"prepare_all\nm {huge}\nmeasure_all\n",
        "register.jaqal": f"register q[{'1' * 5000}]\nprepare_all\n"
                          "measure_all\n",
    }
    for name, source in sources.items():
        path = write(workdir, name, source)
        for argv in (["check", path], ["run", path], ["run", "-p", path],
                     ["run", "-q", path]):
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert f"{path}:" in err and ": bad-number:" in err
            assert "Traceback" not in err


EVERY_COMMAND = (["check"], ["expand"], ["schedule"], ["run"], ["run", "-p"])


def deep_program(shape, depth):
    if shape in ("chain", "alternating-chain"):
        return (macro_chain(depth, alternate=shape != "chain")
                + f"prepare_all\nm{depth - 1} q[0]\nmeasure_all\n")
    nested = nested_loops if shape == "loops" else nested_blocks
    return f"register q[1]\nprepare_all\n{nested(depth)}\nmeasure_all\n"


DEEP_SHAPES = ("alternating-chain", "blocks", "chain", "loops")


@pytest.mark.parametrize("shape", DEEP_SHAPES)
def test_nesting_at_the_limit_passes_every_command(workdir, capsys, shape):
    path = write(workdir, "deep.jaqal", deep_program(shape, MAX_NESTING))
    out = str(workdir / "deep.out")
    for command in EVERY_COMMAND:
        argv = command + ([path, "-o", out] if command[0] == "run" else [path])
        started = time.perf_counter()
        assert main(argv) == 0, (command, capsys.readouterr().err)
        assert time.perf_counter() - started < 5.0
    capsys.readouterr()


@pytest.mark.parametrize("shape, depth", [
    *((shape, MAX_NESTING + 1) for shape in DEEP_SHAPES),
    ("blocks", 350),
    ("chain", 900),
])
def test_nesting_past_the_limit_exits_one_under_every_command(
        workdir, capsys, shape, depth):
    path = write(workdir, "deep.jaqal", deep_program(shape, depth))
    for command in EVERY_COMMAND:
        started = time.perf_counter()
        assert main(command + [path]) == 1
        err = capsys.readouterr().err
        assert f"{path}:" in err and ": nesting-too-deep: " in err
        assert "Traceback" not in err
        assert time.perf_counter() - started < 5.0


def test_a_too_deep_invocation_is_not_checked_again(workdir, capsys):
    """A chain at the nesting limit invoked inside 199 nested blocks is
    reported too deep, and its body is not walked again with its qubit
    bound: that walk would pass Python's recursion limit."""
    depth = MAX_NESTING - 1
    opens = "".join("{<"[i % 2] for i in range(depth))
    closes = "".join("}>"[i % 2] for i in reversed(range(depth)))
    path = write(workdir, "deep.jaqal", macro_chain(MAX_NESTING)
                 + f"{opens}m{MAX_NESTING - 1} q[0]{closes}\n")
    for command in EVERY_COMMAND:
        assert main(command + [path]) == 1
        assert capsys.readouterr().err == (
            f"{path}:{MAX_NESTING + 2}:{depth + 1}: nesting-too-deep: "
            f"macro 'm{MAX_NESTING - 1}' nests blocks {2 * MAX_NESTING - 1} "
            f"deep here, more than {MAX_NESTING}\n")


@pytest.mark.parametrize("source", [
    f"register q[{'1' * 5000}]\nprepare_all\nmeasure_all\n",
    f"register q[1]\nprepare_all\nloop {'1' * 5000} {{ Sx q[0] }}\n"
    "measure_all\n",
], ids=["register", "loop-count"])
def test_overlong_integer_literal_exits_one_under_every_command(
        workdir, capsys, source):
    path = write(workdir, "long.jaqal", source)
    for command in EVERY_COMMAND:
        assert main(command + [path]) == 1
        err = capsys.readouterr().err
        assert ": bad-number: a 5000-digit integer literal" in err
        assert "Traceback" not in err and "1" * 100 not in err


@pytest.mark.parametrize("source, position", [
    ("register q[1]\nprepare_all\nloop 1000000000000 { Sx q[0] }\n"
     "measure_all\n", "3:1"),
    (f"register q[1]\nprepare_all\nloop 1{'0' * 400} {{ Sx q[0] }}\n"
     "measure_all\n", "3:1"),
    (doubling_chain(22), "25:1"),
    (shift_register(f"{{ {SX_ALL} }}"), "42:1"),
], ids=["loop-10^12", "loop-401-digits", "doubling-chain-22",
        "shift-register"])
def test_too_many_gates_exits_one_at_once_under_every_command(
        workdir, capsys, source, position):
    path = write(workdir, "big.jaqal", source)
    for command in EVERY_COMMAND:
        started = time.perf_counter()
        assert main(command + [path, "-o", str(workdir / "big.out")]
                    if command[0] == "run" else command + [path]) == 1
        elapsed = time.perf_counter() - started
        err = capsys.readouterr().err
        assert err == (f"{path}:{position}: too-many-gates: the program "
                       "expands to more than 4194304 primitive gates by the "
                       "end of this statement\n"), command
        assert elapsed < 1.0, command


def swapped_chain(m0_body, invocation):
    """Macros m0..m39 on ``register q[2]``: m<k> invokes m<k-1> twice, with
    its two qubits swapped the second time."""
    lines = ["register q[2]", f"macro m0 a b {m0_body}"]
    lines += [f"macro m{k} a b {{ m{k - 1} a b; m{k - 1} b a }}"
              for k in range(1, 40)]
    return "\n".join([*lines, invocation, ""])


@pytest.mark.parametrize("source", [
    swapped_chain("{ loop 0 { Sxx a b } }", "m39 q[0] q[1]"),
    swapped_chain("{ Sxx a b }", "loop 0 { m39 q[0] q[1] }"),
    shift_register(f"{{ loop 0 {{ {SX_ALL} }} }}"),
    shift_register(f"{{ {SX_ALL} }}", "{{ Sx p0; loop 0 {{ {0}; {1} }} }}"),
], ids=["empty-body", "empty-loop", "shift-empty-body", "shift-empty-loop"])
def test_what_runs_no_gates_is_neither_checked_nor_expanded(
        workdir, capsys, source):
    """Each program nests 2**40 invocations that run no gates, and the
    shift registers reach 20 * 2**20 distinct tuples of qubits.  Analysis
    walks each body once, and neither analysis nor expansion enters an
    invocation of what runs no gates."""
    path = write(workdir, "chain.jaqal", source)
    for command in EVERY_COMMAND:
        started = time.perf_counter()
        assert main(command + [path, "-o", str(workdir / "chain.out")]
                    if command[0] == "run" else command + [path]) == 0
        assert time.perf_counter() - started < 5.0, command
    capsys.readouterr()


@pytest.mark.parametrize("source, gates", [
    (fan_chain(18, 150), ("Sx 0", 2 ** 18)),
    (fan_chain(16, 120, "0.5"), ("Rz 0 0.5", 2 ** 16)),
], ids=["splice-chain", "number-parameter-chain"])
def test_a_wide_fan_under_a_long_chain_is_checked_and_expanded_at_once(
        workdir, capsys, source, gates):
    """The last line runs 2**18 (2**16) gates through 169 (137) macro
    levels.  Analysis builds each body's items once, where it is defined,
    and splices them, binding every parameter, once at the end; keeping
    each level's spliced items, or binding numbers at every level, would
    cost hundreds of MiB or a minute here."""
    path = write(workdir, "chain.jaqal", source)
    out = workdir / "chain.flat"
    for command in (["check", path], ["expand", path, "-o", str(out)]):
        started = time.perf_counter()
        assert main(command) == 0, capsys.readouterr().err
        assert time.perf_counter() - started < 5.0, command
    line, count = gates
    assert out.read_text() == f"{line}\n" * count


@pytest.mark.parametrize("source, diagnostic", [
    ("register q[2]\nloop 0 { Sxx q[0] q[0] }\n",
     "2:10: duplicate-qubit: Sxx uses the same qubit twice"),
    ("register q[3]\nmacro e a { loop 0 { Sx a } }\n"
     "< Sxx q[0] q[1] | e q[0] >\n",
     "3:3: ms-in-parallel: the two-qubit entangling gate runs in parallel "
     "with no other gates"),
], ids=["loop-0-body", "sibling-running-nothing"])
def test_check_applies_the_rules_to_statements_as_written(workdir, capsys,
                                                          source, diagnostic):
    """Exclusivity is checked on the source, so a loop body that runs no
    times, and a sibling that runs no gates, still count."""
    path = write(workdir, "written.jaqal", source)
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == f"{path}:{diagnostic}\n"


@pytest.mark.parametrize("source, diagnostic", [
    ("register q[2]\nmacro d a b { I_Sxx a b }\nd q[0] q[0]\n",
     "3:1: duplicate-qubit: I_Sxx uses the same qubit twice"),
    ("register q[2]\nmacro m a { Sx a }\n< m q[0] | Sy q[0] >\n",
     "3:12: parallel-conflict: qubit offset 0 is used by two statements in "
     "the same parallel block"),
], ids=["duplicate", "parallel"])
def test_check_rejects_what_substitution_breaks(workdir, capsys, source,
                                                 diagnostic):
    """``check`` exited 0 on these, and later commands rejected them with
    no position; now every command gives the positioned diagnostic."""
    path = write(workdir, "sub.jaqal", source)
    for command in EVERY_COMMAND:
        assert main(command + [path, "-o", str(workdir / "sub.out")]
                    if command[0] == "run" else command + [path]) == 1
        assert capsys.readouterr().err == f"{path}:{diagnostic}\n", command


def test_three_million_gates_pass_check(workdir, capsys):
    path = write(workdir, "shots.jaqal", "register q[2]\nloop 1000000 { "
                 "prepare_all; Sxx q[0] q[1]; measure_all }\n")
    assert main(["check", path]) == 0
    assert capsys.readouterr().err == ""


def test_macro_used_as_a_qubit_is_reported_as_such(workdir, capsys):
    path = write(workdir, "macro_qubit.jaqal",
                 "register q[1]\nmacro m a { Sx a }\nSx m\n")
    assert main(["check", path]) == 1
    assert capsys.readouterr().err == (
        f"{path}:3:1: type-mismatch: 'm' is a macro, not a qubit\n")


def test_huge_register_is_bounded_in_time(workdir, capsys):
    """All-qubit gates on a huge register cost nothing until simulation,
    which refuses the register before allocating it, in a short message
    however long the size is."""
    for size in ("3000000", "1" + "0" * 400):
        path = write(workdir, "huge.jaqal",
                     f"register q[{size}]\nprepare_all\nmeasure_all\n")
        started = time.perf_counter()
        assert main(["schedule", path]) == 0
        assert capsys.readouterr().out == (
            "0 20 prepare_all\n20 20 measure_all\ntotal 40\n")
        assert time.perf_counter() - started < 5.0
        for argv in (["run", path], ["run", "-p", path]):
            started = time.perf_counter()
            assert main(argv) == 1
            err = capsys.readouterr().err
            assert ": too-many-qubits: " in err and len(err) < 200
            assert time.perf_counter() - started < 5.0


def test_unused_macro_parameter_accepts_any_argument(workdir, capsys):
    """The body never reads an unused parameter, so a register, an array
    alias or a macro name is a valid argument, and the program behaves as
    if the macro body were written inline."""
    header = "register q[2]\nmap r q\nmacro k b { Sy q[1] }\n"
    inline = write(workdir, "inline.jaqal",
                   header + "prepare_all\nSx q[0]\nmeasure_all\n")
    out = str(workdir / "out.txt")
    commands = (["check"], ["expand"], ["schedule"], ["run", "-o", out],
                ["run", "-p", "-o", out])

    def outcome(command, path):
        status = main(command + [path])
        data = (workdir / "out.txt").read_text() if out in command else ""
        return status, capsys.readouterr(), data

    expected = [outcome(command, inline) for command in commands]
    for arg in ("q", "r", "k"):
        path = write(workdir, f"unused_{arg}.jaqal",
                     header + "macro m a { Sx q[0] }\n"
                     f"prepare_all\nm {arg}\nmeasure_all\n")
        for command, want in zip(commands, expected):
            assert want[0] == 0
            assert outcome(command, path) == want, (arg, command)


def test_run_quantize_flag(workdir):
    path = write(workdir, "rot.jaqal",
                 "register q[1]\nprepare_all\nRx q[0] 1.0000000001\n"
                 "measure_all\n")
    assert main(["run", path, "--quantize", "--probabilities",
                 "-o", str(workdir / "q.txt")]) == 0
    assert main(["run", path, "--probabilities",
                 "-o", str(workdir / "raw.txt")]) == 0
    assert (workdir / "q.txt").read_text() != (workdir / "raw.txt").read_text()


# -- expand ----------------------------------------------------------------------

def test_expand_unrolls_loop(workdir, capsys):
    path = write(workdir, "loop.jaqal",
                 "register q[2]\nloop 7 { Sx q[0]\nSz q[1]\nSxx q[0] q[1] }\n")
    assert main(["expand", path]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 21
    assert lines[:3] == ["Sx 0", "Sz 1", "Sxx 0 1"]


def test_expand_empty_program(workdir, capsys):
    path = write(workdir, "empty.jaqal", "")
    assert main(["expand", path]) == 0
    assert capsys.readouterr().out == ""


def test_expand_inlines_macros(workdir, capsys):
    path = write(workdir, "macro.jaqal",
                 "register q[3]\nmacro foo a b {\n    Sx a\n    Sxx a q[0]\n"
                 "    Sxx b q[0]\n}\nfoo q[2] q[1]\n")
    assert main(["expand", path]) == 0
    out = capsys.readouterr().out
    assert out == "Sx 2\nSxx 2 0\nSxx 1 0\n"
    assert "foo" not in out


# -- schedule ---------------------------------------------------------------------

def test_schedule_parallel_block(workdir, capsys):
    path = write(workdir, "par.jaqal",
                 "register q[3]\n< Rx q[1] 0.1 | Sx q[2] >\n")
    assert main(["schedule", path]) == 0
    out = capsys.readouterr().out
    assert out == "0 1 Rx 1 0.1\n0 1 Sx 2\ntotal 1\n"


def test_schedule_empty_program(workdir, capsys):
    path = write(workdir, "empty.jaqal", "register q[1]\n")
    assert main(["schedule", path]) == 0
    assert capsys.readouterr().out == "total 0\n"


def test_schedule_conflict_exits_one(workdir, capsys):
    path = write(workdir, "conflict.jaqal",
                 "register q[1]\n< Sx q[0] | Sy q[0] >\n")
    assert main(["schedule", path]) == 1
    err = capsys.readouterr().err
    assert "parallel-conflict" in err and "0" in err


@pytest.mark.parametrize("command", ["expand", "schedule", "run"])
def test_an_error_after_analysis_is_one_line_and_writes_nothing(
        workdir, capsys, command):
    """A duplicate qubit that only substitution creates is found by
    analysis, at the invocation, and every command stops there with one
    positioned line."""
    path = write(workdir, "dup.jaqal",
                 "register q[2]\nmacro d a b { I_Sxx a b }\nd q[0] q[0]\n")
    out = workdir / "dup.txt"
    assert main([command, path, "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"{path}:3:1: duplicate-qubit: I_Sxx uses the "
                            "same qubit twice\n")
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
@pytest.mark.parametrize("command", ["expand", "schedule"])
def test_a_full_standard_output_exits_two_with_one_line(workdir, command):
    """Standard output is output too: a dump to a full device is an
    environment error, reported on one line, not a traceback.  Standard
    output stays buffered, so the unwritten text is still held at exit."""
    path = write(workdir, "bell.jaqal", BELL)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-c",
             "import sys; from jaqalc.cli import main; sys.exit(main())",
             command, path],
            env={**env, "PYTHONPATH": str(SRC)}, stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert "Traceback" not in done.stderr
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("<stdout>: cannot write: ")


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a /dev/full device")
@pytest.mark.parametrize("command", ["expand", "schedule"])
def test_a_standard_output_that_fills_mid_stream_exits_two_with_one_line(
        workdir, command):
    """The dump is written chunk by chunk, so the device is full while
    chunks are still to come: they are dropped, with one line and exit 2."""
    path = write(workdir, "shots.jaqal", SHOT_LOOP.format(20000))
    with open("/dev/full", "w") as full:
        done = subprocess.run(
            [sys.executable, "-m", "jaqalc.cli", command, path],
            env={**os.environ, "PYTHONPATH": str(SRC)}, stdout=full,
            stderr=subprocess.PIPE, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stderr.count("\n") == 1
    assert done.stderr.startswith("<stdout>: cannot write: ")


SHOT_LOOP = ("register q[2]\nloop {} {{ prepare_all; Sxx q[0] q[1]; "
             "measure_all }}\n")


# Run from a small interpreter: a child's peak RSS counts its parent's at
# the fork, and pytest's is larger than the bounds checked here.
PEAK_PROBE = r"""
import os, sys
with open(sys.argv[1], "wb") as out:
    pid = os.posix_spawn(
        sys.executable, [sys.executable, "-m", "jaqalc.cli", *sys.argv[2:]],
        os.environ, file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1)])
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_mib(workdir, argv, output="stdout.txt") -> tuple:
    """Exit status, sha256 of ``output`` (standard output by default) and
    peak RSS in MiB of one ``python -m jaqalc.cli`` process, measured with
    ``os.wait4``."""
    out = workdir / "stdout.txt"
    status, kib = _python(workdir, PEAK_PROBE, out, *argv).split()
    digest = hashlib.sha256((workdir / output).read_bytes()).hexdigest()
    return int(status), digest, int(kib) / 1024


@pytest.mark.parametrize("command, count, digest, limit", [
    # the digest of tests/helpers.schedule_text_reference, which made a
    # TimelineEntry per gate run; that command line peaked at 218 MiB
    ("schedule", 200000,
     "99d2d24a8d5dcd033b7b283d8c182f68b5deee70a1022f522d622b5220efa78e", 60),
    # 3M lines: dump_flat as one string peaked at 76 MiB
    ("expand", 1000000,
     "8a88279f64150ba4a2234df5100d1377a0c38a4e469c24ebe985a0d2e079a07e", 40),
], ids=["schedule-200k", "expand-1M"])
def test_a_long_shot_loop_streams_in_bounded_memory(workdir, command, count,
                                                    digest, limit):
    path = write(workdir, "shots.jaqal", SHOT_LOOP.format(count))
    status, got, peak = _peak_mib(workdir, [command, path])
    assert (status, got) == (0, digest)
    assert peak < limit, peak


def test_a_loop_of_gates_that_take_no_time_streams_like_a_shot_loop(
        workdir):
    """Every row of ``loop 1000000 { Rz q[0] 0.5 }`` under a manifest that
    makes ``Rz`` take no time starts at 0, so the dump is held until the
    end: held as one row per key and written in chunks, ``schedule``
    peaks near the 3M-gate shot loop's; a row per gate run peaked at
    242 MiB.  The digest is of the bytes written with a row per run."""
    path = write(workdir, "zero.jaqal",
                 "register q[1]\nloop 1000000 { Rz q[0] 0.5 }\n")
    manifest = write(workdir, "zero.manifest", "Rz 0\nSz 0\nSzd 0\nPz 0\n")
    flat = write(workdir, "flat.jaqal", SHOT_LOOP.format(1000000))
    status, digest, peak = _peak_mib(workdir, ["schedule", path, "-d",
                                               manifest])
    assert (status, digest) == (
        0, "ad3c5d384ca3c09abee1d7fc3ef1119e0e7054410ba8751266965595a1e652db")
    assert peak <= _peak_mib(workdir, ["schedule", flat])[2] + 2, peak


def test_a_loop_that_takes_no_time_streams_whatever_the_manifest(workdir):
    """A loop whose body takes no time needs no sums, so it is held as one
    row per key even when a ``0.1`` elsewhere makes the circuit's times
    inexact: ``schedule`` peaks as the zero-span loop alone does; walked
    because of the ``0.1``, it peaked at 245 MiB.  The digest is of the
    bytes written when it was walked."""
    path = write(workdir, "mixed.jaqal", "register q[1]\nloop 3 { Sx q[0] }"
                 "\nloop 1000000 { Rz q[0] 0.5 }\n")
    mixed = write(workdir, "mixed.manifest", "Rz 0\nSx 0.1\n")
    alone = write(workdir, "zero.jaqal",
                  "register q[1]\nloop 1000000 { Rz q[0] 0.5 }\n")
    zero = write(workdir, "zero.manifest", "Rz 0\n")
    status, digest, peak = _peak_mib(workdir, ["schedule", path, "-d",
                                               mixed])
    assert (status, digest) == (
        0, "72aec251c24ce7b019b090d445fcfe82d0ec2824537838642919bb62a38cf76d")
    assert peak <= _peak_mib(workdir, ["schedule", alone, "-d",
                                       zero])[2] + 2, peak


def test_a_nested_shot_loop_streams_like_a_flat_one(workdir):
    """An inner loop streams in blocks of its body on each outer iteration,
    as a top-level one does; the outer body's text held whole peaked at
    52 MiB."""
    nested = write(workdir, "nested.jaqal", (
        "register q[2]\nloop 2 { loop 600000 { prepare_all; Sxx q[0] q[1]; "
        "measure_all } }\n"))
    flat = write(workdir, "flat.jaqal", SHOT_LOOP.format(1000000))
    status, digest, peak = _peak_mib(workdir, ["expand", nested])
    assert (status, digest) == (
        0, "6fb6b8d4f483302e83d0522194a50a357ef7d4e551626cf6aff29e24f2b14a90")
    assert peak <= _peak_mib(workdir, ["expand", flat])[2] + 2, peak


@pytest.mark.parametrize("program, digest", [
    ("macro m a { loop 1000000 { Sx a } }\n< m q[0] | Sz q[1] >",
     "3f4dd7407e67ad45bf0a6d0bdc5ab39e400d65676481b47369373131e502a327"),
    ("macro m a { loop 2 { loop 600000 { Sx a } } }\n< m q[0] | Sz q[1] >",
     "2b5e3961127983eebf3268c970ca98fa54bf1f3115156f4637099788cda714da"),
    ("macro m a { loop 600000 { Sx a } }\nloop 2 { < m q[0] | Sz q[1] > }",
     "5096acc4afaafd9c8651221f33cef37298a5ecdbfc11510f7eee8ad5131ea731"),
], ids=["loop", "nested-loop", "loop-around-the-block"])
def test_a_loop_inside_a_block_streams_like_a_flat_one(workdir, program,
                                                       digest):
    """A block's markers are written around its children's chunks, so a
    macro's loop invoked in a parallel block streams as a top-level one
    does, and so does a loop whose body holds such a block; the block, or
    the loop around it, rendered as one string peaked at 53, 60 and
    38 MiB."""
    path = write(workdir, "block.jaqal", f"register q[2]\n{program}\n")
    flat = write(workdir, "flat.jaqal", SHOT_LOOP.format(1000000))
    status, got, peak = _peak_mib(workdir, ["expand", path])
    assert (status, got) == (0, digest)
    assert peak <= _peak_mib(workdir, ["expand", flat])[2] + 2, peak


def test_check_costs_what_the_source_does_not_what_it_runs(workdir):
    """Each macro body is walked once, where it is defined, so ``check``
    on the shift register cut at m14 (327,680 gates) costs what it costs on
    an empty register; walking m0 again for each of its 2**14 tuples of
    qubits peaked at 96 MiB."""
    cut = write(workdir, "cut.jaqal", shift_register(f"{{ {SX_ALL} }}",
                                                     last=14))
    empty = write(workdir, "empty.jaqal", "register q[2]\n")
    status, _, peak = _peak_mib(workdir, ["check", cut])
    assert status == 0
    assert peak <= _peak_mib(workdir, ["check", empty])[2] + 2, peak


def test_pairs_carried_up_sixteen_levels_are_reported_at_once(workdir,
                                                                capsys):
    """m0 runs its 20 parameters in parallel, and each level passes q[0]
    and q[1] in place of one, so the pairs m16 hands its invocation hold
    offsets that meet.  Checking m0 again for each of its 2**16 tuples of
    qubits took 14 s and 356 MiB."""
    path = write(workdir, "parallel.jaqal", shift_register(
        f"< {PARALLEL_ALL} >", last=16))
    started = time.perf_counter()
    assert main(["check", path]) == 1
    assert time.perf_counter() - started < 1.0
    assert capsys.readouterr().err == "".join(
        f"{path}:19:1: parallel-conflict: qubit offset {offset} is used by "
        "two statements in the same parallel block\n" for offset in (0, 1))


def test_expansion_binds_each_gate_once_per_tuple_of_offsets(workdir):
    """Splicing binds a macro body's gates on every visit, but makes one
    gate per tuple of offsets; one per visit peaked at 65 MiB here."""
    path = write(workdir, "chain.jaqal", doubling_chain(18))
    status, digest, peak = _peak_mib(workdir, ["expand", path])
    text = "prepare_all\n" + "Sx 0\n" * 2 ** 18 + "measure_all\n"
    assert (status, digest) == (
        0, hashlib.sha256(text.encode()).hexdigest())
    assert peak < 45, peak


def test_a_long_top_level_run_costs_what_check_does(workdir):
    """The 2**18 gates of one top-level invocation are written a chunk at
    a time, so ``expand`` peaks near ``check`` on the same file; the
    top-level items between two loops, rendered as one string, peaked
    21 MiB over."""
    path = write(workdir, "chain.jaqal", doubling_chain(18))
    status, digest, peak = _peak_mib(workdir, ["expand", path])
    assert (status, digest) == (
        0, "cc57051f51133d2d2eb3b28a29824778a88d6fe5f0e314bf99f64df077c01799")
    assert peak <= _peak_mib(workdir, ["check", path])[2] + 6, peak


@pytest.mark.parametrize("command, digest", [
    ("expand",
     "eacd29efdaeb089388383cc82f08da355812adba2221b00b3eb016539685a7f5"),
    ("schedule",
     "823830d2dfc22d6a5c959531d2d2414785d26410d0a61effcdcfe18e876dad0e"),
])
def test_a_loop_past_the_hold_bound_streams_like_its_body(workdir, command,
                                                          digest):
    """An iteration of ``loop 2 { prepare_all; m17 q[0]; measure_all }``
    runs 2**17 + 2 gates, past ``HOLD_GATES``, so each dump walks it an
    iteration at a time and peaks near the same command on m17 run once;
    its body held whole peaked at 37 MiB in ``expand`` and 85 MiB in
    ``schedule``."""
    macros = doubling_chain(18).splitlines()[:-3]
    path = write(workdir, "loop.jaqal", "\n".join(macros) + (
        "\nloop 2 { prepare_all; m17 q[0]; measure_all }\n"))
    chain = write(workdir, "chain.jaqal", doubling_chain(18))
    status, got, peak = _peak_mib(workdir, [command, path])
    assert (status, got) == (0, digest)
    assert peak <= _peak_mib(workdir, [command, chain])[2] + 2, peak


def dense(n: int) -> str:
    """``Sy`` on each of n qubits: 2**n equally likely outcomes."""
    gates = "".join(f"Sy q[{q}]\n" for q in range(n))
    return f"register q[{n}]\nprepare_all\n{gates}measure_all\n"


def test_dense_probabilities_stream_in_bounded_memory(workdir):
    """``run -p`` names and formats 2**18 outcomes a chunk at a time; a
    dict, a sorted list and one f-string per outcome peaked at 122 MiB."""
    path = write(workdir, "dense.jaqal", dense(18))
    status, digest, peak = _peak_mib(
        workdir, ["run", path, "-p", "-o", "dense.prob"], "dense.prob")
    assert (status, digest) == (
        0, "1e083a40607a3cd59dad0a793a61d986e7601eb9fdc6b66376221593553adebb")
    assert peak < 60, peak


def test_a_register_destroyed_after_a_measurement_leaves_no_file(workdir,
                                                                 capsys):
    """``run -p`` streams its lines, but the register order is checked
    before the first, so a program that fails on its second shot leaves no
    output file, as when the lines were built first."""
    path = write(workdir, "late.jaqal",
                 "register q[1]\nloop 3 { Sx q[0]\nmeasure_all }\n")
    for flags in (["-p"], []):
        assert main(["run", path, *flags]) == 1
        assert not (workdir / "late.out").exists()
        assert "destroyed-state: Sx applied after measure_all" in (
            capsys.readouterr().err)


@pytest.mark.parametrize("flags", [[], ["-p"]], ids=["run", "run-p"])
def test_run_peaks_at_one_state_vector(workdir, flags):
    """Gates update one vector in place a block at a time, the
    probabilities are written over it and it is cut to them, and a table of
    every outcome keeps them with no index array: numpy's base (a two-qubit
    run) plus one 2**18 complex vector of 4 MiB, and 1.5 MiB of slack.
    Two vectors and a copied table peaked 7.9 MiB over the base, and
    10.6 MiB under ``-p``."""
    base = _peak_mib(workdir, ["run", write(workdir, "bell.jaqal", BELL),
                               *flags])
    status, _, peak = _peak_mib(
        workdir, ["run", write(workdir, "dense.jaqal", dense(18)), *flags])
    assert (status, base[0]) == (0, 0)
    assert peak <= base[2] + 4 + 1.5, (base[2], peak)


@pytest.mark.parametrize("flags, digest, slack", [
    # a list of 10**6 bitstrings, then emit's bytes, peaked at 108.5 MiB
    ([], "9e0ba251eeb6393465beac74730c80f379cfc7ebf02dd8da4e9e7dce914fe149",
     4),
    (["-p"],
     "49c89996fba04afcbc1c42506474af0e41b666457ca06ab2c7091d526265936e", 1),
], ids=["run", "run-p"])
def test_a_long_shot_loop_runs_in_bounded_memory(workdir, flags, digest,
                                                 slack):
    """10**6 shots of one segment are sampled, named and written a batch
    at a time, and their ``-p`` line is repeated in blocks, so either
    command peaks near what one shot costs."""
    shots = write(workdir, "shots.jaqal", SHOT_LOOP.format(1000000))
    bell = write(workdir, "bell.jaqal", BELL)
    status, got, peak = _peak_mib(
        workdir, ["run", shots, *flags, "-o", "shots.out"], "shots.out")
    base = _peak_mib(workdir, ["run", bell, *flags, "-o", "bell.out"],
                     "bell.out")[2]
    assert (status, got) == (0, digest)
    assert peak <= base + slack, (base, peak)


@st.composite
def _probability_sources(draw):
    """Random programs of up to 12 qubits, or shot loops of repeated and
    alternating segments, some with equal distributions."""
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        return random_program(rng, max_qubits=12, measurements=3)
    angle = repr(rng.uniform(-4, 4))
    segments = [f"Rx q[0] {angle}", f"Ry q[0] {angle}", "Sxx q[0] q[1]",
                f"< Sx q[0] | Rz q[1] {angle} >", "Sy q[1]"]
    body = "\n".join(f"prepare_all\n{rng.choice(segments)}\nmeasure_all"
                     for _ in range(rng.randint(1, 3)))
    return f"register q[2]\nloop {rng.randint(2, 5)} {{ {body} }}\n"


@settings(max_examples=80, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=_probability_sources(), quantize=st.booleans(),
       chunk=st.sampled_from([1, 2, 3, 7, 4096]))
def test_streamed_probabilities_equal_the_reference_text(
        workdir, gates, source, quantize, chunk):
    """The ``run -p`` file is the reference formatting of ``probabilities``,
    also with the chunk size patched small, so lines cross chunks."""
    from unittest import mock

    import jaqalc.simulator
    from jaqalc.expander import expand
    from jaqalc.parser import parse
    from jaqalc.simulator import probabilities

    from helpers import probability_text_reference

    path = write(workdir, "p.jaqal", source)
    out = workdir / "p.prob"
    argv = ["run", path, "-p", "-o", str(out)] + ["-q"] * quantize
    with mock.patch.object(jaqalc.simulator, "CHUNK", chunk):
        assert main(argv) == 0
    circuit = expand(parse(source)[0], gates)
    assert out.read_text() == probability_text_reference(
        probabilities(circuit, gates, quantize=quantize))


def test_check_splices_no_circuit(workdir, capsys, monkeypatch):
    """Analysis keeps the items it built; only reading the symbol table's
    circuit splices them, which ``check`` never does."""
    import jaqalc.analyzer

    path = write(workdir, "chain.jaqal", fan_chain(6, 20, "0.5"))
    spliced = []
    splice = jaqalc.analyzer._splice
    monkeypatch.setattr(jaqalc.analyzer, "_splice",
                        lambda *args: spliced.append(splice(*args)))
    assert main(["check", path]) == 0
    assert spliced == []
    assert main(["expand", path]) == 0
    assert spliced
    assert capsys.readouterr().out == "Rz 0 0.5\n" * 2 ** 6


def test_schedule_with_duration_manifest(workdir, capsys):
    manifest = write(workdir, "durations.txt", "Rx 10\nSx 2\n")
    path = write(workdir, "par.jaqal",
                 "register q[3]\n< Rx q[1] 0.1 | Sx q[2] >\n")
    assert main(["schedule", path, "--durations", manifest]) == 0
    out = capsys.readouterr().out
    assert "total 10" in out
    assert "8 I_pad 2" in out  # Sx side padded out to the Rx duration


ROUND_OFF_MANIFEST = "Sx 0.05\nSy 0.1\nPx 0.7\n"
ROUND_OFF_SOURCE = ("register q[2]\n"
                    "< { Sy q[1]; Sx q[1]; Sy q[1]; Sy q[1] } "
                    "| { Px q[0]; Sx q[0]; Px q[0] } >\n"
                    "Sy q[1]\n")


def test_decimal_durations_schedule_and_run(workdir, capsys):
    """0.35 + (1.45 - 0.35) rounds past 1.45; the padding idle must still
    end exactly where the next gate on its qubit starts."""
    manifest = write(workdir, "durations.txt", ROUND_OFF_MANIFEST)
    path = write(workdir, "pad.jaqal", ROUND_OFF_SOURCE)
    assert main(["schedule", path, "-d", manifest]) == 0
    out = capsys.readouterr().out
    assert "0.35 1.1 I_pad 1\n" in out and out.endswith("total 1.55\n")
    assert main(["run", path, "-d", manifest]) == 0
    assert capsys.readouterr().err == ""


def test_bad_manifest_exits_one(workdir, capsys):
    manifest = write(workdir, "durations.txt", "Rx -1\n")
    path = write(workdir, "ok.jaqal", "register q[1]\nSx q[0]\n")
    assert main(["schedule", path, "--durations", manifest]) == 1
    assert "bad-manifest" in capsys.readouterr().err


@pytest.mark.parametrize("value, duration", [
    ("-0", "0"), ("+2", "2"), (".5", "0.5"), ("1e1", "10")])
def test_manifest_durations_are_ascii_decimals(workdir, capsys, value,
                                               duration):
    """A sign, a leading point and an exponent are fine; -0 reads as 0."""
    manifest = write(workdir, "durations.txt", f"Sx {value}\n")
    path = write(workdir, "ok.jaqal", "register q[1]\nSx q[0]\n")
    assert main(["schedule", path, "-d", manifest]) == 0
    assert capsys.readouterr().out == (
        f"0 {duration} Sx 0\ntotal {duration}\n")


@pytest.mark.parametrize("value", ["1_0", "\u0661"])
def test_manifest_refuses_what_the_lexer_refuses(workdir, capsys, value):
    """float() reads an underscore-separated or Arabic-Indic numeral; the
    Jaqal lexer takes ASCII digits only, and so does the manifest."""
    manifest = write(workdir, "durations.txt", f"Sx {value}\n")
    path = write(workdir, "ok.jaqal", "register q[1]\nSx q[0]\n")
    assert main(["schedule", path, "-d", manifest]) == 1
    assert capsys.readouterr().err == (
        f"{manifest}: bad-manifest: manifest line 1: bad duration "
        f"{value!r}\n")


@pytest.mark.parametrize("value, message", [
    ("1e999", "duration 1e999 is too large for a finite number"),
    ("-1e999", "duration must be a non-negative number, got -1e999")])
def test_a_manifest_duration_that_overflows_is_too_large(workdir, capsys,
                                                         value, message):
    """float() reads 1e999 as inf: the decimal is valid but too large.  A
    negative one is refused for its sign first."""
    manifest = write(workdir, "durations.txt", f"Sx {value}\n")
    path = write(workdir, "ok.jaqal", "register q[1]\nSx q[0]\n")
    assert main(["schedule", path, "-d", manifest]) == 1
    assert capsys.readouterr().err == (
        f"{manifest}: bad-manifest: manifest line 1: {message}\n")


def test_the_largest_finite_manifest_durations_pass(workdir, capsys):
    manifest = write(workdir, "durations.txt", "Sx 1e308\n")
    path = write(workdir, "ok.jaqal", "register q[1]\nSx q[0]\n")
    assert main(["schedule", path, "-d", manifest]) == 0
    assert capsys.readouterr().out == "0 1e+308 Sx 0\ntotal 1e+308\n"


def test_only_a_line_feed_ends_a_manifest_line(workdir, capsys):
    """A vertical tab is whitespace inside a line, not a line break."""
    manifest = write(workdir, "durations.txt", "Sx 1\vSy 2\n")
    path = write(workdir, "ok.jaqal", "register q[1]\nSx q[0]\n")
    assert main(["schedule", path, "-d", manifest]) == 1
    err = capsys.readouterr().err
    assert "bad-manifest: manifest line 1: expected '<gate> <duration>'" in err


def test_undecodable_manifest_is_named_as_the_manifest(workdir, capsys):
    manifest = workdir / "durations.txt"
    manifest.write_bytes(b"Sx \xff\n")
    path = write(workdir, "ok.jaqal", "register q[1]\nSx q[0]\n")
    assert main(["schedule", path, "-d", str(manifest)]) == 1
    assert capsys.readouterr().err == (
        f"{manifest}: manifest is not valid UTF-8 text\n")


# -- pipeline composability ------------------------------------------------------

def test_run_equals_library_pipeline(workdir):
    from jaqalc import (analyze, builtin_gateset, emit, expand, parse,
                        run as lib_run)

    path = write(workdir, "example.jaqal", WORKED_EXAMPLE)
    assert main(["run", path, "--seed", "3"]) == 0
    cli_bytes = (workdir / "example.out").read_bytes()

    gates = builtin_gateset()
    program, _ = parse(WORKED_EXAMPLE)
    symbols, _ = analyze(program, gates)
    circuit = expand(program, gates, symbols)
    assert emit(lib_run(circuit, gates, seed=3)) == cli_bytes


ALTERNATING = ("register q[2]\nloop 4 { prepare_all; Px q[0]; measure_all\n"
               "prepare_all; Sxx q[0] q[1]; measure_all }\n")


@settings(max_examples=50, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=st.just(ALTERNATING) | st.integers(0, 2 ** 32 - 1).map(
    lambda seed: random_program(random.Random(seed), max_qubits=4)))
def test_run_p_prints_one_line_per_distribution(tmp_path, source):
    """The -p file is each measurement's sorted distribution on its own
    line, whether or not the shot before it printed the same line."""
    from jaqalc import builtin_gateset, expand, parse, probabilities

    path = write(tmp_path, "prog.jaqal", source)
    out = tmp_path / "prog.out"
    assert main(["run", path, "-p", "-o", str(out)]) == 0
    gates = builtin_gateset()
    circuit = expand(parse(source)[0], gates)
    assert out.read_text() == "".join(
        " ".join(f"{b} {p!r}" for b, p in sorted(d.items())) + "\n"
        for d in probabilities(circuit, gates))


# -- start-up --------------------------------------------------------------------

STARTUP_PROBE = r"""
import sys
from jaqalc.cli import main
source, manifest, out = sys.argv[1:4]
def report(step, loaded=()):
    now = {m[7:] for m in sys.modules if m.startswith("jaqalc.")}
    print(step, "numpy" in sys.modules, *sorted(now - set(loaded)))
    if step != "run":  # numpy imports inspect
        slow = {"dataclasses", "inspect"} & set(sys.modules)
        assert not slow, (step, slow)
    return now
loaded = report("import")
for argv in (["check", source], ["expand", source, "-o", out],
             ["schedule", source, "-d", manifest, "-o", out],
             ["run", source, "-o", out]):
    assert main(argv) == 0, argv
    loaded = report(argv[0], loaded)
"""

NAMES_PROBE = r"""
import sys
import jaqalc
for module in ("gateset", "expander", "scheduler"):
    assert f"jaqalc.{module}" not in sys.modules, module
    assert getattr(jaqalc, module) is sys.modules[f"jaqalc.{module}"]
for name in jaqalc.__all__:
    getattr(jaqalc, name)
print(len(jaqalc.__all__))
"""


def _python(workdir, code, *args) -> str:
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env={**os.environ, "PYTHONPATH": str(SRC)},
                          cwd=workdir, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_only_run_imports_the_simulator_and_numpy(workdir):
    """check, expand and schedule need names, arities and durations, never a
    matrix, so they start without numpy, and without dataclasses and
    inspect; each command adds only the stages it runs to what the command
    line loads for all of them."""
    source = SRC / "jaqalc" / "corpus" / "output_example.jaqal"
    manifest = write(workdir, "durations.txt", "Px 2.5\nprepare_all 7\n")
    out = workdir / "out.txt"
    assert _python(workdir, STARTUP_PROBE, source, manifest, out) == (
        "import False analyzer ast cli diagnostics errors gateset parser "
        "record\n"
        "check False\n"
        "expand False expander\n"
        "schedule False scheduler\n"
        "run True emitter simulator\n")


RUN_PROBE = r"""
import sys
from jaqalc.cli import main
for flags in ([], ["-p"]):
    assert main(["run", sys.argv[1], "-o", sys.argv[2], *flags]) == 0
print("jaqalc.expander" in sys.modules)
"""


def test_run_loads_no_expander(workdir):
    """The simulator reads the IR records from the analyzer, which built
    the circuit, so ``run`` never compiles the expander."""
    source = write(workdir, "loops.jaqal", "register q[2]\nloop 3 { loop 2 "
                   "{ prepare_all; Sx q[0]; measure_all } prepare_all; "
                   "Sy q[1] }\n")
    assert _python(workdir, RUN_PROBE, source, workdir / "out") == "False\n"


def test_every_public_name_resolves_in_a_fresh_interpreter(workdir):
    import jaqalc

    assert _python(workdir, NAMES_PROBE) == f"{len(jaqalc.__all__)}\n"


# -- totality ------------------------------------------------------------------

def _small_register(source: str) -> bool:
    """Registers that run simulates quickly, or that it refuses before
    allocating: a 20-qubit state is 16 MiB swept once per gate."""
    return all(int(size) <= 12 or int(size) > MAX_QUBITS
               for size in re.findall(r"register\s+q\[(\d+)\]", source))


@settings(max_examples=200, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), edited=st.booleans())
def test_every_command_is_total(tmp_path, capsys, seed, edited):
    """Any program or single-character edit of one gets exit code 0, 1 or 2
    and diagnostics, never a traceback, under every command."""
    rng = random.Random(seed)
    source = random_program(rng, max_qubits=4)
    if edited:
        source = mutant(rng, source)
    assume(_small_register(source))
    path = tmp_path / "prog.jaqal"
    path.write_bytes(source.encode())
    out = str(tmp_path / "prog.out")
    for command in EVERY_COMMAND:
        argv = command + [str(path)]
        if command[0] != "check":
            argv += ["-o", out]
        status = main(argv)
        captured = capsys.readouterr()
        assert status in (0, 1, 2), (argv, source)
        assert "Traceback" not in captured.out + captured.err, (argv, source)


LIMIT_PROGRAMS = (*(deep_program(shape, depth) for shape in DEEP_SHAPES
                    for depth in (MAX_NESTING, MAX_NESTING + 1)),
                  "register q[1]\nloop 1000000000000 { Sx q[0] }\n")


@settings(max_examples=60, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(source=st.sampled_from(LIMIT_PROGRAMS),
       seed=st.integers(0, 2 ** 32 - 1), edited=st.booleans())
def test_every_command_is_total_at_the_limits(tmp_path, capsys, source,
                                              seed, edited):
    """Nesting at and one past ``MAX_NESTING`` and a loop far over the gate
    budget, or a single-character edit of one, get exit code 0, 1 or 2 and
    no traceback under every command."""
    if edited:
        source = mutant(random.Random(seed), source)
    assume(_small_register(source))
    path = tmp_path / "prog.jaqal"
    path.write_bytes(source.encode())
    out = str(tmp_path / "prog.out")
    for command in EVERY_COMMAND:
        argv = command + [str(path)]
        if command[0] != "check":
            argv += ["-o", out]
        status = main(argv)
        captured = capsys.readouterr()
        assert status in (0, 1, 2), (argv, source)
        assert "Traceback" not in captured.out + captured.err, (argv, source)


@settings(max_examples=60, deadline=timedelta(seconds=10),
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2 ** 32 - 1), edited=st.booleans(),
       qubits=st.integers(13, 24))
def test_the_front_end_is_total_on_wide_registers(tmp_path, capsys, seed,
                                                  edited, qubits):
    """check, expand and schedule allocate no state, so any program or
    single-character edit of one, on a register of 13 to 24 qubits, gets
    exit code 0, 1 or 2 and no traceback, with or without a manifest.
    run is never asked for here: such a state is too large for a test."""
    rng = random.Random(seed)
    source = random_program(rng, max_qubits=4)
    if edited:
        source = mutant(rng, source)
    source = re.sub(r"register\s+q\[\d+\]", f"register q[{qubits}]", source)
    path = tmp_path / "prog.jaqal"
    path.write_bytes(source.encode())
    manifest = write(tmp_path, "durations.txt",
                     "Px 2.5\nSxx 9\nprepare_all 7\n")
    out = str(tmp_path / "prog.out")
    for argv in (["check"], ["expand", "-o", out], ["schedule", "-o", out],
                 ["schedule", "-d", manifest, "-o", out]):
        status = main(argv + [str(path)])
        captured = capsys.readouterr()
        assert status in (0, 1, 2), (argv, source)
        assert "Traceback" not in captured.out + captured.err, (argv, source)
