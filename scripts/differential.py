#!/usr/bin/env python3
"""Compare the command line of the working tree against another revision.

Usage: python scripts/differential.py REV [--programs N]

Extracts ``src/`` at REV (``git archive``) into a temporary directory and
runs the same invocations against it and against ``src/`` of the working
tree: ``check``, ``expand``, ``schedule`` (plain, with the benchmark's
scan duration manifest, with decimal durations whose sums round, and with
a ``prepare_all`` of 2**52 that takes times past 2**53) and ``run``
(plain, ``-s 7``, ``-s 2**64-1``, ``-q -s 7``, ``-p``, ``-q -p``), over
the corpus ``.jaqal`` files, a fixed set of seeded single-character
mutants of them (each inserts, deletes or replaces one character, so most
exercise lexer and parser diagnostics), macro chains (plain and
alternating), nested loops and nested blocks at ``MAX_NESTING``
and one past it (the chains pass macro arguments through every level), the
benchmark's ``shots``, ``scan`` and ``wide`` programs at the default seed
(``wide`` runs 16 to 20 qubits, where the simulator kernel dominates), a
few loop, macro-substitution, angle-parameter, scheduling and ``run -p``
edge cases (``EDGES``, among them loops inside blocks, an angle passed down
a chain of macros, ``doubling_chain(12)``'s 4096 gates, shot loops whose
measurements repeat in runs, loops that the scheduler lays out once, whose
bodies take no time or tie with the next iteration, two scheduled under
their own manifests as well (``EDGE_MANIFESTS``), lexer edges such as
trailing whitespace, tabs, lone CRs, CRLF in comments and long or
non-finite literals, and ``HOLD_EDGES``, loops at the bound on what the
dumps hold), N seeded
``tests/program_gen.py`` programs of up to 4 qubits (default 150), N seeded
macro programs whose bodies name register qubits, ``WIDE_PROGRAMS`` seeded
ones of up to 12 qubits and ``blocked_program`` ones of 15 to 17, so a
kernel change is compared byte for byte on registers where every gate
sweeps a sizeable vector, in the many blocks of one past 2**14
amplitudes (``simulator.BLOCK``) too, and the 20-qubit
shift registers of m0..m12 invoking m10, with m0's gates in sequence and in
parallel, whose macros hand their callers pairs of qubit terms (these run
``check``, ``expand`` and ``schedule`` only: 20,480 gates on 20 qubits are
too slow to simulate here).  Each tree gets one child interpreter that calls
``jaqalc.cli.main`` in-process for every invocation, with standard output
and error captured.

Exit codes, standard output, standard error and the bytes of each output
file must be identical.  Every difference is printed, then a summary; the
exit status is 1 on any difference (a traceback in either tree counts as
one) and 0 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from itertools import zip_longest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Runs in a child interpreter: argv is SRC JOBS RESULTS.
CHILD = r"""
import contextlib, io, json, os, sys, traceback
src, jobs_path, results_path = sys.argv[1:4]
sys.path.insert(0, src)
from jaqalc.cli import main
results = []
with open(jobs_path) as f:
    jobs = json.load(f)
for argv, output in jobs:
    out, err = io.StringIO(), io.StringIO()
    crash = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = main(argv)
        except SystemExit as exc:
            status = exc.code
        except Exception:
            status, crash = None, traceback.format_exc()
    data = None
    if output is not None and os.path.exists(output):
        with open(output, "rb") as f:
            data = f.read().decode("latin-1")
        os.remove(output)
    results.append({"status": status, "stdout": out.getvalue(),
                    "stderr": err.getvalue(), "output": data,
                    "traceback": crash})
with open(results_path, "w") as f:
    json.dump(results, f)
"""

FIELDS = ("status", "stdout", "stderr", "output")

MUTANTS_PER_SOURCE = 10

WIDE_PROGRAMS = 10
BLOCKED_QUBITS = (15, 16, 17)  # registers past the kernel's BLOCK amplitudes

# Loops kept whole in the flat IR meet blocks, macros and conflicts here.
EDGES = {
    # the duplicate qubit is reported at the invocation, the parallel
    # block's conflict at the sibling
    "conflict_order": ("register q[2]\nmacro d a b { I_Sxx a b }\n"
                       "< d q[0] q[0] | Sz q[0] >\n"),
    # substitution conflicts, which analysis finds by checking a macro
    # body again with its qubits bound, and reports at the invocation
    "macro_parallel_conflict": ("register q[2]\nmacro m a { Sx a }\n"
                                "< m q[0] | Sy q[0] >\n"),
    "conflict_two_macros_deep": ("register q[2]\nmacro d a b { Sxx a b }\n"
                                 "macro m a { d a a }\nprepare_all\n"
                                 "m q[1]\nmeasure_all\n"),
    "conflict_in_a_macro_loop": ("register q[3]\nmacro m a b { loop 3 { "
                                 "< Sx a | Sy b > } }\nprepare_all\n"
                                 "m q[0] q[1]\nm q[2] q[2]\nmeasure_all\n"),
    # a register qubit passed on beside a parameter, or named in the body
    # of the macro invoked, meets a sibling's only once bound
    "passed_offset_meets_a_sibling": ("register q[2]\nmacro d a b { Sx a; "
                                      "Sx b }\nmacro m a < d a q[1] | "
                                      "Sx q[1] >\nm q[0]\nm q[1]\n"),
    "callee_offset_meets_a_sibling": ("register q[2]\nmacro d a { Sx a; "
                                      "Sx q[1] }\nmacro m a < d a | Sy q[1] "
                                      ">\nm q[0]\n"),
    # a conflict in a definition is reported there once, not per invocation
    "conflict_in_a_definition": ("register q[2]\nmacro d a b { I_Sxx a b }\n"
                                 "macro m a { d q[0] q[0]; Sx a }\n"
                                 "m q[0]\nm q[1]\n"),
    "loop_in_parallel_macro": ("register q[2]\n"
                               "macro m a { loop 2 { Sx a\nRz a 0.5 } }\n"
                               "prepare_all\n< m q[0] | Sz q[1] >\n"
                               "measure_all\n"),
    "shot_loop": ("register q[2]\nloop 20000 { prepare_all; Sxx q[0] q[1]; "
                  "measure_all }\n"),
    "nested_shot_loops": ("register q[1]\nloop 3 { loop 0 { Sx q[0] }\n"
                          "loop 1 { prepare_all }\nloop 4 { Sy q[0] }\n"
                          "< Sz q[0] >\nmeasure_all }\n"),
    # a register without a valid size is reported at the register only,
    # not at the qubits that name it; the angle slot's qubit still is
    "bad_register_with_gates": ("register q[0]\nmacro m a { Sx a }\n"
                                "m q[0]\nRx q[0] q[1]\n"),
    # a loop body's dump repeats indented brackets; under the scan
    # manifest Rz takes no time, so timeline rows tie across iterations
    "loop_dump": ("register q[2]\nloop 3 { < Sx q[0] | { Sy q[1]; "
                  "Rz q[1] 0.5 } >\nloop 2 { Sxx q[0] q[1] }\n"
                  "Rz q[0] 0.25 }\n"),
    # equal under == but printed apart; bound checks are keyed on qubits
    "number_forms": ("register q[1]\nmacro m a { Rz q[0] a }\nprepare_all\n"
                     "m 1\nm 1.0\nm -0.0\nm 0.0\nm 1\nmeasure_all\n"),
    # one check's items spliced at top level, into a parallel block and
    # into a loop; a parallel body splices into a parallel block
    "one_binding_three_contexts": (
        "register q[3]\nmacro m a b { Sx a; Sy b }\n"
        "macro p a b < Rz a 0.5 | Sx b >\nprepare_all\nm q[0] q[1]\n"
        "< m q[0] q[1] | Sz q[2] >\nloop 2 { m q[0] q[1] }\np q[0] q[1]\n"
        "< p q[0] q[1] | Sz q[2] >\nmeasure_all\n"),
    # the scheduler: padding nested in a parallel block in a sequence in a
    # parallel block, run by a loop; under the scan manifest Rz, Sz and
    # Szd take no time, so rows tie where one loop iteration meets the next
    # and where one loop meets the next statement
    "nested_padding_in_a_loop": (
        "register q[3]\nprepare_all\nloop 3 { < { Sx q[0]; Sy q[0]; "
        "Rz q[0] 0.5 } | { < Px q[1] | Sz q[2] >; Sy q[1] } > }\n"
        "measure_all\n"),
    "zero_duration_at_a_loop_boundary": (
        "register q[2]\nloop 4 { Sx q[0]; Rz q[0] 0.5 }\n"
        "loop 2 { Sz q[1]; Sy q[1]; Szd q[1] }\nRz q[1] 0.25\nSx q[0]\n"),
    # a top-level parallel block is written whole, at the step after it
    "top_level_parallel_block": (
        "register q[3]\n< { Rz q[0] 0.5; Sx q[0] } | Sy q[1] | { Sz q[2]; "
        "Pz q[2]; Rz q[2] 1 } >\nloop 2 { < Sx q[1] | Rz q[2] 0.5 > }\n"),
    # run -p streams each line in chunks of 4096 outcomes; an invalid
    # register size is reported before anything is simulated
    "zero_register_shots": ("register q[0]\nprepare_all\nmeasure_all\n"
                            "prepare_all\nmeasure_all\n"),
    # 8192 equally likely outcomes: the line crosses a chunk
    "dense_13_qubits": ("register q[13]\nprepare_all\n"
                        + "".join(f"Sy q[{q}]\n" for q in range(13))
                        + "measure_all\n"),
    "alternating_segments": ("register q[2]\nloop 4 { prepare_all\n"
                             "Rx q[0] 0.3\nmeasure_all\nprepare_all\n"
                             "Sxx q[0] q[1]\nRy q[1] 1.1\nmeasure_all }\n"),
    # distinct segments, equal distributions, on alternate shots
    "equal_distributions": ("register q[2]\nloop 3 { prepare_all\nSx q[1]\n"
                            "measure_all\nprepare_all\nSy q[1]\n"
                            "measure_all }\n"),
    # a loop whose iteration runs more than HOLD_GATES (4096) gates is
    # walked per iteration in both dumps
    "nested_loop_dump": ("register q[2]\nloop 3 { prepare_all\nloop 2 { "
                         "loop 700 { Sx q[0]\nmeasure_all\nprepare_all } }"
                         "\nSy q[1]\nmeasure_all }\n"),
    # the register is destroyed after lines were due: run -p writes none
    "destroyed_in_a_later_iteration": ("register q[1]\nloop 3 { Sx q[0]\n"
                                       "measure_all }\n"),
    "destroyed_after_a_shot_loop": ("register q[2]\nloop 2 { prepare_all\n"
                                    "loop 2 { < Sx q[0] | Sy q[1] > }\n"
                                    "measure_all }\nI_Sx q[1]\n"),
    # expand writes a block's markers around its children's chunks: a
    # loop in a block is rendered once and repeated, or, if an iteration
    # runs more than HOLD_GATES gates, walked per iteration
    "macro_loop_3_in_a_parallel_block": (
        "register q[2]\nmacro m a { loop 3 { Sx a; Rz a 0.5 } }\n"
        "prepare_all\n< m q[0] | Sz q[1] >\nmeasure_all\n"),
    "macro_loop_3000_in_a_parallel_block": (
        "register q[2]\nmacro m a { loop 3000 { Sx a; Rz a 0.5 } }\n"
        "prepare_all\n< m q[0] | Sz q[1] >\nmeasure_all\n"),
    "long_nested_loop_in_a_block": (
        "register q[2]\nmacro m a { loop 3 { Sy a; loop 2 { loop 700 { "
        "Sx a } } } }\nprepare_all\n< m q[0] | Sz q[1] >\nmeasure_all\n"),
    "macro_loop_in_a_parallel_block_in_a_sequential_block": (
        "register q[3]\nmacro m a { loop 3 { Sx a; Rz a 0.5 } }\n"
        "prepare_all\n< { < m q[0] | Sz q[1] >; Sx q[0] } | Sy q[2] >\n"
        "measure_all\n"),
    # run walks a loop until two iterations start alike, then samples the
    # last one's tables for the rest, in batches of 16384 draws
    "segment_spanning_iterations": (
        "register q[2]\nprepare_all\nloop 1000 { Sx q[0]; measure_all; "
        "prepare_all; Sy q[1] }\nmeasure_all\n"),
    "alternating_shots": ("register q[2]\nloop 1000 { prepare_all; Rx q[0] "
                          "0.3; measure_all; prepare_all; Sxx q[0] q[1]; "
                          "Ry q[1] 1.1; measure_all }\n"),
    "discarded_segment_in_a_loop": (
        "register q[2]\nloop 500 { prepare_all; Sx q[0]; prepare_all; "
        "Sy q[1]; Sxx q[0] q[1]; measure_all }\n"),
    "nested_shot_loops_with_runs": (
        "register q[2]\nloop 30 { loop 40 { prepare_all; Sx q[0]; "
        "measure_all } loop 3 { prepare_all; Sxx q[0] q[1]; measure_all } "
        "}\n"),
    "growing_segment": ("register q[2]\nloop 3 { prepare_all; loop 2000 { "
                        "Sx q[0] } measure_all }\nprepare_all\n"
                        "loop 5000 { Sy q[1] }\n"),
    "shots_across_draw_batches": (
        "register q[3]\nloop 40000 { prepare_all; Sx q[0]; Sy q[1]; "
        "Rx q[2] 0.4; measure_all }\n"),
    # schedule lays a loop out once and writes the rest shifted; under the
    # scan manifest Rz, Sz and Pz take no time: loop bodies that take none
    # (one row per sort key, tied with the gates around them), bodies whose
    # last row ties with the next iteration's first (walked), and shot
    # loops nested three deep with padding in their bodies
    "zero_span_loops": (
        "register q[2]\nRz q[0] 0.1\nloop 5000 { Rz q[0] 0.5; Rz q[0] 0.7; "
        "Sz q[1] }\nSx q[0]\nloop 3 { loop 4 { Pz q[1] } }\n"
        "Rz q[0] 0.2\nloop 7 { loop 2 { Sz q[0] } Sx q[1] }\n"),
    "zero_duration_tails": (
        "register q[2]\nloop 50 { Sx q[0]; < Sy q[1] | Rz q[0] 0.5 >; "
        "Sz q[1] }\nloop 3 { Sx q[0]; loop 20 { Sy q[1]; Rz q[1] 0.5 } }\n"
        "loop 2 { loop 5 { Sx q[1] } Rz q[1] 0.5 }\n"),
    "nested_shot_loops_padded": (
        "register q[3]\nloop 2 { loop 10 { loop 50 { prepare_all; < Sx q[0] "
        "| { Sy q[1]; Sz q[1] } >; Sxx q[0] q[2]; measure_all } } "
        "Rz q[2] 0.3 }\n"),
    # scheduled under their own manifests too (EDGE_MANIFESTS): a loop that
    # takes no time after a 0.1 loop, replayed though times are inexact,
    # and parallel gates whose durations sum past 2**53 but end below it,
    # so the loop after them is replayed
    "zero_span_after_a_decimal_loop": ("register q[1]\nloop 3 { Sx q[0] }\n"
                                       "loop 5000 { Rz q[0] 0.5 }\n"),
    "parallel_sum_past_2_53": ("register q[3]\n< Sx q[0] | Sx q[1] | "
                               "Sx q[2] >\nloop 1000 { Sy q[0] }\n"),
    # the lexer: spaces and tabs go into the next token's match, and the
    # end of input is a match of its own; well-formed literals are
    # converted directly, the rest reported by length
    "whitespace_only_tail": "register q[1]\nSx q[0]\n  \t \t  ",
    "tab_indents": "register q[2]\n\tSx q[0]\n\t\t< Sy q[0] |\tSx q[1] >\n",
    "crlf_in_a_block_comment": ("register q[1]\r\n/* a\r\nb\r\n */ Sx q[0]"
                                "\r\nSy q[0]\r\n"),
    "lone_cr": "register q[1]\nSx q[0]\rSy q[0]\n",
    "infinite_literal": "register q[1]\nRz q[0] 1e400\n",
    "5000_digit_integer": ("register q[1]\nloop " + "1" * 5000
                           + " { Sx q[0] }\n"),
    "digit_then_letter": "register q[1]\nRz q[0] 0q\n",
    "exponent_without_digits": "register q[1]\nRz q[0] .5e\n",
    "bare_minus": "register q[1]\nRz q[0] - 5\n",
    "spaced_brackets": "register q[2]\nSx q[ 0 ]\nSy q[\t1\t]\n",
    "open_comment_at_end": "register q[1]\nSx q[0]\n/*",
    "line_comment_at_end": "register q[1]\nSx q[0] // no final newline",
}
EDGE_MANIFESTS = {"zero_span_after_a_decimal_loop": "Rz 0\nSx 0.1\n",
                  "parallel_sum_past_2_53": "Sx 4503599627370496\n"}

# loops at the hold bound, after doubling_chain(12)'s macros on two qubits:
# an iteration of m11 runs HOLD_GATES gates, so the dumps hold the loop, and
# one more Sx takes it past, so they walk it.  A held loop inside a walked
# one, a walked loop inside a walked one (a held loop cannot hold a walked
# one: its iteration runs all of its inner loops' gates), a walked loop in
# a parallel block, and a walked body whose tail takes no time under the
# scan manifest (Rz, Sz), tied with the next iteration's first row.
HOLD_EDGES = {
    "hold_at_the_bound": "prepare_all\nloop 3 { m11 q[0] }\nmeasure_all\n",
    "hold_past_the_bound": "loop 3 { m11 q[0]; Sx q[0] }\nmeasure_all\n",
    "held_in_a_held_loop_at_the_bound": "loop 3 { loop 2 { m10 q[1] } }\n",
    "held_in_a_walked_loop": ("loop 2 { prepare_all; m11 q[0]; loop 3 { "
                              "< Sy q[0] | Sx q[1] > } measure_all }\n"),
    "walked_in_a_walked_loop": ("loop 2 { Sy q[1]; loop 2 { m11 q[0]; "
                                "Sx q[0] } }\n"),
    "walked_in_a_parallel_block": ("macro w a { loop 2 { Sy a; m11 a } }\n"
                                   "< w q[0] | Sz q[1] >\n"),
    "zero_duration_tail_past_the_bound": (
        "loop 3 { m11 q[0]; Sx q[1]; Rz q[0] 0.5; Sz q[1] }\nSx q[0]\n"),
}

# schedule manifests beside the scan one: decimal durations, whose sums
# round, so every loop is walked; and 2**52, which takes times past 2**53
INEXACT_MANIFEST = "Sx 0.1\nSy 0.3\nMS 0.7\nmeasure_all 0.7\n"
PAST_2_53_MANIFEST = "prepare_all 4503599627370496\n"


def _deep(depth: int) -> dict:
    """Programs nesting ``depth`` levels, by file stem."""
    from program_gen import macro_chain, nested_blocks, nested_loops

    invoke = f"prepare_all\nm{depth - 1} q[0]\nmeasure_all\n"
    programs = {f"chain{depth}": macro_chain(depth) + invoke,
                f"alternating{depth}": macro_chain(depth, True) + invoke}
    for nested in (nested_blocks, nested_loops):
        programs[f"{nested.__name__}{depth}"] = (
            f"register q[1]\nprepare_all\n{nested(depth)}\nmeasure_all\n")
    return programs


def _inputs(work: Path, programs: int) -> list:
    sys.path[:0] = [str(ROOT / d) for d in ("tests", "src", "bench")]
    from jaqalc.ast import MAX_NESTING
    from program_gen import (PARALLEL_ALL, SX_ALL, bound_macro_program,
                             doubling_chain, fan_chain, mutant,
                             random_program, shift_register)
    from workloads import DEFAULT_SEED, generate

    inputs = []
    corpus = work / "corpus"
    corpus.mkdir()
    mutants = work / "mutants"
    mutants.mkdir()
    for source in sorted((ROOT / "src" / "jaqalc" / "corpus").glob("*.jaqal")):
        inputs.append(shutil.copy(source, corpus / source.name))
        text = source.read_text(encoding="utf-8")
        rng = random.Random(source.name)
        for index in range(MUTANTS_PER_SOURCE):
            path = mutants / f"{source.stem}-{index}.jaqal"
            # newline="" keeps a mutant's carriage returns as written
            with open(path, "w", encoding="utf-8", newline="") as f:
                f.write(mutant(rng, text))
            inputs.append(path)
    deep = work / "deep"
    deep.mkdir()
    for depth in (MAX_NESTING, MAX_NESTING + 1):
        for stem, text in _deep(depth).items():
            path = deep / f"{stem}.jaqal"
            path.write_text(text)
            inputs.append(path)
    edges = work / "edges"
    edges.mkdir()
    # an angle passed down 27 macro levels to 64 gates; 4096 gates between
    # the top level's loops
    texts = dict(EDGES, number_parameter_chain=fan_chain(6, 20, "0.5"),
                 doubling_chain12=doubling_chain(12))
    macros = "\n".join(["register q[2]",
                        *doubling_chain(12).splitlines()[1:-3], ""])
    texts.update((stem, macros + body) for stem, body in HOLD_EDGES.items())
    for name in ("shots", "scan", "wide"):
        for program in generate(name, DEFAULT_SEED).programs:
            texts[program.name] = program.source
    for stem, text in texts.items():
        path = edges / f"{stem}.jaqal"
        path.write_text(text, newline="")  # carriage returns as written
        inputs.append(path)
    generated = work / "generated"
    generated.mkdir()
    for index in range(programs):
        path = generated / f"gen{index:04d}.jaqal"
        path.write_text(random_program(random.Random(index), max_qubits=4))
        inputs.append(path)
    for index in range(programs):
        path = generated / f"register{index:04d}.jaqal"
        path.write_text(bound_macro_program(random.Random(index), 4,
                                            register=True))
        inputs.append(path)
    for index in range(WIDE_PROGRAMS):
        path = generated / f"wide{index:02d}.jaqal"
        path.write_text(random_program(random.Random(f"wide{index}"),
                                       max_qubits=12))
        inputs.append(path)
    for n in BLOCKED_QUBITS:
        path = generated / f"blocked{n}.jaqal"
        path.write_text(blocked_program(random.Random(f"blocked{n}"), n))
        inputs.append(path)
    analysis_only = []
    for stem, m0_body in (("shift_sequential", f"{{ {SX_ALL} }}"),
                          ("shift_parallel", f"< {PARALLEL_ALL} >")):
        path = edges / f"{stem}.jaqal"
        path.write_text(shift_register(m0_body, last=12, invoked=10))
        analysis_only.append(str(path))
    return [str(path) for path in inputs], analysis_only


def blocked_program(rng: random.Random, n: int) -> str:
    """Two segments on an n-qubit register whose state spans several of
    the simulator's blocks: x/y rotations on the top and bottom qubits and
    six others, ``MS`` and ``Sxx`` on the top and bottom pair in both
    orders and on random pairs of them, then one ``Rz``; the other qubits
    stay in |0>, so a ``run -p`` line names at most 2**8 outcomes."""
    mixed = [0, n - 1, *rng.sample(range(1, n - 1), 6)]
    lines = [f"register q[{n}]"]
    for _ in range(2):
        lines.append("prepare_all")
        for q in rng.sample(mixed, len(mixed)):
            axis = rng.choice(("Rx", "Ry"))
            lines.append(f"{axis} q[{q}] {rng.uniform(-3.2, 3.2):.6f}")
        pairs = [(0, n - 1), (n - 1, 0), *(rng.sample(mixed, 2)
                                           for _ in range(4))]
        for a, b in pairs:
            lines.append(rng.choice((
                f"Sxx q[{a}] q[{b}]",
                f"MS q[{a}] q[{b}] {rng.uniform(-3.2, 3.2):.6f} "
                f"{rng.uniform(-3.2, 3.2):.6f}")))
        lines.append(f"Rz q[{rng.choice(range(n))}] {rng.uniform(-3, 3):.6f}")
        lines.append("measure_all")
    return "\n".join(lines) + "\n"


def _jobs(work: Path, inputs: list, analysis_only: list) -> list:
    from workloads import SCAN_MANIFEST

    manifests = []
    for name, text in (("scan", SCAN_MANIFEST), ("inexact", INEXACT_MANIFEST),
                       ("past_2_53", PAST_2_53_MANIFEST)):
        manifests.append(work / f"{name}.manifest")
        manifests[-1].write_text(text)
    commands = (["check"], ["expand"], ["schedule"],
                *(["schedule", "-d", str(path)] for path in manifests),
                ["run"], ["run", "-s", "7"], ["run", "-s", str(2 ** 64 - 1)],
                ["run", "-q", "-s", "7"], ["run", "-p"], ["run", "-q", "-p"])
    jobs = []
    for path in inputs:
        # ``run`` writes next to its input unless given -o
        output = str(Path(path).with_suffix(".out"))
        for command in commands:
            jobs.append((command + [path],
                         output if command[0] == "run" else None))
        if Path(path).stem in EDGE_MANIFESTS:
            own = Path(path).with_suffix(".manifest")
            own.write_text(EDGE_MANIFESTS[own.stem])
            jobs.append((["schedule", "-d", str(own), path], None))
    jobs += [(command + [path], None) for path in analysis_only
             for command in commands[:3]]
    return jobs


def _extract(rev: str, dest: Path) -> Path:
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", rev, "src"],
                             capture_output=True)
    if archive.returncode != 0:
        sys.exit(f"git archive {rev} failed: "
                 f"{archive.stderr.decode(errors='replace').strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        tar.extractall(dest, filter="data")
    return dest / "src"


def _run_tree(src: Path, work: Path, jobs_path: Path, name: str) -> list:
    results_path = work / f"results-{name}.json"
    # -I ignores PYTHONDONTWRITEBYTECODE; -B keeps __pycache__ out of src/
    subprocess.run([sys.executable, "-I", "-B", "-c", CHILD, str(src),
                    str(jobs_path), str(results_path)], cwd=work, check=True)
    with open(results_path) as f:
        return json.load(f)


def _clip(text: str, limit=300) -> str:
    return text if len(text) <= limit else text[:limit] + "..."


def _first_difference(before, after):
    """The two values, or for text their first differing lines."""
    if not (isinstance(before, str) and isinstance(after, str)):
        return repr(before), repr(after)
    lines = zip_longest(before.splitlines(keepends=True),
                        after.splitlines(keepends=True))
    for number, (old, new) in enumerate(lines, 1):
        if old != new:
            return (f"line {number}: {_clip(repr(old))}",
                    f"line {number}: {_clip(repr(new))}")
    return repr(before), repr(after)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="revision to compare against")
    parser.add_argument("--programs", type=int, default=150,
                        help="generated programs to add (default 150)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="jaqalc-diff-") as tmp:
        tmp = Path(tmp)
        old_src = _extract(args.rev, tmp / "old")
        work = tmp / "work"
        work.mkdir()
        inputs, analysis_only = _inputs(work, args.programs)
        jobs = _jobs(work, inputs, analysis_only)
        inputs += analysis_only
        jobs_path = work / "jobs.json"
        jobs_path.write_text(json.dumps(jobs))
        old = _run_tree(old_src, work, jobs_path, "old")
        new = _run_tree(ROOT / "src", work, jobs_path, "new")

    differing = tracebacks = 0
    for (argv, _), before, after in zip(jobs, old, new):
        fields = [f for f in FIELDS if before[f] != after[f]]
        crashed = [(side, r["traceback"]) for side, r in
                   ((args.rev, before), ("working tree", after))
                   if r["traceback"] is not None]
        if not fields and not crashed:
            continue
        differing += 1
        tracebacks += bool(crashed)
        print(f"DIFF jaqalc {' '.join(argv)}")
        for field in fields:
            shown = _first_difference(before[field], after[field])
            print(f"  {field}: {args.rev}: {shown[0]}")
            print(f"  {field}: working tree: {shown[1]}")
        for side, text in crashed:
            print(f"  traceback in {side}: {text.strip().splitlines()[-1]}")
    print(f"{len(jobs)} invocations over {len(inputs)} inputs: "
          f"{len(jobs) - differing} identical, {differing} differ "
          f"({tracebacks} with a traceback)")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
