"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
inline)."""

import contextlib
import io
import math
import random
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from jaqalc.analyzer import analyze, resolve_qubit
from jaqalc.ast import IntLiteral, QubitRef, pretty_print
from jaqalc.cli import main
from jaqalc.corpus import corpus_manifest
from jaqalc.diagnostics import has_errors
from jaqalc.emitter import emit, parse_output
from jaqalc.expander import FlatBlock, FlatCircuit, PrimitiveGate, expand
from jaqalc.gateset import (
    ANGLE_STEP,
    builtin_gateset,
    quantize_angle,
    wrap_angle,
)
from jaqalc.parser import parse
from jaqalc.scheduler import schedule, total_duration
from jaqalc.simulator import probabilities, run, unitary_of

from helpers import max_phase_deviation
from oracle import interpret_probabilities
from program_gen import random_program

GATES = builtin_gateset()

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


def report(number, name):
    """Print the criterion verdict even when the assertion unwinds."""

    class _Reporter:
        def __enter__(self):
            return self

        def __exit__(self, exc_type, exc, tb):
            verdict = "PASS" if exc_type is None else "FAIL"
            print(f"criterion {number} ({name}): {verdict}")
            return False

    return _Reporter()


def compiled(source):
    program, diags = parse(source)
    assert not has_errors(diags), diags
    symbols, sem = analyze(program, GATES)
    assert not has_errors(sem), sem
    return program, expand(program, GATES, symbols)


def test_criterion_1_worked_example_bytes():
    with report(1, "worked output example, bit exact"):
        started = time.perf_counter()
        _, circuit = compiled(WORKED_EXAMPLE)
        for seed in (0, 1, 12345):
            assert emit(run(circuit, GATES, seed=seed)) == b"10\n10\n01\n01\n"
        assert time.perf_counter() - started < 1.0


def test_criterion_2_slicing_offsets():
    with report(2, "slice alias resolves to offsets 1, 3, 5"):
        program, diags = parse("register q[7]\nmap ancilla q[1:7:2]\n")
        assert not has_errors(diags)
        table, sem = analyze(program, GATES)
        assert not has_errors(sem)
        offsets = [resolve_qubit(QubitRef("ancilla", IntLiteral(i)), table)
                   for i in range(3)]
        assert offsets == [1, 3, 5]


def test_criterion_3_gate_algebra():
    with report(3, "entangler algebra and unitarity"):
        X = np.array([[0, 1], [1, 0]], dtype=complex)
        sxx = unitary_of(GATES["Sxx"])
        ms = unitary_of(GATES["MS"], [0.0, math.pi / 2])
        oracle = expm(-1j * (math.pi / 4) * np.kron(X, X))
        assert max_phase_deviation(sxx, ms) <= 1e-10
        assert max_phase_deviation(sxx, oracle) <= 1e-10
        fixed = [d for d in GATES.values()
                 if d.kind in ("rotation", "idle") and d.float_arity == 0]
        assert len(fixed) >= 15
        for definition in fixed:
            u = unitary_of(definition)
            assert np.max(np.abs(u.conj().T @ u - np.eye(len(u)))) <= 1e-12, \
                definition.name


def test_criterion_4_bell_sampling():
    with report(4, "Bell frequencies and seed sensitivity"):
        started = time.perf_counter()
        source = ("register q[2]\n"
                  "loop 10000 { prepare_all\nSxx q[0] q[1]\nmeasure_all }\n")
        _, circuit = compiled(source)
        record = run(circuit, GATES, seed=0)
        counts = Counter(record)
        assert counts["01"] == 0 and counts["10"] == 0
        assert abs(counts["00"] / 10000 - 0.5) <= 0.02
        assert abs(counts["11"] / 10000 - 0.5) <= 0.02
        assert run(circuit, GATES, seed=1) != record
        assert time.perf_counter() - started < 5.0


def test_criterion_5_timing_semantics():
    with report(5, "parallel timing, padding, duration algebra"):
        _, circuit = compiled(
            "register q[2]\n< Px q[0] | { Sx q[1]; Sy q[1] } >\n")
        timeline = schedule(circuit, GATES)
        assert timeline.total_duration == 2.0
        assert len(timeline.inserted_idles) == 1
        (idle,) = timeline.inserted_idles
        assert (idle.qubit, idle.start, idle.duration) == (0, 1.0, 1.0)

        rng = random.Random(500)
        names = ["Sx", "Sy", "Sz", "Px", "Sxd"]

        def random_tree(pool, depth):
            if depth == 0 or len(pool) == 1 or rng.random() < 0.4:
                return PrimitiveGate(GATES[rng.choice(names)],
                                     (rng.choice(pool),))
            half = max(1, len(pool) // 2)
            if rng.random() < 0.5:
                return FlatBlock(True, (random_tree(pool[:half], depth - 1),
                                        random_tree(pool[half:], depth - 1)))
            return FlatBlock(False, tuple(
                random_tree(pool, depth - 1)
                for _ in range(rng.randint(1, 3))))

        for _ in range(200):
            a = FlatCircuit(4, FlatBlock(False, (random_tree([0, 1], 3),)))
            b = FlatCircuit(4, FlatBlock(False, (random_tree([2, 3], 3),)))
            da, db = total_duration(a, GATES), total_duration(b, GATES)
            seq = FlatCircuit(4, FlatBlock(False, (a.root, b.root)))
            par = FlatCircuit(4, FlatBlock(False, (
                FlatBlock(True, (a.root, b.root)),)))
            assert total_duration(seq, GATES) == da + db
            assert total_duration(par, GATES) == max(da, db)


def test_criterion_6_rejection_suite():
    rejects = [case for case in corpus_manifest()
               if not case.expectation.accept]
    required = {"recursive-macro", "forward-macro-reference",
                "loop-in-parallel", "same-kind-nesting", "parallel-conflict",
                "arity-mismatch", "illegal-character", "newline-before-brace"}
    with report(6, f"rejection suite over {len(rejects)} negatives"):
        covered = set()
        for case in rejects:
            buffer = io.StringIO()
            with contextlib.redirect_stderr(buffer):
                status = main(["check", str(case.source_file)])
            assert status == 1, case.name
            assert case.expectation.reject_code in buffer.getvalue(), \
                case.name
            covered.add(case.expectation.reject_code)
        assert required <= covered


def test_criterion_7_oracle_equivalence():
    with report(7, "probabilities match the dense AST interpreter"):
        started = time.perf_counter()
        rng = random.Random(777)
        for _ in range(100):
            source = random_program(rng, max_qubits=3, max_gates=30)
            program, diags = parse(source)
            assert not has_errors(diags), source
            circuit = expand(program, GATES)
            mine = probabilities(circuit, GATES)
            reference = interpret_probabilities(program)
            assert len(mine) == len(reference)
            for d, o in zip(mine, reference):
                keys = set(d) | set(o)
                tvd = 0.5 * sum(abs(d.get(k, 0.0) - o.get(k, 0.0))
                                for k in keys)
                assert tvd <= 1e-9, source
        assert time.perf_counter() - started < 30.0


def test_criterion_8_round_trips():
    with report(8, "pretty-print and output-format round trips"):
        for case in corpus_manifest():
            program, diags = parse(case.source)
            if has_errors(diags):
                continue  # lexically rejected sources have no tree to print
            printed = pretty_print(program)
            reparsed, diags2 = parse(printed)
            assert not has_errors(diags2), case.name
            assert reparsed == program, case.name
            assert pretty_print(reparsed) == printed, case.name
        rng = random.Random(88)
        for _ in range(1000):
            width = rng.randint(1, 12)
            record = ["".join(rng.choice("01") for _ in range(width))
                      for _ in range(rng.randint(0, 20))]
            assert parse_output(emit(record)) == record


def test_criterion_9_quantization():
    with report(9, "hardware angle quantization"):
        bound = 2 * math.pi / 2 ** 39
        assert ANGLE_STEP == bound
        rng = np.random.default_rng(99)
        for theta in rng.uniform(-10 * math.pi, 10 * math.pi, size=10000):
            snapped = quantize_angle(float(theta))
            assert abs(snapped - wrap_angle(float(theta))) <= bound
            assert quantize_angle(snapped) == snapped
        # results sit on the grid up to one float rounding of k*step
        step = Fraction(ANGLE_STEP)
        for theta in rng.uniform(-2 * math.pi, 2 * math.pi, size=100):
            snapped = quantize_angle(float(theta))
            k = round(Fraction(snapped) / step)
            ulp = Fraction(math.ulp(snapped if snapped else ANGLE_STEP))
            assert abs(Fraction(snapped) - k * step) <= ulp / 2
        # the flag routes every applied angle through the quantizer
        theta = 1.0000000001
        source = (f"register q[1]\nprepare_all\nRx q[0] {theta!r}\n"
                  "measure_all\n")
        _, circuit = compiled(source)
        (dist,) = probabilities(circuit, GATES, quantize=True)
        snapped = quantize_angle(theta)
        assert snapped != theta
        assert dist["1"] == pytest.approx(math.sin(snapped / 2) ** 2,
                                          abs=1e-15)
