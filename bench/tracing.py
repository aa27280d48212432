"""In-process traced pass: per-module time, work counts and peak memory.

The pass calls jaqalc's public functions in the order the command line
does, for the same five commands on the same programs, and wraps each call
in a span.  Spans (name, start, end, parent, program) stay in memory and
are written out once at the end.  Every stage span here is a leaf under a
``cli.<command>`` root, so a stage's self time is its duration and a root's
self time is the glue between stages.

Two passes run: the traced pass for times and counts, and a memory pass
under ``tracemalloc``, kept apart because tracemalloc slows the pipeline
several times over.  The memory pass runs first, so the traced pass finds
imports done and caches warm.  Garbage is collected before each command,
since each command-line invocation starts with an empty heap.  Tracing
overhead is the number of spans recorded times the measured cost of one.
"""

from __future__ import annotations

import contextlib
import gc
import json
import sys
import time
import tracemalloc
from pathlib import Path

from harness import COMMANDS, SRC, digest, sample_seed
from workloads import Workload

MIB = 1024 * 1024


def _jaqalc():
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jaqalc

    return jaqalc


class Tracer:
    """Spans recorded as lists: [name, start, end, parent index, program]."""

    def __init__(self):
        self.spans: list = []
        self._open: list = []  # indices of spans not yet closed

    @contextlib.contextmanager
    def span(self, name: str, program: str):
        parent = self._open[-1] if self._open else -1
        record = [name, time.perf_counter(), None, parent, program]
        self.spans.append(record)
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._open.pop()
            record[2] = time.perf_counter()

    def self_times(self) -> dict:
        """Self seconds per span name, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for index, (name, start, end, _, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[index]
        return out

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "start", "end", "parent", "program"]
        path.write_text(json.dumps(
            {"fields": fields, "spans": self.spans}) + "\n")


class NullTracer:
    def span(self, name: str, program: str):
        return contextlib.nullcontext()


def span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds over an empty context manager."""
    costs = []
    for tracer in (Tracer(), NullTracer()):
        start = time.perf_counter()
        for _ in range(samples):
            with tracer.span("x", "x"):
                pass
        costs.append(time.perf_counter() - start)
    return max(0.0, costs[0] - costs[1]) / samples


def _format_distributions(distributions) -> bytes:
    """The -p file body, formatted as the command line formats it."""
    lines = []
    for distribution in distributions:
        pairs = sorted(distribution.items())
        lines.append(" ".join(f"{bits} {p!r}" for bits, p in pairs))
    return "".join(line + "\n" for line in lines).encode("ascii")


def _pipeline(jq, tracer, workload: Workload, index: int, command: str):
    """One command on one program, as the command line runs it.  Returns
    the bytes the command writes and the stage result they came from."""
    program = workload.programs[index]
    span = tracer.span
    name = program.name
    with span(f"cli.{command}", name):
        with span("gateset", name):
            gates = jq.builtin_gateset()
            if workload.manifest is not None and command not in (
                    "check", "expand"):
                gates = jq.apply_durations(gates, jq.load_duration_manifest(
                    workload.manifest, gates))
        with span("parser", name):
            tree, _ = jq.parse(program.source)
        with span("analyzer", name):
            symbols, _ = jq.analyze(tree, gates)
        if command == "check":
            return None, symbols
        with span("expander", name):
            circuit = jq.expand(tree, gates, symbols)
        if command == "expand":
            with span("expander.dump", name):
                text = jq.expander.dump_flat(circuit)
            return text.encode("ascii"), circuit
        with span("scheduler", name):
            timeline = jq.schedule(circuit, gates)
        if command == "schedule":
            with span("scheduler.dump", name):
                text = jq.scheduler.dump_timeline(timeline)
            text += f"total {timeline.total_duration:g}\n"
            return text.encode("ascii"), timeline
        if command == "run":
            with span("simulator.run", name):
                record = jq.run(circuit, gates,
                                seed=sample_seed(workload.seed, index),
                                quantize=workload.quantize)
            with span("emitter", name):
                return jq.emit(record), record
        with span("simulator.prob", name):
            distributions = jq.probabilities(circuit, gates,
                                             quantize=workload.quantize)
    return _format_distributions(distributions), distributions


def traced_pass(workload: Workload, tracer: Tracer) -> tuple:
    """All five commands on every program.  Returns the sha256 of every
    output keyed by (program, command), and the work counts."""
    jq = _jaqalc()
    digests = {}
    work = dict.fromkeys(COUNTS, 0)
    for index, program in enumerate(workload.programs):
        results = {}
        for command in COMMANDS:
            gc.collect()
            data, results[command] = _pipeline(jq, tracer, workload, index,
                                               command)
            if data is not None:
                digests[program.name, command] = digest(data)
        _count(jq, workload, program, results, work)
    return digests, work


def _segments(jq, circuit) -> tuple:
    """(segments, distinct segments): a segment is the gates from one
    prepare_all up to and including the next measure_all."""
    segments, distinct, current = 0, set(), []
    for gate in jq.expander.iter_gates(circuit):
        if gate.definition.kind == jq.gateset.PREPARATION:
            current = []
        current.append((gate.name, gate.qubits, gate.float_args))
        if gate.definition.kind == jq.gateset.MEASUREMENT:
            segments += 1
            distinct.add(tuple(current))
            current = []
    return segments, len(distinct)


COUNTS = (
    "parser.tokens", "expander.gates", "scheduler.entries", "scheduler.idles",
    "gateset.applications", "gateset.distinct_unitaries",
    "simulator.measurements", "simulator.segments",
    "simulator.distinct_segments", "simulator.state_bytes",
    "simulator.outcomes", "emitter.bytes")


def _count(jq, workload: Workload, program, results: dict, work: dict):
    """Add one program's deterministic work counts to ``work``; counts add
    up over programs, except state_bytes, the largest state vector."""
    circuit = results["expand"]
    timeline = results["schedule"]
    applied = [g for g in jq.expander.iter_gates(circuit)
               if g.definition.kind == jq.gateset.ROTATION]
    quantize = jq.quantize_angle if workload.quantize else float
    unitaries = {(g.name, tuple(quantize(f) for f in g.float_args))
                 for g in applied}
    segments, distinct = _segments(jq, circuit)
    state = jq.QuantumState(circuit.n_qubits)
    work["parser.tokens"] += len(jq.lex(program.source)[0])
    work["expander.gates"] += jq.count_primitive_gates(circuit)
    work["scheduler.entries"] += len(timeline.entries)
    work["scheduler.idles"] += len(timeline.inserted_idles)
    work["gateset.applications"] += len(applied)
    work["gateset.distinct_unitaries"] += len(unitaries)
    work["simulator.measurements"] += len(results["run"])
    work["simulator.segments"] += segments
    work["simulator.distinct_segments"] += distinct
    work["simulator.state_bytes"] = max(work["simulator.state_bytes"],
                                        state.amplitudes.nbytes)
    work["simulator.outcomes"] += sum(len(d) for d in results["prob"])
    work["emitter.bytes"] += len(jq.emit(results["run"]))


def memory_pass(workload: Workload) -> dict:
    """Peak MiB that each stage allocates above what was live before it,
    the largest over the workload's programs."""
    jq = _jaqalc()
    peaks = dict.fromkeys(("expander.peak_mb", "scheduler.peak_mb",
                           "simulator.run_peak_mb",
                           "simulator.prob_peak_mb"), 0.0)

    def stage(key, function, *args, **kwargs):
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        value = function(*args, **kwargs)
        peak = (tracemalloc.get_traced_memory()[1] - before) / MIB
        peaks[key] = max(peaks[key], peak)
        return value

    tracemalloc.start()
    try:
        for index, program in enumerate(workload.programs):
            gc.collect()
            gates = jq.builtin_gateset()
            if workload.manifest is not None:
                gates = jq.apply_durations(gates, jq.load_duration_manifest(
                    workload.manifest, gates))
            tree, _ = jq.parse(program.source)
            symbols, _ = jq.analyze(tree, gates)
            circuit = stage("expander.peak_mb", jq.expand, tree, gates,
                            symbols)
            stage("scheduler.peak_mb", jq.schedule, circuit, gates)
            stage("simulator.run_peak_mb", jq.run, circuit, gates,
                  seed=sample_seed(workload.seed, index),
                  quantize=workload.quantize)
            stage("simulator.prob_peak_mb", jq.probabilities, circuit, gates,
                  quantize=workload.quantize)
            del tree, symbols, circuit
    finally:
        tracemalloc.stop()
    return peaks
