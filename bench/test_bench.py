"""Tests of the benchmark itself: generator, correctness checks, metrics.

Run with ``python -m pytest bench``.  The smoke runs use workloads scaled
down to a few dozen shots, so they check names, units and outputs, not
speed.
"""

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, generate  # noqa: E402

SMOKE_SCALE = 0.02
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _metric_units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


@pytest.mark.parametrize("name", WORKLOADS)
def test_generator_is_byte_deterministic_per_seed(name):
    first = [p.source for p in generate(name, 11).programs]
    assert first == [p.source for p in generate(name, 11).programs]
    assert first != [p.source for p in generate(name, 12).programs]


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 5])
def test_every_generated_program_passes_check(name, seed, tmp_path, capsys):
    sys.path.insert(0, str(harness.SRC))
    from jaqalc.cli import main

    for program in generate(name, seed).programs:
        path = tmp_path / f"{program.name}.jaqal"
        path.write_text(program.source)
        assert main(["check", str(path)]) == 0
        assert capsys.readouterr().err == ""


@pytest.mark.parametrize("name", WORKLOADS)
def test_cost_shape_does_not_depend_on_the_seed(name):
    # the seed picks contents only, so run-to-run spread is not workload
    # drift
    assert (generate(name, 1).descriptors()
            == generate(name, 2).descriptors())


@pytest.fixture(scope="module")
def smoke():
    """One untimed round of every workload at smoke scale."""
    results = {}
    for name in WORKLOADS:
        workload = generate(name, DEFAULT_SEED, SMOKE_SCALE)
        results[name] = workload, reference.outputs(workload)
    return results


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(smoke, name):
    _, result = smoke[name]
    assert result.errors == [] and result.failed == 0
    metrics = result.metrics()
    assert {k: unit for k, (_, unit) in metrics.items()} == _metric_units(
        "end_to_end")
    assert all(value > 0 for value, _ in metrics.values())


@pytest.mark.parametrize("name", ["shots", "scan"])
def test_smoke_outputs_match_the_oracle(smoke, name):
    workload, result = smoke[name]
    assert reference.oracle_problems(workload, result) == []


def test_smoke_traced_pass_reports_every_layer_metric(smoke):
    workload, e2e = smoke["scan"]
    tracer = tracing.Tracer()
    digests, work = tracing.traced_pass(workload, tracer)
    peaks = tracing.memory_pass(workload)
    metrics = run.layer_metrics(workload, e2e, tracer, work, peaks)
    assert {k: unit for k, (_, unit) in metrics.items()} == _metric_units(
        "per_layer")
    assert run.trace_problems(workload, e2e, digests, work) == []
    # every scan feature shows up in the counts
    assert work["scheduler.idles"] > 0
    assert 0 < work["simulator.distinct_segments"] < work[
        "simulator.segments"]
    # deterministic counts repeat exactly
    assert tracing.traced_pass(workload, tracing.Tracer()) == (digests, work)


def test_times_are_scaled_by_the_neighbouring_calibrations(monkeypatch):
    # jaqalc takes 0.6 s between calibrations of 0.5 s and 0.3 s: the
    # machine runs at 0.4 / CALIBRATION_S of the reference speed
    monkeypatch.setattr(harness, "invoke",
                        lambda args, cwd: harness.Invocation(0.6, 1.0, 0, ""))
    monkeypatch.setattr(harness, "calibrate", lambda cwd: 0.3)
    result = harness.EndToEnd(workload=None, calibration=[0.5])
    call, seconds = result.timed(SimpleNamespace(dir=None),
                                 ["check", "empty.jaqal"])
    assert call.seconds == 0.6 and result.calibration == [0.5, 0.3]
    assert seconds == pytest.approx(0.6 * harness.CALIBRATION_S / 0.4)


def test_output_checks_catch_a_wrong_output(smoke):
    workload, result = smoke["shots"]
    program = workload.programs[0]
    outputs = dict(result.outputs[program.name])
    assert harness.check_outputs(program, outputs) is None
    outputs["run"] = outputs["run"][: -(program.n_qubits + 1)]
    assert "measurement lines" in harness.check_outputs(program, outputs)


def test_reference_covers_every_program_and_output():
    stored = json.loads(harness.REFERENCE.read_text())
    for name in WORKLOADS:
        programs = generate(name, DEFAULT_SEED).programs
        assert set(stored[name]) == {p.name for p in programs}
        for digests in stored[name].values():
            assert set(digests) == set(harness.OUTPUT_COMMANDS)


def test_benchmark_spec_names_every_workload_and_metric():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert set(_metric_units("end_to_end")) == {
        "setup_s", "check_s", "expand_s", "schedule_s", "run_s", "prob_s",
        "peak_rss_mb"}
