#!/usr/bin/env python3
"""jaqalc benchmark: one workload, one seed, one JSON result.

    python3 bench/run.py --workload shots --seed 1 --seconds 40 --trace 0

Run from the root of a checkout (it needs ``src/jaqalc``).  The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``:
with ``--trace 0`` the end-to-end metrics (scaled to the reference speed
set in harness.py), with ``--trace 1`` the per-layer metrics of the traced
and memory passes (the trace is written to ``bench/_run/traces/``).  The line before it records the workload's
descriptors, the environment and the sha256 of every output file, so two
commits can be compared byte for byte at any seed.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import harness
import tracing
from workloads import DEFAULT_SEED, WORKLOADS, generate

RUN_SECONDS = 40


def layer_metrics(workload, e2e, tracer, work, peaks) -> dict:
    """Per-layer metrics: self time of each module's spans (summed over the
    five commands), work counts, peak memory, residual and overhead."""
    self_s = tracer.self_times()
    stage_s = sum(v for k, v in self_s.items() if not k.startswith("cli."))
    # wall times: the traced pass is not scaled to the reference speed
    setup_s = e2e.metrics(wall=True)["setup_s"][0]
    invocations = len(workload.programs) * len(harness.COMMANDS)
    e2e_s = sum(e2e.command_seconds(c, wall=True) for c in harness.COMMANDS)
    parses = work["parser.tokens"] * len(harness.COMMANDS)

    def count(name):
        return work[name], "count"

    return {
        "parser.s": (self_s["parser"], "s"),
        "parser.tokens": count("parser.tokens"),
        "parser.tokens_per_s": (parses / self_s["parser"], "1/s"),
        "analyzer.s": (self_s["analyzer"], "s"),
        "expander.s": (self_s["expander"], "s"),
        "expander.gates": count("expander.gates"),
        "expander.dump_s": (self_s["expander.dump"], "s"),
        "expander.peak_mb": (peaks["expander.peak_mb"], "MiB"),
        "scheduler.s": (self_s["scheduler"], "s"),
        "scheduler.entries": count("scheduler.entries"),
        "scheduler.idles": count("scheduler.idles"),
        "scheduler.dump_s": (self_s["scheduler.dump"], "s"),
        "scheduler.peak_mb": (peaks["scheduler.peak_mb"], "MiB"),
        "gateset.applications": count("gateset.applications"),
        "gateset.distinct_unitaries": count("gateset.distinct_unitaries"),
        "simulator.run_s": (self_s["simulator.run"], "s"),
        "simulator.gates_per_s": (
            work["gateset.applications"] / self_s["simulator.run"], "1/s"),
        "simulator.measurements": count("simulator.measurements"),
        "simulator.segments": count("simulator.segments"),
        "simulator.distinct_segments": count("simulator.distinct_segments"),
        "simulator.state_bytes": (work["simulator.state_bytes"], "bytes"),
        "simulator.run_peak_mb": (peaks["simulator.run_peak_mb"], "MiB"),
        "simulator.prob_s": (self_s["simulator.prob"], "s"),
        "simulator.outcomes": count("simulator.outcomes"),
        "simulator.prob_peak_mb": (peaks["simulator.prob_peak_mb"], "MiB"),
        "emitter.s": (self_s["emitter"], "s"),
        "emitter.bytes": (work["emitter.bytes"], "bytes"),
        "cli.residual_s": (e2e_s - invocations * setup_s - stage_s, "s"),
        "trace.overhead_s": (len(tracer.spans) * tracing.span_cost(), "s"),
    }


def trace_problems(workload, e2e, digests, work) -> list:
    """The traced pass must write what the command line wrote and count
    what the generator put in."""
    problems = []
    for (program, command), traced in digests.items():
        cli = e2e.digests.get(program, {}).get(command)
        if cli is not None and cli != traced:
            problems.append(f"{program} {command}: in-process output differs "
                            "from the command line's")
    descriptors = workload.descriptors()
    for metric, key in (("expander.gates", "gates"),
                        ("simulator.measurements", "measurements"),
                        ("simulator.segments", "segments"),
                        ("simulator.distinct_segments", "distinct_segments")):
        if work[metric] != descriptors[key]:
            problems.append(f"{metric} is {work[metric]}, the generator "
                            f"made {descriptors[key]}")
    return problems


def bench(name: str, seed: int, seconds: float, traced: bool) -> tuple:
    """Run one workload; returns (info record, result record)."""
    workload = generate(name, seed)
    space = harness.Workspace(workload)
    try:
        harness.preflight(space)
        problems = []
        reference = harness.load_reference(workload)
        if traced:
            start = time.perf_counter()
            peaks = tracing.memory_pass(workload)
            tracer = tracing.Tracer()
            digests, work = tracing.traced_pass(workload, tracer)
            # two rounds at least, so cli.residual_s rests on a median
            e2e = harness.measure(space, seconds - (time.perf_counter()
                                                    - start), reference,
                                  min_rounds=2)
            tracer.write(harness.RUNS / "traces" / f"{name}-{seed}.json")
            problems = trace_problems(workload, e2e, digests, work)
            metrics = layer_metrics(workload, e2e, tracer, work, peaks)
        else:
            e2e = harness.measure(space, seconds, reference)
            metrics = e2e.metrics()
    finally:
        space.close()
    info = {
        "workload": name,
        "seed": seed,
        "rounds": e2e.rounds,
        "descriptors": workload.descriptors(),
        "environment": harness.environment(),
        "error_rate": e2e.failed / e2e.attempted,
        "errors": e2e.errors + problems,
        "digests": e2e.digests,
        # the end-to-end metrics in unscaled wall seconds
        "wall_metrics": {k: v for k, (v, _) in e2e.metrics(wall=True).items()},
        # every timed invocation, for quartiles and for other statistics
        "samples": {"setup": e2e.setup, **e2e.times},
        "wall_samples": {"setup": e2e.setup_wall, **e2e.wall},
        "calibration_samples": e2e.calibration,
    }
    result = {
        "correct": e2e.failed == 0 and not problems,
        "attempted": e2e.attempted,
        "failed": e2e.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # the traced pass runs in this process: same BLAS threads as the CLI's
    os.environ.update(harness.CHILD_THREADS)
    try:
        info, result = bench(args.workload, args.seed, args.seconds,
                             bool(args.trace))
    except harness.BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
