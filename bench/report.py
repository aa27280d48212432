#!/usr/bin/env python3
"""Print every end-to-end metric of every workload, with its unit.

    python3 bench/report.py [--seed N] [--seconds S] [--trace]

For each workload this runs the same measurement as ``bench/run.py`` and
prints one row per metric, then the error rate, the workload descriptors
and the environment.  With ``--trace`` it also runs the traced and memory
passes, prints the per-layer metrics and leaves the span file under
``bench/_run/traces/``.  Exits 1 if any output was wrong.
"""

from __future__ import annotations

import argparse
import json
import sys

import run
from workloads import DEFAULT_SEED, WORKLOADS


def _rows(name: str, result: dict):
    for metric, value in result["metrics"].items():
        print(f"{name:<6} {metric:<28} {value['value']:>16.6g} "
              f"{value['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run.RUN_SECONDS)
    parser.add_argument("--trace", action="store_true",
                        help="also run the traced and memory passes")
    args = parser.parse_args(argv)
    correct = True
    environment = None
    for name in WORKLOADS:
        passes = (False, True) if args.trace else (False,)
        for traced in passes:
            info, result = run.bench(name, args.seed, args.seconds, traced)
            _rows(name, result)
            correct = correct and result["correct"]
            for error in info["errors"]:
                print(f"{name:<6} error: {error}", file=sys.stderr)
        print(f"{name:<6} {'error_rate':<28} {info['error_rate']:>16.6g} "
              f"({result['failed']} of {result['attempted']} invocations)")
        print(f"{name:<6} descriptors {json.dumps(info['descriptors'])}")
        environment = info["environment"]
    print(f"environment {json.dumps(environment, sort_keys=True)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
