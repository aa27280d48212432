#!/usr/bin/env python3
"""Output digests of every workload, and their check against the oracle.

    python3 bench/reference.py [--seed N]   # print every output's sha256
    python3 bench/reference.py --write      # rewrite bench/reference.json
    python3 bench/reference.py --oracle     # check outputs against the oracle

Digests cover the expand and schedule dumps, the sampled ``.out`` file and
the ``-p`` file of every program; run at any seed on two commits and
compare the printouts byte for byte.  ``--write`` stores the default seed's
digests, which every benchmark run at that seed must then reproduce.

``--oracle`` compares the command line's outputs with the brute-force
interpreter in tests/oracle.py, which shares no code with the expander,
scheduler or simulator: sampled records must be equal and every ``-p``
distribution within total variation distance 1e-9.  That oracle builds a
dense 2**n x 2**n matrix exponential per gate, which is out of reach on
the `wide` registers; there only the checks every run makes apply (each
distribution sums to 1, each sample lies in its distribution's support).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from collections import OrderedDict

import harness
from workloads import DEFAULT_SEED, WORKLOADS, generate

ORACLE_WORKLOADS = ("shots", "scan")
MAX_TVD = 1e-9


def outputs(workload, reference=None) -> harness.EndToEnd:
    """One untimed round of every command on every program."""
    space = harness.Workspace(workload)
    try:
        harness.preflight(space)
        return harness.measure(space, 0.0, reference)
    finally:
        space.close()


def _parse_distributions(data: bytes) -> list:
    out = []
    for line in data.decode("ascii").splitlines():
        fields = line.split()
        out.append(dict(zip(fields[0::2], map(float, fields[1::2]))))
    return out


def _tvd(p: dict, q: dict) -> float:
    return 0.5 * sum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in p.keys()
                     | q.keys())


def _memoized(expm, size: int = 64):
    """expm is a pure function; within a shot loop the same gate matrices
    come back every shot, so remember the most recent ones."""
    cache: OrderedDict = OrderedDict()

    def cached(matrix):
        key = (matrix.shape, hashlib.sha256(matrix.tobytes()).digest())
        value = cache.get(key)
        if value is None:
            value = cache[key] = expm(matrix)
            if len(cache) > size:
                cache.popitem(last=False)
        else:
            cache.move_to_end(key)
        return value

    return cached


def oracle_problems(workload, result: harness.EndToEnd) -> list:
    """Differences between the command line's outputs and the oracle's."""
    for path in (harness.ROOT / "tests", harness.SRC):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    import oracle
    from scipy.linalg import expm
    from jaqalc import parse

    oracle.expm = _memoized(expm)
    problems = []
    for index, program in enumerate(workload.programs):
        files = result.outputs[program.name]
        tree, _ = parse(program.source)
        record = oracle.interpret_run(
            tree, harness.sample_seed(workload.seed, index),
            quantize=workload.quantize)
        if record != files["run"].decode("ascii").splitlines():
            problems.append(f"{program.name}: sampled record differs")
        expected = oracle.interpret_probabilities(
            tree, quantize=workload.quantize)
        got = _parse_distributions(files["prob"])
        if len(expected) != len(got):
            problems.append(f"{program.name}: {len(got)} distributions, "
                            f"oracle has {len(expected)}")
            continue
        worst = max(_tvd(p, q) for p, q in zip(expected, got))
        if worst > MAX_TVD:
            problems.append(f"{program.name}: -p distance {worst:.3g} from "
                            "the oracle")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    action = parser.add_mutually_exclusive_group()
    action.add_argument("--write", action="store_true",
                        help="store the default seed's digests")
    action.add_argument("--oracle", action="store_true",
                        help="check the outputs against tests/oracle.py")
    args = parser.parse_args(argv)
    if args.write and args.seed != DEFAULT_SEED:
        parser.error("--write stores the default seed only")
    digests, failed = {}, False
    for name in WORKLOADS:
        workload = generate(name, args.seed)
        result = outputs(workload, None if args.write
                         else harness.load_reference(workload))
        problems = list(result.errors)
        if args.oracle and name in ORACLE_WORKLOADS:
            problems += oracle_problems(workload, result)
        for problem in problems:
            print(f"{name}: {problem}", file=sys.stderr)
        failed = failed or bool(problems)
        digests[name] = result.digests
        if args.oracle:
            check = "oracle" if name in ORACLE_WORKLOADS else "invariants"
            print(f"{name}: {check} {'FAILED' if problems else 'ok'}")
    if failed:
        return 1
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if args.write:
        harness.REFERENCE.write_text(text)
    elif not args.oracle:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
