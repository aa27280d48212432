"""Seeded generators for the benchmark's three workloads.

Each workload is a fixed list of program shapes (register size, loop
counts, gate counts); the seed chooses only the contents: angles, gate
kinds and qubits.  The cost of a workload therefore hardly moves from one
seed to the next, while the bytes of every program do.

The generator tracks what it emits, so each program carries descriptor
counts (primitive gates, measurements, distinct segments) that do not come
from jaqalc itself; the harness checks jaqalc's outputs against them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("shots", "scan", "wide")
DEFAULT_SEED = 0

# Virtual z rotations take no time on the hardware; with them at 0 and the
# entangler slower than the default, parallel blocks in `scan` get I_pad
# idles of several different lengths.
SCAN_MANIFEST = """\
# virtual z rotations, slower entangler
Rz 0
Sz 0
Szd 0
Pz 0
MS 12.5
"""

_FIXED = ("Px", "Py", "Sx", "Sy", "Sxd", "Syd", "Pz", "Sz", "Szd")
_AXES = ("Rx", "Ry", "Rz")


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    n_qubits: int
    gates: int  # primitive gates after expansion, prepare/measure included
    measurements: int
    distinct_segments: int


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    programs: tuple
    manifest: str = None  # duration manifest text for schedule and run
    quantize: bool = False

    def descriptors(self) -> dict:
        return {
            "programs": len(self.programs),
            "qubits": [p.n_qubits for p in self.programs],
            "gates": sum(p.gates for p in self.programs),
            "measurements": sum(p.measurements for p in self.programs),
            "segments": sum(p.measurements for p in self.programs),
            "distinct_segments": sum(p.distinct_segments
                                     for p in self.programs),
        }


def _angle(rng: random.Random) -> str:
    return repr(round(rng.uniform(-3.14, 3.14), 6))


def generate(name: str, seed: int, scale: float = 1.0) -> Workload:
    """Build workload ``name`` from ``seed``.  ``scale`` shrinks the loop
    counts and gate budgets for smoke tests; 1.0 is the benchmark."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}")
    rng = random.Random(f"{name}:{seed}")
    if name == "shots":
        return Workload(name, seed, tuple(_shots(rng, scale)))
    if name == "scan":
        return Workload(name, seed, tuple(_scan(rng, scale)),
                        manifest=SCAN_MANIFEST, quantize=True)
    return Workload(name, seed, tuple(_wide(rng, scale)))


def _scaled(count: int, scale: float) -> int:
    return max(1, round(count * scale))


# ---------------------------------------------------------------------------
# shots: one identical prepare -> measure segment repeated thousands of times
# ---------------------------------------------------------------------------

# (qubits, nested loop counts, gates in the segment between prepare/measure)
_SHOTS_SHAPES = (
    (1, (1500,), 3),
    (3, (20, 75), 6),
    (5, (2, 10, 50), 8),
)


def _segment(rng, n: int, size: int) -> list:
    """Statements for a shot segment of exactly ``size`` primitive gates.

    A parallel layer of x/y rotations by generic angles puts every qubit in
    superposition, so each measurement has all 2**n outcomes whatever the
    seed; on two or more qubits one entangler follows; single-qubit gates
    fill the rest.  Only names, qubits and angles vary with the seed.
    """
    layer = [f"R{rng.choice('xy')} q[{q}] {_angle(rng)}" for q in range(n)]
    lines = ["< " + " | ".join(layer) + " >" if n > 1 else layer[0]]
    if n >= 2:
        a, b = rng.sample(range(n), 2)
        if rng.random() < 0.5:
            lines.append(f"Sxx q[{a}] q[{b}]")
        else:
            lines.append(f"MS q[{a}] q[{b}] {_angle(rng)} {_angle(rng)}")
    for i in range(size - len(lines) - n + 1):
        q = rng.randrange(n)
        if i % 2:
            lines.append(f"{rng.choice(_FIXED)} q[{q}]")
        else:
            lines.append(f"{rng.choice(_AXES)} q[{q}] {_angle(rng)}")
    return lines


def _shots(rng, scale):
    for n, loops, size in _SHOTS_SHAPES:
        loops = loops[:-1] + (_scaled(loops[-1], scale),)
        body = _segment(rng, n, size)
        lines = [f"// shot loop: {n} qubit(s), loops {loops}",
                 f"register q[{n}]", ""]
        indent = ""
        for count in loops:
            lines.append(f"{indent}loop {count} {{")
            indent += "    "
        lines.append(indent + "prepare_all")
        lines += [indent + line for line in body]
        lines.append(indent + "measure_all")
        for _ in loops:
            indent = indent[:-4]
            lines.append(indent + "}")
        shots = 1
        for count in loops:
            shots *= count
        yield Program(f"shots{n}", "\n".join(lines) + "\n", n,
                      shots * (size + 2), shots, 1)


# ---------------------------------------------------------------------------
# scan: many calibration points, each a short shot loop with its own angles
# ---------------------------------------------------------------------------

# (qubits, points, shots per point)
# Registers stop at 8 qubits so the dense-matrix oracle (tests/oracle.py)
# can check every program; at 10 it needs seconds per distinct gate.
_SCAN_SHAPES = ((6, 80, 4), (7, 65, 4), (8, 55, 4))

# Macro library shared by every scan program.  `echo` calls `flip`, and
# `probe` calls both, so inlining nests three deep.  Gate counts per call:
# flip 2, echo 5, probe 7.
_SCAN_MACROS = """\
macro flip a t {
    Rx a t
    Sz a
}

macro echo a b t {
    flip a t
    Sy b
    flip b t
}

macro probe a b c t u {
    < { echo a b t } | { Rz c u; Sx c } >
}
"""


def _scan_point(rng, index: int, n: int) -> tuple:
    """Header lets, body lines and primitive gates per shot of one point."""
    t, u, v = f"t{index}", f"u{index}", f"v{index}"
    lets = [f"let {t} {_angle(rng)}", f"let {u} {_angle(rng)}",
            f"let {v} {_angle(rng)}"]
    # offsets into `data` (even qubits) and `anc` (odd qubits); `edge` is
    # the last qubit, so the first parallel block's d[:2] and a[:2] avoid it
    n_data, n_anc = (n + 1) // 2, n // 2
    # the MS pair is two further qubits, so every point has exactly 32
    # outcomes (MS on |00> gives only |00> and |11>) whatever the seed
    d = rng.sample(range(n_data - n % 2), 2)
    d.append(rng.choice([i for i in range(n_data) if i not in d]))
    a = rng.sample(range(n_anc - 1 + n % 2), 2)
    a.append(rng.choice([i for i in range(n_anc) if i not in a]))
    body = [
        "loop shots {",
        "    prepare_all",
        # unequal children: 7 | 3 | 1 primitive gates
        f"    < probe data[{d[0]}] anc[{a[0]}] data[{d[1]}] {t} {u} | "
        f"{{ Ry anc[{a[1]}] {v}; Sz anc[{a[1]}]; Sxd anc[{a[1]}] }} | "
        f"Rz edge {_angle(rng)} >",
        f"    MS data[{d[2]}] anc[{a[2]}] {_angle(rng)} {v}",
        f"    < flip anc[{a[0]}] {u} | Sy data[{d[1]}] >",
        "    measure_all",
        "}",
    ]
    return lets, body, 2 + 7 + 3 + 1 + 1 + 2 + 1


def _scan(rng, scale):
    for n, points, shots in _SCAN_SHAPES:
        points = _scaled(points, scale)
        lets, body, gates = [], [], 0
        for index in range(points):
            point_lets, point_body, per_shot = _scan_point(rng, index, n)
            lets += point_lets
            body += point_body
            gates += per_shot * shots
        lines = [
            f"// calibration scan: {n} qubits, {points} points x {shots} "
            "shots",
            f"register q[{n}]",
            f"map data q[0:{n}:2]",
            f"map anc q[1:{n}:2]",
            f"map edge q[{n - 1}]",
            f"let shots {shots}",
            *lets,
            "",
            _SCAN_MACROS,
            *body,
        ]
        yield Program(f"scan{n}", "\n".join(lines) + "\n", n, gates,
                      points * shots, points)


# ---------------------------------------------------------------------------
# wide: large registers, a few long segments of layered rotations and MS
# ---------------------------------------------------------------------------

# (qubits, segments, layers per segment, qubits that get x/y rotations and
# MS).  A qubit that only ever sees z rotations stays in |0>, so the last
# field bounds the -p output at 2**mixing lines per measurement while every
# gate still sweeps the whole 2**qubits state vector.
_WIDE_SHAPES = ((16, 2, 8, 14), (18, 1, 10, 12), (20, 1, 4, 12))


def _wide(rng, scale):
    for n, segments, layers, mixing in _WIDE_SHAPES:
        layers = _scaled(layers, scale)
        # spread the mixing qubits over low and high indices
        mixed = sorted(rng.sample(range(n), mixing))
        lines = [f"// wide: {n} qubits, {segments} segment(s) of {layers} "
                 "layers", f"register q[{n}]", ""]
        gates = 0
        for _ in range(segments):
            lines.append("prepare_all")
            for _ in range(layers):
                chosen = rng.sample(range(n), 3 * n // 4)
                parts = []
                for q in sorted(chosen):
                    axis = rng.choice(_AXES) if q in mixed else "Rz"
                    parts.append(f"{axis} q[{q}] {_angle(rng)}")
                lines.append("< " + " | ".join(parts) + " >")
                a, b = rng.sample(mixed, 2)
                lines.append(f"MS q[{a}] q[{b}] {_angle(rng)} {_angle(rng)}")
                gates += len(parts) + 1
            lines.append("measure_all")
            gates += 2
        yield Program(f"wide{n}", "\n".join(lines) + "\n", n, gates,
                      segments, segments)
