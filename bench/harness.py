"""End-to-end timing of the jaqalc command line on a generated workload.

Every invocation is one ``python -m jaqalc.cli`` subprocess with
``PYTHONPATH=src``, started only after the previous one has exited (a
closed loop with one client).  A round runs the five commands (check,
expand, schedule, run, run -p) on every program of the workload; rounds
repeat while the time budget lasts.

The machine's speed drifts by up to a third within seconds (process
start-up and page faults most of all), so every invocation sits between
two runs of the fixed job in calibrate.py and is reported at a reference
speed: its wall time times ``CALIBRATION_S`` over the mean of its two
neighbouring calibration times.  A command's time is, per program, the
median of those over rounds, summed over programs; ``setup_s`` is the
median of the empty-program invocations.  The raw wall times are kept too.

An invocation fails when it exits non-zero, prints a traceback, or writes
bytes that differ from the reference: the committed digests at the default
seed, and the first round's output at any other seed.  The first round's
outputs are also checked against counts the generator made without jaqalc.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from workloads import DEFAULT_SEED, Workload

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent  # the checkout: holds src/jaqalc
SRC = ROOT / "src"
RUNS = BENCH / "_run"  # scratch space, ignored by git
REFERENCE = BENCH / "reference.json"
CALIBRATE = BENCH / "calibrate.py"

# The calibration job's median wall time on the machine the benchmark was
# built on (2 vCPUs, Python 3.11, numpy 2 on OpenBLAS); every reported time
# is scaled to the speed at which the job takes this long.
CALIBRATION_S = 0.25
# A multi-threaded BLAS pool spins against the interpreter on a machine of
# two vCPUs; with one thread the outputs are the same and the times steadier.
CHILD_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                 "MKL_NUM_THREADS": "1"}

COMMANDS = ("check", "expand", "schedule", "run", "prob")
# output files whose bytes are compared; check writes none
OUTPUT_COMMANDS = COMMANDS[1:]
# Each -p line is one distribution; its probabilities must sum to 1.
PROB_TOLERANCE = 1e-9
SETUP_SAMPLES_FIRST = 5  # empty-program runs before the first round
SETUP_SAMPLES_PER_ROUND = 2


class BenchError(Exception):
    """The benchmark cannot run at all here (no sources, no interpreter)."""


def sample_seed(workload_seed: int, index: int) -> int:
    """The ``run -s`` seed of the index-th program of a workload."""
    return (workload_seed * 1_000_003 + index * 7919) % 2 ** 32


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class Invocation:
    seconds: float
    rss_mb: float
    status: int
    stderr: str


def invoke(args, cwd: Path) -> Invocation:
    """Run one jaqalc subprocess and time it from spawn to reap."""
    return _spawn(["-m", "jaqalc.cli", *args], cwd)


def calibrate(cwd: Path) -> float:
    """Wall seconds of one run of the calibration job."""
    call = _spawn([str(CALIBRATE)], cwd)
    if call.status != 0:
        raise BenchError("the calibration job failed: "
                         + call.stderr.strip()[-500:])
    return call.seconds


def _spawn(args, cwd: Path) -> Invocation:
    env = dict(os.environ, **CHILD_THREADS)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    with open(cwd / "stderr.txt", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *args], cwd=cwd, env=env,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        # wait4 reaps the child and returns its own resource usage
        _, wait_status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(wait_status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    # ru_maxrss is in KiB on Linux
    return Invocation(seconds, usage.ru_maxrss / 1024, proc.returncode,
                      stderr)


class Workspace:
    """The workload's files on disk and the argv of each command."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.dir = RUNS / f"{workload.name}-{workload.seed}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        (self.dir / "empty.jaqal").write_text("")
        if workload.manifest is not None:
            (self.dir / "durations.txt").write_text(workload.manifest)
        for program in workload.programs:
            (self.dir / f"{program.name}.jaqal").write_text(program.source)

    def output(self, index: int, command: str) -> Path:
        suffix = {"expand": "flat", "schedule": "timeline", "run": "out",
                  "prob": "prob"}[command]
        return self.dir / f"{self.workload.programs[index].name}.{suffix}"

    def argv(self, index: int, command: str) -> list:
        workload = self.workload
        source = f"{workload.programs[index].name}.jaqal"
        if command == "check":
            return ["check", source]
        out = self.output(index, command).name
        if command == "expand":
            return ["expand", source, "-o", out]
        extra = []
        if workload.manifest is not None:
            extra += ["-d", "durations.txt"]
        if command == "schedule":
            return ["schedule", source, "-o", out, *extra]
        if workload.quantize:
            extra.append("-q")
        if command == "run":
            return ["run", source, "-o", out, "-s",
                    str(sample_seed(workload.seed, index)), *extra]
        return ["run", source, "-p", "-o", out, *extra]

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


# ---------------------------------------------------------------------------
# Output checks that use only the generator's own counts
# ---------------------------------------------------------------------------


def _check_expand(program, text: str):
    gates = [ln for ln in text.splitlines()
             if ln.strip() not in ("{", "}", "<", ">")]
    if len(gates) != program.gates:
        return f"expand dump has {len(gates)} gates, expected {program.gates}"
    return None


def _check_schedule(program, text: str):
    lines = text.splitlines()
    if not lines or not lines[-1].startswith("total "):
        return "schedule dump does not end with a total line"
    entries = [ln for ln in lines[:-1] if ln.split()[2] != "I_pad"]
    if len(entries) != program.gates:
        return (f"schedule dump has {len(entries)} entries, expected "
                f"{program.gates}")
    return None


def _check_record(program, text: str):
    record = text.splitlines()
    if len(record) != program.measurements:
        return (f"{len(record)} measurement lines, expected "
                f"{program.measurements}")
    for bits in record:
        if len(bits) != program.n_qubits or set(bits) - {"0", "1"}:
            return f"malformed measurement line {bits!r}"
    return None


def _check_distributions(program, text: str, record_text: str):
    lines = text.splitlines()
    record = record_text.splitlines()
    if len(lines) != program.measurements:
        return (f"{len(lines)} distribution lines, expected "
                f"{program.measurements}")
    cache = {}  # shot loops repeat one distribution thousands of times
    for line, sampled in zip(lines, record):
        support = cache.get(line)
        if support is None:
            fields = line.split()
            support = set(fields[0::2])
            total = sum(float(p) for p in fields[1::2])
            if abs(total - 1.0) > PROB_TOLERANCE:
                return f"a distribution sums to {total!r}"
            cache[line] = support
        if sampled not in support:
            return f"sampled {sampled!r} lies outside its distribution"
    return None


def check_outputs(program, outputs: dict):
    """First-round checks of one program's outputs (command -> bytes)."""
    text = {c: data.decode("ascii", "replace") for c, data in outputs.items()}
    return (_check_expand(program, text["expand"])
            or _check_schedule(program, text["schedule"])
            or _check_record(program, text["run"])
            or _check_distributions(program, text["prob"], text["run"]))


def load_reference(workload: Workload):
    """Committed digests for this workload, or None off the default seed."""
    if workload.seed != DEFAULT_SEED or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text())[workload.name]


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------


@dataclass
class EndToEnd:
    workload: Workload
    # seconds at the reference speed, and the same invocations' wall seconds
    setup: list = field(default_factory=list)  # empty-program invocations
    setup_wall: list = field(default_factory=list)
    # times[command][program index] -> seconds per round
    times: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    calibration: list = field(default_factory=list)  # calibration seconds
    peak_rss_mb: float = 0.0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)  # program -> command -> hex
    outputs: dict = field(default_factory=dict)  # same keys, first round
    rounds: int = 0  # complete rounds

    def fail(self, message: str):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def timed(self, space: Workspace, args) -> tuple:
        """Invoke jaqalc, then the calibration job; returns the invocation
        and its time at the reference speed."""
        call = invoke(args, space.dir)
        before = self.calibration[-1]
        self.calibration.append(calibrate(space.dir))
        speed = (before + self.calibration[-1]) / 2 / CALIBRATION_S
        return call, call.seconds / speed

    def command_seconds(self, command: str, wall: bool = False) -> float:
        """The median round of each program, summed over programs."""
        times = self.wall if wall else self.times
        return sum(statistics.median(per_round)
                   for per_round in times[command])

    def metrics(self, wall: bool = False) -> dict:
        """End-to-end metrics at the reference speed (or in wall time)."""
        setup = self.setup_wall if wall else self.setup
        out = {"setup_s": (statistics.median(setup), "s")}
        for command in COMMANDS:
            out[f"{command}_s"] = (self.command_seconds(command, wall), "s")
        out["peak_rss_mb"] = (self.peak_rss_mb, "MiB")
        return out


def _setup_sample(space: Workspace, result: EndToEnd):
    call, seconds = result.timed(space, ["check", "empty.jaqal"])
    result.attempted += 1
    if call.status != 0 or "Traceback" in call.stderr:
        result.fail(f"empty program: exit {call.status}: "
                    f"{call.stderr.strip()[-300:]}")
        return
    result.setup.append(seconds)
    result.setup_wall.append(call.seconds)


def preflight(space: Workspace):
    """One untimed start of jaqalc and of the calibration job, so a missing
    toolchain stops the benchmark and byte-code caches exist before anything
    is timed."""
    if not (SRC / "jaqalc" / "cli.py").is_file():
        raise BenchError(f"no jaqalc sources under {SRC}")
    call = invoke(["check", "empty.jaqal"], space.dir)
    if call.status != 0:
        raise BenchError("jaqalc does not start: "
                         + call.stderr.strip()[-500:])
    calibrate(space.dir)


def _program(space: Workspace, result: EndToEnd, index: int, reference):
    """The five commands on one program."""
    program = result.workload.programs[index]
    outputs = result.outputs.setdefault(program.name, {})
    for command in COMMANDS:
        call, seconds = result.timed(space, space.argv(index, command))
        result.attempted += 1
        result.times[command][index].append(seconds)
        result.wall[command][index].append(call.seconds)
        result.peak_rss_mb = max(result.peak_rss_mb, call.rss_mb)
        where = f"{program.name} {command}"
        if call.status != 0 or "Traceback" in call.stderr:
            result.fail(f"{where}: exit {call.status}: "
                        f"{call.stderr.strip()[-300:]}")
            continue
        if command == "check":
            continue
        data = space.output(index, command).read_bytes()
        space.output(index, command).unlink()
        seen = result.digests.setdefault(program.name, {})
        if command not in seen:  # first round
            seen[command] = digest(data)
            outputs[command] = data
            expected = reference and reference[program.name][command]
            if expected and expected != seen[command]:
                result.fail(f"{where}: output differs from the "
                            "committed reference")
        elif seen[command] != digest(data):
            result.fail(f"{where}: output differs from the first round")
    if result.rounds == 0 and len(outputs) == len(OUTPUT_COMMANDS):
        problem = check_outputs(program, outputs)
        if problem:
            result.fail(f"{program.name}: {problem}")


def measure(space: Workspace, seconds: float, reference=None,
            min_rounds: int = 1) -> EndToEnd:
    """Run at least ``min_rounds`` rounds, then go on, one program (or
    the round's set-up samples) at a time, while the next step, as long as
    it took in the previous round, still ends within ``seconds``.
    ``reference`` maps program -> command -> expected sha256."""
    workload = space.workload
    result = EndToEnd(workload)
    for times in (result.times, result.wall):
        times.update({c: [[] for _ in workload.programs] for c in COMMANDS})
    start = time.perf_counter()
    result.calibration.append(calibrate(space.dir))
    for _ in range(SETUP_SAMPLES_FIRST):
        _setup_sample(space, result)
    # step 0 is the round's set-up samples, step i + 1 the i-th program
    took = [0.0] * (len(workload.programs) + 1)
    while True:
        for step in range(len(took)):
            if (result.rounds >= min_rounds
                    and time.perf_counter() - start + took[step] > seconds):
                return result
            began = time.perf_counter()
            if step == 0:
                for _ in range(SETUP_SAMPLES_PER_ROUND):
                    _setup_sample(space, result)
            else:
                _program(space, result, step - 1, reference)
            took[step] = time.perf_counter() - began
        result.rounds += 1


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, if it says."""
    import ctypes

    import numpy  # noqa: F401  (loads the BLAS library)

    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps
                    if "openblas" in line.lower() and "/" in line}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads",
                       "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            function = getattr(lib, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return function()
    return None


def _commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy

    sources = hashlib.sha256()
    for path in sorted((SRC / "jaqalc").rglob("*.py")):
        sources.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        sources.update(path.read_bytes())
    return {
        "commit": _commit(),
        "sources_sha256": sources.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "child_threads": CHILD_THREADS,
        "calibration_s": CALIBRATION_S,
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
    }
