"""Deterministic random-program generator for cross-checking the pipeline.

Produces source text (so the whole pipeline from the lexer onward is
exercised).  ``random_program`` gives programs that are valid by
construction: parallel siblings touch disjoint qubits, the entangler never
has parallel company, loop counts are small, and the primitive-gate budget
bounds the unrolled size.  ``bound_macro_program`` gives programs whose
only errors are qubit conflicts, most of them created by macro arguments.
"""

import random
import string

_SINGLE_FIXED = ["Px", "Py", "Pz", "Sx", "Sy", "Sz", "Sxd", "Syd", "Szd"]
_SINGLE_ANGLE = ["Rx", "Ry", "Rz"]


class _Budget:
    def __init__(self, limit):
        self.left = limit

    def take(self, cost):
        if cost <= self.left:
            self.left -= cost
            return True
        return False


def _angle(rng: random.Random) -> str:
    return repr(round(rng.uniform(-6.5, 6.5), 6))


def _gate_line(rng, qubits, lets):
    q = rng.choice(qubits)
    kind = rng.random()
    if kind < 0.45:
        return f"{rng.choice(_SINGLE_FIXED)} q[{q}]"
    if kind < 0.8 or len(qubits) < 2:
        angle = rng.choice(lets) if lets and rng.random() < 0.3 else _angle(rng)
        return f"{rng.choice(_SINGLE_ANGLE)} q[{q}] {angle}"
    q2 = rng.choice([x for x in qubits if x != q])
    if rng.random() < 0.5:
        return f"Sxx q[{q}] q[{q2}]"
    return f"MS q[{q}] q[{q2}] {_angle(rng)} {_angle(rng)}"


def _parallel_block(rng, qubits, lets, budget, multiplier):
    chosen = rng.sample(qubits, k=min(len(qubits), rng.randint(1, 3)))
    parts = []
    for q in chosen:
        if not budget.take(multiplier):
            break
        if rng.random() < 0.5:
            parts.append(f"{rng.choice(_SINGLE_FIXED)} q[{q}]")
        else:
            parts.append(f"{rng.choice(_SINGLE_ANGLE)} q[{q}] {_angle(rng)}")
    if not parts:
        return None
    return "< " + " | ".join(parts) + " >"


def _statements(rng, qubits, lets, budget, depth, indent, multiplier=1):
    """Statement lines for one sequential context.  ``multiplier`` is the
    total unroll factor of the enclosing loops, so the budget charges the
    true primitive count."""
    lines = []
    pad = "    " * indent
    for _ in range(rng.randint(1, 4)):
        roll = rng.random()
        if roll < 0.2 and depth > 0 and budget.left > multiplier:
            count = rng.randint(0, 3)
            body = _statements(rng, qubits, lets, budget, depth - 1,
                               indent + 1, multiplier * max(count, 1))
            if body:
                lines.append(f"{pad}loop {count} {{")
                lines.extend(body)
                lines.append(f"{pad}}}")
            continue
        if roll < 0.35:
            block = _parallel_block(rng, qubits, lets, budget, multiplier)
            if block is not None:
                lines.append(pad + block)
            continue
        if budget.take(multiplier):
            lines.append(pad + _gate_line(rng, qubits, lets))
    return lines


def random_program(rng: random.Random, max_qubits=3, max_gates=30,
                   measurements=2) -> str:
    """One valid random program as source text."""
    n = rng.randint(1, max_qubits)
    qubits = list(range(n))
    lines = [f"register q[{n}]"]
    lets = []
    for i in range(rng.randint(0, 2)):
        name = f"angle{i}"
        lines.append(f"let {name} {_angle(rng)}")
        lets.append(name)
    lines.append("")
    budget = _Budget(max_gates)
    for _ in range(rng.randint(1, measurements)):
        lines.append("prepare_all")
        lines.extend(_statements(rng, qubits, lets, budget,
                                 depth=rng.randint(0, 3), indent=0))
        lines.append("measure_all")
    return "\n".join(lines) + "\n"


# -- deep nesting --------------------------------------------------------------

def nested_blocks(depth: int) -> str:
    """``depth`` blocks nested around one gate, alternately sequential and
    parallel (directly nesting two of one kind is illegal)."""
    opens = "".join("{<"[i % 2] for i in range(depth))
    closes = "".join("}>"[i % 2] for i in reversed(range(depth)))
    return opens + "Sx q[0]" + closes


def nested_loops(depth: int) -> str:
    """``depth`` one-iteration loops nested around one gate."""
    return "loop 1 {\n" * depth + "Sx q[0]\n" + "}\n" * depth


def macro_chain(length: int, alternate: bool = False) -> str:
    """A one-qubit register and macros m0..m<length-1>, each invoking the
    one before; with ``alternate`` every other body is a parallel block."""
    lines = ["register q[1]", "macro m0 a { Sx a }"]
    for k in range(1, length):
        opening, closing = "<>" if alternate and k % 2 else "{}"
        lines.append(f"macro m{k} a {opening} m{k - 1} a {closing}")
    return "\n".join(lines) + "\n"


# -- macros on bound qubits ----------------------------------------------------

def _pick(rng, qubits, count):
    """``count`` qubit names, distinct more often than not, else drawn with
    repeats, in either case in random order."""
    if count <= len(qubits) and rng.random() < 0.6:
        return rng.sample(qubits, count)
    return [rng.choice(qubits) for _ in range(count)]


def _bound_statement(rng, qubits, macros, parallel, in_parallel, depth,
                     top, used):
    """One statement inside a block of kind ``parallel``.  ``macros`` holds
    ``(name, arity, runs an entangler)`` for the macros defined so far;
    ``used`` collects whether this statement runs an entangler.  Outside
    the top level no entangler runs inside a parallel block, so no macro
    definition is rejected for one."""
    roll = rng.random()
    if roll < 0.25 and depth > 0:
        if not in_parallel and rng.random() < 0.5:
            return (f"loop {rng.randint(1, 3)} "
                    + _bound_block(rng, qubits, macros, False, False,
                                   depth - 1, top, used))
        return _bound_block(rng, qubits, macros, not parallel, in_parallel,
                            depth - 1, top, used)
    allowed = top or not in_parallel
    usable = [m for m in macros if allowed or not m[2]]
    if roll < 0.6 and usable:
        name, arity, entangler = rng.choice(usable)
        used[0] = used[0] or entangler
        return " ".join([name, *_pick(rng, qubits, arity)])
    if rng.random() < 0.4:
        name = rng.choice(["Sxx", "MS", "I_Sxx"] if allowed else ["I_Sxx"])
        used[0] = used[0] or name != "I_Sxx"
        angles = ["0.5", "0.25"] if name == "MS" else []
        return " ".join([name, *_pick(rng, qubits, 2), *angles])
    return f"{rng.choice(['Sx', 'Sy', 'Pz'])} {rng.choice(qubits)}"


def _bound_block(rng, qubits, macros, parallel, in_parallel, depth, top,
                 used):
    in_parallel = in_parallel or parallel
    parts = [_bound_statement(rng, qubits, macros, parallel, in_parallel,
                              depth, top, used)
             for _ in range(rng.randint(1, 3))]
    if parallel:
        return "< " + " | ".join(parts) + " >"
    return "{ " + "; ".join(parts) + " }"


def bound_macro_program(rng: random.Random, max_qubits=3) -> str:
    """A program of macros taking 1 to 3 qubits, each body in a sequential
    or parallel block with nested blocks and loops and invocations of
    earlier macros, and top-level invocations with repeated or permuted
    qubit arguments, alone and inside parallel blocks.

    The only errors it can have are qubit-exclusivity ones, and every
    macro definition is clean: a body names qubits through its parameters
    only, and no entangler runs inside a body's parallel block.  Loops run
    1 to 3 times and no block is empty, so every statement expands to
    gates."""
    n = rng.randint(1, max_qubits)
    lines = [f"register q[{n}]"]
    macros: list = []
    for index in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        params = list("abc"[:arity])
        used = [False]
        body = _bound_block(rng, params, macros, rng.random() < 0.4, False,
                            2, False, used)
        lines.append(f"macro m{index} {' '.join(params)} {body}")
        macros.append((f"m{index}", arity, used[0]))
    qubits = [f"q[{i}]" for i in range(n)]
    lines.append("prepare_all")
    for _ in range(rng.randint(1, 4)):
        lines.append(_bound_statement(rng, qubits, macros, False, False, 2,
                                      True, [False]))
    lines.append("measure_all")
    return "\n".join(lines) + "\n"


# -- single-character edits ----------------------------------------------------

# what a mutant may insert or substitute: the Jaqal alphabet, a carriage
# return, the comment characters, '-', '.' and a non-ASCII letter
MUTANT_CHARS = (string.ascii_letters + string.digits + "_ \t\n{}<>[]:;|"
                + "\r/*-.\u00e9")


def mutant(rng: random.Random, text: str) -> str:
    """``text`` with one character inserted, deleted or replaced; most
    mutants exercise lexer and parser diagnostics."""
    at = rng.randrange(len(text) + 1)
    edit = rng.choice("idr") if at < len(text) else "i"
    if edit == "d":
        return text[:at] + text[at + 1:]
    return text[:at] + rng.choice(MUTANT_CHARS) + text[at + (edit == "r"):]
