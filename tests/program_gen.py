"""Deterministic random-program generator for cross-checking the pipeline.

Produces source text (so the whole pipeline from the lexer onward is
exercised).  ``random_program`` gives programs that are valid by
construction: parallel siblings touch disjoint qubits, the entangler never
has parallel company, loop counts are small, and the primitive-gate budget
bounds the unrolled size.  ``bound_macro_program`` gives programs whose
only errors are qubit conflicts, most of them created by macro arguments;
with ``register``, bodies also name register qubits.
``number_macro_program`` gives valid programs whose macros pass angle
parameters on through nested invocations.  ``loop_block_program`` gives
valid programs whose loops sit inside blocks.  ``macro_chain``,
``fan_chain``, ``shift_register`` and ``doubling_chain`` give chains of
macros whose invocations multiply.
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


def fan_chain(fan: int, chain: int, angle=None) -> str:
    """``register q[1]``, macros f0..f<fan>, each invoking the one before
    twice, and c0..c<chain>, c0 invoking f<fan> and each later one the one
    before; the last line invokes c<chain> on q[0], so it runs 2**fan gates
    through fan + chain + 1 macro levels.  With ``angle``, every macro takes
    an angle parameter ``t`` too, passes it on, and f0 runs ``Rz a t``; the
    last line passes ``angle``."""
    t = "" if angle is None else " t"
    gate = "Rz a t" if t else "Sx a"
    lines = ["register q[1]", f"macro f0 a{t} {{ {gate} }}"]
    lines += [f"macro f{k} a{t} {{ f{k - 1} a{t}; f{k - 1} a{t} }}"
              for k in range(1, fan + 1)]
    lines.append(f"macro c0 a{t} {{ f{fan} a{t} }}")
    lines += [f"macro c{k} a{t} {{ c{k - 1} a{t} }}"
              for k in range(1, chain + 1)]
    lines.append(f"c{chain} q[0]" + ("" if angle is None else f" {angle}"))
    return "\n".join(lines) + "\n"


SX_ALL = "; ".join(f"Sx p{i}" for i in range(20))
PARALLEL_ALL = " | ".join(f"Sx p{i}" for i in range(20))


def shift_register(m0_body, body="{{ {0}; {1} }}", last=39, invoked=None):
    """Macros m0..m<last> of 20 qubit parameters on ``register q[20]``.
    m<k> invokes m<k-1> on its last 19 parameters and q[0], then on them
    and q[1], inside ``body``, so m<last-d> is reached with 2**min(d, 20)
    distinct tuples of qubits.  The last line invokes m<invoked>, by
    default m<last>."""
    params = [f"p{i}" for i in range(20)]
    lines = ["register q[20]", f"macro m0 {' '.join(params)} {m0_body}"]
    for k in range(1, last + 1):
        calls = (f"m{k - 1} {' '.join(params[1:])} q[{i}]" for i in (0, 1))
        lines.append(f"macro m{k} {' '.join(params)} " + body.format(*calls))
    invoked = last if invoked is None else invoked
    lines.append(f"m{invoked} " + " ".join(f"q[{i}]" for i in range(20)))
    return "\n".join(lines) + "\n"


def doubling_chain(levels):
    """Macros m0..m<levels-1>, m0 running two gates and each later one
    invoking the one before twice, so m<levels-1> runs 2**levels gates."""
    lines = ["register q[1]", "macro m0 a { Sx a; Sx a }"]
    lines += [f"macro m{k} a {{ m{k - 1} a; m{k - 1} a }}"
              for k in range(1, levels)]
    lines += ["prepare_all", f"m{levels - 1} q[0]", "measure_all"]
    return "\n".join(lines) + "\n"


# -- loops inside blocks -------------------------------------------------------

_LOOP_GATES = 4000  # bounds the gates a generated loop runs


def _loop_count(rng, runs):
    """0 to 3, or now and then a few thousand over a body of at most four
    gates; 0 or 1 where that would run more than ``_LOOP_GATES`` gates."""
    count = rng.randint(0, 3)
    if runs <= 4 and rng.random() < 0.3:
        count = rng.randint(1000, 3000)
    return count if count * runs <= _LOOP_GATES else rng.randint(0, 1)


def _looped_body(rng, macros, depth):
    """``(text, gates it runs)`` of a sequential body on qubit parameters
    ``a`` and ``b``: gates, a parallel pair, invocations of the earlier
    ``macros`` (``(name, gates)`` pairs) and loops of such bodies, nested up
    to ``depth``."""
    parts, gates = [], 0
    usable = [m for m in macros if m[1] <= _LOOP_GATES]
    for _ in range(rng.randint(1, 3)):
        roll = rng.random()
        if roll < 0.4 and depth > 0:
            inner, runs = _looped_body(rng, macros, depth - 1)
            count = _loop_count(rng, runs)
            parts.append(f"loop {count} {inner}")
            gates += count * runs
        elif roll < 0.55:
            parts.append(f"< {rng.choice(_SINGLE_FIXED)} a | Rz b 0.5 >")
            gates += 2
        elif roll < 0.75 and usable:
            name, runs = rng.choice(usable)
            parts.append(f"{name} {rng.choice(['a b', 'b a'])}")
            gates += runs
        else:
            parts.append(f"{rng.choice(_SINGLE_FIXED)} {rng.choice('ab')}")
            gates += 1
    return "{ " + "; ".join(parts) + " }", gates


def loop_block_program(rng: random.Random, max_qubits=4) -> str:
    """A valid program whose macros, on two qubits, hold loops, nested
    loops and parallel blocks, invoked at the top level, in a parallel
    block beside a gate on a third qubit, in a sequential block inside one
    (with a parallel block around the invocation, given a fourth qubit),
    and in a loop around a parallel block.  Loops run 0 to 3 times, or a
    few thousand over a body of a few gates, so ``expand`` meets loops
    inside blocks at every depth."""
    n = rng.randint(3, max_qubits)
    lines = [f"register q[{n}]"]
    macros: list = []
    for index in range(rng.randint(1, 3)):
        body, runs = _looped_body(rng, macros, 2)
        lines.append(f"macro m{index} a b {body}")
        macros.append((f"m{index}", runs))
    lines.append("prepare_all")
    for _ in range(rng.randint(1, 4)):
        a, b, c, *rest = (f"q[{i}]" for i in rng.sample(range(n), n))
        name, runs = rng.choice(macros)
        call = f"{name} {a} {b}"
        count = _loop_count(rng, runs + 1)
        shapes = [call, f"< {call} | Sz {c} >",
                  f"< {{ {call}; Sx {a} }} | Sy {c} >",
                  f"loop {count} {{ < {call} | Sz {c} > }}"]
        if rest:
            shapes.append(f"< {{ < {call} | Sz {c} >; Sx {a} }} | "
                          f"Sy {rest[0]} >")
        lines.append(rng.choice(shapes))
    lines.append("measure_all")
    return "\n".join(lines) + "\n"


# -- macros on bound qubits ----------------------------------------------------

def _pick(rng, qubits, count):
    """``count`` qubit names, distinct more often than not, else drawn with
    repeats, in either case in random order."""
    if count <= len(qubits) and rng.random() < 0.6:
        return rng.sample(qubits, count)
    return [rng.choice(qubits) for _ in range(count)]


def _bound_statement(rng, qubits, macros, parallel, in_parallel, depth,
                     top, used, register):
    """One statement inside a block of kind ``parallel``.  ``macros`` holds
    ``(name, arity, runs an entangler, positions of the parameters its
    body reads)`` for the macros defined so far; ``used`` collects whether
    this statement runs an entangler and the qubits it reads, in a gate or
    passed to a parameter its macro reads.  Outside the top level no entangler
    runs inside a parallel block, so no macro definition is rejected for
    one.

    ``register``, in a body, holds the register qubits it may name and
    whether a native gate may still name one: once per body, so no two of
    the body's own gates meet on one, while an invocation names any beside
    a parameter its macro reads, so its qubits meet the body's only once
    bound, never at the definition."""
    roll = rng.random()
    if roll < 0.25 and depth > 0:
        if not in_parallel and rng.random() < 0.5:
            return (f"loop {rng.randint(1, 3)} "
                    + _bound_block(rng, qubits, macros, False, False,
                                   depth - 1, top, used, register))
        return _bound_block(rng, qubits, macros, not parallel, in_parallel,
                            depth - 1, top, used, register)
    allowed = top or not in_parallel
    # with ``register``, a body invokes only macros that read a parameter
    usable = [m for m in macros if (allowed or not m[2])
              and (m[3] or not register)]
    if roll < 0.6 and usable:
        name, arity, entangler, reads = rng.choice(usable)
        used[0] = used[0] or entangler
        args = _pick(rng, qubits, arity)
        if register and rng.random() < 0.5:
            kept = rng.choice(reads)  # a parameter passed on stays
            for i in range(arity):
                if i != kept and rng.random() < 0.6:
                    args[i] = rng.choice(register[0])
        used[1].update(args[i] for i in reads)
        return " ".join([name, *args])
    if rng.random() < 0.4:
        name = rng.choice(["Sxx", "MS", "I_Sxx"] if allowed else ["I_Sxx"])
        used[0] = used[0] or name != "I_Sxx"
        angles = ["0.5", "0.25"] if name == "MS" else []
        args = _pick(rng, qubits, 2)
        if register and register[1] and rng.random() < 0.3:
            args[rng.randrange(2)] = rng.choice(register[0])
            register[1] = False
        used[1].update(args)
        return " ".join([name, *args, *angles])
    name, qubit = rng.choice(["Sx", "Sy", "Pz"]), rng.choice(qubits)
    if register and register[1] and rng.random() < 0.3:
        qubit, register[1] = rng.choice(register[0]), False
    used[1].add(qubit)
    return f"{name} {qubit}"


def _bound_block(rng, qubits, macros, parallel, in_parallel, depth, top,
                 used, register=None):
    in_parallel = in_parallel or parallel
    parts = [_bound_statement(rng, qubits, macros, parallel, in_parallel,
                              depth, top, used, register)
             for _ in range(rng.randint(1, 3))]
    if parallel:
        return "< " + " | ".join(parts) + " >"
    return "{ " + "; ".join(parts) + " }"


def bound_macro_program(rng: random.Random, max_qubits=3,
                        register=False) -> str:
    """A program of macros taking 1 to 3 qubits, each body in a sequential
    or parallel block with nested blocks and loops and invocations of
    earlier macros, and top-level invocations with repeated or permuted
    qubit arguments, alone and inside parallel blocks.

    The only errors it can have are qubit-exclusivity ones, and every
    macro definition is clean: a body names qubits through its parameters
    only (with ``register``, also register qubits, as ``_bound_statement``
    says), and no entangler runs inside a body's parallel block.  Loops run
    1 to 3 times and no block is empty, so every statement expands to
    gates."""
    n = rng.randint(1, max_qubits)
    lines = [f"register q[{n}]"]
    macros: list = []
    qubits = [f"q[{i}]" for i in range(n)]
    for index in range(rng.randint(1, 3)):
        arity = rng.randint(1, 3)
        params = list("abc"[:arity])
        used = [False, set()]
        body = _bound_block(rng, params, macros, rng.random() < 0.4, False,
                            2, False, used, register and [qubits, True])
        lines.append(f"macro m{index} {' '.join(params)} {body}")
        reads = [i for i, p in enumerate(params) if p in used[1]]
        macros.append((f"m{index}", arity, used[0], reads))
    lines.append("prepare_all")
    for _ in range(rng.randint(1, 4)):
        lines.append(_bound_statement(rng, qubits, macros, False, False, 2,
                                      True, [False, set()], None))
    lines.append("measure_all")
    return "\n".join(lines) + "\n"


# -- macros with angle parameters ----------------------------------------------

# equal under ``==`` but printed apart: ``Rz 0 1``, ``Rz 0 1.0``, ...
NUMBER_FORMS = ("1", "1.0", "-0.0", "0.0")


def _number_arg(rng, names):
    """One of ``NUMBER_FORMS``, or one of ``names``: lets and the enclosing
    macro's angle parameters."""
    if names and rng.random() < 0.6:
        return rng.choice(names)
    return rng.choice(NUMBER_FORMS)


def _on_one_qubit(rng, qubit, names, singles, depth):
    """A statement on ``qubit`` alone: a gate, an invocation of one of the
    macros ``singles`` (each taking a qubit and two angles) or, while
    ``depth`` is positive, a block or a loop of such statements."""
    roll = rng.random()
    if roll < 0.35 and singles:
        return " ".join([rng.choice(singles), qubit, _number_arg(rng, names),
                         _number_arg(rng, names)])
    if roll < 0.5 and depth > 0:
        body = "; ".join(_on_one_qubit(rng, qubit, names, singles, depth - 1)
                         for _ in range(rng.randint(1, 2)))
        return f"loop {rng.randint(1, 2)} {{ {body} }}"
    if roll < 0.6:
        return f"{rng.choice(['Sx', 'Sy', 'Pz'])} {qubit}"
    return f"{rng.choice(_SINGLE_ANGLE)} {qubit} {_number_arg(rng, names)}"


def number_macro_program(rng: random.Random) -> str:
    """A valid program on ``register q[3]`` whose macros take angle
    parameters ``t`` and ``u`` and pass them on, with lets and the literals
    of ``NUMBER_FORMS``, through nested invocations and loops.  Macros
    m<i> a t u have a sequential body on qubit a; macros p<i> a b t u have
    a parallel body, one branch on a and one on b, and are invoked at top
    level and inside parallel blocks."""
    lines = ["register q[3]"]
    lets = [f"angle{i}" for i in range(rng.randint(0, 2))]
    lines += [f"let {name} {rng.choice(NUMBER_FORMS)}" for name in lets]
    names = lets + ["t", "u"]
    singles, pairs = [], []
    for index in range(rng.randint(2, 5)):
        if singles and rng.random() < 0.4:
            left, right = (_on_one_qubit(rng, q, names, singles, 0)
                           for q in "ab")
            if rng.random() < 0.3:
                left = "{ " + left + "; Sx a }"
            lines.append(f"macro p{index} a b t u < {left} | {right} >")
            pairs.append(f"p{index}")
        else:
            body = "; ".join(_on_one_qubit(rng, "a", names, singles, 2)
                             for _ in range(rng.randint(1, 3)))
            lines.append(f"macro m{index} a t u {{ {body} }}")
            singles.append(f"m{index}")
    lines.append("prepare_all")
    for _ in range(rng.randint(2, 5)):
        q = rng.sample(["q[0]", "q[1]", "q[2]"], 3)
        angles = [_number_arg(rng, lets) for _ in range(2)]
        single = " ".join([rng.choice(singles), q[2], *angles])
        pair = (" ".join([rng.choice(pairs), q[0], q[1], *angles])
                if pairs else None)
        roll = rng.random()
        if roll < 0.25 and pair:
            lines.append(pair)
        elif roll < 0.5 and pair:
            lines.append(f"< {pair} | {single} >")
        elif roll < 0.7:
            other = _on_one_qubit(rng, q[0], lets, singles, 0)
            lines.append(f"< {other} | {single} >")
        elif roll < 0.85:
            lines.append(f"loop 2 {{ {single} }}")
        else:
            lines.append(single)
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
