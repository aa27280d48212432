"""A fixed reference job whose wall time gauges the machine's speed.

The harness runs this script as a subprocess next to every timed jaqalc
invocation and divides the invocation's time by the neighbouring
calibration times (see harness.py).  On a shared virtual machine the speed
of process start-up, imports and page faults drifts by a third within
seconds; the job is built to drift the same way: it starts an interpreter
with the harness's environment, imports numpy, runs a small pure-Python
tokenise-and-count pass and applies a few two-level unitaries to a state
vector the way jaqalc's simulator does.  It imports nothing from jaqalc,
so a change to jaqalc cannot move it.  It writes nothing.
"""

import numpy as np

WORDS = ("Rx q[0] 0.5", "Sxx q[1] q[2]", "loop 10 {", "measure_all",
         "< Ry q[3] 1.25 | Sz q[4] >", "macro flip a t {", "let t0 -1.5")


def python_pass(lines: int) -> int:
    table: dict = {}
    acc = 0
    for i in range(lines):
        text = WORDS[i % len(WORDS)]
        for token in text.replace("[", " [ ").replace("]", " ] ").split():
            table[token] = table.get(token, 0) + 1
            acc += len(token)
        acc ^= hash((text, i, acc)) & 0xFF
    return acc + len(table)


def numpy_pass(n: int, gates: int) -> float:
    psi = np.zeros(2 ** n, dtype=complex)
    psi[0] = 1.0
    unitary = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    for g in range(gates):
        axis = (g * 7) % n
        view = np.moveaxis(psi.reshape((2,) * n), axis, 0)
        view = unitary @ view.reshape(2, -1)
        psi = np.ascontiguousarray(
            np.moveaxis(view.reshape((2,) * n), 0, axis)).reshape(-1)
    return float(np.abs(psi).sum())


if __name__ == "__main__":
    python_pass(30000)
    numpy_pass(16, 24)
