"""Shared test utilities: phase alignment, dense-matrix references and
the flat-circuit exclusivity reference."""

import numpy as np

from jaqalc.analyzer import Usage, parallel_conflicts
from jaqalc.errors import JaqalError


def align_phase(u, reference):
    """Multiply u by the unit phase that best matches it to reference,
    using the largest-magnitude entry of the reference as the anchor."""
    idx = np.unravel_index(np.argmax(np.abs(reference)), reference.shape)
    phase = reference[idx] / u[idx]
    phase /= abs(phase)
    return u * phase


def max_phase_deviation(u, reference):
    return np.max(np.abs(align_phase(u, reference) - reference))


def embed_dense(unitary, qubits, n_qubits):
    """Full 2**n x 2**n matrix acting as ``unitary`` on the given qubits
    (qubits[0] is the most significant bit of the small matrix's index) and
    identity elsewhere.  Built index by index, independent of any axis
    shuffling the simulator does."""
    unitary = np.asarray(unitary, dtype=complex)
    k = len(qubits)
    dim = 2 ** n_qubits
    full = np.zeros((dim, dim), dtype=complex)
    rest = [q for q in range(n_qubits) if q not in qubits]
    for col in range(dim):
        small_col = 0
        for pos, q in enumerate(qubits):
            small_col |= ((col >> q) & 1) << (k - 1 - pos)
        for small_row in range(2 ** k):
            amp = unitary[small_row, small_col]
            if amp == 0:
                continue
            row = 0
            for pos, q in enumerate(qubits):
                row |= ((small_row >> (k - 1 - pos)) & 1) << q
            for q in rest:
                row |= ((col >> q) & 1) << q
            full[row, col] += amp
    return full


def random_state(rng, n_qubits):
    """A normalized random complex vector."""
    vec = rng.standard_normal(2 ** n_qubits) + 1j * rng.standard_normal(2 ** n_qubits)
    return vec / np.linalg.norm(vec)


def random_unitary(rng, dim):
    """Haar-ish random unitary from the QR decomposition of a Ginibre
    matrix."""
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(mat)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def apply_unitary_reference(state, unitary, qubits):
    """The simulator's kernel before it reused a scratch vector: two
    ``np.moveaxis`` calls around one ``np.matmul`` and a contiguous copy.
    ``simulator.apply_unitary`` must match it bit for bit."""
    qubits = tuple(qubits)
    k = len(qubits)
    unitary = np.asarray(unitary, dtype=complex)
    n = state.n_qubits
    if k == 0:
        return state
    # row-major reshape puts qubit q on axis n-1-q
    axes = [n - 1 - q for q in qubits]
    psi = state.amplitudes.reshape((2,) * n)
    psi = np.moveaxis(psi, axes, range(k))
    psi = unitary @ psi.reshape(2 ** k, -1)
    psi = np.moveaxis(psi.reshape((2,) * n), range(k), axes)
    state.amplitudes = np.ascontiguousarray(psi).reshape(-1)
    return state


def bitstring_of(index: int, n_qubits: int) -> str:
    """Little-endian rendering: character t is the state of qubit t.  The
    reference for ``simulator._bitstrings``."""
    return "".join("1" if index >> t & 1 else "0" for t in range(n_qubits))


def sample_full_vector(probs, u: float, n_qubits: int) -> str:
    """The simulator's sampler before it kept only nonzero outcomes: the
    first index whose running sum over the whole Born vector reaches
    ``u``, else the last nonzero index.  ``simulator._Outcomes.sample``
    must pick the same bitstring for every ``u`` in (0, 1]."""
    cumulative = np.cumsum(probs)
    nonzero = np.nonzero(probs)[0]
    last = int(nonzero[-1]) if len(nonzero) else 0
    index = int(np.searchsorted(cumulative, u, side="left"))
    if index >= len(cumulative):  # float sums can land a hair under 1.0
        index = last
    return bitstring_of(index, n_qubits)


def unroll(circuit):
    """``circuit`` with every ``FlatLoop`` replaced by ``count`` copies of
    its items, spliced into the enclosing sequence: the flat IR as
    expansion built it before loops stayed nodes.  Copies share their gate
    and block objects, as the unrolled iterations did."""
    from jaqalc.expander import FlatBlock, FlatCircuit, FlatLoop

    def spliced(items) -> list:
        out = []
        for item in items:
            if isinstance(item, FlatLoop):
                out.extend(spliced(item.items) * item.count)
            elif isinstance(item, FlatBlock):
                out.append(FlatBlock(item.parallel,
                                     tuple(spliced(item.items))))
            else:
                out.append(item)
        return out

    return FlatCircuit(circuit.n_qubits,
                       FlatBlock(False, tuple(spliced(circuit.root.items))))


def check_flat_conflicts(circuit):
    """Check the qubit-exclusivity rules on a flat circuit and raise
    JaqalError, with the diagnostic's code, at the first violation.

    The reference that analysis, which alone decides exclusivity, is
    compared against, and the check for hand-built circuits.  One
    post-order walk returns each node's Usage and first violation, so a
    loop body is checked once.  A parallel block's own violation comes
    before any inside it, as in execution order.
    """
    from jaqalc.expander import PrimitiveGate

    def walk(item) -> tuple:  # (Usage, JaqalError or None)
        if isinstance(item, PrimitiveGate):
            error = None
            if len(set(item.qubits)) != len(item.qubits):
                error = JaqalError(f"{item.name} uses the same qubit twice",
                                   code="duplicate-qubit")
            return Usage.of_gate(item.definition, item.qubits), error
        children = [walk(child) for child in item.items]
        usages = [usage for usage, _ in children]
        own = None
        if item.parallel and any(usage.global_gate for usage in usages):
            own = JaqalError("an all-qubit preparation or measurement "
                             "cannot appear inside a parallel block",
                             code="global-gate-in-parallel")
        elif item.parallel:
            own = next((JaqalError(message, code=code) for _, code, message
                        in parallel_conflicts(usages, circuit.n_qubits)), None)
        return Usage.union(usages), own or next(
            (error for _, error in children if error), None)

    violation = walk(circuit.root)[1]
    if violation is not None:
        raise violation
