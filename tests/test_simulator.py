import copy
import itertools
import math
import random
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jaqalc import simulator
from jaqalc.diagnostics import has_errors
from jaqalc.errors import SimulationError
from jaqalc.expander import FlatBlock, FlatCircuit, PrimitiveGate, expand
from jaqalc.gateset import ROTATION, builtin_gateset
from jaqalc.parser import parse
from jaqalc.simulator import (
    QuantumState,
    SplitMix64,
    _bitstrings,
    _Outcomes,
    apply_unitary,
    born_probabilities,
    probabilities,
    probability_chunks,
    run,
    unitary_of,
)

from helpers import (
    apply_unitary_reference,
    bitstring_of,
    embed_dense,
    register_error_reference,
    random_state,
    random_unitary,
    sample_full_vector,
)
from oracle import interpret_run
from program_gen import random_program


def circuit_of(source, gates):
    program, diags = parse(source)
    assert not has_errors(diags), diags
    return expand(program, gates)


# -- apply_unitary ---------------------------------------------------------------

def test_identity_leaves_state_unchanged():
    rng = np.random.default_rng(0)
    state = QuantumState(3)
    state.amplitudes = random_state(rng, 3)
    before = state.amplitudes.copy()
    apply_unitary(state, np.eye(2), (1,))
    assert np.array_equal(state.amplitudes, before)


def test_flip_on_qubit_one_lands_at_index_two(gates):
    state = QuantumState(2)
    apply_unitary(state, unitary_of(gates["Px"]), (1,))
    assert abs(state.amplitudes[2]) == pytest.approx(1.0, abs=1e-12)


def test_embedding_matches_dense_oracle_single_qubit():
    rng = np.random.default_rng(1)
    for _ in range(20):
        n = rng.integers(1, 4)
        target = int(rng.integers(0, n))
        u = random_unitary(rng, 2)
        vec = random_state(rng, n)
        state = QuantumState(int(n))
        state.amplitudes = vec.copy()
        apply_unitary(state, u, (target,))
        expected = embed_dense(u, (target,), int(n)) @ vec
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_embedding_matches_dense_oracle_two_qubit():
    rng = np.random.default_rng(2)
    for _ in range(20):
        n = int(rng.integers(2, 4))
        a, b = map(int, rng.choice(n, size=2, replace=False))
        u = random_unitary(rng, 4)
        vec = random_state(rng, n)
        state = QuantumState(n)
        state.amplitudes = vec.copy()
        apply_unitary(state, u, (a, b))
        expected = embed_dense(u, (a, b), n) @ vec
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_two_applications_equal_matrix_square(gates):
    rng = np.random.default_rng(3)
    sxx = unitary_of(gates["Sxx"])
    for _ in range(5):
        vec = random_state(rng, 2)
        state = QuantumState(2)
        state.amplitudes = vec.copy()
        apply_unitary(state, sxx, (0, 1))
        apply_unitary(state, sxx, (0, 1))
        expected = (sxx @ sxx) @ vec
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


def test_apply_unitary_rejects_bad_calls():
    state = QuantumState(2)
    with pytest.raises(SimulationError):
        apply_unitary(state, np.eye(4), (0,))  # wrong dimension
    with pytest.raises(SimulationError):
        apply_unitary(state, np.eye(4), (0, 0))  # duplicate qubit
    with pytest.raises(SimulationError):
        apply_unitary(state, np.eye(2), (5,))  # out of range


def test_norm_preserved_over_long_random_circuit(gates):
    rng = np.random.default_rng(4)
    state = QuantumState(3)
    names = ["Rx", "Ry", "Rz", "Sx", "Sxd", "Px", "MS", "Sxx"]
    for _ in range(1000):
        name = rng.choice(names)
        definition = gates[name]
        args = list(rng.uniform(-math.pi, math.pi,
                                size=definition.float_arity))
        qubits = tuple(map(int, rng.choice(3, size=definition.qubit_arity,
                                           replace=False)))
        apply_unitary(state, unitary_of(definition, args), qubits)
    norm = float(np.sum(np.abs(state.amplitudes) ** 2))
    assert abs(norm - 1.0) <= 1e-9


def assert_same_bits(state, reference):
    assert np.array_equal(state.amplitudes.view(np.uint64),
                          reference.amplitudes.view(np.uint64))


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_apply_unitary_is_bit_identical_to_the_reference(data):
    """The blocked kernel computes exactly what the moveaxis formulation in
    tests/helpers.py computes, at every read: with BLOCK patched down to 16
    or 64 amplitudes, so a state of a few qubits spans many blocks (and a
    3-qubit gate's 4-column minimum outgrows a 16-amplitude block), or at
    its real size; on runs of gates on one qubit tuple, on descending
    tuples, with reads between gates, and when the state was assigned a
    strided view or new amplitudes mid-sequence."""
    n = data.draw(st.integers(1, 12), label="n")
    block = data.draw(st.sampled_from([16, 64, 2 ** 14]), label="BLOCK")
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    vec = random_state(rng, n)
    if data.draw(st.booleans(), label="strided"):
        backing = np.zeros(2 * len(vec), dtype=complex)
        backing[::2] = vec
        vec = backing[::2]
    given_values = vec.copy()
    state, reference = QuantumState(n), QuantumState(n)
    state.amplitudes = vec
    reference.amplitudes = vec
    with mock.patch.object(simulator, "BLOCK", block):
        for _ in range(data.draw(st.integers(1, 5), label="runs")):
            k = data.draw(st.integers(1, min(3, n)), label="k")
            qubits = data.draw(st.one_of(
                st.permutations(range(n)).map(lambda p: tuple(p[:k])),
                st.just((n - 1, 0, n // 2)[:k])), label="qubits")
            for _ in range(data.draw(st.integers(1, 3), label="repeats")):
                unitary = random_unitary(rng, 2 ** k)
                apply_unitary(state, unitary, qubits)
                apply_unitary_reference(reference, unitary, qubits)
            if data.draw(st.booleans(), label="read"):
                assert_same_bits(state, reference)
            if data.draw(st.booleans(), label="assign"):
                fresh = random_state(rng, n)
                state.amplitudes = fresh
                reference.amplitudes = fresh
    assert_same_bits(state, reference)
    assert np.array_equal(vec, given_values)  # the caller's array is kept


@pytest.mark.parametrize("n, seed", [(15, 0), (15, 1), (16, 2), (16, 3)])
def test_blocks_of_the_real_size_are_bit_identical_to_the_reference(n, seed):
    """Past BLOCK amplitudes each gate walks 2 or 4 blocks; every
    1- and 2-qubit gate of a random sequence, the top and bottom qubits in
    either order included, matches the reference to the last bit."""
    assert 2 ** n > simulator.BLOCK
    rng = np.random.default_rng(seed)
    state, reference = QuantumState(n), QuantumState(n)
    tuples = [(0,), (n - 1,), (0, n - 1), (n - 1, 0)] + [
        tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        for k in (1, 2) * 4]
    for qubits in tuples:
        unitary = random_unitary(rng, 2 ** len(qubits))
        apply_unitary(state, unitary, qubits)
        apply_unitary_reference(reference, unitary, qubits)
        assert_same_bits(state, reference)


def test_a_new_state_allocates_one_vector():
    """Construction copied its zero vector through the ``amplitudes``
    setter, peaking at two state vectors."""
    tracemalloc.start()
    try:
        state = QuantumState(14)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2 ** 14 * np.dtype(complex).itemsize
    assert state.amplitudes[0] == 1 and not state.amplitudes[1:].any()


def test_gates_allocate_no_state_sized_vectors():
    """80 gates on a state past one block cost the two block buffers; the
    two-vector kernel allocated a whole scratch vector at the first gate,
    and the moveaxis formulation peaked at three state vectors."""
    rng = np.random.default_rng(8)
    n = 16
    assert 2 ** n > simulator.BLOCK
    state = QuantumState(n)
    gates = []
    for _ in range(80):
        k = int(rng.integers(1, 3))
        qubits = tuple(int(q) for q in rng.choice(n, size=k, replace=False))
        gates.append((random_unitary(rng, 2 ** k), qubits))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        for unitary, qubits in gates:
            apply_unitary(state, unitary, qubits)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 2 * simulator.BLOCK * np.dtype(complex).itemsize


# -- run ------------------------------------------------------------------------

def test_worked_example_record(gates):
    source = ("register q[2]\n"
              "loop 2 { prepare_all\nPx q[0]\nmeasure_all }\n"
              "loop 2 { prepare_all\nPx q[1]\nmeasure_all }\n")
    circuit = circuit_of(source, gates)
    for seed in (0, 1, 77, 2 ** 40):
        assert run(circuit, gates, seed=seed) == ["10", "10", "01", "01"]


def test_no_gates_measures_all_zeros(gates):
    circuit = circuit_of("register q[3]\nprepare_all\nmeasure_all\n", gates)
    assert run(circuit, gates) == ["000"]


def test_little_endian_contract(gates):
    circuit = circuit_of(
        "register q[2]\nprepare_all\nPx q[0]\nmeasure_all\n", gates)
    assert run(circuit, gates) == ["10"]


def test_bell_sampling_frequencies(gates):
    source = ("register q[2]\n"
              "loop 10000 { prepare_all\nSxx q[0] q[1]\nmeasure_all }\n")
    circuit = circuit_of(source, gates)
    record = run(circuit, gates, seed=0)
    counts = Counter(record)
    assert set(counts) <= {"00", "11"}
    assert abs(counts["00"] / 10000 - 0.5) <= 0.02
    assert abs(counts["11"] / 10000 - 0.5) <= 0.02
    assert run(circuit, gates, seed=1) != record


def test_seed_determinism(gates):
    source = ("register q[1]\n"
              "loop 50 { prepare_all\nSx q[0]\nmeasure_all }\n")
    circuit = circuit_of(source, gates)
    assert run(circuit, gates, seed=9) == run(circuit, gates, seed=9)


def test_gate_after_measurement_is_an_error(gates):
    circuit = circuit_of(
        "register q[1]\nprepare_all\nmeasure_all\nSx q[0]\n", gates)
    with pytest.raises(SimulationError) as err:
        run(circuit, gates)
    assert err.value.code == "destroyed-state"


def test_second_measurement_without_prepare_is_an_error(gates):
    circuit = circuit_of(
        "register q[1]\nprepare_all\nmeasure_all\nmeasure_all\n", gates)
    with pytest.raises(SimulationError) as err:
        run(circuit, gates)
    assert err.value.code == "destroyed-state"


def test_prepare_revives_the_register(gates):
    circuit = circuit_of(
        "register q[1]\nprepare_all\nmeasure_all\nprepare_all\n"
        "Px q[0]\nmeasure_all\n", gates)
    assert run(circuit, gates) == ["0", "1"]


def test_idles_are_identity_operations(gates):
    circuit = circuit_of(
        "register q[2]\nprepare_all\nPx q[0]\nI_Sx q[0]\nI_MS q[0] q[1]\n"
        "measure_all\n", gates)
    assert run(circuit, gates) == ["10"]


def test_qubit_cap_enforced(gates):
    with pytest.raises(SimulationError) as err:
        QuantumState(25)
    assert err.value.code == "too-many-qubits"


def test_run_matches_oracle_record_same_seed(gates):
    rng = random.Random(31)
    for _ in range(10):
        source = random_program(rng)
        program, diags = parse(source)
        assert not has_errors(diags)
        circuit = expand(program, gates)
        assert run(circuit, gates, seed=5) == interpret_run(program, seed=5)


# -- probabilities -----------------------------------------------------------------

def test_probabilities_flip_is_certain(gates):
    circuit = circuit_of(
        "register q[2]\nprepare_all\nPx q[0]\nmeasure_all\n", gates)
    (dist,) = probabilities(circuit, gates)
    assert dist["10"] == pytest.approx(1.0, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_probabilities_without_gates(gates):
    circuit = circuit_of("register q[4]\nprepare_all\nmeasure_all\n", gates)
    assert probabilities(circuit, gates) == [{"0000": 1.0}]


def test_probabilities_match_closed_form_rotation(gates):
    theta = 0.9
    circuit = circuit_of(
        f"register q[1]\nprepare_all\nRx q[0] {theta!r}\nmeasure_all\n",
        gates)
    (dist,) = probabilities(circuit, gates)
    assert dist["0"] == pytest.approx(math.cos(theta / 2) ** 2, abs=1e-12)
    assert dist["1"] == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-12)


def test_global_phase_has_no_observable_effect(gates):
    pi = repr(math.pi)
    with_p = circuit_of(
        "register q[2]\nprepare_all\nPx q[0]\nmeasure_all\n", gates)
    with_r = circuit_of(
        f"register q[2]\nprepare_all\nRx q[0] {pi}\nmeasure_all\n", gates)
    (dp,) = probabilities(with_p, gates)
    (dr,) = probabilities(with_r, gates)
    keys = set(dp) | set(dr)
    for key in keys:
        assert dp.get(key, 0.0) == pytest.approx(dr.get(key, 0.0), abs=1e-12)


def test_collapse_follows_most_probable_branch(gates):
    # after measuring an even superposition the tie breaks toward the
    # lower index, so the second measurement sees that branch exactly
    circuit = circuit_of(
        "register q[1]\nprepare_all\nSx q[0]\nmeasure_all\n"
        "prepare_all\nmeasure_all\n", gates)
    first, second = probabilities(circuit, gates)
    assert first["0"] == pytest.approx(0.5, abs=1e-12)
    assert second == {"0": 1.0}


def test_quantize_flag_snaps_angles(gates):
    from jaqalc.gateset import quantize_angle

    theta = 1.0000000001  # off the hardware grid
    snapped = quantize_angle(theta)
    assert snapped != theta
    circuit = circuit_of(
        f"register q[1]\nprepare_all\nRx q[0] {theta!r}\nmeasure_all\n",
        gates)
    (dist,) = probabilities(circuit, gates, quantize=True)
    assert dist["1"] == pytest.approx(math.sin(snapped / 2) ** 2,
                                      abs=1e-14)
    (raw,) = probabilities(circuit, gates, quantize=False)
    assert raw["1"] == pytest.approx(math.sin(theta / 2) ** 2, abs=1e-14)
    assert raw["1"] != dist["1"]


# -- SplitMix64 ---------------------------------------------------------------------

def test_splitmix64_reference_values():
    # first outputs for seed 1234567, from the published algorithm
    rng = SplitMix64(1234567)
    values = [rng.next_u64() for _ in range(3)]
    assert values == [6457827717110365317, 3203168211198807973,
                      9817491932198370423]


def test_splitmix64_uniform_range():
    rng = SplitMix64(0)
    draws = [rng.uniform() for _ in range(1000)]
    assert all(0.0 < u <= 1.0 for u in draws)


def test_splitmix64_refuses_seeds_outside_64_bits():
    SplitMix64(2 ** 64 - 1)
    for seed in (-1, 2 ** 64, -(2 ** 64)):
        with pytest.raises(ValueError):
            SplitMix64(seed)
    circuit = FlatCircuit(1, FlatBlock(False, ()))
    with pytest.raises(ValueError):
        run(circuit, builtin_gateset(), seed=2 ** 64)


def test_bitstring_rendering():
    assert bitstring_of(1, 2) == "10"
    assert bitstring_of(2, 2) == "01"
    assert bitstring_of(5, 4) == "1010"


def test_bitstrings_of_an_index_array_equal_the_loop():
    rng = np.random.default_rng(6)
    for n in range(21):
        indices = np.sort(rng.choice(2 ** n, size=min(2 ** n, 50),
                                     replace=False))
        assert _bitstrings(indices, n) == [bitstring_of(i, n)
                                           for i in indices.tolist()]


def test_zero_qubit_circuit_measures_the_empty_string(gates):
    shot = (PrimitiveGate(gates["prepare_all"]),
            PrimitiveGate(gates["measure_all"]))
    circuit = FlatCircuit(0, FlatBlock(False, shot * 2))
    assert probabilities(circuit, gates) == [{"": 1.0}, {"": 1.0}]
    assert run(circuit, gates) == ["", ""]
    assert "".join(probability_chunks(circuit, gates)) == " 1.0\n" * 2


@settings(max_examples=200, deadline=None)
@given(n=st.integers(0, 9), count=st.integers(0, 12),
       seed=st.integers(0, 2 ** 32 - 1), assigned=st.booleans())
def test_born_probabilities_are_squared_magnitudes_bit_for_bit(
        n, count, seed, assigned):
    """The probabilities written over the state's vector are ``np.abs(a) **
    2`` to the last bit, with no block buffers yet (no gate, or amplitudes
    just assigned) or after gates, and the state gives its vector up."""
    rng = np.random.default_rng(seed)
    state = QuantumState(n)
    if assigned:
        state.amplitudes = random_state(rng, n)
    for _ in range(count if n else 0):
        k = int(rng.integers(1, min(n, 2) + 1))
        qubits = rng.choice(n, size=k, replace=False).tolist()
        apply_unitary(state, random_unitary(rng, 2 ** k), qubits)
    amplitudes = copy.deepcopy(state).amplitudes
    probs = born_probabilities(state)
    assert probs.dtype == np.float64 and probs.shape == (2 ** n,)
    assert probs.tobytes() == (np.abs(amplitudes) ** 2).tobytes()
    assert state.amplitudes is None


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 10) | st.sampled_from([15, 16]),
       block=st.sampled_from([1, 2, 16, 64, 2 ** 14]),
       gated=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_born_probabilities_are_bit_identical_across_blocks(
        n, block, gated, seed):
    """Written BLOCK entries at a time over the first half of the vector's
    bytes, each block through a separate buffer, the probabilities are
    ``np.abs(a) ** 2`` to the last bit on either side of every block
    boundary, also when the last block is short, and past one block of the
    real size."""
    rng = np.random.default_rng(seed)
    state = QuantumState(n)
    state.amplitudes = random_state(rng, n)
    with mock.patch.object(simulator, "BLOCK", block):
        if gated and n:
            apply_unitary(state, random_unitary(rng, 2), [n - 1])
        amplitudes = state.amplitudes.copy()
        probs = born_probabilities(state)
    assert probs.tobytes() == (np.abs(amplitudes) ** 2).tobytes()


def test_born_probabilities_reach_a_reordered_state(gates):
    """Gates on qubits other than the first (which left the axes out of
    basis order in the two-vector kernel) still give the probabilities in
    basis order."""
    state = QuantumState(3)
    for qubits in ([2], [1, 2], [0], [2, 0]):
        apply_unitary(state, random_unitary(np.random.default_rng(
            len(qubits)), 2 ** len(qubits)), qubits)
    reference = copy.deepcopy(state)
    expected = np.abs(reference.amplitudes) ** 2
    assert born_probabilities(state).tobytes() == expected.tobytes()


def test_draw_past_a_sum_below_one_takes_the_last_nonzero_outcome(
        gates, monkeypatch):
    """Rx(theta) on qubit 0 of two gives probabilities that sum to a hair
    under 1; a draw of exactly 1.0 then lies past the cumulative sum and
    must land on "10", not past the end or on a zero-probability tail."""
    theta = 0.1387959866220736
    circuit = circuit_of(f"register q[2]\nloop 3 {{ prepare_all\n"
                         f"Rx q[0] {theta!r}\nmeasure_all }}\n", gates)
    (dist, _, _) = probabilities(circuit, gates)
    assert sum(dist.values()) < 1.0 and list(dist) == ["00", "10"]
    monkeypatch.setattr(SplitMix64, "uniforms",
                        lambda self, count: np.full(count, 1.0))
    assert run(circuit, gates) == ["10", "10", "10"]


@st.composite
def _born_vectors(draw):
    """Probability vectors over 0-8 qubits with at least one nonzero entry:
    random weights (some tiny) or small integer ones (ties), runs of zeros
    at the start, in the middle and at the end, and sums scaled a hair
    under or over 1."""
    n = draw(st.integers(0, 8))
    size = 2 ** n
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    if draw(st.booleans()):
        weights = rng.random(size) ** draw(st.sampled_from([1, 8, 64]))
    else:
        weights = rng.integers(0, 4, size).astype(float)
    for _ in range(draw(st.integers(0, 3))):
        start = draw(st.integers(0, size - 1))
        weights[start:start + draw(st.integers(1, size))] = 0.0
    if draw(st.booleans()):
        weights[:draw(st.integers(0, size - 1))] = 0.0
    if draw(st.booleans()):
        weights[draw(st.integers(1, size)):] = 0.0
    if not weights.any():
        weights[draw(st.integers(0, size - 1))] = 1.0
    scale = draw(st.sampled_from(
        [1.0, 1 - 2 ** -53, 1 - 2 ** -50, 1 + 2 ** -52, 1 + 2 ** -49]))
    return n, weights / weights.sum() * scale


@settings(max_examples=300, deadline=None)
@given(vector=_born_vectors(), seed=st.integers(0, 2 ** 32 - 1))
def test_outcome_table_samples_as_the_full_vector_did(vector, seed):
    """``_Outcomes.pick`` keeps only nonzero outcomes yet picks what
    inverse-CDF sampling over the whole vector picks, for random draws,
    every running-sum value, its neighbouring doubles, 1.0 and 2**-53."""
    n, probs = vector
    table = _Outcomes(probs, n)
    sums = np.cumsum(probs)
    rng = np.random.default_rng(seed)
    draws = [*(1.0 - rng.random(20)), *sums, *np.nextafter(sums, 0.0),
             *np.nextafter(sums, 2.0), 1.0, 2.0 ** -53]
    draws = [float(u) for u in draws if u > 0.0]
    for u, index in zip(draws, table.pick(np.array(draws))):
        want = sample_full_vector(probs, u, n)
        assert bitstring_of(int(index), n) == want, u


# -- segment memo ---------------------------------------------------------------
# A measurement whose segment (the gates since the last prepare_all) equals
# the one measured just before reuses its probabilities.

from oracle import interpret_probabilities  # noqa: E402


def _segment_source(rng, n, gates_per_segment):
    names = ["Rx", "Ry", "Sx", "Sy", "Pz"] + (["Sxx", "MS"] if n > 1 else [])
    lines = ["prepare_all"]
    for _ in range(gates_per_segment):
        name = rng.choice(names)
        qubits = rng.sample(range(n), 2 if name in ("Sxx", "MS") else 1)
        angles = {"Rx": 1, "Ry": 1, "MS": 2}.get(name, 0)
        lines.append(" ".join([name, *(f"q[{q}]" for q in qubits),
                               *(repr(rng.uniform(-3, 3))
                                 for _ in range(angles))]))
    lines.append("measure_all")
    return "\n".join(lines)


def _memo_program(rng):
    """Alternating segments A/B, runs of equal A's and B's, a lone A."""
    n = rng.randint(1, 3)
    a = _segment_source(rng, n, 4)
    b = _segment_source(rng, n, 4)
    return (f"register q[{n}]\n"
            f"loop 3 {{\n{a}\n{b}\n}}\n"
            f"loop 4 {{\n{a}\n}}\n"
            f"loop 2 {{\n{b}\n}}\n"
            f"{a}\n{a}\n{b}\n")


def _assert_close(mine, reference):
    assert len(mine) == len(reference)
    for d, o in zip(mine, reference):
        keys = set(d) | set(o)
        assert 0.5 * sum(abs(d.get(k, 0.0) - o.get(k, 0.0))
                         for k in keys) <= 1e-9


@pytest.mark.parametrize("quantize", [False, True])
def test_alternating_and_repeated_segments_match_oracle(gates, quantize):
    rng = random.Random(404)
    for _ in range(8):
        source = _memo_program(rng)
        program, diags = parse(source)
        assert not has_errors(diags), source
        circuit = expand(program, gates)
        for seed in (0, 3, 2 ** 33 + 1):
            assert run(circuit, gates, seed=seed, quantize=quantize) == \
                interpret_run(program, seed=seed, quantize=quantize), source
        _assert_close(probabilities(circuit, gates, quantize=quantize),
                      interpret_probabilities(program, quantize=quantize))


def _bell_shots(gates, shots, share):
    """``shots`` prepare → Sx, Sxx → measure segments, with the gate
    objects shared between shots or built afresh (equal but distinct)."""
    def segment():
        return (PrimitiveGate(gates["prepare_all"]),
                PrimitiveGate(gates["Sx"], (0,)),
                PrimitiveGate(gates["Sxx"], (0, 1)),
                PrimitiveGate(gates["Rz"], (1,), (0.25,)),
                PrimitiveGate(gates["measure_all"]))
    shared = segment()
    items = []
    for shot in range(shots):
        items.extend(shared if share else segment())
    return FlatCircuit(2, FlatBlock(False, tuple(items)))


def _count_applications(monkeypatch):
    from jaqalc import simulator

    calls = []
    real = simulator._apply

    def counting(state, unitary, qubits):
        calls.append(tuple(qubits))
        return real(state, unitary, qubits)

    monkeypatch.setattr(simulator, "_apply", counting)
    return calls


def test_equal_but_distinct_gates_hit_the_memo(gates, monkeypatch):
    shared = _bell_shots(gates, 40, share=True)
    fresh = _bell_shots(gates, 40, share=False)
    calls = _count_applications(monkeypatch)
    for seed in (0, 11):
        assert run(fresh, gates, seed=seed) == run(shared, gates, seed=seed)
    assert probabilities(fresh, gates) == probabilities(shared, gates)
    # one simulated segment (3 gates) per call, however the gates are built
    assert len(calls) == 6 * 3


def test_apply_unitary_runs_once_per_distinct_consecutive_segment(
        gates, monkeypatch):
    calls = _count_applications(monkeypatch)
    circuit = circuit_of(
        "register q[2]\n"
        "loop 500 { prepare_all\nSx q[0]\nSxx q[0] q[1]\nmeasure_all }\n",
        gates)
    record = run(circuit, gates, seed=5)
    assert len(record) == 500 and set(record) <= {"00", "01", "10", "11"}
    assert len(calls) == 2
    calls.clear()
    assert len(probabilities(circuit, gates)) == 500
    assert len(calls) == 2
    calls.clear()
    # A B A B ... has no two equal consecutive segments, so the first two
    # iterations simulate each; the third starts as the second did, and
    # the second's two tables are sampled for all 48 left
    circuit = circuit_of(
        "register q[2]\n"
        "loop 50 { prepare_all\nSx q[0]\nmeasure_all\n"
        "prepare_all\nSy q[1]\nmeasure_all }\n", gates)
    assert len(run(circuit, gates, seed=5)) == 100
    assert calls == [(0,), (1,)] * 2


def test_probability_mappings_are_independent_per_measurement(gates):
    circuit = circuit_of(
        "register q[1]\nloop 3 { prepare_all\nSx q[0]\nmeasure_all }\n",
        gates)
    first, second, third = probabilities(circuit, gates)
    first["0"] = 7.0
    assert second == third and second["0"] == pytest.approx(0.5)


def test_destroyed_state_is_raised_after_a_memo_hit(gates):
    for tail in ("Sx q[0]\n", "measure_all\n", "I_Sx q[0]\n"):
        circuit = circuit_of(
            "register q[1]\nloop 3 { prepare_all\nSx q[0]\nmeasure_all }\n"
            + tail, gates)
        for execute in (lambda: run(circuit, gates),
                        lambda: probabilities(circuit, gates)):
            with pytest.raises(SimulationError) as err:
                execute()
            assert err.value.code == "destroyed-state"


@st.composite
def _register_circuits(draw):
    """Hand-built one-qubit circuits of prepare_all, measure_all, Sx and
    I_Sx in loops and blocks up to three deep, stray measurements and all:
    a loop body may start or end measured."""
    from jaqalc.expander import FlatLoop
    from jaqalc.gateset import builtin_gateset

    gates = builtin_gateset()

    def items(depth: int) -> tuple:
        kinds = ["prepare_all", "measure_all", "Sx", "I_Sx"]
        out = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(kinds + ["loop", "block"] * bool(
                depth)))
            if kind == "loop":
                out.append(FlatLoop(draw(st.integers(2, 3)), items(depth - 1)))
            elif kind == "block":
                out.append(FlatBlock(draw(st.booleans()), items(depth - 1)))
            else:
                qubits = (0,) if kind in ("Sx", "I_Sx") else ()
                out.append(PrimitiveGate(gates[kind], qubits))
        return tuple(out)

    return FlatCircuit(1, FlatBlock(False, items(3)))


@settings(max_examples=300, deadline=None)
@given(circuit=_register_circuits())
def test_register_check_raises_where_running_gate_by_gate_did(gates,
                                                              circuit):
    """The register is checked before anything runs, in one walk of the
    IR (a loop's next iteration by its first gate), and fails exactly
    when the gate-by-gate walk did, naming the same gate."""
    message = register_error_reference(circuit, gates)
    for execute in (run, probabilities,
                    lambda *args: list(probability_chunks(*args))):
        if message is None:
            execute(circuit, gates)
            continue
        with pytest.raises(SimulationError) as err:
            execute(circuit, gates)
        assert (err.value.code, str(err.value)) == ("destroyed-state",
                                                    message)


def test_invalid_gate_in_an_unmeasured_segment_still_raises(gates):
    prepare = PrimitiveGate(gates["prepare_all"])
    measure = PrimitiveGate(gates["measure_all"])
    sx = PrimitiveGate(gates["Sx"], (0,))
    bad = PrimitiveGate(gates["Sx"], (5,))  # no qubit 5 in a 2-qubit state
    trailing = (prepare, sx, measure, prepare, sx, measure, prepare, bad)
    discarded = (prepare, sx, measure, prepare, bad, prepare, sx, measure)
    leading = (bad, prepare, sx, measure)
    for items in (trailing, discarded, leading):
        circuit = FlatCircuit(2, FlatBlock(False, items))
        with pytest.raises(SimulationError):
            run(circuit, gates)
        with pytest.raises(SimulationError):
            probabilities(circuit, gates)


def test_quantized_records_of_repeated_segments_match_oracle(gates):
    from jaqalc.gateset import quantize_angle

    theta = 1.0000000001  # off the hardware grid
    source = (f"register q[2]\nloop 300 {{ prepare_all\nRx q[0] {theta!r}\n"
              f"Sxx q[0] q[1]\nRy q[1] {-theta!r}\nmeasure_all }}\n")
    program, _ = parse(source)
    circuit = expand(program, gates)
    assert quantize_angle(theta) != theta
    for seed in (0, 9):
        quantized = run(circuit, gates, seed=seed, quantize=True)
        assert quantized == interpret_run(program, seed=seed, quantize=True)
        assert run(circuit, gates, seed=seed) == interpret_run(program,
                                                               seed=seed)


# -- runs ----------------------------------------------------------------------
# A loop is walked until two iterations in a row start alike, then the last
# one's tables are sampled for every iteration left, with batched draws.

from jaqalc.emitter import emit, record_chunks  # noqa: E402

from helpers import (  # noqa: E402
    assert_same_text,
    measurements_reference,
    probability_text_reference,
    run_reference,
)

SEEDS = (0, 7, 123456789, 2 ** 64 - 1)


@pytest.mark.parametrize("seed", SEEDS)
def test_batched_draws_equal_the_sequential_ones(seed):
    """The k-th state is the seed plus k increments mod 2**64, so one
    numpy pass gives ``uniform``'s draws bit for bit, across the wrap at
    2**64 and across calls, and leaves the counter where they would."""
    one, batched = SplitMix64(seed), SplitMix64(seed)
    want = [one.uniform() for _ in range(20000)]
    got = [u for count in (1, 0, 7, 4096, 15896)
           for u in batched.uniforms(count).tolist()]
    assert got == want
    assert batched.next_u64() == one.next_u64()


# (name, source with {n} for a loop count); a failing example shows both
SHAPES = [
    ("spanning", "register q[2]\nprepare_all\nloop {n} {{ Sx q[0]; "
     "measure_all; prepare_all; Sy q[1] }}\nmeasure_all\n"),
    ("alternating", "register q[2]\nloop {n} {{ prepare_all; Rx q[0] 0.3; "
     "measure_all; prepare_all; Sxx q[0] q[1]; measure_all }}\n"),
    ("discarded", "register q[2]\nloop {n} {{ prepare_all; Sx q[0]; "
     "prepare_all; Sy q[1]; measure_all }}\n"),
    ("nested", "register q[2]\nloop {n} {{ loop 3 {{ prepare_all; Sx q[0]; "
     "measure_all }} loop {n} {{ prepare_all; Sxx q[0] q[1]; measure_all "
     "}} }}\n"),
    ("growing", "register q[2]\nloop 3 {{ prepare_all; loop {n} {{ Sx q[0] "
     "}} measure_all }}\nprepare_all\nloop {n} {{ Sy q[1] }}\n"),
    ("block", "register q[3]\nmacro m a {{ loop 2 {{ Sy a }} }}\nloop {n} "
     "{{ prepare_all; < Sx q[0] | m q[1] >; measure_all; prepare_all; "
     "Sz q[2] }}\nmeasure_all\n"),
]


def _outcome(execute):
    """What ``execute()`` returns, or the code and message it raises."""
    try:
        return execute()
    except SimulationError as exc:
        return exc.code, str(exc)


def _assert_runs_as_the_reference(circuit, gates, seed, quantize):
    want = _outcome(lambda: run_reference(circuit, gates, seed, quantize))
    assert _outcome(lambda: run(circuit, gates, seed, quantize)) == want
    if isinstance(want, list):  # the command line's record text
        assert_same_text("".join(record_chunks(simulator.samples(
            circuit, gates, seed, quantize))), emit(want).decode())
    want = _outcome(lambda: probability_text_reference(
        dict(table.mapping) for table in
        measurements_reference(circuit, gates, quantize)))
    got = _outcome(lambda: "".join(probability_chunks(circuit, gates,
                                                      quantize)))
    if isinstance(want, str):
        assert_same_text(got, want)
    assert got == want


@settings(max_examples=200, deadline=None)
@given(data=st.data(),
       seed=st.sampled_from(SEEDS) | st.integers(0, 2 ** 64 - 1),
       quantize=st.booleans(),
       pattern_bytes=st.sampled_from([0, 100, 1000, 1 << 22]),
       draws=st.sampled_from([1, 2, 3, 5, 1 << 14]))
def test_runs_sample_as_the_per_shot_reference(gates, data, seed, quantize,
                                               pattern_bytes, draws):
    """Records, their text and the ``-p`` text equal the per-shot walk's
    in tests/helpers.py: for random programs, and for a segment spanning
    iterations, alternating segments, a discarded segment in a loop,
    nested shot loops, a segment that grows on every iteration and a loop
    in a block, with the pattern bound and the draw batch patched small."""
    if data.draw(st.booleans(), label="generated"):
        source = random_program(random.Random(data.draw(
            st.integers(0, 2 ** 32 - 1))), max_qubits=4)
    else:
        _, shape = data.draw(st.sampled_from(SHAPES), label="shape")
        source = shape.format(n=data.draw(st.integers(1, 40), label="n"))
    circuit = circuit_of(source, gates)
    with mock.patch.object(simulator, "PATTERN_BYTES", pattern_bytes), \
            mock.patch.object(simulator, "DRAWS", draws):
        _assert_runs_as_the_reference(circuit, gates, seed, quantize)


@st.composite
def _shot_programs(draw):
    """Random nests of loops around prepare_all, measure_all and gates on
    two qubits; some break the register order, and must fail alike."""
    statements = ["prepare_all", "measure_all", "Sx q[0]", "Sy q[1]",
                  "Rx q[0] 0.7", "Sxx q[0] q[1]", "I_Sx q[1]"]

    def body(depth: int) -> str:
        parts = []
        for _ in range(draw(st.integers(1, 4))):
            if depth and draw(st.integers(0, 3)) == 0:
                parts.append(f"loop {draw(st.integers(1, 6))} "
                             f"{{ {body(depth - 1)} }}")
            else:
                parts.append(draw(st.sampled_from(statements)))
        return "; ".join(parts)

    return f"register q[2]\n{body(3)}\n"


@settings(max_examples=200, deadline=None)
@given(source=_shot_programs(), seed=st.sampled_from(SEEDS),
       pattern_bytes=st.sampled_from([0, 200, 1 << 22]),
       draws=st.sampled_from([1, 3, 1 << 14]))
def test_random_shot_loops_sample_as_the_per_shot_reference(
        gates, source, seed, pattern_bytes, draws):
    circuit = circuit_of(source, gates)
    with mock.patch.object(simulator, "PATTERN_BYTES", pattern_bytes), \
            mock.patch.object(simulator, "DRAWS", draws):
        _assert_runs_as_the_reference(circuit, gates, seed, False)


def test_a_shot_loop_is_walked_to_its_fixpoint_only(gates, monkeypatch):
    """The third iteration starts as the second did, so the walk stops
    there and yields the second's table for the 999,998 left; the draws
    and names come in batches."""
    circuit = circuit_of("register q[2]\nloop 1000000 { prepare_all; "
                         "Sxx q[0] q[1]; measure_all }\n", gates)
    runs = list(simulator._measurements(circuit, gates, False))
    (first,), (second,), (third,) = (tables for tables, _ in runs)
    assert first is second is third
    assert [repeats for _, repeats in runs] == [1, 1, 999998]
    batches = list(simulator.samples(circuit, gates, seed=3))
    assert len(batches) == -(-1000000 // simulator.DRAWS)
    assert all(names == {0: "00", 3: "11"} for names, _ in batches)


def test_unmeasured_segments_are_checked_not_simulated(gates, monkeypatch):
    """A discarded or trailing segment runs no gate, however long: the
    loop body's gates are checked in its second iteration, where the walk
    stops, and again at the next prepare_all; a segment that grows on
    every iteration is checked once, one gate object once."""
    calls = _count_applications(monkeypatch)
    checked = []
    real = simulator._checked_args
    monkeypatch.setattr(simulator, "_checked_args",
                        lambda *args: checked.append(args[1]) or real(*args))
    circuit = circuit_of("register q[2]\nloop 1000 { prepare_all; Sx q[0]; "
                         "Sy q[1] }\nprepare_all\nloop 100000 { Sx q[0] }\n",
                         gates)
    assert run(circuit, gates) == [] and probabilities(circuit, gates) == []
    assert calls == []
    assert checked == [(0,), (1,), (0,), (1,), (0,)] * 2


def test_zero_and_negative_zero_angles_give_the_same_unitary_bytes(gates):
    """Every rotation builds the same raw bytes from 0.0 and -0.0, so a
    cache of matrices may key floats by value, where 0.0 == -0.0."""
    rotations = [d for d in gates.values()
                 if d.kind == ROTATION and d.float_arity]
    assert {d.name for d in rotations} >= {"Rx", "Ry", "Rz", "MS"}
    for definition in rotations:
        signs = itertools.product((0.0, -0.0), repeat=definition.float_arity)
        assert len({unitary_of(definition, args).tobytes()
                    for args in signs}) == 1, definition.name

