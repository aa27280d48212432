import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.linalg import expm

from jaqalc.errors import ManifestError
from jaqalc.expander import PrimitiveGate
from jaqalc.gateset import (
    ANGLE_STEP,
    FLOAT,
    QUBIT,
    apply_durations,
    builtin_gateset,
    load_duration_manifest,
    quantize_angle,
    wrap_angle,
)
from jaqalc.simulator import unitary_of

from helpers import max_phase_deviation

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULI = {"x": X, "y": Y, "z": Z}


# -- definitions ---------------------------------------------------------------

def test_gateset_contents(gates):
    expected = {"prepare_all", "measure_all", "MS", "Sxx"}
    for axis in "xyz":
        expected |= {f"R{axis}", f"P{axis}", f"S{axis}", f"S{axis}d"}
    twins = {f"I_{name}" for name in expected
             if name not in ("prepare_all", "measure_all")}
    assert set(gates) == expected | twins


def test_ms_signature(gates):
    assert gates["MS"].param_kinds == (QUBIT, QUBIT, FLOAT, FLOAT)
    assert gates["MS"].qubit_arity == 2


def test_sxd_signature(gates):
    assert gates["Sxd"].param_kinds == (QUBIT,)
    assert gates["Sxd"].float_arity == 0


def test_unknown_gate_absent(gates):
    assert "Qz" not in gates


def test_idle_twins_share_durations(gates):
    assert gates["I_Sx"].duration == gates["Sx"].duration
    assert gates["I_MS"].duration == gates["MS"].duration
    assert gates["I_MS"].qubit_arity == 2


# -- unitaries ------------------------------------------------------------------

def test_rz_zero_angle_is_identity(gates):
    u = unitary_of(gates["Rz"], [0.0])
    assert np.allclose(u, np.eye(2), atol=1e-15)


def test_sxx_matrix_matches_exponential_oracle(gates):
    u = unitary_of(gates["Sxx"])
    reference = expm(-1j * (math.pi / 4) * np.kron(X, X))
    assert np.max(np.abs(u - reference)) <= 1e-12
    expected = np.array([
        [1, 0, 0, -1j],
        [0, 1, -1j, 0],
        [0, -1j, 1, 0],
        [-1j, 0, 0, 1],
    ]) / math.sqrt(2)
    assert np.max(np.abs(u - expected)) <= 1e-12


def test_ms_at_phi0_theta_half_pi_equals_sxx(gates):
    ms = unitary_of(gates["MS"], [0.0, math.pi / 2])
    sxx = unitary_of(gates["Sxx"])
    assert np.max(np.abs(ms - sxx)) <= 1e-12


def test_ms_matches_exponential_for_random_angles(gates):
    rng = np.random.default_rng(7)
    for _ in range(10):
        phi, theta = rng.uniform(-2 * math.pi, 2 * math.pi, size=2)
        axis = math.cos(phi) * X + math.sin(phi) * Y
        reference = expm(-1j * (theta / 2) * np.kron(axis, axis))
        u = unitary_of(gates["MS"], [phi, theta])
        assert np.max(np.abs(u - reference)) <= 1e-10


@pytest.mark.parametrize("theta", [0.3, 1.7, -2.2])
@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_r_gates_match_closed_form_and_exponential(gates, axis, theta):
    u = unitary_of(gates[f"R{axis}"], [theta])
    closed = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * PAULI[axis]
    assert np.max(np.abs(u - closed)) <= 1e-12
    reference = expm(-1j * (theta / 2) * PAULI[axis])
    assert np.max(np.abs(u - reference)) <= 1e-12


def every_unitary(gates):
    rng = np.random.default_rng(11)
    for definition in gates.values():
        if definition.kind in ("preparation", "measurement"):
            continue
        if definition.float_arity == 0:
            yield definition.name, unitary_of(definition)
        else:
            args = list(rng.uniform(-2 * math.pi, 2 * math.pi,
                                    size=definition.float_arity))
            yield definition.name, unitary_of(definition, args)


def test_every_gate_unitary_within_tolerance(gates):
    count = 0
    for name, u in every_unitary(gates):
        deviation = np.max(np.abs(u.conj().T @ u - np.eye(len(u))))
        assert deviation <= 1e-12, name
        count += 1
    assert count >= 15


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_half_turns_compose_into_full_turns(gates, axis):
    s = unitary_of(gates[f"S{axis}"])
    p = unitary_of(gates[f"P{axis}"])
    assert max_phase_deviation(s @ s, p) <= 1e-10


@pytest.mark.parametrize("axis", ["x", "y", "z"])
def test_counter_rotation_cancels(gates, axis):
    s = unitary_of(gates[f"S{axis}"])
    sd = unitary_of(gates[f"S{axis}d"])
    assert max_phase_deviation(sd @ s, np.eye(2, dtype=complex)) <= 1e-10


def test_idle_unitaries_are_identities(gates):
    assert np.array_equal(unitary_of(gates["I_Rx"]), np.eye(2))
    assert np.array_equal(unitary_of(gates["I_Sxx"]), np.eye(4))


def test_wrong_float_arity_rejected(gates):
    with pytest.raises(ValueError):
        unitary_of(gates["Rx"], [])
    with pytest.raises(ValueError):
        unitary_of(gates["Sxx"], [1.0])


def test_non_finite_angle_rejected(gates):
    with pytest.raises(ValueError):
        unitary_of(gates["Rx"], [math.nan])


# -- angle quantization -----------------------------------------------------------

def test_quantize_zero_is_exact():
    assert quantize_angle(0.0) == 0.0


def test_quantize_wraps_five_pi_to_pi():
    assert abs(quantize_angle(5 * math.pi) - math.pi) <= ANGLE_STEP


def test_quantize_keeps_two_pi_inclusive():
    assert quantize_angle(2 * math.pi) == 2 * math.pi
    assert quantize_angle(-2 * math.pi) == -2 * math.pi


def test_quantize_against_exact_rational_rounding():
    # oracle: the same wrap-then-round computed in exact rational arithmetic
    step = Fraction(ANGLE_STEP)
    rng = np.random.default_rng(3)
    for theta in rng.uniform(-10 * math.pi, 10 * math.pi, size=500):
        result = quantize_angle(float(theta))
        wrapped = Fraction(wrap_angle(float(theta)))
        k = round(wrapped / step)  # Fraction rounding is exact
        oracle = float(k * step)
        assert abs(result - oracle) <= float(step) / 2 + 1e-18
        assert abs(Fraction(result) - wrapped) <= step / 2


def test_quantize_is_idempotent():
    rng = np.random.default_rng(4)
    for theta in rng.uniform(-10 * math.pi, 10 * math.pi, size=1000):
        once = quantize_angle(float(theta))
        assert quantize_angle(once) == once


def test_quantize_rejects_non_finite():
    with pytest.raises(ValueError):
        quantize_angle(math.inf)


# -- duration manifests -------------------------------------------------------------

def test_manifest_overrides_gate_and_twin(gates):
    overrides = load_duration_manifest("Rx 10\nMS 100\n", gates)
    assert overrides == {"Rx": 10.0, "I_Rx": 10.0, "MS": 100.0, "I_MS": 100.0}
    updated = apply_durations(gates, overrides)
    assert updated["Rx"].duration == 10.0
    assert updated["I_Rx"].duration == 10.0
    assert gates["Rx"].duration == 1.0  # original mapping untouched
    assert gates == builtin_gateset()
    assert updated["Rx"].rotation == gates["Rx"].rotation
    assert updated["Rx"] != gates["Rx"] and updated["Sx"] == gates["Sx"]


def test_equal_definitions_and_gates_hash_equal():
    """Gate sets built apart hold equal definitions that hash equal, so
    primitive gates built from either compare and hash as one."""
    first, second = builtin_gateset(), builtin_gateset()
    assert first == second
    for name in first:
        assert first[name] is not second[name]
        assert hash(first[name]) == hash(second[name])
    a = PrimitiveGate(first["Rx"], (0,), (0.25,))
    b = PrimitiveGate(second["Rx"], (0,), (0.25,))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != PrimitiveGate(first["Rx"], (1,), (0.25,))
    assert a != PrimitiveGate(first["Ry"], (0,), (0.25,))


def test_empty_manifest_means_no_overrides(gates):
    assert load_duration_manifest("", gates) == {}


def test_manifest_comments_and_blank_lines(gates):
    text = "# slow machine\n\nSxx 25  # entangler\n"
    assert load_duration_manifest(text, gates) == {"Sxx": 25.0, "I_Sxx": 25.0}


@pytest.mark.parametrize("text", [
    "Rx -1",
    "Qz 5",
    "Rx",
    "Rx 1 2",
    "Rx fast",
    "Rx inf",
])
def test_manifest_rejects_bad_lines(gates, text):
    with pytest.raises(ManifestError):
        load_duration_manifest(text, gates)
