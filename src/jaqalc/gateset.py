"""Native gate definitions for the QSCOUT 1.0 trapped-ion platform.

The built-in set provides all-qubit preparation and measurement, arbitrary
single-qubit rotations about the x, y, and z axes (plus fixed pi and pi/2
variants in both directions), the two-qubit Molmer-Sorensen entangling gate
and its XX-type instance, and one idle twin per single- and two-qubit gate
whose duration matches the gate it shadows.

A definition holds what checking, expanding and scheduling need: the gate's
name, argument kinds, duration and kind.  A rotation also names its axis
and fixed angles in a ``RotationSpec``; ``simulator.unitary_of`` builds the
matrix from it.  Durations are placeholders in arbitrary time units
(single-qubit gates 1, two-qubit gates 10, prepare/measure 20) and can be
overridden through a duration manifest file.  This module also snaps angles
to the hardware grid.  It uses only the standard library, so commands that
do not simulate start without the simulator's array library.
"""

from __future__ import annotations

import math
import re

from .errors import ManifestError
from .record import Record

QUBIT = "qubit"
FLOAT = "float"

PREPARATION = "preparation"
MEASUREMENT = "measurement"
ROTATION = "rotation"
IDLE = "idle"

IDLE_PREFIX = "I_"


class RotationSpec(Record):
    """Which rotation a gate performs (``simulator.unitary_of`` builds its
    unitary).

    family 'axis' is a single-qubit rotation about ``axis``; family 'ms' is
    the two-qubit Molmer-Sorensen gate.  A None angle means the value comes
    from the gate's float arguments, in declaration order.
    """

    __slots__ = ("family", "axis", "phi", "theta")
    def __init__(self, family, axis=None, phi=None, theta=None):
        self.family, self.axis = family, axis  # family 'axis' or 'ms'
        self.phi, self.theta = phi, theta


class GateDefinition(Record):
    __slots__ = ("name", "param_kinds", "duration", "kind", "rotation")
    def __init__(self, name, param_kinds, duration, kind, rotation=None):
        # param_kinds: each QUBIT or FLOAT, in argument order; kind:
        # PREPARATION, MEASUREMENT, ROTATION, or IDLE
        self.name, self.param_kinds = name, param_kinds
        self.duration, self.kind, self.rotation = duration, kind, rotation

    @property
    def qubit_arity(self) -> int:
        return self.param_kinds.count(QUBIT)

    @property
    def float_arity(self) -> int:
        return self.param_kinds.count(FLOAT)


def _axis_gate(name, axis, theta, duration=1.0):
    if theta is None:
        kinds = (QUBIT, FLOAT)
    else:
        kinds = (QUBIT,)
    return GateDefinition(name, kinds, duration, ROTATION,
                          RotationSpec("axis", axis=axis, theta=theta))


def builtin_gateset() -> dict:
    """The built-in gate definitions, keyed by gate name."""
    gates = [
        GateDefinition("prepare_all", (), 20.0, PREPARATION),
        GateDefinition("measure_all", (), 20.0, MEASUREMENT),
        GateDefinition("MS", (QUBIT, QUBIT, FLOAT, FLOAT), 10.0, ROTATION,
                       RotationSpec("ms")),
        GateDefinition("Sxx", (QUBIT, QUBIT), 10.0, ROTATION,
                       RotationSpec("ms", phi=0.0, theta=math.pi / 2)),
    ]
    for axis in "xyz":
        up = axis.upper()
        gates.append(_axis_gate(f"R{axis}", axis, None))
        gates.append(_axis_gate(f"P{axis}", axis, math.pi))
        gates.append(_axis_gate(f"S{axis}", axis, math.pi / 2))
        # the d suffix marks the clockwise (dagger) quarter turn
        gates.append(_axis_gate(f"S{axis}d", axis, -math.pi / 2))
    table = {g.name: g for g in gates}
    # one idle twin per single- and two-qubit gate, same duration
    for g in gates:
        if g.qubit_arity in (1, 2):
            twin = GateDefinition(IDLE_PREFIX + g.name,
                                  (QUBIT,) * g.qubit_arity,
                                  g.duration, IDLE)
            table[twin.name] = twin
    return table


# ---------------------------------------------------------------------------
# Hardware angle quantization
# ---------------------------------------------------------------------------

TWO_PI = 2.0 * math.pi
# Angles are wrapped into [-2pi, 2pi] (both endpoints representable) and
# snapped to a uniform grid of 2**40 steps across that interval.
ANGLE_STEP = 4.0 * math.pi / 2 ** 40


def wrap_angle(theta: float) -> float:
    """Reduce an angle modulo 4*pi into [-2pi, 2pi], preserving its action
    (half-angle rotations have period 4*pi)."""
    if not math.isfinite(theta):
        raise ValueError("angle must be finite")
    r = math.fmod(theta, 4.0 * math.pi)
    if r > TWO_PI:
        r -= 4.0 * math.pi
    elif r < -TWO_PI:
        r += 4.0 * math.pi
    return r


def quantize_angle(theta: float) -> float:
    """Round an angle the way the hardware converts it: wrap into
    [-2pi, 2pi], then snap to the nearest point of the 2**40-step grid.

    The result is within ANGLE_STEP/2 of the wrapped angle, and the
    function is idempotent.
    """
    wrapped = wrap_angle(theta)
    # -2pi and 2pi are exactly the grid points -2**39 and 2**39
    return round(wrapped / ANGLE_STEP) * ANGLE_STEP


# ---------------------------------------------------------------------------
# Duration manifests
# ---------------------------------------------------------------------------


# an ASCII decimal literal: sign, digits with an optional point, exponent
_DECIMAL = re.compile(r"[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?")


def load_duration_manifest(text: str, gates: dict) -> dict:
    """Parse a duration manifest into a name -> duration mapping.

    One ``<gate-name> <non-negative-number>`` per line, each name a gate
    of ``gates``; '#' starts a line comment and blank lines are ignored.
    Overriding a gate also overrides its idle twin; naming an ``I_`` twin
    directly overrides just the twin, with later lines winning.
    """
    overrides: dict = {}
    # only LF ends a line (strip() drops the CR of a CRLF): str.splitlines
    # would also break at a vertical tab, form feed or U+2028
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ManifestError(
                f"manifest line {lineno}: expected '<gate> <duration>', "
                f"got {raw.strip()!r}")
        name, value = parts
        if name not in gates:
            raise ManifestError(f"manifest line {lineno}: unknown gate {name!r}")
        if not _DECIMAL.fullmatch(value):  # float() takes 1_0, inf and ١
            raise ManifestError(
                f"manifest line {lineno}: bad duration {value!r}")
        duration = float(value) + 0.0  # adding +0.0 reads -0 as 0
        if duration < 0:
            raise ManifestError(
                f"manifest line {lineno}: duration must be a non-negative "
                f"number, got {value}")
        if not math.isfinite(duration):  # a decimal like 1e999 overflows
            raise ManifestError(
                f"manifest line {lineno}: duration {value} is too large for "
                "a finite number")
        overrides[name] = duration
        twin = IDLE_PREFIX + name
        if twin in gates:
            overrides[twin] = duration
    return overrides


def apply_durations(gates: dict, durations: dict) -> dict:
    """Return a copy of a gate mapping with the given durations applied."""
    out = dict(gates)
    for name, duration in durations.items():
        if name not in out:
            raise ManifestError(f"unknown gate {name!r}")
        old = out[name]
        out[name] = GateDefinition(old.name, old.param_kinds, float(duration),
                                   old.kind, old.rotation)
    return out
