"""jaqalc: a toolchain for the Jaqal quantum assembly language.

Pipeline: ``parse`` source text, ``analyze`` against a gate set, ``expand``
to a flat circuit, ``schedule`` for timing, ``run`` (or ``probabilities``)
to simulate, and ``emit`` the measurement record in the on-disk output
format.
"""

from .analyzer import SymbolTable, analyze, resolve_qubit
from .ast import Program, pretty_print
from .diagnostics import Diagnostic, has_errors
from .emitter import emit, parse_output
from .errors import (
    ConflictError,
    JaqalError,
    ManifestError,
    OutputFormatError,
    SimulationError,
)
from .expander import (
    FlatBlock,
    FlatCircuit,
    FlatLoop,
    PrimitiveGate,
    count_primitive_gates,
    expand,
)
from .gateset import (
    GateDefinition,
    apply_durations,
    builtin_gateset,
    load_duration_manifest,
    quantize_angle,
)
from .parser import lex, parse
from .scheduler import Timeline, schedule, total_duration

__version__ = "0.1.0"

__all__ = [
    "Diagnostic",
    "ConflictError",
    "FlatBlock",
    "FlatCircuit",
    "FlatLoop",
    "GateDefinition",
    "JaqalError",
    "ManifestError",
    "OutputFormatError",
    "PrimitiveGate",
    "Program",
    "QuantumState",
    "SimulationError",
    "SymbolTable",
    "Timeline",
    "analyze",
    "apply_durations",
    "apply_unitary",
    "builtin_gateset",
    "count_primitive_gates",
    "emit",
    "expand",
    "has_errors",
    "lex",
    "load_duration_manifest",
    "parse",
    "parse_output",
    "pretty_print",
    "probabilities",
    "quantize_angle",
    "resolve_qubit",
    "run",
    "schedule",
    "total_duration",
    "unitary_of",
]

# The simulator's names resolve on first use (PEP 562): only it needs the
# array library, whose import would dominate check, expand and schedule.
_SIMULATOR_NAMES = frozenset(
    {"QuantumState", "apply_unitary", "probabilities", "run", "unitary_of"})


def __getattr__(name):
    if name in _SIMULATOR_NAMES:
        from . import simulator

        return getattr(simulator, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
