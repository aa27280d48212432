"""jaqalc: a toolchain for the Jaqal quantum assembly language.

Pipeline: ``parse`` source text, ``analyze`` against a gate set, ``expand``
to a flat circuit, ``schedule`` for timing, ``run`` (or ``probabilities``)
to simulate, and ``emit`` the measurement record in the on-disk output
format.

``_EXPORTS`` names every public name once, under the submodule that defines
it, and ``__all__`` is derived from it.  Importing the package loads no
submodule: a public name, or a submodule named as an attribute (such as
``jaqalc.expander``), loads its module on first use (PEP 562).  So a caller
pays only for the stages it uses, and only the simulator needs numpy.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "analyzer": ("FlatBlock", "FlatCircuit", "FlatLoop", "PrimitiveGate",
                 "SymbolTable", "analyze", "count_primitive_gates",
                 "resolve_qubit"),
    "ast": ("Program", "pretty_print"),
    "diagnostics": ("Diagnostic", "has_errors"),
    "emitter": ("emit", "parse_output"),
    "errors": ("JaqalError", "ManifestError", "OutputFormatError",
               "SimulationError"),
    "expander": ("expand",),
    "gateset": ("GateDefinition", "apply_durations", "builtin_gateset",
                "load_duration_manifest", "quantize_angle"),
    "parser": ("lex", "parse"),
    "scheduler": ("Timeline", "schedule", "total_duration"),
    "simulator": ("QuantumState", "apply_unitary", "probabilities", "run",
                  "unitary_of"),
}
_OWNER = {name: module for module, names in _EXPORTS.items()
          for name in names}
__all__ = sorted(_OWNER)


def __getattr__(name):
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value
