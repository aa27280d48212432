"""Exception types raised by the later pipeline stages.

Parsing and semantic analysis report problems as diagnostic lists so that
many errors can be shown at once; the stages after analysis (expansion,
scheduling, simulation, output handling) operate on inputs that already
passed those checks, so they raise instead.  Every exception carries a
short stable ``code`` matching the diagnostic-code namespace.
"""


class JaqalError(Exception):
    """Base class for all toolchain errors."""

    code = "error"

    def __init__(self, message, *, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ConflictError(JaqalError):
    """A gate placement violates qubit-exclusivity rules.

    Raised by the post-expansion structural check (a macro substitution can
    create conflicts invisible in the unexpanded source), which is also the
    check for hand-built flat circuits.
    """

    code = "parallel-conflict"


class ManifestError(JaqalError):
    """A gate-duration manifest is malformed or names an unknown gate."""

    code = "bad-manifest"


class SimulationError(JaqalError):
    """A circuit cannot be simulated as written."""

    code = "simulation-error"


class OutputFormatError(JaqalError):
    """Measurement-output bytes do not follow the output file format."""

    code = "bad-output"
