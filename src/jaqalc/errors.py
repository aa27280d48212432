"""Exception types raised by the later pipeline stages.

Parsing and semantic analysis report problems as diagnostic lists so that
many errors can be shown at once, and analysis decides every rule the
source fixes, qubit exclusivity included.  What only a later stage meets
(a duration manifest, a simulation, output bytes) raises instead, with a
short stable ``code`` matching the diagnostic-code namespace.
"""


class JaqalError(Exception):
    """Base class for all toolchain errors."""

    code = "error"

    def __init__(self, message, *, code=None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ManifestError(JaqalError):
    """A gate-duration manifest is malformed or names an unknown gate."""

    code = "bad-manifest"


class SimulationError(JaqalError):
    """A circuit cannot be simulated as written."""

    code = "simulation-error"


class OutputFormatError(JaqalError):
    """Measurement-output bytes do not follow the output file format."""

    code = "bad-output"
