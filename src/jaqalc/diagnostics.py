"""Diagnostic records produced by the parser and the semantic analyzer.

A diagnostic pinpoints a problem at a 1-based line/column position and
carries a short stable code (see the README for the full enumeration) so
tools and tests can match on the kind of problem without parsing the
human-readable message.
"""

from __future__ import annotations

from .record import Record

ERROR = "error"
WARNING = "warning"


class Diagnostic(Record):
    __slots__ = ("severity", "line", "column", "code", "message")
    def __init__(self, severity, line, column, code, message):
        # severity: ERROR or WARNING; line and column are 1-based
        self.severity, self.line, self.column = severity, line, column
        self.code, self.message = code, message

    def __str__(self):
        return f"{self.line}:{self.column}: {self.code}: {self.message}"


def error(line, column, code, message):
    return Diagnostic(ERROR, line, column, code, message)


def warning(line, column, code, message):
    return Diagnostic(WARNING, line, column, code, message)


def has_errors(diagnostics):
    """True if any diagnostic in the list is an error (warnings pass)."""
    return any(d.severity == ERROR for d in diagnostics)
