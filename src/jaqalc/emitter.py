"""Measurement-output file format: one little-endian bitstring per line.

The format is plain ASCII with LF line endings only and a trailing LF after
the final line; every line has the same length, the declared register size.
Writing is strict; reading tolerates exactly one deviation (a missing final
newline) with a warning.
"""

from __future__ import annotations

import warnings

from .errors import OutputFormatError

_BITS = frozenset("01")


def emit(record) -> bytes:
    """Serialize a measurement record to output-file bytes."""
    lines = record_chunks([(dict(enumerate(record)), range(len(record)))])
    return "".join(lines).encode("ascii")


def record_chunks(batches):
    """``emit``'s text in chunks, one per batch ``(names, codes)``: a line
    ``names[code]`` for each code, ``names`` a dict.  Each name is checked
    once, however many lines it is written on."""
    length = None
    for names, codes in batches:
        lines = {}
        for code, bits in names.items():
            length = len(bits) if length is None else length
            if len(bits) != length:
                raise OutputFormatError(
                    f"bitstring {bits!r} has length {len(bits)}, expected "
                    f"{length}")
            if not set(bits) <= _BITS:
                raise OutputFormatError(f"bitstring {bits!r} contains "
                                        "characters other than 0 and 1")
            lines[code] = bits + "\n"
        yield "".join(map(lines.__getitem__, codes))


def parse_output(data) -> list:
    """Parse output-file bytes back into a list of bitstrings.

    Inverse of ``emit``: rejects carriage returns (the format mandates LF
    endings), non-bit characters, and ragged line lengths.  A missing final
    newline is accepted with a warning.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("ascii")
        except UnicodeDecodeError as exc:
            raise OutputFormatError(f"output is not ASCII: {exc}") from None
    else:
        text = data
    if not text:
        return []
    if "\r" in text:
        raise OutputFormatError(
            "carriage return found; the output format uses LF line endings "
            "only")
    if text.endswith("\n"):
        text = text[:-1]
    else:
        warnings.warn("output file is missing its final newline",
                      stacklevel=2)
    record = text.split("\n")
    length = len(record[0])
    for lineno, bits in enumerate(record, start=1):
        if not set(bits) <= _BITS:
            raise OutputFormatError(
                f"line {lineno} contains characters other than 0 and 1")
        if len(bits) != length:
            raise OutputFormatError(
                f"line {lineno} has length {len(bits)}, expected {length}")
    return record
