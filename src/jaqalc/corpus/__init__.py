"""Golden test corpus: small Jaqal programs with expected outcomes.

Each ``.jaqal`` source sits beside a ``.expect`` sidecar written in a tiny
keyword format, one directive per line ('#' comments allowed):

    ACCEPT              the program parses and analyzes with no errors
    REJECT <code>       the pipeline reports an error with this code
    GATES <n>           the expanded circuit holds exactly n primitives
    TOTAL <t>           total scheduled duration under default durations
    OUTPUT <file>       running with seed 0 produces exactly these bytes

The sidecars are data, not Python, so other tools can reuse the corpus.
"""

from __future__ import annotations

from pathlib import Path
from typing import Optional

CORPUS_DIR = Path(__file__).resolve().parent


class Expectation:
    __slots__ = ("accept", "reject_code", "gate_count", "total_duration",
                 "output_file")
    def __init__(self, accept: bool, reject_code: Optional[str] = None,
                 gate_count: Optional[int] = None,
                 total_duration: Optional[float] = None,
                 output_file: Optional[Path] = None):
        self.accept, self.reject_code = accept, reject_code
        self.gate_count, self.total_duration = gate_count, total_duration
        self.output_file = output_file


class CorpusCase:
    __slots__ = ("name", "source_file", "expectation")
    def __init__(self, name: str, source_file: Path, expectation: Expectation):
        self.name, self.source_file = name, source_file
        self.expectation = expectation

    @property
    def source(self) -> str:
        return self.source_file.read_text(encoding="utf-8")


def _parse_expect(path: Path) -> Expectation:
    accept = None
    fields: dict = {}
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        keyword, _, value = line.partition(" ")
        value = value.strip()
        if keyword == "ACCEPT":
            accept = True
        elif keyword == "REJECT":
            accept = False
            fields["reject_code"] = value
        elif keyword == "GATES":
            fields["gate_count"] = int(value)
        elif keyword == "TOTAL":
            fields["total_duration"] = float(value)
        elif keyword == "OUTPUT":
            fields["output_file"] = path.parent / value
        else:
            raise ValueError(f"{path.name}: unknown directive {keyword!r}")
    if accept is None:
        raise ValueError(f"{path.name}: missing ACCEPT or REJECT")
    return Expectation(accept=accept, **fields)


def corpus_manifest() -> list:
    """Enumerate all corpus cases as (source file, expectation) records."""
    cases = []
    for source in sorted(CORPUS_DIR.glob("*.jaqal")):
        expect = source.with_suffix(".expect")
        if not expect.exists():
            raise ValueError(f"{source.name} has no .expect sidecar")
        cases.append(CorpusCase(source.stem, source, _parse_expect(expect)))
    return cases
