"""Command-line front end: check, expand, schedule, and run subcommands.

Qubit exclusivity is decided once, by analysis, so ``check`` rejects every
program a later command would reject for it.  Analysis also builds the flat
circuit, which ``expand``, ``schedule`` and ``run`` take as it is.  Each
command imports only the stages it runs: ``check`` never loads the
expander, scheduler, emitter or simulator, and ``run`` neither the
expander nor the scheduler.

Exit codes are stable: 0 success, 1 for any language/semantic/runtime
problem in the program, 2 for environment problems (unreadable input,
unwritable output file or stdout).  Diagnostics go to standard error as
``file:line:col: code: message``, and an error a stage after analysis
raises as ``file: code: message``; data goes to files or standard output.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from pathlib import Path

from .analyzer import analyze
from .diagnostics import has_errors
from .errors import JaqalError, ManifestError
from .gateset import apply_durations, builtin_gateset, load_duration_manifest
from .parser import parse


class _Exit(Exception):
    def __init__(self, status: int):
        self.status = status


def _fail(status: int, message: str):
    print(message, file=sys.stderr)
    raise _Exit(status)


def _read_text(path: str, what: str = "source") -> str:
    try:
        # utf-8-sig tolerates a leading byte-order mark from Windows editors;
        # decoding the bytes ourselves keeps line endings as written, so the
        # lexer sees a stray carriage return
        return Path(path).read_bytes().decode("utf-8-sig")
    except OSError as exc:
        _fail(2, f"{path}: cannot read: {exc.strerror or exc}")
    except UnicodeDecodeError:
        _fail(1, f"{path}: {what} is not valid UTF-8 text")


def _write(path, chunks):  # text chunks, written as they come
    name = "<stdout>" if path is None else path
    chunks = iter(chunks)  # a run that fails before its first chunk
    chunks = itertools.chain([next(chunks, "")], chunks)  # opens no file
    try:
        if path is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()  # a full device fails here, not at exit
        else:
            with open(path, "w", encoding="ascii") as file:
                file.writelines(chunks)
    except OSError as exc:
        if path is None:  # drop the unwritten buffer, or exit flushes it again
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        _fail(2, f"{name}: cannot write: {exc.strerror or exc}")


def _print_diagnostics(path: str, diagnostics):
    for diagnostic in diagnostics:
        print(f"{path}:{diagnostic}", file=sys.stderr)


def _checked_program(path: str, gates: dict):
    """Parse and analyze, printing diagnostics; exits 1 on any error, else
    returns the program and its symbol table (``circuit`` built if read)."""
    source = _read_text(path)
    program, diags = parse(source)
    if has_errors(diags):
        _print_diagnostics(path, diags)
        raise _Exit(1)
    symbols, sem_diags = analyze(program, gates)
    _print_diagnostics(path, diags + sem_diags)
    if has_errors(sem_diags):
        raise _Exit(1)
    return program, symbols


def _gates_for(args) -> dict:
    gates = builtin_gateset()
    manifest = getattr(args, "durations", None)
    if manifest is None:
        return gates
    text = _read_text(manifest, "manifest")
    try:
        return apply_durations(gates, load_duration_manifest(text, gates))
    except ManifestError as exc:
        _fail(1, f"{manifest}: {exc.code}: {exc}")


def cmd_check(args) -> int:
    _checked_program(args.file, _gates_for(args))
    return 0


def cmd_expand(args) -> int:
    from .expander import flat_chunks

    out = _out_path(args)
    _, symbols = _checked_program(args.file, _gates_for(args))
    _write(out, flat_chunks(symbols.circuit))
    return 0


def cmd_schedule(args) -> int:
    from .scheduler import timeline_chunks

    out = _out_path(args)
    gates = _gates_for(args)
    _, symbols = _checked_program(args.file, gates)
    _write(out, timeline_chunks(symbols.circuit, gates))
    return 0


def cmd_run(args) -> int:
    from .emitter import record_chunks
    from .simulator import probability_chunks, samples

    out = _out_path(args)
    gates = _gates_for(args)
    program, symbols = _checked_program(args.file, gates)
    if not program.body:
        print(f"{args.file}: warning: the program has no body; the output "
              "will be empty", file=sys.stderr)
    if args.probabilities:
        _write(out, probability_chunks(symbols.circuit, gates,
                                       quantize=args.quantize))
    else:
        _write(out, record_chunks(samples(symbols.circuit, gates, args.seed,
                                          args.quantize)))
    return 0


def _seed(text: str) -> int:
    """An argparse type: SplitMix64 takes exactly the seeds 0 to 2**64-1."""
    try:
        seed = int(text)
    except ValueError:
        seed = None
    if seed is None or not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError(
            "must be an integer from 0 to 2**64-1")
    return seed


def _out_path(args):
    """The output file, None for standard output; never an input."""
    path, which = args.output, "output"
    if path is None and args.command == "run":
        source = Path(args.file)  # with_suffix raises on a nameless path: "/"
        path = str(source.parent / (source.stem + ".out"))
        which = "default output"
    for name, what in ((args.file, "source file"), (getattr(
            args, "durations", None), "duration manifest")):
        if path and name and os.path.realpath(path) == os.path.realpath(name):
            _fail(2, f"{path}: the {which} path is the {what}; "
                  "name another with -o")
    return path


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jaqalc",
        description="Check, expand, schedule, and simulate Jaqal programs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("file", help="Jaqal source file (.jaqal)")
        p.set_defaults(handler=handler)
        return p

    add("check", cmd_check,
        "parse and semantically validate a program")

    p = add("expand", cmd_expand,
            "print the program as flat primitive gates")
    p.add_argument("-o", "--output", help="write the dump here instead of "
                   "standard output")

    p = add("schedule", cmd_schedule,
            "print the gate timeline with inserted idles")
    p.add_argument("-o", "--output")
    p.add_argument("-d", "--durations", metavar="MANIFEST",
                   help="gate-duration manifest file")

    p = add("run", cmd_run, "simulate and write the measurement output file")
    p.add_argument("-o", "--output",
                   help="output path (default: source with .out extension)")
    p.add_argument("-s", "--seed", type=_seed, default=0,
                   help="measurement sampling seed, 0 to 2**64-1 "
                   "(default 0)")
    p.add_argument("-q", "--quantize", action="store_true",
                   help="snap angles to the 40-bit hardware grid")
    p.add_argument("-p", "--probabilities", action="store_true",
                   help="write exact outcome probabilities instead of "
                   "sampled bitstrings")
    p.add_argument("-d", "--durations", metavar="MANIFEST")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Exit as exc:
        return exc.status
    except JaqalError as exc:  # a stage after analysis rejected the program
        print(f"{args.file}: {exc.code}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
