"""Command-line front end.

Subcommands: enum-trees, enum-torus, check, classify, tight-count, cf,
census, table, export-dot.  The ``--gamma`` commands take the manifold from
the input's surface: S3 with an equatorial sphere or an unknotted torus.
``table`` writes CSV (the default) or JSON lines.  Results go to stdout,
diagnostics to stderr; exit status 0 on success, 1 on a domain error
(invalid or inadmissible input, resource caps), 2 on usage or syntax
errors, input that is not UTF-8 included, and on I/O errors such as a
missing file, a closed stdin or stdout, or a reader that closes the pipe
before the output ends.  All machine-readable output is deterministic
and newline-terminated, and goes to stdout in whole chunks of at least
64 KiB, whether or not stdout is buffered.

Each command imports the layers it calls when it runs, so a call loads
only those: ``tight-count`` and ``cf`` load ``counting`` alone, in
either format; the ``--gamma`` commands the reader (``formats`` and its
``parsing``), the region graph it builds and their own layers, and only
``export-dot`` the writers (``listings``); the listings the generator
and the writers; and ``table`` the generator, ``classify`` and the
table's renderer in ``formats``.  The listings and the table read their
classes off the generator's rows, which are admissible by construction,
so they load neither ``region_graph``, ``parsing`` nor
``admissibility``, and the listings not ``formats`` either.  A one-object JSON answer is ``json.dumps`` of a plain dict
(``_dumps``), and ``json`` loads only for such an answer or for JSON
input, so listings, tables and text answers skip its import.

``enum-trees`` and ``enum-torus`` write their listings straight from the
generator's rows (``enumeration.Row``), one class's lines at a time
(``listings.write_listing``), and ``--count-only`` counts the rows:
neither builds a graph object.  Graphs are built for library callers
only.

Each command is declared once, in ``_COMMANDS``: its help line, its
handler and its arguments.  A call reads its command line off that table
(``_read_args``): the command, then each of its flags at most once and
spelled out, a value flag followed by its value.  That gives the
namespace argparse would make, without loading ``argparse`` or the
``gettext`` and ``locale`` modules it imports.  Anything else (help, an
abbreviation, ``--flag=value``, a repeated or unknown flag, a missing or
rejected value) goes to the parser that ``build_parser`` makes of the
same table, which reads it or writes the help text, or the usage line
and error, and the exit status.

``main``, the entry of the ``bcontact`` script and of ``python -m
bcontact``, calls ``gc.freeze()`` once ``run_cli`` has returned, so the
interpreter's shutdown collections skip every object the call holds,
the loaded modules included.  Those collections took about 8 ms of a
fresh call's 10-13 ms shutdown on a 2-vCPU VM (CPython 3.11; a
``tight-count`` call takes about 70 ms in all), whatever the command.
By then the answer, any error line and the status are settled, and no
bcontact object needs a cycle finalizer; exit handlers, the flush of
the standard streams and reference-count teardown still run.
``run_cli``, the entry for library callers and the tests, leaves the
collector alone.
"""

from __future__ import annotations

import contextlib
import gc
import sys
from types import SimpleNamespace

# Each manifold's name on the command line, and its critical surface.
_MANIFOLDS = {"s3-s2": "sphere", "s3-t2": "torus"}


def build_parser():
    """The ``argparse`` parser of ``_COMMANDS``, every command's arguments
    added: it reads what ``_read_args`` declines, and writes every help
    text, usage line and usage error."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            self.register("action", "negatable", argparse.BooleanOptionalAction)

        def error(self, message):  # argparse's prints the usage on stdout if stderr is closed
            _report(f"{self.format_usage()}{self.prog}: error: {message}")
            self.exit(2)

    parser = _Parser(
        prog="bcontact",
        description="Enumerate and classify dividing sets of b-contact "
        "structures on (S3, S2) and (S3, T2).",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, _, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help)
        for flag, options in arguments:
            command_parser.add_argument(flag, **options)
    return parser


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """The namespace that ``build_parser`` makes of a well-formed
    ``argv``, read straight from ``_COMMANDS``, or None.

    ``argv`` is a command, then each of its flags at most once, spelled
    out, a value flag followed by its value: a token that does not start
    with ``-``, or ``-`` itself (stdin).  A value goes through its
    ``type`` and must be one of its ``choices``; every required flag must
    be there, and every other one gets its default.  Anything else (help,
    an abbreviation, ``--flag=value``, a repeated or unknown flag, a
    missing or rejected value) is None, for argparse to read or report.
    """
    if not argv or argv[0] not in _COMMANDS:
        return None
    values = {"command": argv[0]}
    # Each spelling: its dest, its options, and the value it stores, or
    # None for a flag that takes the next token.
    spellings = {}
    required = set()
    for flag, options in _COMMANDS[argv[0]][2]:
        dest = flag[2:].replace("-", "_")
        action = options.get("action")
        spellings[flag] = dest, options, True if action else None
        if action == "negatable":
            spellings["--no-" + flag[2:]] = dest, options, False
        if options.get("required"):
            required.add(dest)
        else:
            values[dest] = options.get("default", False if action else None)
    seen = set()
    tokens = iter(argv[1:])
    for token in tokens:
        if token not in spellings:
            return None
        dest, options, value = spellings[token]
        if dest in seen:
            return None
        seen.add(dest)
        if value is None:
            value = next(tokens, None)
            if value is None or value.startswith("-") and value != "-":
                return None
            if "type" in options:
                try:
                    value = options["type"](value)
                except ValueError:
                    return None
            if "choices" in options and value not in options["choices"]:
                return None
        values[dest] = value
    if not required <= seen:
        return None
    return SimpleNamespace(**values)


def _read_gamma(path: str) -> DividingSetClass:
    from .formats import ParseError, parse_dividing_set

    try:
        if path == "-":
            if sys.stdin is None:
                raise OSError("stdin is closed")
            # The bytes, not sys.stdin's text: its decoder follows the locale
            # and may let undecodable bytes through as surrogates.
            text = sys.stdin.buffer.read().decode("utf-8")
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"not valid UTF-8 ({exc.reason})") from None
    return parse_dividing_set(text)


class _Chunks:
    """Collects output and writes it in whole chunks of at least ``SIZE``
    characters, then the rest on ``flush``.

    A stream with a binary file below its text layer, as ``sys.stdout``
    has, gets each chunk encoded on the raw file at the bottom, written
    until every byte is out, whether or not the stream is buffered.
    Under ``PYTHONUNBUFFERED`` a listing line would otherwise be one
    system call, and the text layer ignores what a short write leaves
    over, so a reader that closed the pipe in the middle of a line would
    lose the rest with no error.  A buffered file would keep what it
    could not write and fail again at exit.  Here a closed pipe raises,
    once.  Any other stream, such as a ``StringIO``, gets each chunk as
    text.
    """

    SIZE = 1 << 16

    def __init__(self, stream) -> None:
        self.stream = stream
        self.binary = getattr(stream, "buffer", None)
        if self.binary is not None:
            stream.flush()
            self.binary = getattr(self.binary, "raw", self.binary)
        self.parts: list[str] = []
        self.size = 0

    def write(self, text: str) -> None:
        self.parts.append(text)
        self.size += len(text)
        if self.size >= self.SIZE:
            self._write_parts()

    def flush(self) -> None:
        self._write_parts()
        if self.binary is None:
            self.stream.flush()

    def _write_parts(self) -> None:
        text = "".join(self.parts)
        self.parts.clear()
        self.size = 0
        if self.binary is None:
            self.stream.write(text)
            return
        data = memoryview(text.encode(self.stream.encoding, self.stream.errors))
        while data:
            data = data[self.binary.write(data) or 0:]


def _dumps(obj) -> str:
    """``json.dumps``, with json imported by the answers that need it."""
    import json

    return json.dumps(obj)


def _emit(out, text: str) -> None:
    out.write(text if text.endswith("\n") else text + "\n")


def _write_rows(out, args, rows, surface=None, slopes=None) -> int:
    """Write a listing of enumerated rows in ``args.format``, or with
    ``--count-only`` its length."""
    if args.count_only:
        _emit(out, str(len(rows) if slopes is None else sum(map(len, slopes))))
        return 0
    from .listings import write_listing

    write_listing(out, rows, args.format, surface, slopes, not args.distinguish_signs)
    return 0


def _cmd_enum_trees(args, out) -> int:
    from .enumeration import enum_tree_rows

    return _write_rows(out, args, enum_tree_rows(args.n, not args.distinguish_signs))


def _cmd_enum_torus(args, out) -> int:
    from .enumeration import check_torus_request, enum_torus_rows, row_slopes
    from .surfaces import Surface

    check_torus_request(args.max_curves, args.max_slope)
    rows = enum_torus_rows(args.max_curves, not args.distinguish_signs)
    slopes = [row_slopes(row, args.max_slope) for row in rows]
    return _write_rows(out, args, rows, Surface.TORUS, slopes)


def _cmd_check(args, out) -> int:
    from .admissibility import is_admissible, tight_shape
    from .region_graph import canonical_code

    d = _read_gamma(args.gamma)
    admissible = is_admissible(d.surface, d)
    # is_tight_candidate's verdict, with admissibility checked once.
    tight = tight_shape(d) if admissible else admissible
    code = canonical_code(d.graph)
    if args.format == "json":
        _emit(out, _dumps({
            "canonical_code": code,
            "admissible": admissible.ok,
            "admissible_reason": admissible.reason,
            "tight_candidate": tight.ok,
            "tight_candidate_reason": tight.reason,
        }))
    else:
        _emit(out, f"canonical-code {code}")
        _emit(out, f"admissible {'yes' if admissible else 'no'} ({admissible.reason})")
        _emit(out, f"tight-candidate {'yes' if tight else 'no'} ({tight.reason})")
    if not admissible:
        _report(f"inadmissible: {admissible.reason}")
        return 1
    return 0


@contextlib.contextmanager
def _whole_counts():
    """CPython's int-to-str digit limit lifted, so that a tight count
    prints whole.  A count under ``TIGHT_N_CAP`` has at most about 60,000
    digits, which ``str`` writes in well under a second; integers read
    from input keep the limit."""
    if not hasattr(sys, "get_int_max_str_digits"):  # CPython before 3.10.7
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _count_dict(result) -> dict:
    """A ``TightCountResult`` as a JSON object, its expansion a list."""
    return {**result._asdict(), "expansion": list(result.expansion.coefficients)}


def _cmd_classify(args, out) -> int:
    from .classify import classify

    d = _read_gamma(args.gamma)
    record = classify(d.surface, d)
    detail = record.tight_count_detail
    with _whole_counts():
        if args.format == "json":
            from .formats import class_dict

            _emit(out, _dumps({
                "manifold": next(k for k, v in _MANIFOLDS.items() if v == d.surface.value),
                "dividing_set": class_dict(d),
                "tight": record.tight,
                "mixed": record.mixed,
                "fully_overtwisted": record.fully_overtwisted,
                "tight_count_detail": None if detail is None else _count_dict(detail),
            }))
            return 0
        _emit(out, f"tight {record.tight.finite_factor} {record.tight.free_rank}")
        _emit(out, f"mixed {record.mixed.finite_factor} {record.mixed.free_rank}")
        _emit(
            out,
            f"fully-overtwisted {record.fully_overtwisted.finite_factor} "
            f"{record.fully_overtwisted.free_rank}",
        )
        if detail is not None:
            _emit(
                out,
                f"tight-count-detail n={detail.n} p={detail.p} q={detail.q} "
                f"r={detail.r} s={detail.s} count={detail.count}",
            )
    return 0


def _cmd_tight_count(args, out) -> int:
    from .counting import tight_count_solid_torus

    result = tight_count_solid_torus(args.n, args.p, args.q)
    with _whole_counts():
        if args.format == "json":
            _emit(out, _dumps(_count_dict(result)))
        else:
            _emit(out, str(result.count))
    return 0


def _cmd_cf(args, out) -> int:
    from .counting import negative_continued_fraction

    cf = negative_continued_fraction(args.p, args.q)
    if args.format == "json":
        _emit(out, _dumps({
            "coefficients": list(cf.coefficients),
            "degenerate": cf.degenerate,
        }))
    else:
        _emit(out, " ".join(str(a) for a in cf.coefficients))
    return 0


def _cmd_census(args, out) -> int:
    from .classify import leaf_census

    d = _read_gamma(args.gamma)
    census = leaf_census(d.surface, d)
    if args.format == "json":
        _emit(out, _dumps({
            "leaves_dim3": census.leaves_dim3,
            "leaves_dim2": census.leaves_dim2,
            "leaves_dim1": census.leaves_dim1,
        }))
    else:
        _emit(out, f"{census.leaves_dim3} {census.leaves_dim2} {census.leaves_dim1}")
    return 0


def _cmd_table(args, out) -> int:
    from .classify import table_classes
    from .enumeration import TABLE_ROW_CAP, ResourceLimitError
    from .formats import render_table_csv, render_table_jsonl
    from .surfaces import Surface

    manifold = Surface(_MANIFOLDS[args.manifold])
    classes = table_classes(manifold, args.max_curves, args.max_slope, not args.distinguish_signs)
    # The table is rendered as one string: its size is checked first.
    rows = sum(len(run[0]) for c in classes for run in c.runs)
    if rows > TABLE_ROW_CAP:
        raise ResourceLimitError(f"table capped at {TABLE_ROW_CAP} rows, got {rows}")
    # Every rendered line ends in a newline, and the CSV has its header, so
    # an empty JSON table writes nothing.
    out.write((render_table_jsonl if args.format == "json" else render_table_csv)(classes))
    return 0


def _cmd_export_dot(args, out) -> int:
    from .listings import export_dot

    _emit(out, export_dot(_read_gamma(args.gamma)))
    return 0


_REQUIRED_INT = {"type": int, "required": True}
_GAMMA = ("--gamma", {"required": True})
_SIGN_MODE = ("--distinguish-signs", {
    "action": "negatable",
    "default": True,
    "help": "count the two global sign orientations separately (default); "
    "--no-distinguish-signs identifies them",
})


def _format(*choices: str) -> tuple:
    return "--format", {"choices": list(choices), "default": choices[0]}


_LISTING = (("--count-only", {"action": "store_true"}), _SIGN_MODE, _format("text", "json", "csv"))
_ANSWER = _format("text", "json")

# Each command: its help line, its handler, and its arguments in the order
# that its usage lists them, as (flag, add_argument options) pairs.
_COMMANDS = {
    "enum-trees": ("enumerate equicolored trees (sphere classes)", _cmd_enum_trees, (
        ("--n", {**_REQUIRED_INT, "help": "half the number of regions"}), *_LISTING,
    )),
    "enum-torus": ("enumerate admissible torus classes", _cmd_enum_torus, (
        ("--max-curves", {"type": int, "default": 4}),
        ("--max-slope", {"type": int, "default": 3}),
        *_LISTING,
    )),
    "check": ("validate a dividing set and report admissibility", _cmd_check, (
        ("--gamma", {"required": True, "help": "input file, or - for stdin"}), _ANSWER,
    )),
    "classify": ("classification record for a dividing set", _cmd_classify, (_GAMMA, _ANSWER)),
    "tight-count": ("tight count N(n, -p, q) on the solid torus", _cmd_tight_count, (
        ("--n", _REQUIRED_INT), ("--p", _REQUIRED_INT), ("--q", _REQUIRED_INT), _ANSWER,
    )),
    "cf": ("negative continued fraction of -p/q", _cmd_cf, (
        ("--p", _REQUIRED_INT), ("--q", _REQUIRED_INT), _ANSWER,
    )),
    "census": ("leaf census of the singular foliation", _cmd_census, (_GAMMA, _ANSWER)),
    "table": ("classification table over all enumerated classes", _cmd_table, (
        ("--manifold", {"choices": tuple(_MANIFOLDS), "required": True}),
        ("--max-curves", {"type": int, "default": 5}),
        ("--max-slope", {"type": int, "default": 3}),
        _SIGN_MODE,
        _format("csv", "json"),
    )),
    "export-dot": ("emit a Graphviz description of a dividing set", _cmd_export_dot, (_GAMMA,)),
}


def _report(message: str) -> None:
    """Write a diagnostic line to stderr, unless stderr is missing or closed."""
    try:
        if sys.stderr is not None:
            print(message, file=sys.stderr)
    except OSError:
        pass


def run_cli(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    args = _read_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return int(exc.code or 0)
    try:
        if out is None:
            raise OSError("stdout is closed")
        chunks = _Chunks(out)
        status = _COMMANDS[args.command][1](args, chunks)
        chunks.flush()
        return status
    except (ValueError, OSError) as exc:
        _report(f"error: {exc}")
        # A ParseError comes only from a loaded formats module.
        formats = sys.modules.get(f"{__package__}.formats")
        syntax = formats is not None and isinstance(exc, formats.ParseError)
        return 2 if syntax or isinstance(exc, OSError) else 1


def main() -> None:
    status = run_cli()
    # The answer is written: the shutdown collections need not visit what
    # the call made.
    gc.freeze()
    sys.exit(status)
