"""Command-line front end.

The ``--gamma`` commands take the manifold from the input's surface: S3
with an equatorial sphere or an unknotted torus.  ``table`` writes CSV
(the default) or JSON lines.  Results go to stdout, diagnostics to
stderr; exit status 0 on success, 1 on a domain error (invalid or
inadmissible input, resource caps), 2 on usage or syntax errors, input
that is not UTF-8 included, and on I/O errors such as a missing file, a
closed stdin or stdout, or a reader that closes the pipe before the
output ends.  All machine-readable output is deterministic and
newline-terminated, and goes to stdout in whole chunks of at least 64
KiB, whether or not stdout is buffered.  The listings and the table
hand their lines to those chunks (``_Chunks``, the one buffer) a class
at a time, so no output is held whole.  Each of their commands is one
call with the request as read (``listings.write_tree_listing``,
``write_torus_listing``, ``classify.table_classes``), or with
``--count-only`` the listing's size from the enumerator (``tree_count``,
``torus_count``).  The callee sizes the request before any class is
listed, and a torus listing or a table past the row cap is refused by
``enumeration``, which states every range and cap the CLI enforces.

Each command imports the layers it calls when it runs, so a call loads
only those (README lists them): ``tight-count`` and ``cf`` load
``counting`` alone; the listings and the table, which read their classes
off the generator's rows, admissible by construction, load neither
``region_graph``, ``formats`` nor ``admissibility``, and the table is
made and written by ``classify``; only ``export-dot`` of the ``--gamma``
commands, and the listings but for ``--count-only``, load the writers
(``listings``).  ``json`` loads only for a one-object JSON answer
(``_dumps``) or for JSON input.  No listing builds a graph object.
``check`` reports both gates of ``admissibility``, ``is_admissible`` and
``is_tight_candidate``, the one rule of tight candidacy.

``_COMMANDS`` declares each command once: its help line, its handler and
its flags.  It is the only grammar: ``_read_args`` reads every call off
it (flags in any order, spelled out or cut to a unique prefix, a value
after ``=`` or as the next word, a negative number included, the last of
a repeated flag counting, ``--no-<flag>`` for a negatable one), and the
help (``-h``, ``--help``) and every usage error are written from it,
unwrapped, so they are the same bytes on any Python and at any terminal
width.  Help goes to stdout as any answer does; a usage error is a usage
line and an ``error:`` line on stderr, exit 2.  No parser library loads.

``main``, the entry of the ``bcontact`` script and of ``python -m
bcontact``, calls ``gc.freeze()`` once ``run_cli`` has returned and the
answer, any error line and the status are settled, so the shutdown
collections (8 ms of a fresh call's 10-13 ms shutdown on a 2-vCPU VM,
CPython 3.11) skip every object the call holds; no bcontact object needs
a cycle finalizer.  ``run_cli``, for library callers and the tests,
leaves the collector alone.
"""

from __future__ import annotations

import contextlib
import gc
import sys
from types import SimpleNamespace

_ABOUT = "Enumerate and classify dividing sets of b-contact structures on (S3, S2) and (S3, T2)."
# Each manifold's name on the command line, and its critical surface.
_MANIFOLDS = {"s3-s2": "sphere", "s3-t2": "torus"}


class _UsageError(Exception):
    """A call that the command table does not read, and why."""


def _word(token: str, spellings: dict) -> tuple | None:
    """None for a value, else the flag that ``token`` names (``token`` if
    none) and the value after its ``=``, or None."""
    if not token.startswith("-") or token == "-":
        return None
    name, equals, value = token.partition("=")
    value = value if equals else None
    if name in spellings:
        return name, value
    if len(name) > 2 and name.startswith("--"):
        matches = [spelling for spelling in spellings if spelling.startswith(name)]
        if len(matches) > 1:
            raise _UsageError(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], value
    import re

    return None if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token else (token, None)


def _read_args(argv: list[str]) -> SimpleNamespace:
    """The namespace of ``argv``, read off ``_COMMANDS`` as the module
    docstring tells, or for help ``help`` alone: the command, or None.
    A call that it does not read raises ``_UsageError``."""
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    arguments = _COMMANDS[command][2] if command else ()
    values, extras = {"command": command}, []
    # Each spelling: its dest, its options, and the value it stores, or
    # None for a flag that takes one.
    spellings = {"-h": ("help", {}, True), "--help": ("help", {}, True)}
    for flag, options in arguments:
        dest = flag[2:].replace("-", "_")
        action = options.get("action")
        spellings[flag] = dest, options, True if action else None
        if action == "negatable":
            spellings["--no-" + flag[2:]] = dest, options, False
        if not options.get("required"):
            values[dest] = options.get("default", False if action else None)
    tokens = iter(argv[1:] if command else argv)
    for token in tokens:
        word = _word(token, spellings)
        if word is None or word[0] not in spellings:
            extras.append(token)
            continue
        flag, value = word
        dest, options, stored = spellings[flag]
        if stored is not None:
            if value is not None:
                raise _UsageError(f"argument {flag}: ignored explicit argument {value!r}")
            if dest == "help":
                return SimpleNamespace(help=command)
            values[dest] = stored
            continue
        if value is None:
            value = next(tokens, None)
            if value is None or _word(value, spellings) is not None:
                raise _UsageError(f"argument {flag}: expected one argument")
        try:
            value = options.get("type", str)(value)
        except ValueError:
            kind = options["type"].__name__
            raise _UsageError(f"argument {flag}: invalid {kind} value: {value!r}") from None
        if value not in options.get("choices", (value,)):
            listed = ", ".join(map(repr, options["choices"]))
            raise _UsageError(f"argument {flag}: invalid choice: {value!r} (choose from {listed})")
        values[dest] = value
    if not argv:
        raise _UsageError("the following arguments are required: command")
    if command is None:
        listed = ", ".join(map(repr, _COMMANDS))
        raise _UsageError(f"argument command: invalid choice: {argv[0]!r} (choose from {listed})")
    missing = [flag for flag, _ in arguments if flag[2:].replace("-", "_") not in values]
    if missing:
        raise _UsageError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise _UsageError(f"unrecognized arguments: {' '.join(extras)}")
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


def _cmd_enum_trees(args, out) -> int:
    modulo_swap = not args.distinguish_signs
    if args.count_only:
        from .enumeration import tree_count

        out.write(f"{tree_count(args.n, modulo_swap)}\n")
        return 0
    from .listings import write_tree_listing

    write_tree_listing(out, args.n, modulo_swap, args.format)
    return 0


def _cmd_enum_torus(args, out) -> int:
    modulo_swap = not args.distinguish_signs
    if args.count_only:
        from .enumeration import torus_count

        out.write(f"{torus_count(args.max_curves, args.max_slope, modulo_swap)}\n")
        return 0
    from .listings import write_torus_listing

    write_torus_listing(out, args.max_curves, args.max_slope, modulo_swap, args.format)
    return 0


def _cmd_check(args, out) -> int:
    from .admissibility import is_admissible, is_tight_candidate
    from .region_graph import canonical_code

    d = _read_gamma(args.gamma)
    admissible = is_admissible(d.surface, d)
    tight = is_tight_candidate(d.surface, d)
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
        for name, regime in (("tight", record.tight), ("mixed", record.mixed),
                             ("fully-overtwisted", record.fully_overtwisted)):
            _emit(out, f"{name} {regime.finite_factor} {regime.free_rank}")
        if detail is not None:
            # Every field but the expansion, as name=value.
            fields = zip(detail._fields[:-1], detail)
            _emit(out, "tight-count-detail " + " ".join(f"{k}={v}" for k, v in fields))
    return 0


def _cmd_tight_count(args, out) -> int:
    from .counting import tight_count_solid_torus

    result = tight_count_solid_torus(args.n, args.p, args.q)
    with _whole_counts():
        _emit(out, _dumps(_count_dict(result)) if args.format == "json" else str(result.count))
    return 0


def _cmd_cf(args, out) -> int:
    from .counting import negative_continued_fraction

    cf = negative_continued_fraction(args.p, args.q)
    if args.format == "json":
        _emit(out, _dumps({"coefficients": list(cf.coefficients), "degenerate": cf.degenerate}))
    else:
        _emit(out, " ".join(map(str, cf.coefficients)))
    return 0


def _cmd_census(args, out) -> int:
    from .classify import leaf_census

    d = _read_gamma(args.gamma)
    census = leaf_census(d.surface, d)
    _emit(out, _dumps(census._asdict()) if args.format == "json" else " ".join(map(str, census)))
    return 0


def _cmd_table(args, out) -> int:
    from .classify import table_classes, write_table
    from .surfaces import Surface

    m, modulo_swap = Surface(_MANIFOLDS[args.manifold]), not args.distinguish_signs
    write_table(out, table_classes(m, args.max_curves, args.max_slope, modulo_swap), args.format)
    return 0


def _cmd_export_dot(args, out) -> int:
    from .listings import export_dot

    _emit(out, export_dot(_read_gamma(args.gamma)))
    return 0


_REQUIRED_INT = {"type": int, "required": True}
_GAMMA = ("--gamma", {"required": True})
_SIGN_MODE = ("--distinguish-signs", {
    "action": "negatable", "default": True,
    "help": "count the two global sign orientations separately (default) or as one",
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
        ("--max-curves", {"type": int, "default": 4}), ("--max-slope", {"type": int, "default": 3}),
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
        ("--max-curves", {"type": int, "default": 5}), ("--max-slope", {"type": int, "default": 3}),
        _SIGN_MODE, _format("csv", "json"),
    )),
    "export-dot": ("emit a Graphviz description of a dividing set", _cmd_export_dot, (_GAMMA,)),
}


def _spelled(flag: str, options: dict, sep: str) -> str:
    """A flag as usage lines (``sep`` " | ") and help lines (", ") write it:
    its ``--no-`` form too, or the name of the value it takes."""
    if "action" in options:
        return flag + (sep + "--no-" + flag[2:] if options["action"] == "negatable" else "")
    choices = options.get("choices")
    value = "{%s}" % ",".join(choices) if choices else flag[2:].replace("-", "_").upper()
    return f"{flag} {value}"


def _usage(command: str | None) -> str:
    """The usage line of ``command``, or of the program for None."""
    if command is None:
        return "usage: bcontact [-h] {%s} ..." % ",".join(_COMMANDS)
    parts = [("%s" if options.get("required") else "[%s]") % _spelled(flag, options, " | ")
             for flag, options in _COMMANDS[command][2]]
    return " ".join([f"usage: bcontact {command} [-h]", *parts])


def _write_help(args, out) -> int:
    """Write the help of ``args.help``, a command, or the program's for None:
    its usage line, what it does, and a line for each flag or command."""
    command = args.help
    if command is None:
        about, title = _ABOUT, "commands"
        rows = [(name, entry[0]) for name, entry in _COMMANDS.items()]
    else:
        (about, _, arguments), title = _COMMANDS[command], "options"
        rows = [(_spelled(flag, o, ", "), o.get("help", "")) for flag, o in arguments]
    # A name too long for the first column puts its line under it.
    lines = [f"  {name}\n{'':24}{line}" if len(name) > 20 and line else
             f"  {name:20}  {line}".rstrip() for name, line in rows]
    out.write(f"{_usage(command)}\n\n{about}\n\n{title}:\n" + "\n".join(lines) + "\n")
    return 0


def _report(message: str) -> None:
    """Write a diagnostic line to stderr, unless stderr is missing or closed."""
    with contextlib.suppress(OSError):
        if sys.stderr is not None:
            print(message, file=sys.stderr)


def run_cli(argv: list[str] | None = None, out=None) -> int:
    out = out if out is not None else sys.stdout
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _read_args(argv)
    except _UsageError as exc:
        command = argv[0] if argv and argv[0] in _COMMANDS else None
        prog = "bcontact" if command is None else f"bcontact {command}"
        _report(f"{_usage(command)}\n{prog}: error: {exc}")
        return 2
    try:
        if out is None:
            raise OSError("stdout is closed")
        chunks = _Chunks(out)
        handler = _write_help if "help" in vars(args) else _COMMANDS[args.command][1]
        status = handler(args, chunks)
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
