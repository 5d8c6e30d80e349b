"""The input formats of a dividing-set class, and the classification table.

The line format is one item per line with ``#`` comments:

    surface sphere|torus
    v <id> <+|-> <genus>
    e <id1> <id2>
    slope <p> <q>

The JSON form mirrors it: ``{"surface": ..., "vertices": [{"id", "sign",
"genus"}, ...], "edges": [[i, j], ...], "slope": [p, q] | null}``; any
other key, at the top or in a vertex, is a syntax error, as an unknown
directive is in the text form.  So is a second ``surface`` or ``slope``
line, or a key that an object repeats: input that says a thing twice is
not read as its last word.  An error line echoes at most ``_ECHO``
characters of a token or value, and then ``...``.
A one-class answer is ``json.dumps`` of ``class_dict``; the writers of a
class's text, its DOT export and the enumerated listings are in
``listings``.

The classification table is written from its one form, a list of graph
classes (``classify.table_classes``), each its code, surface, region and
curve counts and its slopes in runs sharing regimes, read off the
generator's rows with no graph built; the writer (``write_table``)
checks nothing and reads no graph, and hands its stream one graph
class's lines at a time, so the table is never held whole.  A row, in
CSV or as a JSON line, is the head (code, surface, V, E) and tail
(census) strings of its graph class, each made once per class, the
regime string of its run, made once per run, and its slope's text, made
once per distinct run of slopes; the CSV form leaves an absent slope
empty and the JSON form writes ``null``.  Every value is an ``int`` or
an ASCII string of ``T C ( ) + -`` and digits, ``sphere`` or ``torus``,
so nothing needs quoting or escaping: the lines are byte-equal to
``csv.writer``'s and to ``json.dumps`` of the row dict.

A parsed class is a ``DividingSetClass`` of a ``RegionGraph``, each
checked where it is made (graph invariants, then embeddability), so it
is always usable downstream; a syntax error is raised before the graph
is made.  ``parse_dividing_set`` is the reading side's entry, and the
parsers behind it are in ``parsing``, which it imports on its first
call, as the parsers import ``region_graph`` to build the graph: the
table, which parses nothing and builds no graph, compiles neither.
"""

from __future__ import annotations

import io

# DividingSetClass (surfaces) and TableClass (classify) name types in
# annotations only, which are never evaluated.

# The most characters of a token or value that an error line echoes.
_ECHO = 40


class ParseError(ValueError):
    """Syntax error with the line and token that caused it."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        location = f"line {line}" if line is not None else "input"
        if token is None:
            suffix = ""
        elif len(token) <= _ECHO:
            suffix = f" (token {token!r})"
        else:
            suffix = f" (token {token[:_ECHO]!r}...)"
        super().__init__(f"{location}: {message}{suffix}")
        self.line = line
        self.token = token


def class_dict(d: DividingSetClass) -> dict:
    """A class as the JSON object the module docstring gives, for
    ``json.dumps``, which writes its tuples as arrays."""
    vertices = [v._asdict() for v in d.graph.vertices]
    return {"surface": d.surface.value, "vertices": vertices, "edges": d.graph.edges,
            "slope": d.slope}


def parse_dividing_set(text: str) -> DividingSetClass:
    """Parse a dividing-set class from text or JSON input.

    Raises ``ParseError`` for syntax problems (with line and token) and
    ``InvalidRegionGraphError`` naming the violated invariant otherwise.
    """
    from .parsing import _parse_json, _parse_text

    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


TABLE_COLUMNS = [
    "canonical_code",
    "surface",
    "V",
    "E",
    "slope_p",
    "slope_q",
    "tight_count",
    "mixed_finite",
    "mixed_rank",
    "ot_finite",
    "ot_rank",
    "leaves_3",
    "leaves_2",
    "leaves_1",
]


def write_table(out, classes: list[TableClass], form: str) -> None:
    """Write the classification table of ``classes`` (``table_classes``)
    to ``out`` as CSV, header first, or as JSON lines (``form`` "json"),
    one line per (graph class, slope) in ``TABLE_COLUMNS`` order, and
    each graph class's lines in one write.

    The code, shape and census columns depend on the graph class alone,
    so they are written once per class, as a head and a tail string, and
    the regime columns once per run of slopes sharing them.  The slope
    columns are formatted once per distinct run of slopes, and a run's
    rows are its slope texts joined between the head and the regime
    string.  Every class came from the generator, which makes only
    admissible ones, so nothing is checked here.
    """
    if form == "json":
        sep = [f', "{column}": ' for column in TABLE_COLUMNS]
        sep[0], quote, null, end = '{"canonical_code": ', '"', "null", "}\n"
    else:
        sep = [","] * len(TABLE_COLUMNS)
        sep[0], quote, null, end = "", "", "", "\n"
        out.write(",".join(TABLE_COLUMNS) + "\n")
    q_sep = sep[5]
    # The slope columns of each run of slopes, formatted once and keyed on
    # the run's identity, which ``classes`` keeps alive: the classes of one
    # table share their run objects, and a tuple does not keep its hash, so
    # keying on its value would hash the run of all slopes again for every
    # ring class.
    slope_texts: dict[int, list[str]] = {}
    for c in classes:
        census = c.census
        head = (
            f"{sep[0]}{quote}{c.code}{quote}"
            f"{sep[1]}{quote}{c.surface.value}{quote}"
            f"{sep[2]}{c.vertex_count}{sep[3]}{c.edge_count}{sep[4]}"
        )
        tail = (
            f"{sep[11]}{census.leaves_dim3}{sep[12]}{census.leaves_dim2}"
            f"{sep[13]}{census.leaves_dim1}{end}"
        )
        block = []
        for slopes, t, m, o in c.runs:
            rest = (
                f"{sep[6]}{t.finite_factor}{sep[7]}{m.finite_factor}{sep[8]}{m.free_rank}"
                f"{sep[9]}{o.finite_factor}{sep[10]}{o.free_rank}{tail}"
            )
            texts = slope_texts.get(id(slopes))
            if texts is None:
                pairs = ((null, null),) if slopes == (None,) else slopes
                texts = slope_texts[id(slopes)] = [f"{p}{q_sep}{q}" for p, q in pairs]
            block += (head, (rest + head).join(texts), rest)
        out.write("".join(block))


def render_table_csv(classes: list[TableClass]) -> str:
    """The classification table as CSV, header first, from ``table_classes``,
    as one string."""
    out = io.StringIO()
    write_table(out, classes, "csv")
    return out.getvalue()
