"""Text, JSON, DOT, and table serialization of dividing-set classes.

The line format is one item per line with ``#`` comments:

    surface sphere|torus
    v <id> <+|-> <genus>
    e <id1> <id2>
    slope <p> <q>

The JSON form mirrors it: ``{"surface": ..., "vertices": [{"id", "sign",
"genus"}, ...], "edges": [[i, j], ...], "slope": [p, q] | null}``; any
other key, at the top or in a vertex, is a syntax error, as an unknown
directive is in the text form.
A one-class answer is ``json.dumps`` of ``class_dict``, or
``serialize_class_text``.  The enumerated listings are bulk output,
written from the generator's rows (``enumeration.Row``), with no graph
built, in one loop per listing (``write_listing``): each row's vertex
and edge fragments are looked up in tables indexed by id, sign and
genus, shared by the rows of one listing, and filled into hand-written
templates (``_text_blocks``, ``_json_lines``).  A listing's JSON line
equals ``json.dumps`` of ``class_dict`` of its class (of the graph's
two fields alone on the sphere) with its default separators, because
every id, sign, genus and slope is an ``int``: the enumerators build
them so, a region graph takes no other id, sign or genus, and both
parsers take no other slope.

The classification table is rendered from its one form, a list of graph
classes (``classify.table_classes``), each its code, surface, region and
curve counts and its slopes in runs sharing regimes, read off the
generator's rows with no graph built; the renderer checks nothing and
reads no graph.  A row, in CSV or as a JSON line, is the head (code,
surface, V, E) and tail (census) strings of its graph class, each
written once per class, the regime string of its run, written once per
run, and its slope's text, written once per distinct run of slopes; the
CSV form leaves an absent slope empty and the JSON form writes
``null``.  Every value is an ``int`` or an ASCII string of
``T C ( ) + -`` and digits, ``sphere`` or ``torus``, so nothing needs
quoting or escaping: the lines are byte-equal to ``csv.writer``'s and to
``json.dumps`` of the row dict.

A parsed class is a ``DividingSetClass`` of a ``RegionGraph``, each
checked where it is made (graph invariants, then embeddability), so it
is always usable downstream; a syntax error is raised before the graph
is made.  All emitters order their output deterministically.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import getitem

from .region_graph import RegionGraph, RegionVertex
from .surfaces import DividingSetClass, Surface

# TableClass (classify), Row and Slopes (enumeration) and Callable name
# types in annotations only, which are never evaluated: importing them
# would load those layers for every parse and listing.  So is json, which
# only JSON input needs, imported where it is used.


class ParseError(ValueError):
    """Syntax error with the line and token that caused it."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        location = f"line {line}" if line is not None else "input"
        suffix = f" (token {token!r})" if token is not None else ""
        super().__init__(f"{location}: {message}{suffix}")
        self.line = line
        self.token = token


# A format's fragment of one vertex (id, sign, genus) and of one edge, and
# the separator between two fragments.  A graph's text is its vertices'
# fragments and then its edges'; its JSON fields wrap each list.
_Form = namedtuple("_Form", ["vertex", "edge", "separator"])


_TEXT = _Form(
    lambda vid, sign, genus: f"v {vid} {'+' if sign > 0 else '-'} {genus}\n",
    lambda a, b: f"e {a} {b}\n",
    "",
)
_JSON = _Form(
    lambda vid, sign, genus: f'{{"id": {vid}, "sign": {sign}, "genus": {genus}}}',
    lambda a, b: f"[{a}, {b}]",
    ", ",
)


@cache
def _tables(form: _Form) -> tuple[list[tuple[str, ...]], Callable[[bytes, tuple | None], str]]:
    """A form's fragment of every vertex the enumerators make, indexed like
    ``enumeration._VERTEX_ROWS``, and its joined edge fragments of a
    skeleton (``enumeration.Row``)."""
    from .enumeration import _VERTEX_ROWS, _sorted_edges

    ids = range(len(_VERTEX_ROWS))
    edge_table = [[form.edge(a, b) for b in ids] for a in ids]

    def skeleton_edges(layout: bytes, closing: tuple[int, int] | None) -> str:
        return form.separator.join([edge_table[a][b] for a, b in _sorted_edges(layout, closing)])

    return [tuple(form.vertex(*v) for v in row) for row in _VERTEX_ROWS], skeleton_edges


def _text_blocks(surface: Surface | None, graph: str, slopes: Slopes) -> str:
    """A graph's text alone, or its class's text on ``surface`` at each of
    ``slopes``, separated by blank lines."""
    if surface is None:
        return graph
    head = f"surface {surface.value}\n{graph}"
    return "\n".join([
        head if slope is None else f"{head}slope {slope[0]} {slope[1]}\n" for slope in slopes
    ])


def _json_lines(surface: Surface | None, vertices: str, edges: str, slopes: Slopes) -> str:
    """A graph's JSON line, or its class's on ``surface`` at each of
    ``slopes``, with no final newline; the graph's fields are joined once."""
    fields = f'"vertices": [{vertices}], "edges": [{edges}]'
    if surface is None:
        return f"{{{fields}}}"
    head = f'{{"surface": "{surface.value}", {fields}, "slope": '
    return "\n".join([
        f"{head}null}}" if slope is None else f"{head}[{slope[0]}, {slope[1]}]}}"
        for slope in slopes
    ])


def serialize_class_text(d: DividingSetClass) -> str:
    """A class in the line format the module docstring gives."""
    g = d.graph
    graph = "".join(
        [_TEXT.vertex(*v) for v in g.vertices] + [_TEXT.edge(a, b) for a, b in g.edges]
    )
    return _text_blocks(d.surface, graph, (d.slope,))


def class_dict(d: DividingSetClass) -> dict:
    """A class as the JSON object the module docstring gives, for
    ``json.dumps``, which writes its tuples as arrays."""
    vertices = [v._asdict() for v in d.graph.vertices]
    return {"surface": d.surface.value, "vertices": vertices, "edges": d.graph.edges,
            "slope": d.slope}


def write_listing(
    out, rows: list[Row], form: str, surface: Surface | None = None,
    slopes: list[Slopes] | None = None, modulo_swap: bool = False,
) -> None:
    """Write a listing of the generator's rows (``enumeration.Row``) to
    ``out`` in ``form``, one class's lines at a time, with no graph built.

    Each row is its graph's ``v`` and ``e`` lines, or one JSON line of
    its ``vertices`` and ``edges``, or with ``surface`` its class at each
    of its ``slopes``: ``serialize_class_text`` of each, or ``json.dumps``
    of ``class_dict`` of each on a line; text blocks are separated by
    blank lines, and an empty text listing is one newline.  The CSV form
    is ``size,canonical_code,admissible`` once per slope.

    Rows share fragments.  A coloring's vertex fragments are kept under
    its bytes (the 10,079 trees on 16 regions have 1,049 colorings).  A
    skeleton's edge fragments are kept under its level sequence and
    closing edge.  A torus tree's skeleton keeps them for all of its
    genus regions.  Any other skeleton has at most one row per coloring,
    so its edge fragments are kept for its other coloring and dropped
    when that uses them, and not kept at all when the signs are
    identified.
    """
    if slopes is None:
        slopes = [(None,)] * len(rows)
    if form == "csv":
        out.write("size,canonical_code,admissible\n")
        for row, row_slopes in zip(rows, slopes):
            # A tree has one edge fewer than vertices, a ring as many.
            out.write(f"{len(row[1]) - (row[2] is None)},{row[0]},true\n" * len(row_slopes))
        return
    json_form = form == "json"
    fragments = _JSON if json_form else _TEXT
    vertex_table, skeleton_edges = _tables(fragments)
    vertex_texts: dict[bytes, str] = {}
    edge_texts: dict[tuple, str] = {}
    separator = ""
    for row, row_slopes in zip(rows, slopes):
        coloring = row[3]
        vertices = vertex_texts.get(coloring)
        if vertices is None:
            vertices = fragments.separator.join(map(getitem, vertex_table, coloring))
            vertex_texts[coloring] = vertices
        skeleton = row[1:3]
        genus_tree = surface is not None and row[2] is None
        edges = edge_texts.get(skeleton)
        if edges is None:
            edges = skeleton_edges(*skeleton)
            if genus_tree or not modulo_swap:
                edge_texts[skeleton] = edges
        elif not genus_tree:
            del edge_texts[skeleton]
        if json_form:
            out.write(_json_lines(surface, vertices, edges, row_slopes) + "\n")
        else:
            out.write(separator + _text_blocks(surface, vertices + edges, row_slopes))
            separator = "\n"
    if not (json_form or separator):
        out.write("\n")


def _parse_int(raw: str, line: int, what: str) -> int:
    # Only ASCII -?[0-9]+: int() alone would also take "1_0", "+1" and
    # non-ASCII digits.
    digits = raw[1:] if raw.startswith("-") else raw
    if digits.isascii() and digits.isdigit():
        try:
            return int(raw)
        except ValueError:  # past the int-to-str digit limit
            pass
    raise ParseError(f"expected an integer {what}", line, raw)


def _parse_items(text: str) -> tuple[
    Surface | None, list[RegionVertex], list[tuple[int, int]], tuple[int, int] | None
]:
    surface: Surface | None = None
    vertices: list[RegionVertex] = []
    edges: list[tuple[int, int]] = []
    slope: tuple[int, int] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        kind = fields[0]
        if kind == "surface":
            if len(fields) != 2:
                raise ParseError("surface line takes one value", lineno)
            try:
                surface = Surface(fields[1])
            except ValueError:
                raise ParseError("surface must be sphere or torus", lineno, fields[1]) from None
        elif kind == "v":
            if len(fields) != 4:
                raise ParseError("vertex line is 'v <id> <+|-> <genus>'", lineno)
            vid = _parse_int(fields[1], lineno, "vertex id")
            if fields[2] not in ("+", "-"):
                raise ParseError("vertex sign must be + or -", lineno, fields[2])
            genus = _parse_int(fields[3], lineno, "genus")
            vertices.append(RegionVertex(vid, 1 if fields[2] == "+" else -1, genus))
        elif kind == "e":
            if len(fields) != 3:
                raise ParseError("edge line is 'e <id1> <id2>'", lineno)
            edges.append(
                (
                    _parse_int(fields[1], lineno, "vertex id"),
                    _parse_int(fields[2], lineno, "vertex id"),
                )
            )
        elif kind == "slope":
            if len(fields) != 3:
                raise ParseError("slope line is 'slope <p> <q>'", lineno)
            slope = (
                _parse_int(fields[1], lineno, "slope numerator"),
                _parse_int(fields[2], lineno, "slope denominator"),
            )
        else:
            raise ParseError("unknown directive", lineno, kind)

    return surface, vertices, edges, slope


def _parse_text(text: str) -> DividingSetClass:
    surface, vertices, edges, slope = _parse_items(text)
    if surface is None:
        raise ParseError("missing 'surface sphere|torus' header")
    return DividingSetClass(surface, RegionGraph(vertices, edges), slope)


_CLASS_KEYS = frozenset({"surface", "vertices", "edges", "slope"})
_VERTEX_KEYS = frozenset({"id", "sign", "genus"})


def _parse_json(text: str) -> DividingSetClass:
    import json

    # Past its leading blanks the text is "{...": an object or no JSON.
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    except ValueError:  # an integer past the int-to-str digit limit
        raise ParseError("JSON integer has too many digits") from None
    _reject_unknown_keys(data, _CLASS_KEYS, "class")
    try:
        surface = Surface(data["surface"])
        vertices = tuple(_json_vertex(v) for v in data["vertices"])
        edges = tuple(_json_pair(e, "edge") for e in data["edges"])
        raw_slope = data.get("slope")
        slope = None if raw_slope is None else _json_pair(raw_slope, "slope")
    except ParseError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed JSON class: {exc}") from None
    return DividingSetClass(surface, RegionGraph(vertices, edges), slope)


def _reject_unknown_keys(obj: dict, known: frozenset[str], what: str) -> None:
    # The JSON counterpart of the text form's unknown directive.
    unknown = sorted(obj.keys() - known)
    if unknown:
        raise ParseError(f"unknown key in JSON {what}", token=unknown[0])


def _json_vertex(v) -> RegionVertex:
    if isinstance(v, dict):
        _reject_unknown_keys(v, _VERTEX_KEYS, "vertex")
    return RegionVertex(
        _json_int(v["id"], "vertex id"),
        _json_int(v["sign"], "sign"),
        _json_int(v.get("genus", 0), "genus"),
    )


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true/false is not a number.
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    import json

    raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")


def _json_pair(value, what: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        import json

        raise ValueError(f"{what} must be a list of two integers, got {json.dumps(value)}")
    return _json_int(value[0], what), _json_int(value[1], what)


def parse_dividing_set(text: str) -> DividingSetClass:
    """Parse a dividing-set class from text or JSON input.

    Raises ``ParseError`` for syntax problems (with line and token) and
    ``InvalidRegionGraphError`` naming the violated invariant otherwise.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(text)
    return _parse_text(text)


def export_dot(d: DividingSetClass) -> str:
    """Graphviz text for a class, embedding its full serialization as
    ``//`` comments so the class can be recovered from the export alone.
    """
    lines = ["graph dividing_set {"]
    for meta in serialize_class_text(d).splitlines():
        lines.append(f"  // {meta}")
    title = d.surface.value
    if d.slope is not None:
        title += f" slope {d.slope[0]}/{d.slope[1]}"
    lines.append(f'  label="{title}";')
    for v in d.graph.vertices:
        tag = ("+" if v.sign > 0 else "-") + f"g{v.genus}"
        lines.append(f'  v{v.id} [label="{tag}"];')
    for a, b in d.graph.edges:
        lines.append(f"  v{a} -- v{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


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


def _render_table(classes: list[TableClass], json_form: bool) -> str:
    """CSV or JSON table lines in ``TABLE_COLUMNS`` order, one per (graph
    class, slope), after the CSV header.

    The code, shape and census columns depend on the graph class alone,
    so they are rendered once per class, as a head and a tail string, and
    the regime columns once per run of slopes sharing them.  The slope
    columns are formatted once per distinct run of slopes, and a run's
    rows are its slope texts joined between the head and the regime
    string.  Every class came from the generator, which makes only
    admissible ones, so nothing is checked here.
    """
    if json_form:
        sep = [f', "{column}": ' for column in TABLE_COLUMNS]
        sep[0], quote, null, end = '{"canonical_code": ', '"', "null", "}\n"
        blocks = []
    else:
        sep = [","] * len(TABLE_COLUMNS)
        sep[0], quote, null, end = "", "", "", "\n"
        blocks = [",".join(TABLE_COLUMNS) + "\n"]
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
        for slopes, t, m, o in c.runs:
            rest = (
                f"{sep[6]}{t.finite_factor}{sep[7]}{m.finite_factor}{sep[8]}{m.free_rank}"
                f"{sep[9]}{o.finite_factor}{sep[10]}{o.free_rank}{tail}"
            )
            texts = slope_texts.get(id(slopes))
            if texts is None:
                pairs = ((null, null),) if slopes == (None,) else slopes
                texts = slope_texts[id(slopes)] = [f"{p}{q_sep}{q}" for p, q in pairs]
            blocks += (head, (rest + head).join(texts), rest)
    return "".join(blocks)


def render_table_csv(classes: list[TableClass]) -> str:
    """The classification table as CSV, header first, from ``table_classes``."""
    return _render_table(classes, False)


def render_table_jsonl(classes: list[TableClass]) -> str:
    """The classification table as JSON lines, from ``table_classes``."""
    return _render_table(classes, True)
