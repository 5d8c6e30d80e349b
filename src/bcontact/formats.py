"""Text, JSON, DOT, and table serialization of dividing-set classes.

The line format is one item per line with ``#`` comments:

    surface sphere|torus
    v <id> <+|-> <genus>
    e <id1> <id2>
    slope <p> <q>

The JSON form mirrors it: ``{"surface": ..., "vertices": [{"id", "sign",
"genus"}, ...], "edges": [[i, j], ...], "slope": [p, q] | null}``.
``graph_json`` and ``class_json`` write these lines directly, one string
per graph or class, without building the object first.  Their bytes equal
``json.dumps`` of the object with its default separators, because every
id, sign, genus and slope is an ``int``: the enumerators build them so
and both parsers accept nothing else.

A table row, in CSV or as a JSON line, is written the same way, from
the head (code, surface, V, E) and tail (census) strings of its graph
and an f-string of its slope and regime integers; the CSV form leaves
an absent slope empty and the JSON form writes ``null``.  Every value
is an ``int`` or an ASCII string of ``T C ( ) + -`` and digits,
``sphere`` or ``torus``, so nothing needs quoting or escaping: the lines
are byte-equal to ``csv.writer``'s and to ``json.dumps`` of the row
dict.

Parsing validates the result (graph invariants, then embeddability) so
a successfully parsed class is always usable downstream.  All emitters
order their output deterministically.
"""

from __future__ import annotations

import json
from itertools import groupby

from .classify import ClassificationRecord, graph_census
from .counting import TightCountResult
from .region_graph import RegionGraph, RegionVertex, canonical_code
from .surfaces import DividingSetClass, Surface, require_embeddable


class ParseError(ValueError):
    """Syntax error with the line and token that caused it."""

    def __init__(self, message: str, line: int | None = None, token: str | None = None):
        location = f"line {line}" if line is not None else "input"
        suffix = f" (token {token!r})" if token is not None else ""
        super().__init__(f"{location}: {message}{suffix}")
        self.line = line
        self.token = token


def serialize_graph_text(g: RegionGraph) -> str:
    lines = [
        f"v {v.id} {'+' if v.sign > 0 else '-'} {v.genus}" for v in g.vertices
    ]
    lines += [f"e {a} {b}" for a, b in g.edges]
    return "\n".join(lines) + "\n"


def serialize_class_text(d: DividingSetClass) -> str:
    text = f"surface {d.surface.value}\n" + serialize_graph_text(d.graph)
    if d.slope is not None:
        text += f"slope {d.slope[0]} {d.slope[1]}\n"
    return text


def _graph_json_fields(g: RegionGraph) -> str:
    vertices = ", ".join([
        f'{{"id": {v.id}, "sign": {v.sign}, "genus": {v.genus}}}' for v in g.vertices
    ])
    edges = ", ".join([f"[{a}, {b}]" for a, b in g.edges])
    return f'"vertices": [{vertices}], "edges": [{edges}]'


def graph_json(g: RegionGraph) -> str:
    """One JSON line ``{"vertices": [...], "edges": [...]}`` for a graph."""
    return f"{{{_graph_json_fields(g)}}}"


def class_json(d: DividingSetClass) -> str:
    """One JSON line for a class, in the form the module docstring gives."""
    slope = "null" if d.slope is None else f"[{d.slope[0]}, {d.slope[1]}]"
    return (
        f'{{"surface": "{d.surface.value}", {_graph_json_fields(d.graph)}, '
        f'"slope": {slope}}}'
    )


def tight_count_to_json_dict(result: TightCountResult) -> dict:
    return {
        "n": result.n,
        "p": result.p,
        "q": result.q,
        "r": result.r,
        "s": result.s,
        "count": result.count,
        "expansion": list(result.expansion.coefficients),
    }


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


def _parse_items(text: str) -> tuple[Surface | None, RegionGraph, tuple[int, int] | None]:
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

    return surface, RegionGraph(tuple(vertices), tuple(edges)), slope


def _parse_text(text: str) -> DividingSetClass:
    surface, graph, slope = _parse_items(text)
    if surface is None:
        raise ParseError("missing 'surface sphere|torus' header")
    return DividingSetClass(surface, graph, slope)


def _parse_json(text: str) -> DividingSetClass:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno) from None
    except RecursionError:
        raise ParseError("JSON nested too deeply") from None
    if not isinstance(data, dict):
        raise ParseError("top-level JSON value must be an object")
    try:
        surface = Surface(data["surface"])
        vertices = tuple(
            RegionVertex(
                _json_int(v["id"], "vertex id"),
                _json_int(v["sign"], "sign"),
                _json_int(v.get("genus", 0), "genus"),
            )
            for v in data["vertices"]
        )
        edges = tuple(_json_pair(e, "edge") for e in data["edges"])
        raw_slope = data.get("slope")
        slope = None if raw_slope is None else _json_pair(raw_slope, "slope")
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed JSON class: {exc}") from None
    return DividingSetClass(surface, RegionGraph(vertices, edges), slope)


def _json_int(value, what: str) -> int:
    # bool is an int subclass, but true/false is not a number.
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"{what} must be an integer, got {json.dumps(value)}")


def _json_pair(value, what: str) -> tuple[int, int]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{what} must be a list of two integers, got {json.dumps(value)}")
    return _json_int(value[0], what), _json_int(value[1], what)


def parse_dividing_set(text: str) -> DividingSetClass:
    """Parse and validate a dividing-set class from text or JSON input.

    Raises ``ParseError`` for syntax problems (with line and token) and
    ``InvalidRegionGraphError`` naming the violated invariant otherwise.
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return require_embeddable(_parse_json(text))
    return require_embeddable(_parse_text(text))


def export_dot(d: DividingSetClass) -> str:
    """Graphviz text for a class, embedding its full serialization as
    ``//`` comments so the class can be recovered from the export alone.
    """
    require_embeddable(d)
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


def _table_blocks(records: list[ClassificationRecord], modulo_swap: bool, json_form: bool):
    """CSV or JSON table lines in ``TABLE_COLUMNS`` order, one per record,
    joined into one block per run of records sharing a graph object.

    The code, shape and census columns depend on the graph alone, so they
    are rendered once per run, as a head and a tail string; a row formats
    only its slope and regime columns.  ``classify`` checked each record's
    class when it made the record, so nothing is checked again here.
    """
    if json_form:
        sep = [f', "{column}": ' for column in TABLE_COLUMNS]
        sep[0], quote, null, end = '{"canonical_code": ', '"', "null", "}\n"
    else:
        sep = [","] * len(TABLE_COLUMNS)
        sep[0], quote, null, end = "", "", "", "\n"
    mid = sep[5:11]
    for _, run in groupby(records, lambda r: (id(r.dividing_set.graph), id(r.manifold))):
        run = list(run)
        d = run[0].dividing_set
        census = graph_census(run[0].manifold, d.graph)
        head = (
            f"{sep[0]}{quote}{canonical_code(d.graph, modulo_swap)}{quote}"
            f"{sep[1]}{quote}{d.surface.value}{quote}"
            f"{sep[2]}{d.graph.vertex_count}{sep[3]}{d.graph.edge_count}{sep[4]}"
        )
        tail = (
            f"{sep[11]}{census.leaves_dim3}{sep[12]}{census.leaves_dim2}"
            f"{sep[13]}{census.leaves_dim1}{end}"
        )
        lines = []
        for record in run:
            p, q = record.dividing_set.slope or (null, null)
            t, m, o = record.tight, record.mixed, record.fully_overtwisted
            lines.append(
                f"{head}{p}{mid[0]}{q}{mid[1]}{t.finite_factor}{mid[2]}{m.finite_factor}"
                f"{mid[3]}{m.free_rank}{mid[4]}{o.finite_factor}{mid[5]}{o.free_rank}{tail}"
            )
        yield "".join(lines)


def render_table_csv(records: list[ClassificationRecord], modulo_swap: bool = False) -> str:
    return ",".join(TABLE_COLUMNS) + "\n" + "".join(_table_blocks(records, modulo_swap, False))


def render_table_jsonl(records: list[ClassificationRecord], modulo_swap: bool = False) -> str:
    return "".join(_table_blocks(records, modulo_swap, True))
