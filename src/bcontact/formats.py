"""Text, JSON, DOT, and table serialization of dividing-set classes.

The line format is one item per line with ``#`` comments:

    surface sphere|torus
    v <id> <+|-> <genus>
    e <id1> <id2>
    slope <p> <q>

The JSON form mirrors it: ``{"surface": ..., "vertices": [{"id", "sign",
"genus"}, ...], "edges": [[i, j], ...], "slope": [p, q] | null}``.
Parsing validates the result (graph invariants, then embeddability) so a
successfully parsed class is always usable downstream.  All emitters
order their output deterministically.
"""

from __future__ import annotations

import csv
import io
import json

from .classify import ClassificationRecord, leaf_census
from .counting import TightCountResult
from .region_graph import InvalidRegionGraphError, RegionGraph, RegionVertex, canonical_code, validate
from .surfaces import DividingSetClass, Surface, check_embeddable


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


def graph_to_json_dict(g: RegionGraph) -> dict:
    return {
        "vertices": [
            {"id": v.id, "sign": v.sign, "genus": v.genus} for v in g.vertices
        ],
        "edges": [[a, b] for a, b in g.edges],
    }


def class_to_json_dict(d: DividingSetClass) -> dict:
    out = {"surface": d.surface.value}
    out.update(graph_to_json_dict(d.graph))
    out["slope"] = list(d.slope) if d.slope is not None else None
    return out


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


def _validated(d: DividingSetClass) -> DividingSetClass:
    violation = check_embeddable(d)
    if violation is not None:
        raise InvalidRegionGraphError(str(violation))
    return d


def _parse_int(raw: str, line: int, what: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"expected an integer {what}", line, raw) from None


def _parse_items(text: str) -> tuple[Surface | None, RegionGraph, tuple[int, int] | None]:
    surface: Surface | None = None
    vertices: list[RegionVertex] = []
    edges: list[tuple[int, int]] = []
    slope: tuple[int, int] | None = None
    seen_ids: set[int] = set()

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
            if vid in seen_ids:
                raise ParseError(f"duplicate vertex id {vid}", lineno, fields[1])
            seen_ids.add(vid)
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

    if not vertices:
        raise ParseError("no vertices")
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
        return _validated(_parse_json(text))
    return _validated(_parse_text(text))


def parse_region_graph(text: str) -> RegionGraph:
    """Parse a bare region graph (``v``/``e`` lines only) and validate it."""
    surface, graph, slope = _parse_items(text)
    if surface is not None or slope is not None:
        raise ParseError("surface and slope lines belong to dividing-set classes")
    violation = validate(graph)
    if violation is not None:
        raise InvalidRegionGraphError(str(violation))
    return graph


def export_dot(d: DividingSetClass) -> str:
    """Graphviz text for a class, embedding its full serialization as
    ``//`` comments so the class can be recovered from the export alone.
    """
    _validated(d)
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


def parse_dot_metadata(dot: str) -> DividingSetClass:
    """Recover the class from the comment block ``export_dot`` embeds."""
    meta = [
        line.strip()[3:]
        for line in dot.splitlines()
        if line.strip().startswith("// ")
    ]
    if not meta:
        raise ParseError("no embedded metadata comments found")
    return parse_dividing_set("\n".join(meta) + "\n")


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


def _record_rows(records: list[ClassificationRecord], modulo_swap: bool):
    """Table rows as tuples in ``TABLE_COLUMNS`` order, one per record.

    The code, shape and census columns depend on the graph alone, so they
    are computed once for each run of records sharing a graph object.
    """
    graph = manifold = None
    for record in records:
        d = record.dividing_set
        if d.graph is not graph or record.manifold is not manifold:
            graph, manifold = d.graph, record.manifold
            census = leaf_census(manifold, d)
            head = (
                canonical_code(graph, modulo_swap),
                d.surface.value,
                graph.vertex_count,
                graph.edge_count,
            )
            tail = (census.leaves_dim3, census.leaves_dim2, census.leaves_dim1)
        yield head + (
            d.slope[0] if d.slope else "",
            d.slope[1] if d.slope else "",
            record.tight.finite_factor,
            record.mixed.finite_factor,
            record.mixed.free_rank,
            record.fully_overtwisted.finite_factor,
            record.fully_overtwisted.free_rank,
        ) + tail


def render_table_csv(records: list[ClassificationRecord], modulo_swap: bool = False) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(TABLE_COLUMNS)
    writer.writerows(_record_rows(records, modulo_swap))
    return buffer.getvalue()


def render_table_jsonl(records: list[ClassificationRecord], modulo_swap: bool = False) -> str:
    lines = []
    for values in _record_rows(records, modulo_swap):
        row = dict(zip(TABLE_COLUMNS, values))
        row["slope_p"] = row["slope_p"] or None
        row["slope_q"] = row["slope_q"] or None
        lines.append(json.dumps(row))
    return "\n".join(lines) + ("\n" if lines else "")
