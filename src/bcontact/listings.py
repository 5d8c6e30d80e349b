"""Text, JSON and DOT writers of dividing-set classes and of listings.

A class's text is the line format that ``formats`` reads
(``serialize_class_text``), and its DOT export embeds that text as
comments (``export_dot``).  The enumerated listings are bulk output,
written from the generator's rows (``enumeration.Row``), with no graph
built, in one loop per listing (``write_listing``): each row's vertex
and edge fragments are looked up in tables indexed by id, sign and
genus, shared by the rows of one listing, and filled into hand-written
templates (``_text_blocks``, ``_json_lines``).  A listing's JSON line
equals ``json.dumps`` of ``formats.class_dict`` of its class (of the
graph's two fields alone on the sphere) with its default separators,
because every id, sign, genus and slope is an ``int``: the enumerators
build them so, a region graph takes no other id, sign or genus, and
both parsers take no other slope.

This module loads neither ``formats`` and its parsers nor the region
graph (``region_graph``): a listing writes the generator's rows, and a
class's writers read only the fields of its graph.  All emitters order
their output deterministically.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache
from operator import getitem

# DividingSetClass and Surface (surfaces), Row and Slopes (enumeration) and
# Callable name types in annotations only, which are never evaluated.

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
    """A class in the line format that ``formats`` reads."""
    g = d.graph
    graph = "".join(
        [_TEXT.vertex(*v) for v in g.vertices] + [_TEXT.edge(a, b) for a, b in g.edges]
    )
    return _text_blocks(d.surface, graph, (d.slope,))


def write_listing(
    out, rows: list[Row], form: str, surface: Surface | None = None,
    slopes: list[Slopes] | None = None, modulo_swap: bool = False,
) -> None:
    """Write a listing of the generator's rows (``enumeration.Row``) to
    ``out`` in ``form``, one class's lines at a time, with no graph built.

    Each row is its graph's ``v`` and ``e`` lines, or one JSON line of
    its ``vertices`` and ``edges``, or with ``surface`` its class at each
    of its ``slopes``: ``serialize_class_text`` of each, or ``json.dumps``
    of ``formats.class_dict`` of each on a line; text blocks are
    separated by blank lines, and an empty text listing is one newline.
    The CSV form is ``size,canonical_code,admissible`` once per slope.

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
