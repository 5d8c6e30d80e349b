"""Text, JSON and DOT writers of dividing-set classes and of listings.

A class's text is the line format that ``formats`` reads
(``serialize_class_text``), and its DOT export embeds that text as
comments (``export_dot``).  The enumerated listings are bulk output,
written from the generator's rows (``enumeration.Row``), with no graph
built, in one loop per listing (``write_listing``): each row's text is a
head made once per coloring and a tail, of fragments looked up in tables
indexed by id, sign and genus and by edge rank (``_tables``).  A tail is
the fragments of its sorted edge ranks: a sphere row's ranks come from
the walk, and its row goes out with whole other rows, its fragments
joined once, with theirs; a torus row's come
from its level sequence plus a ring's closing edge, and each torus
class's lines go out in one write, at every slope up to the listing's
bound for a ring, whose slopes' ends are made once per listing.  A listing's
JSON line equals ``json.dumps`` of ``formats.class_dict`` of its class
(of the graph's two fields alone on the sphere) with its default
separators, because every id, sign, genus and slope is an ``int``: the
enumerators build them so, a region graph takes no other id, sign or
genus, and both parsers take no other slope.

This module loads neither ``formats`` and its parsers nor the region
graph (``region_graph``): a listing writes the generator's rows, and a
class's writers read only the fields of its graph.  All emitters order
their output deterministically.
"""

from __future__ import annotations

from bisect import insort
from collections import namedtuple
from functools import cache
from operator import getitem

# DividingSetClass (surfaces) and Row (enumeration) name types in
# annotations only, which are never evaluated.

# The sphere rows in one write: at n = 10, up to 230 KB of JSON.
_BATCH = 256

# A format's fragment of one vertex (id, sign, genus) and of one edge, the
# separator between two fragments, and a class's end from its slope or
# ``None`` on.  A graph's text is its vertices' fragments and then its
# edges'; its JSON fields wrap each list.
_Form = namedtuple("_Form", ["vertex", "edge", "separator", "slope"])


_TEXT = _Form(
    lambda vid, sign, genus: f"v {vid} {'+' if sign > 0 else '-'} {genus}\n",
    lambda a, b: f"e {a} {b}\n",
    "",
    lambda slope: "" if slope is None else f"slope {slope[0]} {slope[1]}\n",
)
_JSON = _Form(
    lambda vid, sign, genus: f'{{"id": {vid}, "sign": {sign}, "genus": {genus}}}',
    lambda a, b: f"[{a}, {b}]",
    ", ",
    lambda slope: "null}\n" if slope is None else f"[{slope[0]}, {slope[1]}]}}\n",
)


@cache
def _tables(form: _Form) -> tuple[list[tuple[str, ...]], list[str]]:
    """A form's fragment of every vertex the enumerators make, indexed like
    ``enumeration._VERTEX_ROWS``, and of every edge, indexed by its rank
    (``enumeration._RANKS``)."""
    from .enumeration import _EDGES, _VERTEX_ROWS

    vertex_table = [tuple(form.vertex(*v) for v in row) for row in _VERTEX_ROWS]
    return vertex_table, [form.edge(a, b) for a, b in _EDGES]


def serialize_class_text(d: DividingSetClass) -> str:
    """A class in the line format that ``formats`` reads."""
    g = d.graph
    return "".join([
        f"surface {d.surface.value}\n",
        *[_TEXT.vertex(*v) for v in g.vertices],
        *[_TEXT.edge(a, b) for a, b in g.edges],
        _TEXT.slope(d.slope),
    ])


def write_listing(out, rows: list[Row], form: str, max_p: int | None = None) -> None:
    """Write a listing of the generator's rows (``enumeration.Row``) to
    ``out`` in ``form``, one class's lines at a time, with no graph built.

    With no ``max_p`` (the sphere listing) each row is its graph's ``v``
    and ``e`` lines, or one JSON line of its ``vertices`` and ``edges``.
    With ``max_p`` (the torus listing) each row is its torus class at
    each of its slopes (``enumeration.row_slopes``):
    ``serialize_class_text`` of each, or ``json.dumps`` of
    ``formats.class_dict`` of each on a line.  Text blocks are separated
    by blank lines, and an empty text listing is one newline.  The CSV
    form is ``size,canonical_code,admissible`` once per slope.

    A row's text is a head, made once per coloring, and a tail, then its
    slope's end: the ends of a tree and of a ring are each made once per
    listing.  A text block's head is the blank line before it, a torus
    class's surface line and the ``v`` lines, and its tail the ``e``
    lines; a JSON line's head runs up to its edges, and its tail from
    them to its slope.  Heads are made first, one per distinct coloring
    (the 10,079 trees on 16 regions have 1,049 colorings).  A tail is
    the fragments of its sorted edge ranks.  A sphere row's ranks are
    its fifth field, from the walk, so its text and JSON forms need rows
    asked for with their edges (``enumeration.enum_tree_rows`` with
    ``edges``), which carry keys in place of codes (a CSV listing of them
    reads each key back to its code); ``_BATCH`` rows go out in one
    write, since a sphere row is one class, and each row's fragments go
    into that write's one join, with no tail joined on its own.  A
    torus row's ranks are its level sequence's, made
    once per sequence, plus a ring's closing edge: a tree's sequence
    keeps its tail text for all of its genus regions and colorings, and
    a ring's keeps its ranks, into which each row's closing edge is put.
    A torus row is its class at each of its slopes, in one write: a
    batch of rings would hold whole runs of slopes at once.  A ``form``
    other than "text", "json" or "csv", a text or JSON sphere listing of
    rows without their edges, or a slope bound that ``torus_count`` would
    refuse, is refused before a byte is written.
    """
    from .enumeration import _RANKS, _edge_ranks, _key_code, _normalized_slopes

    torus = max_p is not None
    if form not in ("text", "json", "csv"):
        raise ValueError(f"unknown listing form {form!r} (choose from 'text', 'json', 'csv')")
    if form != "csv" and not torus and rows and len(rows[0]) < 5:
        raise ValueError(
            "text and JSON sphere listings need rows with their edges"
            " (enum_tree_rows(..., edges=True))"
        )
    # A ring's slopes: each one up to the bound on a torus listing, and on
    # a listing of graphs one class with no slope.
    ring_slopes = _normalized_slopes(max_p) if torus else (None,)
    if form == "csv":
        # Sphere rows with their edges carry keys, which read back to codes.
        keyed = not torus and rows and len(rows[0]) > 4
        out.write("size,canonical_code,admissible\n")
        for row in rows:
            # A tree has one edge fewer than vertices, a ring as many.
            code = _key_code(row[0]) if keyed else row[0]
            line = f"{len(row[1]) - (row[2] is None)},{code},true\n"
            out.write(line if row[2] is None else line * len(ring_slopes))
        return
    json_form = form == "json"
    if not (json_form or rows):
        out.write("\n")
        return
    fragments = _JSON if json_form else _TEXT
    vertex_table, edge_table = _tables(fragments)
    join = fragments.separator.join
    if json_form:
        fields = '{"surface": "torus", ' if torus else "{"
        opening, middle = fields + '"vertices": [', '], "edges": ['
        closing = '], "slope": ' if torus else "]}\n"
    else:
        opening = "\nsurface torus\n" if torus else "\n"
        middle = closing = ""
    heads = {c: opening + join(map(getitem, vertex_table, c)) + middle for c in {row[3] for row in rows}}
    # Every text block opens with the blank line that separates it from
    # the one before, which the listing's first block drops.
    skip = 0 if json_form else 1
    if not torus:
        # A sphere row is one line or one text block, so whole rows go
        # out together, ``_BATCH`` at a time, in one join: a row's edge
        # fragments go into it as they are, each after the separator but
        # the first, edge (0, 1), which every tree has and sorts first.
        edge = [edge_table[0], *[fragments.separator + e for e in edge_table[1:]]].__getitem__
        for start in range(0, len(rows), _BATCH):
            parts = []
            for row in rows[start:start + _BATCH]:
                parts.append(heads[row[3]])
                parts += map(edge, row[4])
                parts.append(closing)
            out.write("".join(parts)[skip:])
            skip = 0
        return
    # Each class's ends, one before each of its slopes: a tree's one, with
    # no slope, and a ring's one per slope up to ``max_p``.
    tree_ends = ["", fragments.slope(None)]
    ring_ends = ["", *map(fragments.slope, ring_slopes)]
    # Per level sequence, its edge ranks sorted, made once: a tree's tail
    # text, or a ring's ranks, which its closing edge joins.  A sequence
    # carries genus trees or rings, never both: their balance gates,
    # 2 * odd = V and |V - 2 * odd| = 1, are disjoint.
    tails: dict[bytes, str | list[int]] = {}

    def tail_text(ranks: list[int]) -> str:
        return join(map(edge_table.__getitem__, ranks)) + closing

    for row in rows:
        layout, edge = row[1], row[2]
        tail = tails.get(layout)
        if tail is None:
            ranks = sorted(_edge_ranks(layout))
            tail = tails[layout] = ranks if edge else tail_text(ranks)
        if edge is None:
            ends = tree_ends
        else:
            ranks = tail.copy()
            insort(ranks, _RANKS[edge[0]][edge[1]])
            tail, ends = tail_text(ranks), ring_ends
        # The class at each slope: its head and tail before each end.
        out.write((heads[row[3]] + tail).join(ends)[skip:])
        skip = 0


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
