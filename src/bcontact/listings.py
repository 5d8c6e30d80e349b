"""Text, JSON and DOT writers of dividing-set classes and of listings.

A class's text is the line format that ``formats`` reads
(``serialize_class_text``), and its DOT export embeds that text as
comments (``export_dot``).  The enumerated listings are bulk output: each
writer is handed the request, as the CLI reads it, and asks
``enumeration`` for the rows its form reads (``enumeration.Row``), with
no graph built, once it has refused what ``enumeration`` refuses
(``write_tree_listing``, ``write_torus_listing``).  Each row's text is a
head made once per coloring and a tail, of fragments looked up in tables
indexed by id, sign and genus and by edge rank (``_tables``).  A tail is
the fragments of its sorted edge ranks: a sphere row's ranks come from
the walk, and its row goes out with whole other rows, its fragments
joined once, with theirs; a torus row's come from its level sequence
plus a ring's closing edge, and each torus class's lines go out in one
write, at every slope up to the listing's bound for a ring, whose
slopes' ends are made once per listing.  A listing's JSON line equals
``json.dumps`` of ``formats.class_dict`` of its class (of the graph's two
fields alone on the sphere) with its default separators, because every
id, sign, genus and slope is an ``int``: the enumerators build them so,
a region graph takes no other id, sign or genus, and both parsers take
no other slope.  A CSV line names its class by its canonical code, and
on the torus by its slope too.

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


def _check_form(form: str) -> None:
    if form not in ("text", "json", "csv"):
        raise ValueError(f"unknown listing form {form!r} (choose from 'text', 'json', 'csv')")


def _shape(form: str, torus: bool, rows: list[Row]) -> tuple:
    """A text or JSON listing's fragments, its edge fragments by rank, the
    head of each coloring of ``rows``, keyed by the coloring, and the
    string that closes a class's edges."""
    if form == "json":
        fragments = _JSON
        fields = '{"surface": "torus", ' if torus else "{"
        opening, middle = fields + '"vertices": [', '], "edges": ['
        closing = '], "slope": ' if torus else "]}\n"
    else:
        fragments, middle, closing = _TEXT, "", ""
        opening = "\nsurface torus\n" if torus else "\n"
    vertex_table, edge_table = _tables(fragments)
    join = fragments.separator.join
    heads = {c: opening + join(map(getitem, vertex_table, c)) + middle for c in {row[3] for row in rows}}
    return fragments, edge_table, heads, closing


def write_tree_listing(out, n: int, modulo_swap: bool, form: str) -> None:
    """Write the sphere listing of the trees on 2n regions to ``out`` in
    ``form``: each class's ``v`` and ``e`` lines, one JSON line of its
    ``vertices`` and ``edges``, or ``size,canonical_code,admissible``.

    CSV asks ``enum_tree_rows`` for rows with codes, text and JSON, which
    print none, for rows with their edges, keyed in place of codes.  A
    text block or JSON line is the head of its coloring, made once per
    coloring (the 10,079 trees on 16 regions have 1,049), and the
    fragments of its edge ranks, from the walk: ``_BATCH`` rows go out in
    one join and one write, with no tail joined on its own.  An unknown
    ``form``, or an ``n`` that ``tree_count`` refuses, is refused before
    a byte is written.
    """
    from .enumeration import enum_tree_rows

    _check_form(form)
    if form == "csv":
        rows = enum_tree_rows(n, modulo_swap)
        out.write("size,canonical_code,admissible\n")
        for code, layout, _, _ in rows:
            out.write(f"{len(layout) - 1},{code},true\n")
        return
    rows = enum_tree_rows(n, modulo_swap, True)
    fragments, edge_table, heads, closing = _shape(form, False, rows)
    # Each edge fragment after the separator but the first, edge (0, 1),
    # which every tree has and sorts first.  Every text block opens with
    # the blank line before it, which the listing's first block drops.
    edge = [edge_table[0], *[fragments.separator + e for e in edge_table[1:]]].__getitem__
    skip = 0 if form == "json" else 1
    for start in range(0, len(rows), _BATCH):
        parts = []
        for row in rows[start:start + _BATCH]:
            parts.append(heads[row[3]])
            parts += map(edge, row[4])
            parts.append(closing)
        out.write("".join(parts)[skip:])
        skip = 0


def write_torus_listing(out, max_curves: int, max_p: int, modulo_swap: bool, form: str) -> None:
    """Write the torus listing of the classes with at most ``max_curves``
    curves to ``out`` in ``form``, each class at each of its slopes
    (``enumeration.torus_request``): ``serialize_class_text`` of each, an
    empty listing being one newline, ``json.dumps`` of
    ``formats.class_dict`` of each on a line, or
    ``size,canonical_code,slope_p,slope_q,admissible``, a tree's slope
    fields empty.  An unknown ``form``, or a request that ``torus_count``
    or the row cap (``check_row_cap``) refuses, is refused before any
    class is listed.

    A row's text is the head of its coloring, its tail, then its slope's
    end, each end made once per listing.  A text block's head is the
    blank line before it, the surface line and the ``v`` lines, and its
    tail the ``e`` lines; a JSON line's head runs up to its edges.  A tail
    is the fragments of its level sequence's sorted edge ranks, made once
    per sequence, plus a ring's closing edge.  A class goes out at all of
    its slopes in one write: a batch of rings would hold whole runs of
    slopes at once.
    """
    from .enumeration import _RANKS, _edge_ranks, check_row_cap, enum_torus_rows, torus_request

    _check_form(form)
    count, slopes = torus_request(max_curves, max_p, modulo_swap)
    check_row_cap("listing", count)
    rows = enum_torus_rows(max_curves, modulo_swap)
    if form == "csv":
        out.write("size,canonical_code,slope_p,slope_q,admissible\n")
        ring_ends = [f"{p},{q},true\n" for p, q in slopes]
        for code, layout, edge, _ in rows:
            # A tree has one edge fewer than vertices, a ring as many.
            if edge is None:
                out.write(f"{len(layout) - 1},{code},,,true\n")
            else:
                head = f"{len(layout)},{code},"
                out.write(head + head.join(ring_ends))
        return
    if form == "text" and not rows:
        out.write("\n")
        return
    fragments, edge_table, heads, closing = _shape(form, True, rows)
    join = fragments.separator.join
    # The ends of a class, one before each of its slopes.
    tree_ends = ["", fragments.slope(None)]
    ring_ends = ["", *map(fragments.slope, slopes)]
    # Per level sequence, its edge ranks sorted, made once: a tree's tail
    # text, or a ring's ranks, which its closing edge joins.  A sequence
    # carries genus trees or rings, never both: their balance gates,
    # 2 * odd = V and |V - 2 * odd| = 1, are disjoint.
    tails: dict[bytes, str | list[int]] = {}

    def tail_text(ranks: list[int]) -> str:
        return join(map(edge_table.__getitem__, ranks)) + closing

    skip = 0 if form == "json" else 1
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
