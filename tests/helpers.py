"""Class builders and referees shared by the test modules.

``farey_products`` reads the products r and s of the solid-torus count
off the Farey graph, with no continued fraction, and must not call
``bcontact.counting``, which it referees.
``enumerated_records`` and ``record_rows`` referee the classification
table: the rows of ``classify`` of every enumerated class, built field by
field, without ``table_classes``.  ``table_jsonl`` is the table's JSON
lines, as ``classify.write_table`` writes them, in one string.
``all_torus_candidates`` and ``twin_image`` referee the torus generator's
twin skip: the candidate stream with no candidate skipped, and the
earlier candidate a twin swap moves a skipped one to.  ``free_trees``
and ``torus_codes`` are the generator's free-tree walk and its coding of
one torus candidate, as the generator calls them.  ``key_code`` referees
the byte keys of the text and JSON sphere listings: a key's code, read
off its levels with no table of the generator's.
``enum_torus_graphs`` and ``graph_slopes`` referee the torus listings and
``enum_torus_classes``: each listed class's graph, built from its row by
the checking constructor, and the slopes a graph is paired with, counted
from the graph.
The ``*_reference`` builders referee the writers: a graph's or a class's
text and JSON object, and the object ``classify --format json`` prints,
each built field by field.
``reference_namespace`` referees the CLI's argv reader: the namespace
that argparse, given the command table, reads from an argv.
``DIGESTS`` holds the pinned commands of ``digests.json``, read by
``check_digests.load``, and ``recorded`` finds the one of an argv.
"""

import argparse
import contextlib
import io
from functools import cache
from itertools import groupby
from math import gcd

from bcontact.classify import classify, leaf_census, write_table
from bcontact.cli import _COMMANDS
from bcontact.enumeration import (
    _genus_codes,
    _ring_codes,
    _tree_edges,
    _vertices,
    _walk,
    enum_equicolored_trees,
    enum_torus_classes,
    enum_torus_rows,
)
from bcontact.region_graph import RegionGraph, canonical_code
from bcontact.surfaces import DividingSetClass, Surface, region_euler

from check_digests import load

DIGESTS = load()


def recorded(argv):
    """The entry of ``digests.json`` that pins the stdout of ``argv``, run
    with no input on stdin and no extra environment."""
    (entry,) = [e for e in DIGESTS if e["argv"] == argv and not {"gamma", "env"} & e.keys()]
    return entry


def sphere_class(signs, edges):
    """A sphere class on genus-0 regions ``0..len(signs)-1``."""
    g = RegionGraph([(i, s, 0) for i, s in enumerate(signs)], edges)
    return DividingSetClass(Surface.SPHERE, g)


def torus_cycle(length, slope=(1, 1)):
    """A bare ring of ``length`` essential curves of the given slope."""
    signs = [1 if i % 2 == 0 else -1 for i in range(length)]
    edges = [(0, 1), (0, 1)] if length == 2 else [
        (i, (i + 1) % length) for i in range(length)
    ]
    g = RegionGraph([(i, s, 0) for i, s in enumerate(signs)], edges)
    return DividingSetClass(Surface.TORUS, g, slope)


def total_euler(d):
    """Sum of per-region Euler characteristics over all regions.

    For every embeddable class this reproduces the Euler characteristic
    of the closed surface: 2 on the sphere, 0 on the torus.
    """
    g = d.graph
    return sum(region_euler(v.genus, g.degrees[v.id]) for v in g.vertices)


def farey_products(p, q):
    """The pair (r, s) of the count N(n, -p, q) = C_n ((r - s) n + s), from
    the Farey graph (Honda 2000, "On the classification of tight contact
    structures I", Theorem 2.3): N(1, -p, q) = r.

    Walk the shortest path of increasing slopes from -p/q to -1, each step
    to the largest Farey neighbour that is at most -1, and split its edges
    into blocks along which the step vector stays constant.  r is the
    product of (block length + 1); s is the same product with the block at
    -p/q contributing its length instead.  p = q = 1 gives the empty path
    and r = s = 1.
    """
    path = [(q, -p)]  # each slope c/d as the vector (d, c), d > 0
    while path[-1] != (1, -1):
        b, a = path[-1]
        # A Farey neighbour c/d has a d - b c = +-1; the largest one above
        # a/b has the least denominator, so d <= b.
        best = None
        for d in range(1, b + 1):
            for det in (1, -1):
                c, rem = divmod(a * d - det, b)
                above = a * d < b * c <= -b * d
                if rem == 0 and above and (best is None or c * best[0] > best[1] * d):
                    best = (d, c)
        path.append(best)
    steps = [(d1 - d0, c1 - c0) for (d0, c0), (d1, c1) in zip(path, path[1:])]
    r = s = 1
    for i, (_, block) in enumerate(groupby(steps)):
        length = len(list(block))
        r *= length + 1
        s *= length if i == 0 else length + 1
    return r, s


def graph_text_reference(g):
    """A graph's ``v`` and ``e`` lines."""
    return "".join(
        [f"v {v.id} {'+' if v.sign > 0 else '-'} {v.genus}\n" for v in g.vertices]
        + [f"e {a} {b}\n" for a, b in g.edges]
    )


def class_text_reference(d):
    """A class's text: its surface line, its graph's lines, its slope line."""
    slope = "" if d.slope is None else f"slope {d.slope[0]} {d.slope[1]}\n"
    return f"surface {d.surface.value}\n{graph_text_reference(d.graph)}{slope}"


def graph_json_reference(g):
    """A graph's JSON object, as a sphere listing writes it."""
    return {
        "vertices": [{"id": v.id, "sign": v.sign, "genus": v.genus} for v in g.vertices],
        "edges": [[a, b] for a, b in g.edges],
    }


def class_json_reference(d):
    """A class's JSON object."""
    out = {"surface": d.surface.value}
    out.update(graph_json_reference(d.graph))
    out["slope"] = list(d.slope) if d.slope is not None else None
    return out


def record_json_reference(record):
    """The JSON object ``classify --format json`` prints."""
    detail = record.tight_count_detail
    return {
        "manifold": "s3-s2" if record.dividing_set.surface is Surface.SPHERE else "s3-t2",
        "dividing_set": class_json_reference(record.dividing_set),
        "tight": [record.tight.finite_factor, record.tight.free_rank],
        "mixed": [record.mixed.finite_factor, record.mixed.free_rank],
        "fully_overtwisted": [
            record.fully_overtwisted.finite_factor,
            record.fully_overtwisted.free_rank,
        ],
        "tight_count_detail": None if detail is None else {
            "n": detail.n,
            "p": detail.p,
            "q": detail.q,
            "r": detail.r,
            "s": detail.s,
            "count": detail.count,
            "expansion": list(detail.expansion.coefficients),
        },
    }


def long_ring(n):
    """Text of a torus class whose ``n`` essential curves form one ring."""
    lines = ["surface torus"]
    lines += [f"v {i} {'+-'[i % 2]} 0" for i in range(n)]
    lines += [f"e {i} {(i + 1) % n}" for i in range(n)]
    return "\n".join(lines + ["slope 3 2"])


def enumerated_records(m, max_curves, max_p=1, modulo_swap=False):
    """``classify`` of every class the enumerators list with at most
    ``max_curves`` curves (and, on the torus, slopes up to ``max_p``), in
    the table's row order: by canonical code, then slope."""
    if m is Surface.SPHERE:
        classes = [
            DividingSetClass(Surface.SPHERE, g)
            for n in range(1, (max_curves + 1) // 2 + 1)
            for g in enum_equicolored_trees(n, modulo_swap)
        ]
    else:
        classes = enum_torus_classes(max_curves, max_p, modulo_swap)
    classes.sort(key=lambda d: (canonical_code(d.graph, modulo_swap), d.slope or ()))
    return [classify(m, d) for d in classes]


def record_rows(records, modulo_swap=False):
    """Table rows built field by field from each record, as dicts."""
    rows = []
    for record in records:
        d = record.dividing_set
        census = leaf_census(d.surface, d)
        rows.append({
            "canonical_code": canonical_code(d.graph, modulo_swap),
            "surface": d.surface.value,
            "V": d.graph.vertex_count,
            "E": d.graph.edge_count,
            "slope_p": d.slope[0] if d.slope else None,
            "slope_q": d.slope[1] if d.slope else None,
            "tight_count": record.tight.finite_factor,
            "mixed_finite": record.mixed.finite_factor,
            "mixed_rank": record.mixed.free_rank,
            "ot_finite": record.fully_overtwisted.finite_factor,
            "ot_rank": record.fully_overtwisted.free_rank,
            "leaves_3": census.leaves_dim3,
            "leaves_2": census.leaves_dim2,
            "leaves_1": census.leaves_dim1,
        })
    return rows


def table_jsonl(classes):
    """The table of ``classes`` as JSON lines, in one string."""
    out = io.StringIO()
    write_table(out, classes, "json")
    return out.getvalue()


def skeleton_edges(layout, closing):
    """The edges of a generator's skeleton: its level sequence's tree
    edges and its closing edge, if any."""
    return _tree_edges(layout) + ([closing] if closing is not None else [])


def enum_torus_graphs(max_curves, modulo_swap=False):
    """The graph of every torus class listed with at most ``max_curves``
    curves, in the listing's order: by canonical code."""
    return [
        RegionGraph(_vertices(coloring), skeleton_edges(layout, closing))
        for _, layout, closing, coloring in enum_torus_rows(max_curves, modulo_swap)
    ]


def graph_slopes(g, max_p):
    """The slopes a torus graph is listed with: every (p, q) with
    0 < q <= p <= ``max_p`` and gcd 1 for a ring, whose graph has as many
    edges as vertices, and ``(None,)`` for a tree."""
    if g.edge_count != g.vertex_count:
        return (None,)
    return tuple(
        (p, q) for p in range(1, max_p + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    )


def free_trees(order):
    return (layout for layout, _, _, _ in _walk(order))


def key_code(key):
    """The canonical code of a sphere row's key (README, "Codes read off
    level sequences"): after the sign byte, each level l is the byte
    255 - l, and the code is the bracket reading of the levels, each
    vertex writing ``")" * (l[i-1] - l[i] + 1) + "(" + tag``, with even
    levels positive up to a second root on level 0 and odd ones from it
    on, every sign negated under sign byte 1."""
    levels = [255 - byte for byte in key[1:]]
    second = levels.index(0, 1) if 0 in levels[1:] else len(levels)
    reading, before = ["T"], -1
    for i, level in enumerate(levels):
        positive = (level % 2 == 0) ^ (i >= second) ^ (key[0] == 1)
        reading.append(")" * (before - level + 1) + ("(+0" if positive else "(-0"))
        before = level
    return "".join(reading) + ")" * (before + 1)


def torus_codes(layout, closing, genus_vertex):
    """The codes of a torus candidate in both colorings."""
    if closing is None:
        return _genus_codes(layout, genus_vertex)
    return _ring_codes(layout, *closing)


def all_torus_candidates(max_curves):
    """Every torus candidate the balance gate admits, in the generator's
    order, with none skipped: (level sequence, closing edge or ``None``,
    genus vertex or ``None``)."""
    for nv in range(2, max_curves + 2):
        for layout in free_trees(nv):
            odd = sum(level & 1 for level in layout)
            if abs(nv - 2 * odd) == 1:
                for g in range(nv):
                    if layout[g] & 1 == int(2 * odd > nv):
                        yield layout, None, g
    for nv in range(2, max_curves + 1):
        for layout in free_trees(nv):
            if 2 * sum(level & 1 for level in layout) == nv:
                for u in range(nv):
                    for v in range(u + 1, nv):
                        if layout[u] & 1 != layout[v] & 1:
                            yield layout, (u, v), None


def _later_twins(layout):
    """(s, c, e) for each vertex c of a level sequence whose previous
    sibling s has a subtree equal to c's, whose slice is ``[c, e)``."""
    parent = {b: a for a, b in _tree_edges(layout)}
    ends = [
        next((j for j in range(i + 1, len(layout)) if layout[j] <= layout[i]), len(layout))
        for i in range(len(layout))
    ]
    twins = []
    for c in range(1, len(layout)):
        siblings = [s for s in range(1, c) if parent[s] == parent[c]]
        if siblings and layout[siblings[-1]:c] == layout[c:ends[c]]:
            twins.append((siblings[-1], c, ends[c]))
    return twins


def twin_image(layout, closing, genus_vertex):
    """The candidate that a swap of twin subtrees moves a candidate to,
    when that candidate comes earlier in the generator's order, else
    ``None``: the swap exchanges the slices ``[s, c)`` and ``[c, e)`` of
    twins s, c and keeps every level."""
    for s, c, e in _later_twins(layout):
        def swap(x):
            return x - (c - s) if c <= x < e else x + (e - c) if s <= x < c else x

        if closing is None:
            if c <= genus_vertex < e:
                return layout, None, swap(genus_vertex)
        else:
            image = tuple(sorted(map(swap, closing)))
            if image < closing:
                return layout, image, None
    return None


class _ReferenceParser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.register("action", "negatable", argparse.BooleanOptionalAction)


@cache
def build_parser():
    """argparse's parser of the CLI's command table, every command's flags
    added with their options as the table declares them."""
    parser = _ReferenceParser(prog="bcontact")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help, _, arguments) in _COMMANDS.items():
        command_parser = sub.add_parser(command, help=help)
        for flag, options in arguments:
            command_parser.add_argument(flag, **options)
    return parser


def reference_namespace(argv):
    """The namespace, as a dict, that argparse reads from ``argv`` with the
    parser of the command table, or None if it refuses ``argv``.  Only the
    values count: argparse's help and usage text are not the CLI's."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None
