"""Generation of admissible dividing-set classes up to isomorphism.

Sphere classes are equicolored trees.  The unlabeled tree skeletons are
free trees given as level sequences, one per isomorphism class, from the
Wright-Richmond-Odlyzko-McKay generator (WROM: "Constant time generation
of free trees", SIAM J. Comput. 15, 1986), which steps through rooted
level sequences with the Beyer-Hedetniemi successor (1980).  Vertex i of
a skeleton is the i-th entry of its sequence and hangs from the nearest
earlier vertex one level up, so vertex 0 is the root and a vertex's
level parity is its side of the unique bipartition.  Each balanced
skeleton is colored by that bipartition, and the two sign orientations
are kept or merged according to the sign mode.

Torus classes come in two shapes: trees carrying one genus-1 region
(all curves contractible), and unicyclic graphs (a ring of essential
curves, possibly with contractible trees attached) built as
tree-plus-one-edge.  Admissibility (the Euler pairing balance) is decided
on the level sequence, before any graph is built.  On a properly
2-colored graph with P positive and N negative regions,

    chi(Z+) - chi(Z-) = sum sign * (2 - 2 genus - deg)
                      = 2 (P - N) - 2 sum sign * genus,

because each edge joins a positive and a negative region and so adds +1
and -1 to sum sign * deg.  A genus-1 tree is therefore admissible exactly
when P - N is the sign of its genus region: the color classes differ in
size by one and the genus region lies in the larger one, whichever class
is positive.  A unicyclic graph is admissible exactly when P = N.
Layouts and genus regions that fail this are skipped, and every
candidate that is built is admissible; ``TestTorusBalanceGate`` in the
test suite builds every ungated candidate on up to nine regions and
checks that the gate accepts exactly the admissible ones.

Candidates are coded before anything is built.  Negating every sign
exchanges a skeleton's two colorings, so one pass gives the codes of
both, and the pair gives the sign-swapped code.  WROM roots a tree
skeleton at its center, so its core is the root, or the root and vertex
1, with no leaf peeling, and its AHU codes come off the level sequence.

A genus-free tree skeleton, a sphere tree, is read as brackets
(``_bracket_codes``).  Lemma: in a canonical level sequence, where every
vertex's children come in non-increasing order of their subtrees' level
sequences, with each vertex tagged by its level parity, each subtree's
AHU code is the bracket reading of its slice: vertex i writes
``")" * (l[i-1] - l[i] + 1) + "(" + tag(l[i])``, and the last vertex
closes everything.  Proof: the reading nests each vertex's children's
readings, in the sequence's order, inside its own brackets; and at the
first difference between two sibling subtrees' sequences, the one that
goes deeper writes "(" where the other writes ")", and "(" < ")".  So
the larger level sequence has the smaller code, the canonical order is
AHU's sorted order, and nothing is sorted.  A bicentral tree reads as
the slices ``[1:m]`` and ``[0] + [m:]``, m the root's second child.
Limits: a genus region's tag can order two siblings against their
sequences (on ``[0, 1, 1]`` with the genus region at vertex 1 the
reading gives ``T(+0(-1)(-0))`` and the peel ``T(+0(-0)(-1))``), so a
genus-1 torus tree is coded by a reverse scan that sorts
(``_level_codes``); and a ring is no tree, so it is coded by the
leaf-peeling pass over index arrays (``codes_of``), which also codes
every graph read from input.  Every shape goes through ``_codes`` and
takes the code's format from ``region_graph``: its tags, adjacency lists
and tree assembly.

Each class kept is a row (``Row``): its code, its skeleton's level
sequence as ``bytes`` and a ring's closing edge, its coloring and both of
its codes, from which the CLI writes its listings (``enum_tree_rows``,
``enum_torus_rows``) and the classification table reads each class's
shape (``row_shape``); the skeleton's edges follow from the sequence
(``_sorted_edges``).  A ``RegionGraph`` is built from a row only for a
library caller (``enum_equicolored_trees``, ``enum_torus_graphs``), by
the generator-only constructor, which seeds its codes and trusts it
valid.  The test suite referees the level-sequence codes against the
peel on every tree up to fourteen vertices, with and without a genus
region, on sixteen, and on every balanced tree on eighteen
(``TestLevelCodes``), every array code on up to nine regions
(``TestArrayCodes``) and every emitted graph
(``TestGeneratedGraphsAreValid``).

Distinct free trees are never isomorphic, so the sphere classes are
emitted skeleton by skeleton, with no table of the codes seen: one class
when a skeleton's two codes agree (or the sign mode identifies them),
two otherwise, sharing the skeleton's level sequence.  Torus candidates
still go through a table of first-seen codes, since one tree skeleton
yields a candidate per genus region and one ring a candidate per closing
edge.

Torus output is per graph class: ``enum_torus_graphs`` lists the graphs,
and ``graph_slopes`` gives each one its slopes, every normalized slope up
to the bound for a unicyclic graph and none for a tree.  Nothing
slope-dependent is built per graph; ``enum_torus_classes`` is the
per-slope expansion, for callers that want one class object per slope.

All output is deterministically ordered by canonical code, so repeated
runs are byte-identical.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from math import gcd
from operator import getitem, itemgetter

from .region_graph import _TAGS, RegionGraph, RegionVertex, _adjacency, _tree_codes, codes_of
from .surfaces import DividingSetClass, Surface

TREE_CAP = 10
CURVE_CAP = 16
SLOPE_CAP = 256


# The slopes of one torus graph class in order: ``(None,)`` for a tree,
# whose curves are all contractible.
Slopes = tuple[tuple[int, int] | None, ...]


class ResourceLimitError(ValueError):
    """Raised when an enumeration request exceeds its configured cap."""


# ---------------------------------------------------------------------------
# Free trees by level sequences (WROM).  A level sequence lists each
# vertex's depth in preorder; the generator walks rooted trees in reverse
# lexicographic order and jumps over every sequence that is not the
# canonical rooting of a free tree: the root's first subtree is no taller
# than the rest of the tree, on equal heights no larger, and on equal
# sizes not lexicographically later.  Sequences are ``bytes``, one level
# per byte, so the walk's searches and copies run in C.
# ---------------------------------------------------------------------------

# Each level less one, and the levels from 1 up, as bytes.
_DOWN = bytes((level - 1) & 255 for level in range(256))
_RISE = bytes(range(1, 256))


def _next_rooted_tree(predecessor: bytes, p: int | None = None) -> bytes | None:
    """The Beyer-Hedetniemi successor of a rooted level sequence: from its
    last vertex ``p`` off level 1, the sequence repeats with the period
    that starts at ``p``'s parent."""
    if p is None:
        p = len(predecessor.rstrip(b"\x01")) - 1
        if p == 0:
            return None
    tail = len(predecessor) - p
    period = predecessor[predecessor.rfind(predecessor[p] - 1, 0, p):p]
    return predecessor[:p] + (period * tail)[:tail]


def _first_subtree_end(layout: bytes) -> int:
    """Where the root's first subtree ends: at the root's second child, or
    at the end of the sequence."""
    m = layout.find(1, 2)
    return len(layout) if m < 0 else m


def _next_tree(candidate: bytes) -> bytes:
    """``candidate`` if it is a canonical free tree, else the next one."""
    m = _first_subtree_end(candidate)
    # Heights of the root's first subtree (from its own root) and of the
    # tree without it, and their sizes.
    left_height = max(candidate[1:m]) - 1
    rest_height = max(candidate[m:], default=0)
    if rest_height > left_height:
        return candidate
    if rest_height == left_height:
        size, rest_size = m - 1, len(candidate) - m + 1
        if size < rest_size or (
            size == rest_size and candidate[1:m].translate(_DOWN) <= b"\0" + candidate[m:]
        ):
            return candidate
    p = m - 1
    new_candidate = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        new_height = max(new_candidate[1:_first_subtree_end(new_candidate)])
        new_candidate = new_candidate[:-new_height] + _RISE[:new_height]
    return new_candidate


@cache
def _path(order: int) -> bytes:
    """The level sequence of the path on ``order`` >= 2 vertices rooted at
    its center, the first free tree WROM gives and the only canonical
    sequence of a path."""
    return bytes([*range(order // 2 + 1), *range(1, (order + 1) // 2)])


def _free_trees(order: int) -> Iterator[bytes]:
    """Level sequences of the free trees on ``order`` >= 2 vertices, one
    per isomorphism class, starting from the path rooted at its center."""
    layout = _path(order)
    while layout is not None:
        layout = _next_tree(layout)
        yield layout
        layout = _next_rooted_tree(layout)


def _tree_edges(layout: bytes) -> list[tuple[int, int]]:
    """Edges of a level sequence: each vertex joins the nearest earlier
    vertex one level up, the last vertex seen on that level."""
    edges = []
    last = [0] * len(layout)
    for i, level in enumerate(layout):
        if level:
            edges.append((last[level - 1], i))
        last[level] = i
    return edges


def _sorted_edges(layout: bytes, closing: tuple[int, int] | None) -> tuple[tuple[int, int], ...]:
    """The edges of a skeleton, a level sequence and its closing edge or
    ``None``, in the order a graph keeps them."""
    edges = _tree_edges(layout)
    if closing is not None:
        edges.append(closing)
    return tuple(sorted(edges))


# Level parities by level, and their complements, as bytes: a vertex's
# sign index with even, then odd, levels positive.  ``_odd_levels`` and
# ``_coloring`` translate in C.
_PARITY = (
    bytes(level & 1 for level in range(256)),
    bytes(1 - (level & 1) for level in range(256)),
)


def _odd_levels(layout: bytes) -> int:
    """How many vertices of a level sequence lie on odd levels."""
    return layout.translate(_PARITY[0]).count(1)


# The most vertices, and so levels, a skeleton within the caps has.
_ORDER_CAP = max(2 * TREE_CAP, CURVE_CAP + 1)

# Vertex ``v``'s rows ``(v, +1, 0), (v, -1, 0), (v, +1, 1), (v, -1, 1)``
# for every id the caps allow: vertices are immutable, so emitted graphs
# share them.
_VERTEX_ROWS = [
    tuple(RegionVertex(v, sign, genus) for genus in (0, 1) for sign in (1, -1))
    for v in range(_ORDER_CAP)
]


def _coloring(layout: bytes, positive: int, genus_vertex: int | None = None) -> bytes:
    """Vertex i's index in ``_VERTEX_ROWS[i]``: 0 when its level parity is
    ``positive``, so that it is positive, else 1, and 2 more on the genus
    vertex."""
    coloring = layout.translate(_PARITY[positive])
    if genus_vertex is None:
        return coloring
    marked = bytearray(coloring)
    marked[genus_vertex] += 2
    return bytes(marked)


def _vertices(coloring: bytes) -> tuple[RegionVertex, ...]:
    """The vertices of a ``_coloring``."""
    return tuple(map(tuple.__getitem__, _VERTEX_ROWS, coloring))


# The opening of a vertex's code, ``"(" + _TAGS[sign, genus]``, by its
# genus and its level parity, with even levels positive.
_OPENINGS = tuple(tuple("(" + _TAGS[sign, genus] for sign in (1, -1)) for genus in (0, 1))

# _BRACKETS[a][b]: what a genus-free vertex on level b writes after the
# vertex before it in preorder, on level a: a ")" for each subtree that
# ends between them, then its own opening.
_BRACKETS = [
    [")" * (a - b + 1) + _OPENINGS[0][b & 1] for b in range(_ORDER_CAP)]
    for a in range(_ORDER_CAP)
]


def _bracket_code(levels: bytes) -> str:
    """AHU code of a genus-free subtree, with even levels positive, read
    off its canonical level sequence ``levels``, its root first: each
    vertex's brackets in order, then a ")" for each subtree still open.
    The module docstring proves it is the code the peel gives."""
    return "".join([
        _OPENINGS[0][levels[0] & 1],
        *map(getitem, map(_BRACKETS.__getitem__, levels), levels[1:]),
        ")" * (levels[-1] - levels[0] + 1),
    ])


def _bracket_codes(layout: bytes) -> tuple[str, str]:
    """Canonical codes of a genus-free tree skeleton with even, then odd,
    levels positive, read off its level sequence (``_bracket_code``).

    WROM roots the tree at its center with the deepest subtree first, so
    the core is the root alone, or, when the root's first subtree reaches
    deeper than the rest, vertex 1 with its subtree and the root with the
    rest.
    """
    m = _first_subtree_end(layout)
    if max(layout) > max(layout[m:], default=0):
        return _tree_codes([_bracket_code(layout[1:m]), _bracket_code(layout[:1] + layout[m:])])
    return _tree_codes([_bracket_code(layout)])


def _level_codes(layout: bytes, genus_vertex: int | None) -> tuple[str, str]:
    """Canonical codes of a tree skeleton with even, then odd, levels
    positive, from one reverse scan of its level sequence.

    Each vertex's AHU code is its opening, its children's codes sorted,
    and ``)``: the code the peel gives a stripped vertex.  The core is as
    in ``_bracket_codes``.  The scan sorts, so it also codes a tree with a
    genus region, whose tag can order siblings against the level sequence.
    """
    # pending[k]: codes of the scanned level-k vertices whose parent is not
    # scanned yet.  In preorder a vertex's children are the vertices one
    # level down between it and the next vertex on its level or above.
    height = max(layout)
    pending: list[list[str]] = [[] for _ in range(height + 2)]
    for i in range(len(layout) - 1, 0, -1):
        level = layout[i]
        opening = _OPENINGS[i == genus_vertex][level & 1]
        children = pending[level + 1]
        if children:
            children.sort()
            pending[level].append(opening + "".join(children) + ")")
            children.clear()
        else:
            pending[level].append(opening + ")")
    children = pending[1]
    core = []
    if height > max(layout[_first_subtree_end(layout):], default=0):
        core.append(children.pop())  # vertex 1, scanned last on level 1
    children.sort()
    core.append(_OPENINGS[genus_vertex == 0][0] + "".join(children) + ")")
    return _tree_codes(core)


def _codes(
    layout: bytes, closing: tuple[int, int] | None, genus_vertex: int | None
) -> tuple[str, str]:
    """Canonical codes of a skeleton, a level sequence and its closing edge
    or ``None``, with even, then odd, levels positive: the second coloring
    is the first with every sign negated.  A genus-free tree is read off
    its level sequence, a tree with a genus region scanned, and a ring
    peeled."""
    if closing is not None:
        tags = [_TAGS[1 - 2 * (level & 1), 0] for level in layout]
        return codes_of(_adjacency(len(layout), [*_tree_edges(layout), closing]), tags)
    if genus_vertex is None:
        return _bracket_codes(layout)
    return _level_codes(layout, genus_vertex)


# One listed class as the generator has it: (code, level sequence,
# closing edge or ``None``, coloring, code as tagged, code modulo the
# swap).  The first code is the class's canonical code in the listing's
# sign mode, and the coloring is ``_coloring``'s: vertex i is
# ``_VERTEX_ROWS[i][coloring[i]]``.  The sequence and the closing edge
# are the skeleton, whose edges ``_sorted_edges`` gives; the colorings of
# one skeleton share its sequence.
Row = tuple[str, bytes, tuple[int, int] | None, bytes, str, str]


def _row(
    layout: bytes,
    closing: tuple[int, int] | None,
    positive: int,
    genus_vertex: int | None,
    codes: tuple[str, str],
    modulo_swap: bool,
) -> Row:
    """The row of coloring ``positive``, whose code is ``codes[positive]``:
    negating its signs gives the other coloring."""
    swap_code = min(codes)
    code = swap_code if modulo_swap else codes[positive]
    coloring = _coloring(layout, positive, genus_vertex)
    return code, layout, closing, coloring, codes[positive], swap_code


def _graphs(rows: list[Row]) -> list[RegionGraph]:
    """The graphs of listed classes, built by the generator-only
    constructor with both codes seeded; those of one skeleton share its
    edges."""
    edges: dict = {}
    graphs = []
    for _, layout, closing, coloring, code, swap_code in rows:
        skeleton = layout, closing
        if skeleton not in edges:
            edges[skeleton] = _sorted_edges(layout, closing)
        graphs.append(
            RegionGraph._generated(_vertices(coloring), edges[skeleton], code, swap_code)
        )
    return graphs


def _class_rows(
    candidates: Iterator[tuple[bytes, tuple[int, int] | None, int | None]],
    modulo_swap: bool,
) -> list[Row]:
    """One row per class among the candidates (level sequence, closing
    edge or ``None``, genus vertex or ``None``), the first seen per code,
    sorted by code."""
    out: dict[str, Row] = {}
    for layout, closing, genus_vertex in candidates:
        codes = _codes(layout, closing, genus_vertex)
        for positive in (0,) if modulo_swap else (0, 1):
            key = min(codes) if modulo_swap else codes[positive]
            if key not in out:
                out[key] = _row(layout, closing, positive, genus_vertex, codes, modulo_swap)
    return [out[key] for key in sorted(out)]


def _tree_rows(n: int, modulo_swap: bool) -> list[Row]:
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > TREE_CAP:
        raise ResourceLimitError(f"tree enumeration capped at n={TREE_CAP}, got {n}")
    # Distinct free trees are never isomorphic, so each skeleton's classes
    # are its own: one when its two colorings' codes agree (or are
    # identified), two otherwise.
    rows = []
    for layout in _free_trees(2 * n):
        if _odd_levels(layout) != n:
            continue
        codes = _codes(layout, None, None)
        for positive in (0,) if modulo_swap or codes[0] == codes[1] else (0, 1):
            rows.append(_row(layout, None, positive, None, codes, modulo_swap))
    rows.sort(key=itemgetter(0))
    return rows


def enum_tree_rows(n: int, modulo_swap: bool = False) -> list[Row]:
    """The rows of ``enum_equicolored_trees(n, modulo_swap)``, in its
    order, with no graph built."""
    return _tree_rows(n, modulo_swap)


def enum_equicolored_trees(n: int, modulo_swap: bool = False) -> list[RegionGraph]:
    """All equicolored trees on 2n vertices, one per isomorphism class.

    With ``modulo_swap`` the two global sign orientations of each balanced
    tree are identified; without it they count separately unless some
    automorphism exchanges the color classes.  Deterministically sorted
    by canonical code.
    """
    return _graphs(_tree_rows(n, modulo_swap))


def _torus_candidates(
    max_curves: int,
) -> Iterator[tuple[bytes, tuple[int, int] | None, int | None]]:
    """Every torus skeleton the balance gate admits, as (level sequence,
    closing edge or ``None``, genus vertex or ``None``)."""
    # Trees of contractible curves around one genus-carrying region.  The
    # balance P - N = sign(genus region) needs color classes one apart in
    # size, with the genus region in the larger one.
    for nv in range(2, max_curves + 2):
        for layout in _free_trees(nv):
            odd = _odd_levels(layout)
            if abs(nv - 2 * odd) != 1:
                continue
            larger = int(2 * odd > nv)
            for genus_vertex in range(nv):
                if layout[genus_vertex] & 1 == larger:
                    yield layout, None, genus_vertex

    # One essential cycle, possibly with contractible trees attached:
    # every unicyclic graph is a spanning tree plus one closing edge, and
    # a proper 2-coloring survives exactly when the closed cycle is even,
    # i.e. when the tree path between the ends has odd length: when the
    # ends lie on different levels mod 2.  Balance needs P = N.
    for nv in range(2, max_curves + 1):
        for layout in _free_trees(nv):
            if 2 * _odd_levels(layout) != nv:
                continue
            for u in range(nv):
                for v in range(u + 1, nv):
                    if layout[u] & 1 != layout[v] & 1:
                        yield layout, (u, v), None


def check_torus_request(max_curves: int, max_p: int) -> None:
    """Reject a torus enumeration of ``max_curves`` curves and slopes up to
    ``max_p`` out of range, before any work."""
    if max_curves < 1 or max_p < 1:
        raise ValueError("max_curves and max_p must be >= 1")
    if max_curves > CURVE_CAP:
        raise ResourceLimitError(
            f"torus enumeration capped at {CURVE_CAP} curves, got {max_curves}"
        )
    if max_p > SLOPE_CAP:
        raise ResourceLimitError(f"slope bound capped at {SLOPE_CAP}, got {max_p}")


def _torus_rows(max_curves: int, modulo_swap: bool) -> list[Row]:
    check_torus_request(max_curves, 1)
    return _class_rows(_torus_candidates(max_curves), modulo_swap)


def enum_torus_rows(max_curves: int, modulo_swap: bool = False) -> list[Row]:
    """The rows of ``enum_torus_graphs(max_curves, modulo_swap)``, in its
    order, with no graph built; ``row_slopes`` gives each one's slopes."""
    return _torus_rows(max_curves, modulo_swap)


def enum_torus_graphs(max_curves: int, modulo_swap: bool = False) -> list[RegionGraph]:
    """The graph of every admissible torus class with at most ``max_curves``
    curves, one per isomorphism class, sorted by canonical code.

    Each graph is coded from arrays, then built once.
    ``graph_slopes`` gives the slopes each one is paired with.
    """
    return _graphs(_torus_rows(max_curves, modulo_swap))


@cache  # graph_slopes asks for the same bound once per graph
def _normalized_slopes(max_p: int) -> tuple[tuple[int, int], ...]:
    return tuple([
        (p, q) for p in range(1, max_p + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    ])


def graph_slopes(g: RegionGraph, max_p: int) -> Slopes:
    """The slopes a torus graph class is paired with: every normalized slope
    (p, q) with p <= ``max_p`` for a unicyclic graph, whose ring of
    essential curves carries one; ``(None,)`` for a tree, which has none.

    Admissibility depends on the graph alone, so slopes are paired last.
    """
    return _normalized_slopes(max_p) if g.edge_count == g.vertex_count else (None,)


def row_slopes(row: Row, max_p: int) -> Slopes:
    """``graph_slopes`` of a listed class's graph, from its row."""
    return (None,) if row[2] is None else _normalized_slopes(max_p)


def row_shape(row: Row) -> tuple[int, int, bool]:
    """A listed class's region count V, its curve count E, and whether it
    is a bare ring, from its row.

    A tree has one edge fewer than vertices, a ring as many.  A ring is
    bare, every region on two curves, exactly when its skeleton is a path
    and the closing edge joins the path's two ends: the bottom of its
    first branch, vertex ``V // 2``, and the last vertex, or the root on
    two regions, where there is no second branch.
    """
    layout, closing = row[1], row[2]
    order = len(layout)
    if closing is None:
        return order, order - 1, False
    ends = (order // 2 if order > 2 else 0, order - 1)
    return order, order, closing == ends and layout == _path(order)


def enum_torus_classes(
    max_curves: int, max_p: int, modulo_swap: bool = False
) -> list[DividingSetClass]:
    """All admissible torus dividing-set classes with at most ``max_curves``
    curves and slopes bounded by ``max_p``, one per isomorphism class.

    The per-slope expansion of ``enum_torus_graphs``, sorted by (canonical
    code, slope): the classes of one graph share its graph object.
    """
    check_torus_request(max_curves, max_p)
    return [
        DividingSetClass(Surface.TORUS, g, slope)
        for g in enum_torus_graphs(max_curves, modulo_swap)
        for slope in graph_slopes(g, max_p)
    ]
