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
both, and the pair gives the sign-swapped code.  A tree skeleton, a
sphere tree or a genus-1 torus tree, is coded in one reverse scan of its
level sequence (``_level_codes``): WROM roots it at its center, so the
AHU codes of its vertices, read off the scan, meet at the core with no
leaf peeling.  A ring is coded by the leaf-peeling pass over index
arrays (``codes_of``), which also codes every graph read from input.
Both shapes go through ``_codes`` and take the code's format from
``region_graph``: its tags, adjacency lists and tree assembly.

Each class kept is a row (``Row``): its code, its skeleton's edges, its
coloring and both of its codes, from which the CLI writes its listings
(``enum_tree_rows``, ``enum_torus_rows``).  A ``RegionGraph`` is built
from a row only for a library caller (``enum_equicolored_trees``,
``enum_torus_graphs``), by the generator-only constructor, which seeds
its codes and trusts it valid.  The test suite referees the level-sequence codes against the peel on
every tree up to fourteen vertices, with and without a genus region, and
on sixteen (``TestLevelCodes``), every array code on up to nine regions
(``TestArrayCodes``) and every emitted graph
(``TestGeneratedGraphsAreValid``).

Distinct free trees are never isomorphic, so the sphere classes are
emitted skeleton by skeleton, with no table of the codes seen: one class
when a skeleton's two codes agree (or the sign mode identifies them),
two otherwise, sharing the skeleton's edges.  Torus candidates still go
through a table of first-seen codes, since one tree skeleton yields a
candidate per genus region and one ring a candidate per closing edge.

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
from operator import itemgetter

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
# sizes not lexicographically later.
# ---------------------------------------------------------------------------


def _next_rooted_tree(predecessor: list[int], p: int | None = None) -> list[int] | None:
    """The Beyer-Hedetniemi successor of a rooted level sequence."""
    if p is None:
        p = len(predecessor) - 1
        while predecessor[p] == 1:
            p -= 1
    if p == 0:
        return None
    q = p - 1
    while predecessor[q] != predecessor[p] - 1:
        q -= 1
    result = list(predecessor)
    for i in range(p, len(result)):
        result[i] = result[i - p + q]
    return result


def _first_subtree_end(layout: list[int]) -> int:
    """Where the root's first subtree ends: at the root's second child, or
    at the end of the sequence."""
    try:
        return layout.index(1, 2)
    except ValueError:
        return len(layout)


def _next_tree(candidate: list[int]) -> list[int] | None:
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
            size == rest_size
            and [level - 1 for level in candidate[1:m]] <= [0, *candidate[m:]]
        ):
            return candidate
    p = m - 1
    new_candidate = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        new_height = max(new_candidate[1:_first_subtree_end(new_candidate)])
        new_candidate[-new_height:] = range(1, new_height + 1)
    return new_candidate


def _free_trees(order: int) -> Iterator[list[int]]:
    """Level sequences of the free trees on ``order`` >= 2 vertices, one
    per isomorphism class, starting from the path rooted at its center."""
    layout = list(range(order // 2 + 1)) + list(range(1, (order + 1) // 2))
    while layout is not None:
        layout = _next_tree(layout)
        if layout is not None:
            yield layout
            layout = _next_rooted_tree(layout)


def _tree_edges(layout: list[int]) -> list[tuple[int, int]]:
    """Edges of a level sequence: each vertex joins the nearest earlier
    vertex one level up, the last vertex seen on that level."""
    edges = []
    last = [0] * len(layout)
    for i, level in enumerate(layout):
        if level:
            edges.append((last[level - 1], i))
        last[level] = i
    return edges


def _sorted_edges(layout: list[int]) -> tuple[tuple[int, int], ...]:
    """The edges of a level sequence in the order a graph keeps them."""
    return tuple(sorted(_tree_edges(layout)))


# Level parities by level, and their complements, as bytes: a vertex's
# sign index with even, then odd, levels positive.  ``_odd_levels`` and
# ``_coloring`` translate in C.
_PARITY = (
    bytes(level & 1 for level in range(256)),
    bytes(1 - (level & 1) for level in range(256)),
)


def _odd_levels(layout: list[int]) -> int:
    """How many vertices of a level sequence lie on odd levels."""
    return bytes(layout).translate(_PARITY[0]).count(1)


# Vertex ``v``'s rows ``(v, +1, 0), (v, -1, 0), (v, +1, 1), (v, -1, 1)``
# for every id the caps allow: vertices are immutable, so emitted graphs
# share them.
_VERTEX_ROWS = [
    tuple(RegionVertex(v, sign, genus) for genus in (0, 1) for sign in (1, -1))
    for v in range(max(2 * TREE_CAP, CURVE_CAP + 1))
]


def _coloring(layout: list[int], positive: int, genus_vertex: int | None = None) -> bytes:
    """Vertex i's index in ``_VERTEX_ROWS[i]``: 0 when its level parity is
    ``positive``, so that it is positive, else 1, and 2 more on the genus
    vertex."""
    coloring = bytes(layout).translate(_PARITY[positive])
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


def _level_codes(layout: list[int], genus_vertex: int | None) -> tuple[str, str]:
    """Canonical codes of a tree skeleton with even, then odd, levels
    positive, from one reverse scan of its level sequence.

    Each vertex's AHU code is its opening, its children's codes sorted,
    and ``)``: the code the peel gives a stripped vertex.  WROM roots the
    tree at its center with the deepest subtree first, so the core is the
    root alone, or, when the root's first subtree reaches deeper than the
    rest, the root without that subtree and vertex 1.
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
    layout: list[int], edges: tuple[tuple[int, int], ...], genus_vertex: int | None
) -> tuple[str, str]:
    """Canonical codes of a skeleton with even, then odd, levels positive:
    the second coloring is the first with every sign negated.  A tree is
    coded from its level sequence, a ring by the peel over its edges."""
    if len(edges) < len(layout):
        return _level_codes(layout, genus_vertex)
    tags = [_TAGS[1 - 2 * (level & 1), 0] for level in layout]
    return codes_of(_adjacency(len(layout), edges), tags)


# One listed class as the generator has it: (code, sorted edges,
# coloring, code as tagged, code modulo the swap).  The first code is the
# class's canonical code in the listing's sign mode, and the coloring is
# ``_coloring``'s: vertex i is ``_VERTEX_ROWS[i][coloring[i]]``.  The
# colorings of one skeleton share its edges tuple.
Row = tuple[str, tuple[tuple[int, int], ...], bytes, str, str]


def _row(
    layout: list[int],
    edges: tuple[tuple[int, int], ...],
    positive: int,
    genus_vertex: int | None,
    codes: tuple[str, str],
    modulo_swap: bool,
) -> Row:
    """The row of coloring ``positive``, whose code is ``codes[positive]``:
    negating its signs gives the other coloring."""
    swap_code = min(codes)
    code = swap_code if modulo_swap else codes[positive]
    return code, edges, _coloring(layout, positive, genus_vertex), codes[positive], swap_code


def _graph(row: Row) -> RegionGraph:
    """The graph of a listed class, built by the generator-only
    constructor with both codes seeded."""
    _, edges, coloring, code, swap_code = row
    return RegionGraph._generated(_vertices(coloring), edges, code, swap_code)


def _class_rows(
    candidates: Iterator[tuple[list[int], tuple[tuple[int, int], ...], int | None]],
    modulo_swap: bool,
) -> list[Row]:
    """One row per class among the candidates (level sequence, sorted
    edges, genus vertex or ``None``), the first seen per code, sorted by
    code."""
    out: dict[str, Row] = {}
    for layout, edges, genus_vertex in candidates:
        codes = _codes(layout, edges, genus_vertex)
        for positive in (0,) if modulo_swap else (0, 1):
            key = min(codes) if modulo_swap else codes[positive]
            if key not in out:
                out[key] = _row(layout, edges, positive, genus_vertex, codes, modulo_swap)
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
        edges = _sorted_edges(layout)
        codes = _codes(layout, edges, None)
        for positive in (0,) if modulo_swap or codes[0] == codes[1] else (0, 1):
            rows.append(_row(layout, edges, positive, None, codes, modulo_swap))
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
    return list(map(_graph, _tree_rows(n, modulo_swap)))


def _torus_candidates(
    max_curves: int,
) -> Iterator[tuple[list[int], list[tuple[int, int]], int | None]]:
    """Every torus skeleton the balance gate admits, as (level sequence,
    edges, genus vertex or ``None``)."""
    # Trees of contractible curves around one genus-carrying region.  The
    # balance P - N = sign(genus region) needs color classes one apart in
    # size, with the genus region in the larger one.
    for nv in range(2, max_curves + 2):
        for layout in _free_trees(nv):
            odd = _odd_levels(layout)
            if abs(nv - 2 * odd) != 1:
                continue
            larger = int(2 * odd > nv)
            edges = _sorted_edges(layout)
            for genus_vertex in range(nv):
                if layout[genus_vertex] & 1 == larger:
                    yield layout, edges, genus_vertex

    # One essential cycle, possibly with contractible trees attached:
    # every unicyclic graph is a spanning tree plus one closing edge, and
    # a proper 2-coloring survives exactly when the closed cycle is even,
    # i.e. when the tree path between the ends has odd length: when the
    # ends lie on different levels mod 2.  Balance needs P = N.
    for nv in range(2, max_curves + 1):
        for layout in _free_trees(nv):
            if 2 * _odd_levels(layout) != nv:
                continue
            edges = _tree_edges(layout)
            for u in range(nv):
                for v in range(u + 1, nv):
                    if layout[u] & 1 != layout[v] & 1:
                        yield layout, tuple(sorted([*edges, (u, v)])), None


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
    return list(map(_graph, _torus_rows(max_curves, modulo_swap)))


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
    return _normalized_slopes(max_p) if len(row[1]) == len(row[2]) else (None,)


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
