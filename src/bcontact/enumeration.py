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

Candidates are coded before anything is built.  A skeleton's canonical
codes come from its level sequence's index arrays (``code_of``), one per
coloring; negating every sign exchanges the two colorings, so the pair
also gives the sign-swapped code.  A ``RegionGraph`` is built only for a
class that is emitted, by the generator-only constructor, which
validates it once and seeds its cached codes.  ``TestArrayCodes`` in the
test suite checks every array code on up to nine regions against the
graph the public constructor builds.  Each torus graph class is then
expanded by slope: a unicyclic class is paired with every normalized
slope up to the bound, all the resulting classes sharing one graph
object.

All output is deterministically ordered by canonical code, so repeated
runs are byte-identical.
"""

from __future__ import annotations

from collections.abc import Iterator
from functools import cache
from math import gcd

from .region_graph import _TAGS, RegionGraph, RegionVertex, code_of
from .surfaces import DividingSetClass, Surface

TREE_CAP = 10
CURVE_CAP = 16
SLOPE_CAP = 256


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


def _split_tree(layout: list[int]) -> tuple[list[int], list[int]]:
    """The root's first subtree, and the tree with that subtree removed."""
    m = len(layout)
    for i in range(2, len(layout)):
        if layout[i] == 1:
            m = i
            break
    left = [level - 1 for level in layout[1:m]]
    rest = [0] + layout[m:]
    return left, rest


def _next_tree(candidate: list[int]) -> list[int] | None:
    """``candidate`` if it is a canonical free tree, else the next one."""
    left, rest = _split_tree(candidate)
    left_height = max(left)
    rest_height = max(rest)
    valid = rest_height >= left_height
    if valid and rest_height == left_height:
        if len(left) > len(rest) or (len(left) == len(rest) and left > rest):
            valid = False
    if valid:
        return candidate
    p = len(left)
    new_candidate = _next_rooted_tree(candidate, p)
    if candidate[p] > 2:
        new_left, _ = _split_tree(new_candidate)
        suffix = range(1, max(new_left) + 2)
        new_candidate[-len(suffix):] = suffix
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
    vertex one level up."""
    edges = []
    stack: list[int] = []
    for i, level in enumerate(layout):
        while stack and layout[stack[-1]] >= level:
            stack.pop()
        if stack:
            edges.append((stack[-1], i))
        stack.append(i)
    return edges


def _adjacency(nv: int, edges: list[tuple[int, int]]) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(nv)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


@cache
def _vertex(v: int, sign: int, genus: int) -> RegionVertex:
    # Vertices are immutable, so emitted graphs share them.  Ids stay
    # below the largest region count the caps allow, which bounds the cache.
    return RegionVertex(v, sign, genus)


def _colored_vertices(
    layout: list[int], positive: int, genus_vertex: int | None = None
) -> tuple[RegionVertex, ...]:
    """Vertex i is positive when its level parity is ``positive``."""
    return tuple([
        _vertex(v, 1 if level & 1 == positive else -1, int(v == genus_vertex))
        for v, level in enumerate(layout)
    ])


def _codes(
    layout: list[int], edges: list[tuple[int, int]], genus_vertex: int | None
) -> tuple[str, str]:
    """Canonical codes of a skeleton with even, then odd, levels positive."""
    adj = _adjacency(len(layout), edges)
    tree = len(edges) < len(layout)
    codes = []
    for positive in (0, 1):
        tags = [_TAGS[1 if level & 1 == positive else -1, 0] for level in layout]
        if genus_vertex is not None:
            tags[genus_vertex] = _TAGS[1 if layout[genus_vertex] & 1 == positive else -1, 1]
        codes.append(code_of(adj, tags, tree))
    return codes[0], codes[1]


def _emit(
    layout: list[int],
    edges: list[tuple[int, int]],
    positive: int,
    genus_vertex: int | None,
    codes: tuple[str, str],
) -> RegionGraph:
    """The one graph built for an emitted class: validated once, with both
    codes seeded.  Coloring ``positive`` has code ``codes[positive]``, and
    negating its signs gives the other coloring."""
    return RegionGraph._generated(
        _colored_vertices(layout, positive, genus_vertex), edges, codes[positive], min(codes)
    )


def _emit_classes(
    candidates: Iterator[tuple[list[int], list[tuple[int, int]], int | None]],
    modulo_swap: bool,
) -> list[RegionGraph]:
    """One graph per class among the candidates (level sequence, edges,
    genus vertex or ``None``), the first seen per code, sorted by code."""
    out: dict[str, tuple] = {}
    for layout, edges, genus_vertex in candidates:
        codes = _codes(layout, edges, genus_vertex)
        for positive in (0,) if modulo_swap else (0, 1):
            key = min(codes) if modulo_swap else codes[positive]
            if key not in out:
                out[key] = (layout, edges, positive, genus_vertex, codes)
    return [_emit(*out[key]) for key in sorted(out)]


def check_tree_request(n: int) -> None:
    """Reject a tree enumeration of 2n vertices out of range, before any work."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > TREE_CAP:
        raise ResourceLimitError(f"tree enumeration capped at n={TREE_CAP}, got {n}")


def enum_equicolored_trees(n: int, modulo_swap: bool = False) -> list[RegionGraph]:
    """All equicolored trees on 2n vertices, one per isomorphism class.

    With ``modulo_swap`` the two global sign orientations of each balanced
    tree are identified; without it they count separately unless some
    automorphism exchanges the color classes.  Deterministically sorted
    by canonical code.
    """
    check_tree_request(n)
    # Distinct free trees are never isomorphic, so the first class seen per
    # code is the only one: a skeleton's two colorings are one class exactly
    # when their codes agree.
    return _emit_classes(
        (
            (layout, _tree_edges(layout), None)
            for layout in _free_trees(2 * n)
            if sum(level & 1 for level in layout) == n
        ),
        modulo_swap,
    )


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
            odd = sum(level & 1 for level in layout)
            if abs(nv - 2 * odd) != 1:
                continue
            larger = int(2 * odd > nv)
            edges = _tree_edges(layout)
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
            if 2 * sum(level & 1 for level in layout) != nv:
                continue
            edges = _tree_edges(layout)
            for u in range(nv):
                for v in range(u + 1, nv):
                    if layout[u] & 1 != layout[v] & 1:
                        yield layout, edges + [(u, v)], None


def _normalized_slopes(max_p: int) -> list[tuple[int, int]]:
    return [
        (p, q) for p in range(1, max_p + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    ]


def enum_torus_classes(
    max_curves: int, max_p: int, modulo_swap: bool = False
) -> list[DividingSetClass]:
    """All admissible torus dividing-set classes with at most ``max_curves``
    curves and slopes bounded by ``max_p``, one per isomorphism class.

    Sorted by (canonical code, slope).  Each graph class is coded from
    arrays, then built and validated once; a unicyclic one is paired with
    every normalized slope, all its classes sharing the one graph object.
    """
    if max_curves < 1 or max_p < 1:
        raise ValueError("max_curves and max_p must be >= 1")
    if max_curves > CURVE_CAP:
        raise ResourceLimitError(
            f"torus enumeration capped at {CURVE_CAP} curves, got {max_curves}"
        )
    if max_p > SLOPE_CAP:
        raise ResourceLimitError(f"slope bound capped at {SLOPE_CAP}, got {max_p}")

    graphs = _emit_classes(_torus_candidates(max_curves), modulo_swap)

    # Admissibility depends on the graph alone, so slopes are paired last.
    slopes = _normalized_slopes(max_p)
    return [
        DividingSetClass(Surface.TORUS, g, slope)
        for g in graphs
        for slope in (slopes if g.edge_count == g.vertex_count else (None,))
    ]
