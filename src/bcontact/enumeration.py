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
Each torus graph class is built, checked and coded once, and only then
expanded by slope: a unicyclic class is paired with every normalized
slope up to the bound, all the resulting classes sharing one graph
object.

All output is deterministically ordered by canonical code, so repeated
runs are byte-identical.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import gcd

from .region_graph import RegionGraph, RegionVertex, canonical_code
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


def _colored_graph(
    layout: list[int],
    edges: list[tuple[int, int]],
    positive_color: int,
    genus_vertex: int | None = None,
) -> RegionGraph:
    verts = tuple(
        RegionVertex(
            v,
            1 if level & 1 == positive_color else -1,
            1 if v == genus_vertex else 0,
        )
        for v, level in enumerate(layout)
    )
    return RegionGraph(verts, edges)


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
    out: dict[str, RegionGraph] = {}
    for layout in _free_trees(2 * n):
        if sum(level & 1 for level in layout) != n:
            continue
        edges = _tree_edges(layout)
        orientations = (0,) if modulo_swap else (0, 1)
        for positive in orientations:
            g = _colored_graph(layout, edges, positive)
            out.setdefault(canonical_code(g, modulo_swap), g)
    return [out[code] for code in sorted(out)]


def _normalized_slopes(max_p: int) -> list[tuple[int, int]]:
    return [
        (p, q) for p in range(1, max_p + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    ]


def enum_torus_classes(
    max_curves: int, max_p: int, modulo_swap: bool = False
) -> list[DividingSetClass]:
    """All admissible torus dividing-set classes with at most ``max_curves``
    curves and slopes bounded by ``max_p``, one per isomorphism class.

    Sorted by (canonical code, slope).  Each graph class is built, checked
    and coded once; a unicyclic one is then paired with every normalized
    slope, all its classes sharing the one graph object.
    """
    if max_curves < 1 or max_p < 1:
        raise ValueError("max_curves and max_p must be >= 1")
    if max_curves > CURVE_CAP:
        raise ResourceLimitError(
            f"torus enumeration capped at {CURVE_CAP} curves, got {max_curves}"
        )
    if max_p > SLOPE_CAP:
        raise ResourceLimitError(f"slope bound capped at {SLOPE_CAP}, got {max_p}")

    out: dict[str, RegionGraph] = {}

    # Trees of contractible curves around one genus-carrying region.  The
    # balance P - N = sign(genus region) needs color classes one apart in
    # size, with the genus region in the larger one.
    for nv in range(2, max_curves + 2):
        for layout in _free_trees(nv):
            odd = sum(level & 1 for level in layout)
            if abs(nv - 2 * odd) != 1:
                continue
            larger = int(2 * odd > nv)
            genus_vertices = [v for v in range(nv) if layout[v] & 1 == larger]
            edges = _tree_edges(layout)
            for positive in (0,) if modulo_swap else (0, 1):
                for genus_vertex in genus_vertices:
                    g = _colored_graph(layout, edges, positive, genus_vertex)
                    out.setdefault(canonical_code(g, modulo_swap), g)

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
                    if layout[u] & 1 == layout[v] & 1:
                        continue
                    closed = edges + [(u, v)]
                    for positive in (0,) if modulo_swap else (0, 1):
                        g = _colored_graph(layout, closed, positive)
                        out.setdefault(canonical_code(g, modulo_swap), g)

    # Admissibility depends on the graph alone, so slopes are paired last.
    slopes = _normalized_slopes(max_p)
    return [
        DividingSetClass(Surface.TORUS, g, slope)
        for g in (out[code] for code in sorted(out))
        for slope in (slopes if g.edge_count == g.vertex_count else (None,))
    ]
