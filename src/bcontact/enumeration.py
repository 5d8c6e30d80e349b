"""Generation of admissible dividing-set classes up to isomorphism.

Sphere classes are equicolored trees: the unlabeled tree skeletons come
from networkx's level-sequence enumerator (one representative per
isomorphism class, no filtering), each balanced skeleton is colored by
its unique bipartition, and the two sign orientations are kept or merged
according to the sign mode.

Torus classes compose three shapes and filter uniformly afterwards:
trees carrying one genus-1 region (all curves contractible), and
unicyclic graphs (a ring of essential curves, possibly with contractible
trees attached) built as tree-plus-one-edge.  Admissibility (the Euler
pairing balance) is the only filter beyond embeddability; it is cheap and
depends on the graph alone.  So each torus graph class is built, checked
and coded once, and only then expanded by slope: a unicyclic class is
paired with every normalized slope up to the bound, all the resulting
classes sharing one graph object.

All output is deterministically ordered by canonical code, so repeated
runs are byte-identical.
"""

from __future__ import annotations

from math import gcd

import networkx as nx

from .admissibility import is_admissible
from .region_graph import RegionGraph, RegionVertex, canonical_code
from .surfaces import S3_T2, DividingSetClass, Surface, check_embeddable

DEFAULT_TREE_CAP = 10
DEFAULT_CURVE_CAP = 16
DEFAULT_SLOPE_CAP = 256


class ResourceLimitError(ValueError):
    """Raised when an enumeration request exceeds its configured cap."""


def _bipartition(tree: nx.Graph) -> dict[int, int]:
    color = {0: 0}
    stack = [0]
    while stack:
        u = stack.pop()
        for w in tree[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
    return color


def _colored_graph(
    tree: nx.Graph, color: dict[int, int], positive_color: int, genus_vertex: int | None = None
) -> RegionGraph:
    verts = tuple(
        RegionVertex(
            v,
            1 if color[v] == positive_color else -1,
            1 if v == genus_vertex else 0,
        )
        for v in sorted(tree)
    )
    return RegionGraph(verts, tuple(tree.edges()))


def check_tree_request(n: int, max_n: int = DEFAULT_TREE_CAP) -> None:
    """Reject a tree enumeration of 2n vertices out of range, before any work."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > max_n:
        raise ResourceLimitError(f"tree enumeration capped at n={max_n}, got {n}")


def enum_equicolored_trees(
    n: int, modulo_swap: bool = False, max_n: int = DEFAULT_TREE_CAP
) -> list[RegionGraph]:
    """All equicolored trees on 2n vertices, one per isomorphism class.

    With ``modulo_swap`` the two global sign orientations of each balanced
    tree are identified; without it they count separately unless some
    automorphism exchanges the color classes.  Deterministically sorted
    by canonical code.
    """
    check_tree_request(n, max_n)
    out: dict[str, RegionGraph] = {}
    for tree in nx.nonisomorphic_trees(2 * n):
        color = _bipartition(tree)
        if sum(color.values()) != n:
            continue
        orientations = (0,) if modulo_swap else (0, 1)
        for positive in orientations:
            g = _colored_graph(tree, color, positive)
            out.setdefault(canonical_code(g, modulo_swap), g)
    return [out[code] for code in sorted(out)]


def _normalized_slopes(max_p: int) -> list[tuple[int, int]]:
    return [
        (p, q) for p in range(1, max_p + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    ]


def _admissible(d: DividingSetClass) -> bool:
    return check_embeddable(d) is None and bool(is_admissible(S3_T2, d))


def enum_torus_classes(
    max_curves: int,
    max_p: int,
    modulo_swap: bool = False,
    max_curves_cap: int = DEFAULT_CURVE_CAP,
    max_p_cap: int = DEFAULT_SLOPE_CAP,
) -> list[DividingSetClass]:
    """All admissible torus dividing-set classes with at most ``max_curves``
    curves and slopes bounded by ``max_p``, one per isomorphism class.

    Sorted by (canonical code, slope).  Each graph class is built, checked
    and coded once; a unicyclic one is then paired with every normalized
    slope, all its classes sharing the one graph object.
    """
    if max_curves < 1 or max_p < 1:
        raise ValueError("max_curves and max_p must be >= 1")
    if max_curves > max_curves_cap:
        raise ResourceLimitError(
            f"torus enumeration capped at {max_curves_cap} curves, got {max_curves}"
        )
    if max_p > max_p_cap:
        raise ResourceLimitError(
            f"slope bound capped at {max_p_cap}, got {max_p}"
        )

    out: dict[str, RegionGraph] = {}

    # Trees of contractible curves around one genus-carrying region.
    for nv in range(2, max_curves + 2):
        for tree in nx.nonisomorphic_trees(nv):
            color = _bipartition(tree)
            for positive in (0,) if modulo_swap else (0, 1):
                for genus_vertex in range(nv):
                    g = _colored_graph(tree, color, positive, genus_vertex)
                    if _admissible(DividingSetClass(Surface.TORUS, g, None)):
                        out.setdefault(canonical_code(g, modulo_swap), g)

    # One essential cycle, possibly with contractible trees attached:
    # every unicyclic graph is a spanning tree plus one closing edge, and
    # a proper 2-coloring survives exactly when the closed cycle is even.
    for nv in range(2, max_curves + 1):
        for tree in nx.nonisomorphic_trees(nv):
            color = _bipartition(tree)
            dist = dict(nx.all_pairs_shortest_path_length(tree))
            for u in range(nv):
                for v in range(u + 1, nv):
                    if dist[u][v] % 2 == 0:
                        continue
                    closed = nx.MultiGraph(tree)
                    closed.add_edge(u, v)
                    for positive in (0,) if modulo_swap else (0, 1):
                        g = RegionGraph(
                            tuple(
                                RegionVertex(w, 1 if color[w] == positive else -1, 0)
                                for w in sorted(closed)
                            ),
                            tuple((a, b) for a, b, _ in closed.edges(keys=True)),
                        )
                        if _admissible(DividingSetClass(Surface.TORUS, g, (1, 1))):
                            out.setdefault(canonical_code(g, modulo_swap), g)

    # Admissibility depends on the graph alone (unicyclic graphs are tested
    # with the placeholder slope (1, 1)), so slopes are paired last.
    slopes = _normalized_slopes(max_p)
    return [
        DividingSetClass(Surface.TORUS, g, slope)
        for g in (out[code] for code in sorted(out))
        for slope in (slopes if g.edge_count == g.vertex_count else (None,))
    ]
