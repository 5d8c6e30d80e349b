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

Candidates are coded before anything is built, from the level sequence
alone; no row reaches the leaf peel (``codes_of``), which codes
``RegionGraph`` objects only.  Negating every sign exchanges a
skeleton's two colorings, so one pass gives the codes of both, and the
pair gives the sign-swapped code.  WROM roots a tree skeleton at its
center, so its core is the root, or the root and vertex 1, with no leaf
peeling.

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

A torus skeleton is coded once (``_skeleton_codes``): each vertex's
subtree code, its children already in sorted order by the lemma.  Its
candidates are put together from those codes.  A genus region's tag can
order two siblings against their sequences (on ``[0, 1, 1]`` with the
genus region at vertex 1 the reading gives ``T(+0(-1)(-0))`` and the peel
``T(+0(-0)(-1))``), so a genus-1 tree recodes the genus region and its
ancestors, sorting each code from below in among its siblings' codes
(``_genus_codes``).  A ring's cycle is the tree path between the closing
edge's ends; each cycle vertex is coded by its neighbors off the cycle:
its other children and, at the ends' lowest common ancestor, the rest of
the tree above it, re-rooted at its parent (``_ring_codes``); the least
rotation or reflection of those codes is the ring's code, as for the peel.
Every shape goes through ``_codes`` and takes the code's format from
``region_graph``: its tags and its tree and cycle assembly.

A swap of twin subtrees, equal subtrees of adjacent siblings, is an
automorphism of the skeleton that keeps levels, so it maps a candidate to
one with the same codes.  A candidate that a twin swap moves to an
earlier candidate of its skeleton is skipped (``_twin_windows``): it
could never be the first seen with its code.  At 14 curves that skips
25,627 of the 88,239 candidates, a third of the rings.

Each class kept is a row (``Row``): its code, its skeleton's level
sequence as ``bytes`` and a ring's closing edge, and its coloring (one
``bytes`` object per distinct coloring of a listing), from which the CLI
writes its listings (``enum_tree_rows``, ``enum_torus_rows``) and the
classification table reads each class's shape (``row_shape``); the
skeleton's edges follow from the sequence (``_sorted_edges``).  A
``RegionGraph`` is built from a row only for a library caller
(``enum_equicolored_trees``, ``enum_torus_graphs``), by its constructor,
which checks it; its codes come from the peel on first use, as for any
graph.  The test suite referees the level-sequence codes against the
peel on every tree up to fourteen vertices, with and without a genus
region, on sixteen, and on every balanced tree on eighteen
(``TestLevelCodes``), on every ring candidate up to twelve curves, and
the twin skip against the full candidate stream (``TestRingCodes``),
every array code on up to nine regions (``TestArrayCodes``) and every
listed class of the library callers (``TestGeneratedGraphsAreValid``).

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

from bisect import insort
from collections.abc import Iterator
from functools import cache, lru_cache
from math import gcd
from operator import getitem, itemgetter

from .region_graph import (
    _SWAP_SIGNS,
    _TAGS,
    RegionGraph,
    RegionVertex,
    _cycle_codes,
    _tree_codes,
)
from .surfaces import DividingSetClass, Surface

TREE_CAP = 10
CURVE_CAP = 16
SLOPE_CAP = 256


# The slopes of one torus graph class in order: ``(None,)`` for a tree,
# whose curves are all contractible.
Slopes = tuple[tuple[int, int] | None, ...]


class ResourceLimitError(ValueError):
    """Raised when an enumeration request exceeds its configured cap."""


def _check_ints(**sizes: int) -> None:
    """Reject a size that is not an ``int``: a ``bool`` is not one, nor is
    a float, even one equal to an integer."""
    for name, size in sizes.items():
        if type(size) is not int:
            raise ValueError(f"{name}={size!r} is not an integer")


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
    rest.  Each vertex writes its 3-character opening and one ``)``, so
    vertex 1's code is the ``4 (m - 1)`` characters after the root's
    opening in the reading of the whole tree, and the root's is the
    rest.  The core's order in ``_tree_codes`` is known without a sort:
    the root's code opens ``(+``, which sorts before vertex 1's ``(-``,
    and after it once the signs are negated.
    """
    code = _bracket_code(layout)
    m = _first_subtree_end(layout)
    if max(layout) > max(layout[m:], default=0):
        end = 4 * m - 1
        root, first = code[:3] + code[end:], code[3:end]
        swapped = first.translate(_SWAP_SIGNS) + root.translate(_SWAP_SIGNS)
        return "T" + root + first, "T" + swapped
    return "T" + code, "T" + code.translate(_SWAP_SIGNS)


@lru_cache(maxsize=1)  # the candidates of one skeleton come in a run
def _skeleton_codes(layout: bytes):
    """Each vertex's parent (the root's is 0), children, opening and the
    code of its subtree (``down``), with even levels positive, from one
    pass down a tree skeleton's level sequence and one back up.

    The children come in the sequence's order, which is the sorted order
    of their ``down`` codes (the bracket lemma), so nothing is sorted.
    The skeleton's candidates share the lists, so none of them changes one.
    """
    order = len(layout)
    parent = [0] * order
    children: list[list[int]] = [[] for _ in range(order)]
    last = [0] * order
    for i in range(1, order):
        level = layout[i]
        parent[i] = p = last[level - 1]
        children[p].append(i)
        last[level] = i
    opening = [_OPENINGS[0][level & 1] for level in layout]
    down = [""] * order
    for i in range(order - 1, -1, -1):
        down[i] = opening[i] + "".join([down[j] for j in children[i]]) + ")"
    return parent, children, opening, down


def _twin_windows(layout: bytes) -> tuple[list[int], list[int]]:
    """For each vertex v, the window ``lo[v] <= u < hi[v]``: the slice of
    the previous sibling of the innermost later twin whose subtree holds
    v, or ``[0, order)`` when v lies in no later twin's subtree.

    A later twin is a vertex c whose previous sibling s has an equal
    subtree, so exchanging their slices of the level sequence is a
    level-preserving automorphism that moves the indices in c's slice
    down.  The torus generator keeps a candidate (u, v), u < v, only when
    u lies in no later twin's subtree and in v's window, and a genus
    region only when it lies in no later twin's subtree.  The README's
    "Codes read off level sequences" proves that the skip keeps every
    first-seen class.
    """
    order = len(layout)
    parent, _, _, down = _skeleton_codes(layout)
    lo, hi = [0] * order, [order] * order
    last_child = [0] * order  # 0: no child yet
    for c in range(1, order):
        p = parent[c]
        s, last_child[p] = last_child[p], c
        lo[c], hi[c] = (s, c) if s and down[s] == down[c] else (lo[p], hi[p])
    return lo, hi


def _genus_codes(layout: bytes, g: int) -> tuple[str, str]:
    """Canonical codes of a tree skeleton with even, then odd, levels
    positive and the genus region at vertex g.

    Only g and its ancestors code otherwise than in the genus-free tree:
    g opens with its genus tag, and each ancestor's code is its opening,
    its other children's ``down`` codes with the code from below sorted
    in, and ``)``.  The core is as in ``_bracket_codes``: when it is two
    vertices, the root's side leaves out vertex 1 (``cut``), and the side
    without the genus region keeps its genus-free code.
    """
    parent, children, opening, down = _skeleton_codes(layout)
    m = _first_subtree_end(layout)
    cut = 1 if max(layout) > max(layout[m:], default=0) else 0
    top = 1 if cut and 0 < g < m else 0
    # The root's side past its opening; each code's opening is 3 long.
    root_rest = "".join([down[j] for j in children[0][cut:]]) + ")"
    code = _OPENINGS[1][layout[g] & 1] + (down[g][3:] if g else root_rest)
    while g != top:
        p = parent[g]
        rest = [down[j] for j in children[p] if j != g and (p or j != cut)]
        insort(rest, code)
        code = opening[p] + "".join(rest) + ")"
        g = p
    if not cut:
        return _tree_codes([code])
    return _tree_codes([code, opening[0] + root_rest if top else down[1]])


@lru_cache(maxsize=1)
def _ring_skeleton(layout: bytes):
    """``_skeleton_codes`` and, for each vertex, its parent's code with its
    subtree cut off (``without``) and the code of the tree without its
    subtree, rooted at its parent (``up``): the codes a ring's cycle
    vertices are made of, for every closing edge of the skeleton."""
    parent, children, opening, down = _skeleton_codes(layout)
    order = len(layout)
    without = [""] * order
    up = [""] * order
    for i in range(1, order):  # in preorder, so a parent's up code is made first
        p = parent[i]
        rest = [down[j] for j in children[p] if j != i]
        without[i] = opening[p] + "".join(rest) + ")"
        if p:
            insort(rest, up[p])
        up[i] = opening[p] + "".join(rest) + ")"
    return parent, children, opening, down, without, up


def _ring_codes(layout: bytes, u: int, v: int) -> tuple[str, str]:
    """Canonical codes of the tree skeleton ``layout`` closed by the edge
    (u, v), with even, then odd, levels positive.

    The cycle is the tree path from u up to the ends' lowest common
    ancestor and down to v.  A cycle vertex's code is its opening, the
    codes of its neighbors off the cycle, sorted, and ``)``: below the
    ancestor that is its ``without`` code on the side of its cycle child,
    or its ``down`` code at an end; at the ancestor, its children off the
    cycle and, unless it is the root, its ``up`` code.
    """
    parent, children, opening, down, without, up = _ring_skeleton(layout)
    x, y = u, v
    below_x = below_y = -1  # the cycle child of x, of y
    side_x: list[str] = []
    side_y: list[str] = []
    while x != y:
        if layout[x] >= layout[y]:
            side_x.append(down[x] if below_x < 0 else without[below_x])
            below_x, x = x, parent[x]
        else:
            side_y.append(down[y] if below_y < 0 else without[below_y])
            below_y, y = y, parent[y]
    rest = [down[j] for j in children[x] if j != below_x and j != below_y]
    if x:
        insort(rest, up[x])
    side_x.append(opening[x] + "".join(rest) + ")")
    side_x += reversed(side_y)
    return _cycle_codes(side_x)


def _codes(
    layout: bytes, closing: tuple[int, int] | None, genus_vertex: int | None
) -> tuple[str, str]:
    """Canonical codes of a skeleton, a level sequence and its closing edge
    or ``None``, with even, then odd, levels positive: the second coloring
    is the first with every sign negated.  A genus-free tree is read off
    its level sequence, and a tree with a genus region or a ring is put
    together from its skeleton's codes (``_skeleton_codes``)."""
    if closing is not None:
        return _ring_codes(layout, *closing)
    if genus_vertex is None:
        return _bracket_codes(layout)
    return _genus_codes(layout, genus_vertex)


# One listed class as the generator has it: (code, level sequence,
# closing edge or ``None``, coloring).  The code is the class's canonical
# code in the listing's sign mode, and the coloring is ``_coloring``'s:
# vertex i is ``_VERTEX_ROWS[i][coloring[i]]``.  The sequence and the
# closing edge are the skeleton, whose edges ``_sorted_edges`` gives; the
# colorings of one skeleton share its sequence.
Row = tuple[str, bytes, tuple[int, int] | None, bytes]


def _graphs(rows: list[Row]) -> list[RegionGraph]:
    """The graphs of listed classes, each built and checked by its
    constructor; their codes come from the peel on first use."""
    return [
        RegionGraph(_vertices(coloring), _sorted_edges(layout, closing))
        for _, layout, closing, coloring in rows
    ]


def _class_rows(
    candidates: Iterator[tuple[bytes, tuple[int, int] | None, int | None]],
    modulo_swap: bool,
) -> list[Row]:
    """One row per class among the candidates (level sequence, closing
    edge or ``None``, genus vertex or ``None``), the first seen per code,
    sorted by code; rows with one coloring share its bytes."""
    out: dict[str, Row] = {}
    colorings: dict[bytes, bytes] = {}
    for layout, closing, genus_vertex in candidates:
        codes = _codes(layout, closing, genus_vertex)
        for positive in (0,) if modulo_swap else (0, 1):
            code = min(codes) if modulo_swap else codes[positive]
            if code not in out:
                coloring = _coloring(layout, positive, genus_vertex)
                coloring = colorings.setdefault(coloring, coloring)
                out[code] = code, layout, closing, coloring
    return [out[code] for code in sorted(out)]


def enum_tree_rows(n: int, modulo_swap: bool = False) -> list[Row]:
    """The rows of ``enum_equicolored_trees(n, modulo_swap)``, in its
    order, with no graph built."""
    _check_ints(n=n)
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > TREE_CAP:
        raise ResourceLimitError(f"tree enumeration capped at n={TREE_CAP}, got {n}")
    # Distinct free trees are never isomorphic, so each skeleton's classes
    # are its own: one when its two colorings' codes agree (or are
    # identified), two otherwise.  Rows with one coloring share its bytes.
    rows = []
    colorings: dict[bytes, bytes] = {}
    for layout in _free_trees(2 * n):
        if _odd_levels(layout) != n:
            continue
        codes = _codes(layout, None, None)
        for positive in (0,) if modulo_swap or codes[0] == codes[1] else (0, 1):
            coloring = _coloring(layout, positive)
            coloring = colorings.setdefault(coloring, coloring)
            code = min(codes) if modulo_swap else codes[positive]
            rows.append((code, layout, None, coloring))
    rows.sort(key=itemgetter(0))
    return rows


def enum_equicolored_trees(n: int, modulo_swap: bool = False) -> list[RegionGraph]:
    """All equicolored trees on 2n vertices, one per isomorphism class.

    With ``modulo_swap`` the two global sign orientations of each balanced
    tree are identified; without it they count separately unless some
    automorphism exchanges the color classes.  Deterministically sorted
    by canonical code.
    """
    return _graphs(enum_tree_rows(n, modulo_swap))


def _torus_candidates(
    max_curves: int,
) -> Iterator[tuple[bytes, tuple[int, int] | None, int | None]]:
    """Every torus skeleton the balance gate admits, as (level sequence,
    closing edge or ``None``, genus vertex or ``None``)."""
    # Trees of contractible curves around one genus-carrying region.  The
    # balance P - N = sign(genus region) needs color classes one apart in
    # size, with the genus region in the larger one.
    # A genus region inside a later twin's subtree is skipped: the twin
    # swap moves it to an earlier candidate with the same codes.
    for nv in range(2, max_curves + 2):
        for layout in _free_trees(nv):
            odd = _odd_levels(layout)
            if abs(nv - 2 * odd) != 1:
                continue
            larger = int(2 * odd > nv)
            hi = _twin_windows(layout)[1]
            for genus_vertex in range(nv):
                if layout[genus_vertex] & 1 == larger and hi[genus_vertex] == nv:
                    yield layout, None, genus_vertex

    # One essential cycle, possibly with contractible trees attached:
    # every unicyclic graph is a spanning tree plus one closing edge, and
    # a proper 2-coloring survives exactly when the closed cycle is even,
    # i.e. when the tree path between the ends has odd length: when the
    # ends lie on different levels mod 2.  Balance needs P = N.  A closing
    # edge that a twin swap moves to an earlier one is skipped.
    for nv in range(2, max_curves + 1):
        for layout in _free_trees(nv):
            if 2 * _odd_levels(layout) != nv:
                continue
            lo, hi = _twin_windows(layout)
            for u in range(nv):
                if hi[u] < nv:
                    continue
                for v in range(u + 1, nv):
                    if layout[u] & 1 != layout[v] & 1 and lo[v] <= u < hi[v]:
                        yield layout, (u, v), None


def check_torus_request(max_curves: int, max_p: int) -> None:
    """Reject a torus enumeration of ``max_curves`` curves and slopes up to
    ``max_p`` out of range, before any work."""
    _check_ints(max_curves=max_curves, max_p=max_p)
    if max_curves < 1 or max_p < 1:
        raise ValueError("max_curves and max_p must be >= 1")
    if max_curves > CURVE_CAP:
        raise ResourceLimitError(
            f"torus enumeration capped at {CURVE_CAP} curves, got {max_curves}"
        )
    if max_p > SLOPE_CAP:
        raise ResourceLimitError(f"slope bound capped at {SLOPE_CAP}, got {max_p}")


def enum_torus_rows(max_curves: int, modulo_swap: bool = False) -> list[Row]:
    """The rows of ``enum_torus_graphs(max_curves, modulo_swap)``, in its
    order, with no graph built; ``row_slopes`` gives each one's slopes."""
    check_torus_request(max_curves, 1)
    return _class_rows(_torus_candidates(max_curves), modulo_swap)


def enum_torus_graphs(max_curves: int, modulo_swap: bool = False) -> list[RegionGraph]:
    """The graph of every admissible torus class with at most ``max_curves``
    curves, one per isomorphism class, sorted by canonical code.

    Each graph is coded from arrays, then built once.
    ``graph_slopes`` gives the slopes each one is paired with.
    """
    return _graphs(enum_torus_rows(max_curves, modulo_swap))


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
