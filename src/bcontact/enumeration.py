"""Generation of admissible dividing-set classes up to isomorphism.

Sphere classes are equicolored trees.  Their unlabeled skeletons are free
trees given as level sequences, one per isomorphism class, from the
Wright-Richmond-Odlyzko-McKay generator (WROM: "Constant time generation
of free trees", SIAM J. Comput. 15, 1986), which steps through rooted
level sequences with the Beyer-Hedetniemi successor (1980) (``_walk``).
Vertex i is the i-th entry of its sequence and hangs from the nearest
earlier vertex one level up, so vertex 0 is the root and a vertex's
level parity is its side of the bipartition, which colors a balanced
skeleton; the two sign orientations are kept or merged by the sign mode.

Torus classes are trees carrying one genus-1 region (all curves
contractible) and unicyclic graphs (a ring of essential curves, possibly
with contractible trees attached) built as a tree plus one edge.  On a
properly 2-colored graph with P positive and N negative regions,

    chi(Z+) - chi(Z-) = sum sign * (2 - 2 genus - deg)
                      = 2 (P - N) - 2 sum sign * genus,

since each edge adds +1 and -1 to sum sign * deg.  So the Euler pairing
balance holds on a genus-1 tree exactly when its color classes differ in
size by one with the genus region in the larger, and on a unicyclic graph
exactly when P = N.  It is decided on the level sequence, and no
candidate failing it is made; ``TestTorusBalanceGate`` in the test suite
checks the gate against every ungated candidate on up to nine regions.

Candidates are coded from the level sequence alone: no row reaches the
leaf peel (``codes_of``).  Negating every sign exchanges a skeleton's two
colorings, so one pass gives both codes, and the pair the sign-swapped
one.  WROM roots a tree at its center, so its core is the root, or the
root and vertex 1.  Lemma (proved in the README, "Codes read off level
sequences"): in a canonical level sequence, every vertex's children in
non-increasing order of their subtrees' sequences and each vertex tagged
by its level parity, each subtree's AHU code is the bracket reading of
its slice: vertex i writes ``")" * (l[i-1] - l[i] + 1) + "(" + tag(l[i])``,
and the last vertex closes everything.  The larger sequence has the
smaller code, so the reading sorts nothing.

A sphere tree's reading is carried along the walk (``_sphere_trees``),
and so are its edges.  What vertex i writes, and its parent, the last
vertex before it one level up, depend on the levels up to i alone, and
each step of the walk keeps a prefix of the sequence.  So a tree redoes
only the vertices from the lowest one changed since the tree before; the
others write and join what they did in that tree, which is what they
would in this one, and the reading and the edges are those of the tree
read afresh.  A sphere listing's rows carry the edges, one byte each
(``_RANKS``), for the writer.

A text or JSON sphere listing prints no code, so its rows carry a key in
place of one, a ``bytes`` object that sorts as the code does: a sign
byte, then each level l as the byte 255 - l.  A unicentral tree's key is
its sequence, with sign byte 0 for even levels positive and 1 for odd
ones.  A bicentral tree's reads its two sides as a forest, each from a
root on level 0: the root's side and then vertex 1's, one level up, with
even levels positive, and the other way round with odd ones, both with
sign byte 0.  By the lemma, a code is the bracket reading of its key's
levels, with even levels positive up to a second root and odd ones from
it on, every sign negated under sign byte 1 (the test suite reads keys
back so), so equal keys have equal codes, and a code gives back its
key.  Where two keys first differ, so do the readings: the larger level,
the smaller byte, writes ``(`` where the other writes ``)``.  Every
sign-1 code opens ``T(-`` and every other one ``T(+``, so the sign-1 rows
come last, in the order of their trees' sign-0 rows: a listing sorts one
row per unicentral tree and replays it with odd levels positive
(``enum_tree_rows``).

A torus skeleton is coded once (``_skeleton_codes``): each vertex's
subtree code, its children already in sorted order by the lemma.  A
genus tag can order two siblings against their sequences, so a genus-1
tree recodes the genus region and sorts each code from below in among
its ancestors' other children (``_genus_codes``).  A ring's cycle is the
tree path between the closing edge's ends; each cycle vertex is coded by
its neighbors off the cycle, at the ends' lowest common ancestor the tree
above it too, re-rooted at its parent, and the least rotation or
reflection of those codes is the ring's code, as for the peel
(``_ring_codes``).  Every code takes its format from ``codes``, as the
peel's does, so the generator loads no ``region_graph`` but to build a
library caller's graphs (``_graphs``).  A twin swap, exchanging equal
subtrees of adjacent siblings, keeps levels and codes, so a candidate it
moves to an earlier one of its skeleton is skipped (``_twin_windows``):
at 14 curves, 25,627 of 88,239 candidates, a third of the rings.

Each class kept is a row (``Row``): its code, its skeleton's level
sequence and a ring's closing edge, and its coloring (one ``bytes``
object per distinct coloring of a listing).  The listings and the table
read the rows; a ``RegionGraph`` is built from a row only for a library
caller (``enum_equicolored_trees``, ``enum_torus_classes``), by its
constructor, which checks it, and coded by the peel.  The test suite
referees the level-sequence codes against the peel on every tree up to
fourteen vertices, with and without a genus region, on sixteen, and on
every balanced tree on eighteen (``TestLevelCodes``), on every ring
candidate up to twelve curves, and the twin skip against the full
candidate stream (``TestRingCodes``), every array code on up to nine
regions (``TestArrayCodes``) and every listed class of the library
callers (``TestGeneratedGraphsAreValid``).

A candidate gives one row per coloring, or one when its two codes agree
or the sign mode identifies them.  Distinct free trees are never
isomorphic, so the sphere rows are classes as they come
(``enum_tree_rows``).  Torus rows keep the first row per code
(``_class_rows``): a tree skeleton yields a candidate per genus region,
and a ring one per closing edge; a coloring is made only for a new code.
One walk of the free trees of each order gives both shapes
(``_torus_candidates``), and since genus codes open with ``T`` and ring
codes with ``C``, the first row per class does not depend on their
order.  A torus listing or table pairs each ring with the one tuple of
its request's slopes (``torus_request``), and each tree with none;
``enum_torus_classes`` expands them into one class object per slope.

A listing's size takes no enumeration: ``tree_count`` and ``torus_count``
read it off the recorded class counts, a tree one class and a ring one
per normalized slope up to the bound.  Only this module refuses a listing
or table request, each range where its work is sized: in the counts, which
the enumerators call first, the sphere table's check, the slope maker
(``_normalized_slopes``) and a row cap (``check_row_cap``).

All output is ordered by canonical code, so repeated runs are
byte-identical.
"""

from __future__ import annotations

from bisect import insort
from functools import cache, lru_cache
from math import gcd
from operator import itemgetter

from .codes import _SWAP_SIGNS, _TAGS, _cycle_codes, _tree_codes

# RegionGraph and RegionVertex (region_graph), DividingSetClass (surfaces)
# and Iterator name types in annotations only, which are never evaluated:
# the listings and the table build no graph, so those modules are imported
# only where a library caller asks for graphs (``_graphs``) or classes.

# The classes the enumerators list up to their caps, by sign mode
# (``modulo_swap``): sphere classes for n = 1..TREE_CAP, and genus-1 torus
# trees and rings for 2, 4, ..., CURVE_CAP curves, as the Polya-Otter
# series count them (``tests/polya.py``, which the test suite reruns).
# Every listing's and table's size comes from them (``tree_count``,
# ``torus_count``) before any class is listed.
_SPHERE_CLASSES = {
    False: (1, 1, 4, 14, 65, 316, 1742, 10079, 61680, 391473),
    True: (1, 1, 3, 9, 37, 168, 895, 5097, 30983, 196096),
}
_TORUS_TREES = {
    False: (2, 8, 36, 196, 1152, 7280, 48032, 328400),
    True: (1, 4, 18, 98, 576, 3640, 24016, 164200),
}
_TORUS_RINGS = {
    False: (1, 4, 18, 102, 616, 4034, 27459, 193761),
    True: (1, 3, 11, 56, 320, 2049, 13814, 97112),
}
TREE_CAP = len(_SPHERE_CLASSES[False])
CURVE_CAP = 2 * len(_TORUS_TREES[False])
SLOPE_CAP = 256  # refused by _normalized_slopes, which builds O(max_p ** 2)
# The rows one listing or table may hold: the 8-curve torus table at slope
# 256 has 2,493,742.
TABLE_ROW_CAP = 4_000_000


# The slopes of one torus graph class in order: ``(None,)`` for a tree,
# whose curves are all contractible.
Slopes = tuple[tuple[int, int] | None, ...]


class ResourceLimitError(ValueError):
    """Raised when an enumeration request exceeds its configured cap."""


def _check_sizes(**sizes: int) -> None:
    """Reject a size that is not an ``int`` (a ``bool`` is not one, nor is
    a float, even one equal to an integer), then name every size below 1."""
    for name, size in sizes.items():
        if type(size) is not int:
            raise ValueError(f"{name}={size!r} is not an integer")
    low = [name for name, size in sizes.items() if size < 1]
    if low:
        raise ValueError(f"{' and '.join(low)} must be >= 1")


def check_sphere_table_request(max_curves: int, max_p: int) -> range:
    """Reject a sphere table of ``max_curves`` curves and slopes up to
    ``max_p`` out of range, before any work; else the tree sizes n it
    holds.  Equicolored trees on 2n regions have 2n - 1 curves, so the cap
    on n admits up to 2 * ``TREE_CAP`` curves; the sphere has no slopes."""
    _check_sizes(max_curves=max_curves, max_p=max_p)
    if max_curves > 2 * TREE_CAP:
        raise ResourceLimitError(
            f"sphere table capped at --max-curves {2 * TREE_CAP}, got {max_curves}"
        )
    return range(1, (max_curves + 1) // 2 + 1)


def tree_count(n: int, modulo_swap: bool = False) -> int:
    """``len(enum_tree_rows(n, modulo_swap))``, the classes of a sphere
    listing, from the recorded counts: each tree is one class.  It refuses
    a request out of range, for the enumerator too, and walks no tree."""
    _check_sizes(n=n)
    if n > TREE_CAP:
        raise ResourceLimitError(f"tree enumeration capped at n={TREE_CAP}, got {n}")
    return _SPHERE_CLASSES[bool(modulo_swap)][n - 1]


def torus_count(max_curves: int, max_p: int, modulo_swap: bool = False) -> int:
    """The classes of a torus listing of ``max_curves`` curves and slopes up
    to ``max_p``, from the recorded counts: a tree counts once, and a ring
    once per normalized slope up to ``max_p``.  It refuses a request out of
    range, for the enumerators too, and walks no tree."""
    return torus_request(max_curves, max_p, modulo_swap)[0]


def torus_request(max_curves: int, max_p: int, modulo_swap: bool = False) -> tuple[int, Slopes]:
    """``torus_count`` and the slopes it counts each ring at, made once: a
    torus listing or table sizes its request here and pairs every ring with
    that one tuple, and every tree with ``(None,)``."""
    _check_sizes(max_curves=max_curves, max_p=max_p)
    if max_curves > CURVE_CAP:
        raise ResourceLimitError(
            f"torus enumeration capped at {CURVE_CAP} curves, got {max_curves}"
        )
    # Every torus class has an even number of curves.
    sizes = max_curves // 2
    trees = sum(_TORUS_TREES[bool(modulo_swap)][:sizes])
    rings = sum(_TORUS_RINGS[bool(modulo_swap)][:sizes])
    slopes = _normalized_slopes(max_p)
    return trees + rings * len(slopes), slopes


def check_row_cap(kind: str, rows: int) -> None:
    """Reject a ``kind`` ("listing" or "table") of more than
    ``TABLE_ROW_CAP`` rows, sized before any class is listed.  No sphere
    listing needs it: n = ``TREE_CAP`` has fewer classes."""
    if rows > TABLE_ROW_CAP:
        raise ResourceLimitError(f"{kind} capped at {TABLE_ROW_CAP} rows, got {rows}")


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


@cache
def _path(order: int) -> bytes:
    """The level sequence of the path on ``order`` vertices rooted at its
    center, the first free tree WROM gives and the only canonical sequence
    of a path."""
    return bytes([*range(order // 2 + 1), *range(1, (order + 1) // 2)])


def _walk(order: int, odd: int | None = None) -> Iterator[tuple[bytes, int, int, bool]]:
    """The free trees on ``order`` vertices with ``odd`` vertices on odd
    levels (any number when None), one per isomorphism class, from WROM:
    each tree's level sequence, the lowest vertex a step rewrote since
    the tree given before (1 for the first), where the root's first
    subtree ends (at its second child, or the end) and whether the tree
    is bicentral, its deepest level reached in that subtree alone.

    Each step is a Beyer-Hedetniemi successor from a vertex ``p``, which
    keeps ``layout[:p]``: from the last vertex off level 1, or, from a
    sequence that is no canonical free tree, from the end of the root's
    first subtree, then with the last vertices made a path from the root
    as deep as that subtree.  Each sequence is a canonical rooted one, so
    its deepest level ends its first run down one level at a time (a
    taller sibling subtree would sort first), and a step from ``p``,
    which copies only levels of the prefix, leaves it at most ``p - 1``.
    """
    layout = _path(order)
    deepest = order // 2
    low = 1
    m = layout.find(1, 2) % (order + 1)  # -1, at no second child, is the end
    while True:
        # The rest of the tree is taller than the root's first subtree
        # (from vertex 1) when it reaches the deepest level, as tall when
        # it reaches the level above, or when both are at most one vertex.
        bicentral = layout.find(deepest, m) < 0
        free = not bicentral or (
            (deepest < 2 or layout.find(deepest - 1, m) >= 0)
            and (
                (size := m - 1) < (rest := order - m + 1)
                or size == rest and layout[1:m].translate(_DOWN) <= b"\0" + layout[m:]
            )
        )
        if free:
            if odd is None or layout.translate(_PARITY[0]).count(1) == odd:
                yield layout, low, m, bicentral
                low = order
            p = len(layout.rstrip(b"\x01")) - 1
            if p <= 0:
                return
        else:
            p = m - 1
        tail = order - p
        period = layout[layout.rfind(layout[p] - 1, 0, p):p]
        layout = layout[:p] + (period * tail)[:tail]
        if p < low:
            low = p
        if p <= deepest:
            deepest = p - 1
        if not free and layout[p] > 1:
            layout = layout[:-deepest] + _RISE[:deepest]
            low = min(low, order - deepest)
        if p <= m:  # else the root's second child stays where it was
            m = layout.find(1, 2) % (order + 1)


# Level parities by level, and their complements, as bytes: a vertex's
# sign index with even, then odd, levels positive, and by the first a 1
# per vertex on an odd level.  The translations run in C.
_PARITY = (
    bytes(level & 1 for level in range(256)),
    bytes(1 - (level & 1) for level in range(256)),
)

# The most vertices, and so levels, a skeleton within the caps has.
_ORDER_CAP = max(2 * TREE_CAP, CURVE_CAP + 1)

# An edge (a, b), a < b, of a skeleton within the caps as one byte: its
# rank among all such pairs in lexicographic order, so the ranks of a
# tree's edges sort as its edges do.  _RANKS[a][b] is the rank of (a, b),
# and _EDGES[rank] the pair.
_RANKS = [
    [a * (2 * _ORDER_CAP - a - 3) // 2 + b - 1 for b in range(_ORDER_CAP)]
    for a in range(_ORDER_CAP)
]
_EDGES = [(a, b) for a in range(_ORDER_CAP) for b in range(a + 1, _ORDER_CAP)]


def _edge_ranks(layout: bytes) -> list[int]:
    """The ranks of the edges of a level sequence, by vertex: each vertex
    after the first joins the last vertex before it one level up."""
    last = [0] * _ORDER_CAP
    ranks = []
    for i, level in enumerate(layout[1:], 1):
        ranks.append(_RANKS[last[level - 1]][i])
        last[level] = i
    return ranks


def _tree_edges(layout: bytes) -> list[tuple[int, int]]:
    """Edges of a level sequence, as pairs."""
    return list(map(_EDGES.__getitem__, _edge_ranks(layout)))


# Vertex ``v``'s rows ``(v, +1, 0), (v, -1, 0), (v, +1, 1), (v, -1, 1)``
# as (id, sign, genus) for every id the caps allow.
_VERTEX_ROWS = [
    tuple((v, sign, genus) for genus in (0, 1) for sign in (1, -1))
    for v in range(_ORDER_CAP)
]


@cache
def _region_vertex_rows() -> list[tuple[RegionVertex, ...]]:
    """``_VERTEX_ROWS`` as region vertices: they are immutable, so the
    graphs built from rows share them."""
    from .region_graph import RegionVertex

    return [tuple(RegionVertex(*v) for v in row) for row in _VERTEX_ROWS]


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
    """The region vertices of a ``_coloring``."""
    return tuple(map(tuple.__getitem__, _region_vertex_rows(), coloring))


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


# A level l as a key's byte 255 - l, and as the byte of level l - 1: a
# bicentral tree's side of vertex 1 is keyed one level up.
_KEY = bytes(range(255, -1, -1))
_KEY_UP = _KEY[-1:] + _KEY[:-1]


def _sphere_trees(
    order: int, odd: int | None = None, edges: bool = False
) -> Iterator[tuple[bytes, tuple, bytes | None]]:
    """Each free tree on ``order`` vertices with ``odd`` vertices on odd
    levels (any number when None), in ``_walk``'s order: its level
    sequence, then its canonical codes with even, then odd, levels
    positive and None, or with ``edges`` its sign-0 keys (the module
    docstring) and its edges' ranks in sorted order.  The reading, or the
    ranks, are carried from tree to tree and redone from the lowest
    vertex changed (the module docstring).

    A bicentral tree's core is vertex 1 with its subtree and the root with
    the rest: each vertex writes a 3-character opening and one ")", so
    vertex 1's code is the ``4 (m - 1)`` characters after ``T`` and the
    root's opening, and the root's is the rest.  The core needs no sort:
    the root's code opens ``(+``, before vertex 1's ``(-``, and after it
    once the signs are negated.  Its two keys, with even, then odd, levels
    positive, read the same sides.  A unicentral tree has one sign-0 key,
    with even levels positive; with odd ones, it is the same key after
    sign byte 1.
    """
    # Vertex i's brackets at i, after "T" and vertex 0's opening, and the
    # closing ")"s last; the rank of vertex i's edge to its parent at i - 1.
    reading = ["T" + _OPENINGS[0][0]] * (order + 1)
    ranks = bytearray(order - 1)
    for layout, low, m, bicentral in _walk(order, odd):
        if edges:
            for i in range(low, order):
                # Vertex i's parent is the last vertex before it one level up.
                ranks[i - 1] = _RANKS[layout.rfind(layout[i] - 1, 0, i)][i]
            if bicentral:
                # Each side from its root on level 0, which writes 255.
                root = b"\xff" + layout[m:].translate(_KEY)
                first = layout[1:m].translate(_KEY_UP)
                keys = b"\0" + root + first, b"\0" + first + root
            else:
                keys = (b"\0" + layout.translate(_KEY),)
            yield layout, keys, bytes(sorted(ranks))
        else:
            for i in range(low, order):
                reading[i] = _BRACKETS[layout[i - 1]][layout[i]]
            reading[order] = ")" * (layout[-1] + 1)
            code = "".join(reading)
            if bicentral:
                end = 4 * m
                root, first = code[:4] + code[end:], code[4:end]
                codes = root + first, "T" + (first + root[1:]).translate(_SWAP_SIGNS)
            else:
                codes = code, code.translate(_SWAP_SIGNS)
            yield layout, codes, None


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
    in, and ``)``.  The core is as in ``_sphere_trees``: when it is two
    vertices, the root's side leaves out vertex 1 (``cut``), and the side
    without the genus region keeps its genus-free code.
    """
    parent, children, opening, down = _skeleton_codes(layout)
    m = layout.find(1, 2) % (len(layout) + 1)  # -1, at no second child, is the end
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


# One listed class as the generator has it: (code, level sequence,
# closing edge or ``None``, coloring).  The code is the class's canonical
# code in the listing's sign mode, and the coloring is ``_coloring``'s:
# vertex i is ``_VERTEX_ROWS[i][coloring[i]]``.  The sequence and the
# closing edge are the skeleton, whose tree edges ``_tree_edges`` gives;
# the colorings of one skeleton share its sequence.  The rows of a sphere
# listing (``enum_tree_rows`` with ``edges``) carry the class's key in
# place of its code, and a fifth field, the ranks (``_RANKS``) of their
# skeleton's edges in sorted order, as bytes.
Row = tuple[str | bytes, bytes, tuple[int, int] | None, bytes]


def _graphs(rows: list[Row]) -> list[RegionGraph]:
    """The graphs of listed classes, each built and checked by its
    constructor; their codes come from the peel on first use."""
    from .region_graph import RegionGraph

    # The constructor sorts the edges.
    return [
        RegionGraph(_vertices(coloring), _tree_edges(layout) + ([closing] if closing else []))
        for _, layout, closing, coloring in rows
    ]


def _class_rows(
    candidates: Iterator[tuple[bytes, tuple[int, int] | None, int | None]],
    modulo_swap: bool,
) -> list[Row]:
    """The first row per code among the rows of the candidates (level
    sequence, closing edge or ``None``, genus vertex or ``None``), sorted
    by code; a coloring is made only for a new code."""
    out: dict[str, Row] = {}
    colorings: dict[bytes, bytes] = {}
    for layout, closing, genus_vertex in candidates:
        # Each code is put together from its skeleton's codes
        # (``_skeleton_codes``), with even, then odd, levels positive: the
        # second coloring is the first with every sign negated.
        if closing is None:
            codes = _genus_codes(layout, genus_vertex)
        else:
            codes = _ring_codes(layout, *closing)
        for positive in (0,) if modulo_swap or codes[0] == codes[1] else (0, 1):
            code = min(codes) if modulo_swap else codes[positive]
            if code not in out:
                coloring = _coloring(layout, positive, genus_vertex)
                out[code] = code, layout, closing, colorings.setdefault(coloring, coloring)
    return [out[code] for code in sorted(out)]


def enum_tree_rows(n: int, modulo_swap: bool = False, edges: bool = False) -> list[Row]:
    """The rows of ``enum_equicolored_trees(n, modulo_swap)``, in its
    order, with no graph built, sized first (``tree_count``).  With
    ``edges`` each row carries its key (the module docstring) in place of
    its code, and a fifth field, its skeleton's edges as ``_sphere_trees``
    gives them: what the text and JSON listings read.  The CSV listing,
    the table and the library callers, which print or hand out codes, ask
    for rows without edges."""
    tree_count(n, modulo_swap)
    rows: list[Row] = []
    colorings: dict[bytes, bytes] = {}
    if not edges:
        for layout, codes, _ in _sphere_trees(2 * n, n):
            for positive in (0,) if modulo_swap or codes[0] == codes[1] else (0, 1):
                coloring = layout.translate(_PARITY[positive])
                code = min(codes) if modulo_swap else codes[positive]
                rows.append((code, layout, None, colorings.setdefault(coloring, coloring)))
        rows.sort(key=itemgetter(0))
        return rows
    # A unicentral tree's sign-0 row is sorted in among the bicentral
    # trees' rows, and its sign-1 row replays it after them all.
    unicentral: list[Row] = []
    for layout, keys, ranks in _sphere_trees(2 * n, n, True):
        even = layout.translate(_PARITY[0])
        even = colorings.setdefault(even, even)
        if len(keys) == 1:
            unicentral.append((keys[0], layout, None, even, ranks))
        elif modulo_swap or keys[0] == keys[1]:
            rows.append((min(keys), layout, None, even, ranks))
        else:
            odd = layout.translate(_PARITY[1])
            odd = colorings.setdefault(odd, odd)
            rows += (keys[0], layout, None, even, ranks), (keys[1], layout, None, odd, ranks)
    unicentral.sort(key=itemgetter(0))
    rows += unicentral
    rows.sort(key=itemgetter(0))
    if not modulo_swap:
        for key, layout, _, _, ranks in unicentral:
            odd = layout.translate(_PARITY[1])
            rows.append((b"\1" + key[1:], layout, None, colorings.setdefault(odd, odd), ranks))
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
    closing edge or ``None``, genus vertex or ``None``), from one walk of
    the free trees of each order."""
    for nv in range(2, max_curves + 2):
        for layout, _, _, _ in _walk(nv):
            odd = layout.translate(_PARITY[0]).count(1)
            if 2 * odd == nv and nv <= max_curves:
                # One essential cycle, possibly with contractible trees
                # attached: every unicyclic graph is a spanning tree plus
                # one closing edge, and a proper 2-coloring survives exactly
                # when the closed cycle is even, i.e. when the tree path
                # between the ends has odd length: when the ends lie on
                # different levels mod 2.  Balance needs P = N.  A closing
                # edge that a twin swap moves to an earlier one is skipped.
                lo, hi = _twin_windows(layout)
                for u in range(nv):
                    if hi[u] < nv:
                        continue
                    for v in range(u + 1, nv):
                        if layout[u] & 1 != layout[v] & 1 and lo[v] <= u < hi[v]:
                            yield layout, (u, v), None
            elif abs(nv - 2 * odd) == 1:
                # Trees of contractible curves around one genus-carrying
                # region.  The balance P - N = sign(genus region) needs
                # color classes one apart in size, with the genus region in
                # the larger one.  A genus region inside a later twin's
                # subtree is skipped: the twin swap moves it to an earlier
                # candidate with the same codes.
                larger = int(2 * odd > nv)
                hi = _twin_windows(layout)[1]
                for genus_vertex in range(nv):
                    if layout[genus_vertex] & 1 == larger and hi[genus_vertex] == nv:
                        yield layout, None, genus_vertex


def enum_torus_rows(max_curves: int, modulo_swap: bool = False) -> list[Row]:
    """The row of every admissible torus class with at most ``max_curves``
    curves, one per isomorphism class, sorted by canonical code, with no
    graph built, sized first; a ring's slopes are its request's."""
    torus_count(max_curves, 1, modulo_swap)
    return _class_rows(_torus_candidates(max_curves), modulo_swap)


def _normalized_slopes(max_p: int) -> tuple[tuple[int, int], ...]:
    """Every slope (p, q), 1 <= q <= p <= ``max_p`` coprime, in order, for
    every torus count, listing and table (``torus_request``)."""
    _check_sizes(max_p=max_p)
    if max_p > SLOPE_CAP:
        raise ResourceLimitError(f"slope bound capped at {SLOPE_CAP}, got {max_p}")
    return tuple([
        (p, q) for p in range(1, max_p + 1) for q in range(1, p + 1) if gcd(p, q) == 1
    ])


def row_shape(row: Row) -> tuple[int, int, bool]:
    """A listed class's region count V, its curve count E, and whether it
    is a tight candidate (``admissibility.is_tight_candidate``, the one
    rule, which this reads off a row of an admissible class).

    A tree has one edge fewer than vertices, a ring as many.  The only
    tight tree listed is the one-curve sphere class, on two regions: no
    two-region genus-1 tree is balanced.  A ring is tight when it is bare,
    every region on two curves, exactly when its skeleton is a path and
    the closing edge joins the path's two ends: the bottom of its first
    branch, vertex ``V // 2``, and the last vertex, or the root on two
    regions, where there is no second branch.
    """
    layout, closing = row[1], row[2]
    order = len(layout)
    if closing is None:
        return order, order - 1, order == 2
    ends = (order // 2 if order > 2 else 0, order - 1)
    return order, order, closing == ends and layout == _path(order)


def enum_torus_classes(
    max_curves: int, max_p: int, modulo_swap: bool = False
) -> list[DividingSetClass]:
    """All admissible torus dividing-set classes with at most ``max_curves``
    curves and slopes bounded by ``max_p``, one per isomorphism class.

    Each listed class's graph, built from its row, paired with each of its
    slopes, sorted by (canonical code, slope): the classes of one graph
    share its graph object.  A listing past the row cap is refused.
    """
    from .surfaces import DividingSetClass, Surface

    count, slopes = torus_request(max_curves, max_p, modulo_swap)
    check_row_cap("listing", count)
    rows = enum_torus_rows(max_curves, modulo_swap)
    return [
        DividingSetClass(Surface.TORUS, g, slope)
        for row, g in zip(rows, _graphs(rows))
        for slope in ((None,) if row[2] is None else slopes)
    ]
