"""Signed, genus-labeled region graphs of dividing sets.

A system of cooriented separating curves on a closed surface cuts the
surface into regions.  We record the cut combinatorially as a multigraph:
one vertex per region, carrying the region's sign (which side of the
coorientation it lies on) and its genus, and one edge per curve, joining
the two regions the curve bounds.  Because the coorientation points out
of every positive region, each edge joins a positive vertex to a negative
one, so the graph is properly 2-colored by signs.  On the sphere and the
torus the graph is connected with at most one independent cycle, which
bounds the edge count to E in {V-1, V}.

Isotopy classes of curve systems correspond to isomorphism classes of
these graphs, so the module's main job is an exact canonical form:
``canonical_code`` assigns equal byte strings to two graphs exactly when
a sign- and genus-respecting multigraph isomorphism exists between them
(optionally up to negating every sign at once).  One leaf-peeling pass
codes the stripped trees and leaves the tree's center or the graph's
cycle to code last; the same pass gives the code with every sign
negated, by exchanging ``+`` and ``-`` in the core codes and ordering
the core again.  The pass runs on index arrays (``codes_of``) and codes
every ``RegionGraph``, on first use (``_plain_codes``).  The
enumerators code their skeletons from the level sequence instead, with
the tags (``_TAGS``) and the tree and cycle assembly (``_tree_codes``,
``_cycle_codes``) stated here.  In a canonical level sequence each
vertex's children come in non-increasing order of their subtrees'
sequences, and that is AHU's sorted order of their codes: at the first
difference the deeper subtree writes "(" where the other writes ")",
and "(" < ")".  So a genus-free tree's code is its sequence read as
brackets, with no sort, its core too in ``_tree_codes``' order
(``enumeration._bracket_codes``).  A torus skeleton's subtree codes
come from one pass, and each of its genus-1 trees and rings is put
together from them: the genus region and its ancestors are sorted in
anew (``enumeration._genus_codes``), or the cycle's vertices are coded
by their neighbors off the cycle (``enumeration._ring_codes``).  Either
way one pass per candidate gives both of its colorings' codes, and a
graph is built only for a listed class a library caller asks for.  Every
graph, read from input or listed, is made by its constructor, which
checks it, so a ``RegionGraph`` that exists is valid and nothing
downstream checks it.

Every CLI call imports the package afresh, so its value types, here and
in the other modules, are named tuples, which are quick to make; any
checks run in ``__new__``.  ``RegionGraph`` is the one class with cached
state, a plain immutable class that keeps it in its ``__dict__``.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property


class InvalidRegionGraphError(ValueError):
    """Raised when an operation requires a valid region graph."""


class RegionVertex(namedtuple("RegionVertex", ["id", "sign", "genus"], defaults=(0,))):
    """A region of the cut-open surface: sign in {+1, -1}, genus in {0, 1}."""

    __slots__ = ()


class Violation(namedtuple("Violation", ["rule", "detail"])):
    """Names the first invariant a graph fails, with a human-readable witness."""

    __slots__ = ()

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


class RegionGraph:
    """Immutable multigraph with signed, genus-labeled vertices.

    ``edges`` are unordered id pairs; parallel edges are kept as repeated
    pairs (self-loops are invalid, see ``validate``).  Construction
    normalizes vertex order and edge orientation so that equal graphs
    compare equal structurally, then raises ``InvalidRegionGraphError``
    with the first invariant the graph breaks.  Ids that are not ``int``
    are reported before the normalizing, which sorts them.
    """

    vertices: tuple[RegionVertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices, edges):
        verts = tuple(
            v if isinstance(v, RegionVertex) else RegionVertex(*v) for v in vertices
        )
        pairs = [(a, b) for a, b in edges]
        _raise_on(_non_integer_id(verts, pairs))
        object.__setattr__(
            self, "vertices", tuple(sorted(verts, key=lambda v: v.id))
        )
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in pairs))
        object.__setattr__(self, "edges", norm)
        _raise_on(validate(self))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(vertices={self.vertices!r}, edges={self.edges!r})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    @cached_property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def degrees(self) -> dict[int, int]:
        deg = {v.id: 0 for v in self.vertices}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def genus_sum(self) -> int:
        return sum(v.genus for v in self.vertices)

    @cached_property
    def _codes(self) -> tuple[str, str]:
        # The graph is immutable, so its canonical code and its code modulo
        # the swap come from one pass on first use and are kept.
        code, swapped = _plain_codes(self)
        return code, min(code, swapped)


def validate(g: RegionGraph) -> Violation | None:
    """Check all region-graph invariants; ``None`` means the graph is valid.

    Invariants, in the order reported: well-formed vertex/edge data,
    connectivity, proper 2-coloring by sign, no self-loops, edge count in
    {V-1, V}, and total genus at most 1.  The constructor runs it once per
    graph, so a graph that exists has passed it.
    """
    if not g.vertices:
        return Violation("malformed", "graph has no vertices")
    violation = _non_integer_id(g.vertices, g.edges)
    if violation is not None:
        return violation
    sign = {v.id: v.sign for v in g.vertices}
    if len(sign) != len(g.vertices):
        # Vertices are in id order, so a repeated id sits next to its twin.
        ids = g.vertex_ids
        repeated = next(a for a, b in zip(ids, ids[1:]) if a == b)
        return Violation("malformed", f"duplicate vertex id {repeated}")
    if any(v.id < 0 for v in g.vertices):
        return Violation("malformed", "vertex ids must be non-negative")
    for v in g.vertices:
        if type(v.sign) is not int or v.sign not in (1, -1):
            return Violation("malformed", f"vertex {v.id} has sign {v.sign!r}")
        if type(v.genus) is not int or v.genus not in (0, 1):
            return Violation("malformed", f"vertex {v.id} has genus {v.genus!r}")
    for a, b in g.edges:
        if a not in sign or b not in sign:
            return Violation("malformed", f"edge ({a},{b}) uses unknown vertex id")

    if not _is_connected(g):
        return Violation("disconnected", "graph is not connected")

    for a, b in g.edges:
        if a != b and sign[a] == sign[b]:
            return Violation(
                "improper coloring", f"edge ({a},{b}) joins two like-signed regions"
            )

    for a, b in g.edges:
        if a == b:
            return Violation("self-loop", f"edge ({a},{a}) is a self-loop")

    v, e = g.vertex_count, g.edge_count
    if e not in (v - 1, v):
        return Violation("edge count", f"E={e} not in {{V-1, V}} for V={v}")

    if g.genus_sum > 1:
        return Violation("genus sum", f"total genus {g.genus_sum} exceeds 1")

    return None


def _non_integer_id(vertices, edges) -> Violation | None:
    """The first vertex id or edge end that is not an ``int``.  A ``bool``
    is not one, and a float equal to an id would otherwise pass for it."""
    for v in vertices:
        if type(v.id) is not int:
            return Violation("malformed", f"vertex id {v.id!r} is not an integer")
    for a, b in edges:
        if type(a) is not int or type(b) is not int:
            detail = f"edge ({a!r},{b!r}) has an end that is not an integer"
            return Violation("malformed", detail)
    return None


def _is_connected(g: RegionGraph) -> bool:
    # Union-find with path halving: a graph is validated once, so no
    # neighbor lists are built here and kept on the graph.
    root = {v.id: v.id for v in g.vertices}
    components = len(root)
    for a, b in g.edges:
        while root[a] != a:
            root[a] = root[root[a]]
            a = root[a]
        while root[b] != b:
            root[b] = root[root[b]]
            b = root[b]
        if a != b:
            root[a] = b
            components -= 1
    return components == 1


def _raise_on(violation: Violation | None) -> None:
    if violation is not None:
        raise InvalidRegionGraphError(str(violation))


# ---------------------------------------------------------------------------
# Canonical form.
#
# Validity restricts graphs to labeled trees and labeled unicyclic
# multigraphs, and both admit exact canonical forms from one iterative
# leaf-peeling pass.  It strips leaves layer by layer and gives each
# stripped vertex its AHU code (Aho-Hopcroft-Ullman 1974): its tag, then
# the sorted codes of the vertices stripped into it, in parentheses.  What
# is left is the core: the one or two centers of a tree, or the cycle of a
# unicyclic graph.  A tree's code is "T" and its sorted core codes, a
# unicyclic graph's "C", the cycle length, and the least rotation or
# reflection of its core codes along the cycle, found by a two-pointer
# scan (Shiloach 1981).
#
# Negating every sign gives each stripped vertex its code with "+" and "-"
# exchanged, because the exchange keeps the order of sibling codes: in a
# properly 2-colored graph siblings share a sign, as do all vertices one
# bracket depth below them.  Two sibling codes agree up to their first
# difference, so there they are at one depth, where a sign (which follows
# every "(" and nothing else) is the same in both.  They first differ at a
# bracket or a genus digit, which the exchange keeps.  Only the core order
# can flip, as two tree centers, or cycle neighbors, have opposite signs.
# So one pass gives both codes: exchange the signs in the core codes, then
# sort them again for a tree, or take the least rotation again for a cycle.
# ---------------------------------------------------------------------------


# Tags by (sign, genus); a valid graph has no other pairs.
_TAGS = {(1, 0): "+0", (1, 1): "+1", (-1, 0): "-0", (-1, 1): "-1"}
_SWAP_SIGNS = str.maketrans("+-", "-+")


def _peel(adj: list[list[int]], tags: list[str]) -> dict[int, str]:
    """Code of each core vertex, after leaves are stripped layer by layer
    while a layer exists and more than two vertices are alive."""
    n = len(adj)
    degrees = [len(neighbors) for neighbors in adj]
    alive = [True] * n
    live = n
    stripped_into: list[list[str]] = [[] for _ in range(n)]
    layer = [v for v in range(n) if degrees[v] <= 1]
    while layer and live > 2:
        nxt = []
        for v in layer:
            alive[v] = False
            live -= 1
            kids = stripped_into[v]
            kids.sort()
            code = "".join(["(", tags[v], *kids, ")"])
            # A stripped vertex has exactly one live neighbor: two adjacent
            # leaves would be the whole live graph, and it has > 2 vertices.
            for w in adj[v]:
                if alive[w]:
                    stripped_into[w].append(code)
                    degrees[w] -= 1
                    if degrees[w] == 1:
                        nxt.append(w)
        layer = nxt
    return {
        v: "".join(["(", tags[v], *sorted(stripped_into[v]), ")"])
        for v in range(n)
        if alive[v]
    }


def _cycle_walk(adj: list[list[int]], cycle: dict[int, str]) -> list[int]:
    """The vertices of the unique cycle, in cyclic walk order."""
    if len(cycle) == 2:
        return sorted(cycle)
    # Cycles of length >= 3 are simple, so each cycle vertex has exactly two
    # cycle neighbors and the walk is forced once a direction is chosen.
    order = [min(cycle)]
    prev = None
    while len(order) < len(cycle):
        current = order[-1]
        nxt = min(w for w in adj[current] if w in cycle and w != prev)
        order.append(nxt)
        prev = current
    return order


def _least_rotation(seq: list[str]) -> int:
    """Start of the lexicographically least rotation of ``seq``, in linear
    time (Shiloach, "Fast canonization of circular strings", 1981): two
    starts are compared entry by entry; after k equal entries the one at
    the larger entry loses, as do the k starts after it, and it moves past
    them.  When k reaches the length, the two rotations are equal."""
    n = len(seq)
    i, j, k = 0, 1, 0
    while i < n and j < n and k < n:
        a, b = seq[(i + k) % n], seq[(j + k) % n]
        if a == b:
            k += 1
            continue
        if a > b:
            i += k + 1
        else:
            j += k + 1
        if i == j:
            j += 1
        k = 0
    return min(i, j)


def _min_rotation(seq: list[str]) -> tuple[str, ...]:
    """The least of all rotations of ``seq`` and of its reverse."""
    reverse = seq[::-1]
    i, j = _least_rotation(seq), _least_rotation(reverse)
    return min(tuple(seq[i:] + seq[:i]), tuple(reverse[j:] + reverse[:j]))


def _adjacency(n: int, edges) -> list[list[int]]:
    """Neighbor lists, with multiplicity, of a graph on ``0..n-1``."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _tree_codes(core) -> tuple[str, str]:
    """``T`` and a tree's sorted core codes, as tagged and with signs negated."""
    codes = sorted(core)
    swapped = sorted([code.translate(_SWAP_SIGNS) for code in codes])
    return "T" + "".join(codes), "T" + "".join(swapped)


def _cycle_codes(cycle: list[str]) -> tuple[str, str]:
    """``C``, the cycle length and the least rotation or reflection of a
    unicyclic graph's core codes in walk order, as tagged and with signs
    negated."""
    swapped = [code.translate(_SWAP_SIGNS) for code in cycle]
    prefix = f"C{len(cycle)}"
    return prefix + "".join(_min_rotation(cycle)), prefix + "".join(_min_rotation(swapped))


def codes_of(adj: list[list[int]], tags: list[str]) -> tuple[str, str]:
    """Canonical codes of a valid region graph on vertices ``0..n-1``, as
    tagged and with every sign negated, from one ``_peel``.

    ``adj[v]`` lists v's neighbors with multiplicity and ``tags[v]`` is
    v's entry of ``_TAGS``.  The graph is a tree exactly when its degrees
    sum to less than 2V, as it then has V - 1 edges; else it is unicyclic.
    """
    core = _peel(adj, tags)
    if sum(map(len, adj)) < 2 * len(adj):
        return _tree_codes(core.values())
    return _cycle_codes([core[v] for v in _cycle_walk(adj, core)])


def _plain_codes(g: RegionGraph) -> tuple[str, str]:
    """``codes_of`` on ``g``'s vertices indexed in id order."""
    index = {vid: i for i, vid in enumerate(g.vertex_ids)}
    tags = [_TAGS[v.sign, v.genus] for v in g.vertices]
    return codes_of(_adjacency(len(tags), [(index[a], index[b]) for a, b in g.edges]), tags)


def canonical_code(g: RegionGraph, modulo_swap: bool = False) -> str:
    """Byte string identifying the isomorphism class of ``g``.

    Two valid graphs get equal codes exactly when a sign- and
    genus-respecting multigraph isomorphism exists between them; with
    ``modulo_swap`` the code is additionally invariant under negating
    every sign.  The code is deterministic across runs and independent of
    vertex labeling.  Both codes come from one pass, once per graph object.
    """
    codes = g._codes
    return codes[1] if modulo_swap else codes[0]
