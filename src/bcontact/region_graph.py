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
(optionally up to negating every sign at once).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class InvalidRegionGraphError(ValueError):
    """Raised when an operation requires a valid region graph."""


@dataclass(frozen=True)
class RegionVertex:
    """A region of the cut-open surface: sign in {+1, -1}, genus in {0, 1}."""

    id: int
    sign: int
    genus: int = 0


@dataclass(frozen=True)
class Violation:
    """Names the first invariant a graph fails, with a human-readable witness."""

    rule: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.detail}"


@dataclass(frozen=True)
class RegionGraph:
    """Immutable multigraph with signed, genus-labeled vertices.

    ``edges`` are unordered id pairs; parallel edges are kept as repeated
    pairs (self-loops are invalid, see ``validate``).  Construction
    normalizes vertex order and edge orientation so that equal graphs
    compare equal structurally.
    """

    vertices: tuple[RegionVertex, ...]
    edges: tuple[tuple[int, int], ...]

    def __init__(self, vertices, edges):
        verts = tuple(
            v if isinstance(v, RegionVertex) else RegionVertex(*v) for v in vertices
        )
        object.__setattr__(
            self, "vertices", tuple(sorted(verts, key=lambda v: v.id))
        )
        norm = tuple(sorted((min(a, b), max(a, b)) for a, b in edges))
        object.__setattr__(self, "edges", norm)

    @cached_property
    def vertex_ids(self) -> tuple[int, ...]:
        return tuple(v.id for v in self.vertices)

    @cached_property
    def by_id(self) -> dict[int, RegionVertex]:
        return {v.id: v for v in self.vertices}

    @cached_property
    def degrees(self) -> dict[int, int]:
        deg = {v.id: 0 for v in self.vertices}
        for a, b in self.edges:
            if a in deg:
                deg[a] += 1
            if b in deg and b != a:
                deg[b] += 1
        return deg

    @cached_property
    def adjacency(self) -> dict[int, list[int]]:
        """Neighbor lists with multiplicity (each parallel edge repeats)."""
        adj: dict[int, list[int]] = {v.id: [] for v in self.vertices}
        for a, b in self.edges:
            if a in adj and b in adj:
                adj[a].append(b)
                adj[b].append(a)
        return adj

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    @property
    def genus_sum(self) -> int:
        return sum(v.genus for v in self.vertices)

    def sign_of(self, vid: int) -> int:
        return self.by_id[vid].sign

    def genus_of(self, vid: int) -> int:
        return self.by_id[vid].genus

    def with_swapped_signs(self) -> RegionGraph:
        return RegionGraph(
            tuple(RegionVertex(v.id, -v.sign, v.genus) for v in self.vertices),
            self.edges,
        )

    def relabeled(self, mapping: dict[int, int]) -> RegionGraph:
        return RegionGraph(
            tuple(RegionVertex(mapping[v.id], v.sign, v.genus) for v in self.vertices),
            tuple((mapping[a], mapping[b]) for a, b in self.edges),
        )

    # The graph is immutable, so its verdict and canonical codes are
    # computed on first use and kept.

    @cached_property
    def _violation(self) -> Violation | None:
        return _first_violation(self)

    @cached_property
    def _code(self) -> str:
        return _plain_code(self)

    @cached_property
    def _swap_code(self) -> str:
        return min(self._code, _plain_code(self.with_swapped_signs()))


def validate(g: RegionGraph) -> Violation | None:
    """Check all region-graph invariants; ``None`` means the graph is valid.

    Invariants, in the order reported: well-formed vertex/edge data,
    connectivity, proper 2-coloring by sign, no self-loops, edge count in
    {V-1, V}, and total genus at most 1.  The verdict is computed once per
    graph object.
    """
    return g._violation


def _first_violation(g: RegionGraph) -> Violation | None:
    ids = [v.id for v in g.vertices]
    if not ids:
        return Violation("malformed", "graph has no vertices")
    if len(set(ids)) != len(ids):
        return Violation("malformed", "duplicate vertex ids")
    if any(v.id < 0 for v in g.vertices):
        return Violation("malformed", "vertex ids must be non-negative")
    for v in g.vertices:
        if v.sign not in (1, -1):
            return Violation("malformed", f"vertex {v.id} has sign {v.sign}")
        if v.genus not in (0, 1):
            return Violation("malformed", f"vertex {v.id} has genus {v.genus}")
    known = set(ids)
    for a, b in g.edges:
        if a not in known or b not in known:
            return Violation("malformed", f"edge ({a},{b}) uses unknown vertex id")

    if not _is_connected(g):
        return Violation("disconnected", "graph is not connected")

    for a, b in g.edges:
        if a != b and g.sign_of(a) == g.sign_of(b):
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


def _is_connected(g: RegionGraph) -> bool:
    if not g.vertices:
        return False
    seen = {g.vertices[0].id}
    stack = [g.vertices[0].id]
    adj = g.adjacency
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.vertex_count


def _require_valid(g: RegionGraph) -> None:
    violation = validate(g)
    if violation is not None:
        raise InvalidRegionGraphError(str(violation))


# ---------------------------------------------------------------------------
# Canonical form.
#
# Validity restricts graphs to labeled trees and labeled unicyclic
# multigraphs, and both families admit exact linear-time canonical forms:
# rooted-subtree encodings hung from the tree center, and the minimal
# rotation/reflection of the cycle's sequence of pendant-tree encodings.
# ---------------------------------------------------------------------------


def _vertex_tag(g: RegionGraph, vid: int) -> str:
    v = g.by_id[vid]
    return ("+" if v.sign > 0 else "-") + str(v.genus)


def _rooted_code(g: RegionGraph, root: int, parent: int | None) -> str:
    children = sorted(
        _rooted_code(g, w, root) for w in g.adjacency[root] if w != parent
    )
    return "(" + _vertex_tag(g, root) + "".join(children) + ")"


def _tree_code(g: RegionGraph) -> str:
    # Center of the tree: strip leaves until one or two vertices remain.
    degrees = dict(g.degrees)
    alive = set(degrees)
    layer = [v for v in alive if degrees[v] <= 1]
    while len(alive) > 2:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in g.adjacency[v]:
                if w in alive:
                    degrees[w] -= 1
                    if degrees[w] == 1:
                        nxt.append(w)
        layer = nxt
    centers = sorted(alive)
    if len(centers) == 1:
        return "T" + _rooted_code(g, centers[0], None)
    a, b = centers
    halves = sorted([_rooted_code(g, a, b), _rooted_code(g, b, a)])
    return "T" + "".join(halves)


def _cycle_vertices(g: RegionGraph) -> list[int]:
    """Vertices on the unique cycle, in cyclic walk order."""
    degrees = dict(g.degrees)
    alive = set(degrees)
    layer = [v for v in alive if degrees[v] == 1]
    while layer:
        nxt = []
        for v in layer:
            alive.discard(v)
            for w in g.adjacency[v]:
                if w in alive:
                    degrees[w] -= 1
                    if degrees[w] == 1:
                        nxt.append(w)
        layer = nxt
    cycle = sorted(alive)
    if len(cycle) == 2:
        return cycle
    # Cycles of length >= 3 are simple, so each cycle vertex has exactly two
    # cycle neighbors and the walk is forced once a direction is chosen.
    order = [cycle[0]]
    prev = None
    while len(order) < len(cycle):
        current = order[-1]
        nxt = min(w for w in g.adjacency[current] if w in alive and w != prev)
        order.append(nxt)
        prev = current
    return order


def _pendant_code(g: RegionGraph, vid: int, on_cycle: set[int]) -> str:
    children = sorted(
        _rooted_code(g, w, vid) for w in g.adjacency[vid] if w not in on_cycle
    )
    return "(" + _vertex_tag(g, vid) + "".join(children) + ")"


def _min_rotation(seq: list[str]) -> tuple[str, ...]:
    best = None
    n = len(seq)
    for candidate in (seq, seq[::-1]):
        for shift in range(n):
            rotated = tuple(candidate[shift:] + candidate[:shift])
            if best is None or rotated < best:
                best = rotated
    return best


def _unicyclic_code(g: RegionGraph) -> str:
    cycle = _cycle_vertices(g)
    on_cycle = set(cycle)
    codes = [_pendant_code(g, v, on_cycle) for v in cycle]
    return f"C{len(cycle)}" + "".join(_min_rotation(codes))


def _plain_code(g: RegionGraph) -> str:
    if g.edge_count == g.vertex_count - 1:
        return _tree_code(g)
    return _unicyclic_code(g)


def canonical_code(g: RegionGraph, modulo_swap: bool = False) -> str:
    """Byte string identifying the isomorphism class of ``g``.

    Two valid graphs get equal codes exactly when a sign- and
    genus-respecting multigraph isomorphism exists between them; with
    ``modulo_swap`` the code is additionally invariant under negating
    every sign.  The code is deterministic across runs and independent of
    vertex labeling.  Both codes are computed once per graph object.
    """
    _require_valid(g)
    return g._swap_code if modulo_swap else g._code


def are_isomorphic(g1: RegionGraph, g2: RegionGraph, modulo_swap: bool = False) -> bool:
    """Whether a sign-preserving (or, with ``modulo_swap``, possibly
    globally sign-negating) genus-preserving multigraph isomorphism exists.
    """
    _require_valid(g1)
    _require_valid(g2)
    return canonical_code(g1, modulo_swap) == canonical_code(g2, modulo_swap)
