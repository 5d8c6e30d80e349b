"""Brute-force verification oracle for the tree enumerator.

This module deliberately shares no machinery with the production
enumerator or the canonical form.  Trees are generated as labeled
objects from their Prüfer codes and counted up to isomorphism
by explicit backtracking search over vertex bijections.  The counts must
agree with the orderly generator; disagreement means one side is wrong.

Only trees whose bipartition is {0..n-1} | {n..2n-1} are generated: every
isomorphism class of balanced colored trees contains such a
representative (relabel each part onto a fixed half).  These are the
spanning trees of K_{n,n}, and by Scoins (1962) each is given by one
bipartite Prüfer code: a low code in {0..n-1}^(n-1) and a high code in
{n..2n-1}^(n-1), n^(2n-2) pairs in all.  A label's degree is one more
than its count in its side's code.  Relabeling each part in
non-increasing degree order gives another representative, so it suffices
to decode the code pairs whose label counts do not increase along either
half: 2,209 trees at n = 5, against n^(2n-2) = 390,625 split trees and
(2n)^(2n-2) = 10^8 Prüfer sequences.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import product

from bcontact.region_graph import RegionGraph, RegionVertex

ORACLE_MAX_VERTICES = 10

# A graph is handled internally as (labels, adjacency, edge multiset):
# labels[v] = (sign, genus), adjacency[v] = neighbor list with multiplicity,
# and the multiset maps sorted vertex pairs to multiplicities.
_Flat = tuple[dict[int, tuple[int, int]], dict[int, list[int]], dict[tuple[int, int], int]]


def by_id(g: RegionGraph) -> dict[int, RegionVertex]:
    """A graph's vertices keyed by id."""
    return {v.id: v for v in g.vertices}


def adjacency(g: RegionGraph) -> dict[int, list[int]]:
    """Neighbor lists with multiplicity (each parallel edge repeats)."""
    adj: dict[int, list[int]] = {v.id: [] for v in g.vertices}
    for a, b in g.edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def _flatten(g: RegionGraph) -> _Flat:
    labels = {v.id: (v.sign, v.genus) for v in g.vertices}
    mult: dict[tuple[int, int], int] = defaultdict(int)
    for e in g.edges:
        mult[e] += 1
    return labels, adjacency(g), dict(mult)


def _flat_tree(edges: tuple[tuple[int, int], ...], nv: int, low_positive: bool) -> _Flat:
    half = nv // 2
    positive = 1 if low_positive else -1
    labels = {v: (positive if v < half else -positive, 0) for v in range(nv)}
    adjacency: dict[int, list[int]] = {v: [] for v in range(nv)}
    mult: dict[tuple[int, int], int] = {}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
        mult[(a, b)] = mult.get((a, b), 0) + 1
    return labels, adjacency, mult


def _swapped(flat: _Flat) -> _Flat:
    labels, adjacency, mult = flat
    return {v: (-s, g) for v, (s, g) in labels.items()}, adjacency, mult


def _bijection_exists(flat1: _Flat, flat2: _Flat) -> bool:
    labels1, adj1, mult1 = flat1
    labels2, adj2, mult2 = flat2
    if len(labels1) != len(labels2) or len(adj1) != len(adj2):
        return False

    def tagged(labels, adj):
        return {v: labels[v] + (len(adj[v]),) for v in labels}

    tags1 = tagged(labels1, adj1)
    tags2 = tagged(labels2, adj2)
    if sorted(tags1.values()) != sorted(tags2.values()):
        return False

    # Assign vertices in an order that keeps the partial map connected, so
    # adjacency constraints prune early.
    order: list[int] = []
    seen: set[int] = set()
    for start in labels1:
        if start in seen:
            continue
        seen.add(start)
        stack = [start]
        while stack:
            u = stack.pop()
            order.append(u)
            for w in adj1[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)

    candidates = {u: [w for w in labels2 if tags2[w] == tags1[u]] for u in order}
    mapping: dict[int, int] = {}
    used: set[int] = set()

    def extend(k: int) -> bool:
        if k == len(order):
            return True
        u = order[k]
        for w in candidates[u]:
            if w in used:
                continue
            ok = True
            for prev, img in mapping.items():
                key1 = (u, prev) if u < prev else (prev, u)
                key2 = (w, img) if w < img else (img, w)
                if mult1.get(key1, 0) != mult2.get(key2, 0):
                    ok = False
                    break
            if ok:
                mapping[u] = w
                used.add(w)
                if extend(k + 1):
                    return True
                del mapping[u]
                used.discard(w)
        return False

    return extend(0)


def brute_force_isomorphic(
    g1: RegionGraph, g2: RegionGraph, modulo_swap: bool = False
) -> bool:
    """Isomorphism by exhaustive backtracking over vertex bijections.

    Respects signs and genera; with ``modulo_swap`` a globally
    sign-negating bijection is also accepted.  Independent of
    ``canonical_code`` by construction.
    """
    flat1 = _flatten(g1)
    flat2 = _flatten(g2)
    if _bijection_exists(flat1, flat2):
        return True
    if modulo_swap:
        return _bijection_exists(flat1, _swapped(flat2))
    return False


# ---------------------------------------------------------------------------
# Degree-sorted labeled trees via bipartite Prüfer codes.
# ---------------------------------------------------------------------------


def _decode(low: tuple[int, ...], high: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """The spanning tree of K_{h,h} over {0..h-1} | {h..2h-1} whose
    bipartite Prüfer code is (``low``, ``high``), each of length h-1.

    The smallest leaf is removed at each step, as in Prüfer's decoding;
    its neighbor lies on the other side, so it is the next unread label
    of the other side's code.
    """
    half = len(low) + 1
    nv = 2 * half
    remaining = [0] * nv
    for v in low + high:
        remaining[v] += 1
    removed = [False] * nv
    unread = (iter(high), iter(low))
    edges = []
    for _ in range(nv - 2):
        leaf = next(v for v in range(nv) if not remaining[v] and not removed[v])
        anchor = next(unread[leaf >= half])
        edges.append((min(leaf, anchor), max(leaf, anchor)))
        removed[leaf] = True
        remaining[anchor] -= 1
    edges.append(tuple(v for v in range(nv) if not removed[v]))
    return tuple(sorted(edges))


def _sorted_codes(labels: range) -> list[tuple[int, ...]]:
    """Codes of length len(labels)-1 whose label counts do not increase
    along ``labels``."""
    codes = []
    for code in product(labels, repeat=len(labels) - 1):
        counts = [code.count(v) for v in labels]
        if all(a >= b for a, b in zip(counts, counts[1:])):
            codes.append(code)
    return codes


def _split_trees(nv: int) -> list[tuple[tuple[int, int], ...]]:
    """Labeled trees on {0..nv-1}, bipartite over the fixed half split,
    whose degrees do not increase along either half."""
    half = nv // 2
    highs = _sorted_codes(range(half, nv))
    return [_decode(low, high) for low in _sorted_codes(range(half)) for high in highs]


def _profile(flat: _Flat) -> tuple:
    labels, adjacency, _ = flat
    rows = []
    for v, (sign, genus) in labels.items():
        nbrs = sorted((labels[w][0], len(adjacency[w])) for w in adjacency[v])
        rows.append((sign, genus, len(adjacency[v]), tuple(nbrs)))
    return tuple(sorted(rows))


def _negated_profile(profile: tuple) -> tuple:
    return tuple(
        sorted(
            (-sign, genus, deg, tuple(sorted((-s, d) for s, d in nbrs)))
            for sign, genus, deg, nbrs in profile
        )
    )


def oracle_count_trees(n: int, modulo_swap: bool = False) -> int:
    """Count equicolored-tree classes on 2n vertices by exhaustive search.

    Decodes the degree-sorted labeled trees over the fixed half split from
    their bipartite Prüfer codes and quotients them by brute-force
    isomorphism in the requested sign mode.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    nv = 2 * n
    if nv > ORACLE_MAX_VERTICES:
        raise ValueError(
            f"brute-force oracle is capped at {ORACLE_MAX_VERTICES} vertices, "
            f"got {nv}"
        )
    trees = _split_trees(nv)
    # Buckets keyed by a cheap invariant; each holds the representatives
    # found so far, paired with their sign-swapped forms when the swap is
    # identified, so membership tests never rebuild structures.
    buckets: dict[tuple, list[tuple[_Flat, _Flat | None]]] = defaultdict(list)
    count = 0
    for edges in trees:
        first = _flat_tree(edges, nv, True)
        profile = _profile(first)
        if modulo_swap:
            candidates = ((first, min(profile, _negated_profile(profile))),)
        else:
            candidates = (
                (first, profile),
                (_flat_tree(edges, nv, False), _negated_profile(profile)),
            )
        for flat, key in candidates:
            reps = buckets[key]
            hit = False
            for rep, rep_swapped in reps:
                if _bijection_exists(flat, rep) or (
                    rep_swapped is not None and _bijection_exists(flat, rep_swapped)
                ):
                    hit = True
                    break
            if not hit:
                reps.append((flat, _swapped(flat) if modulo_swap else None))
                count += 1
    return count
