"""Brute-force verification oracle for the tree enumerator.

This module deliberately shares no machinery with the production
enumerator or the canonical form.  Trees are generated exhaustively as
labeled objects through their Prüfer sequences, colored by their unique
bipartition, and counted up to isomorphism by explicit backtracking
search over vertex bijections.  The counts must agree with the orderly
generator; disagreement means one side is wrong.

The Prüfer space (2n)^(2n-2) is walked in vectorized batches.  Only
trees whose bipartition is {0..n-1} | {n..2n-1} are retained for the
quotient: every isomorphism class of balanced colored trees contains such
a representative (relabel each part onto a fixed half), so the class
count is unchanged while the quotient stage shrinks by orders of
magnitude.  A tree is bipartite over that fixed split only if its Prüfer
sequence contains exactly n-1 low labels (degree sums over one part count
every edge once), which prunes most sequences before decoding.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

import numpy as np

from bcontact.region_graph import RegionGraph, RegionVertex

ORACLE_MAX_VERTICES = 10
_BATCH = 1 << 20

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
# Exhaustive labeled-tree generation via Prüfer sequences.
# ---------------------------------------------------------------------------


def _decode_batch(seqs: np.ndarray, nv: int) -> tuple[np.ndarray, np.ndarray]:
    """Decode Prüfer sequences to edge lists and bipartition colors.

    ``seqs`` has shape (B, nv-2); returns edges of shape (B, nv-1, 2) and
    colors of shape (B, nv) with colors[i, v] in {0, 1} a proper
    2-coloring of tree i.
    """
    batch, m = seqs.shape
    rows = np.arange(batch)
    rem = (seqs[:, :, None] == np.arange(nv, dtype=seqs.dtype)).sum(
        axis=1, dtype=np.int16
    )
    used = np.zeros((batch, nv), dtype=bool)
    edges = np.empty((batch, nv - 1, 2), dtype=np.int8)
    for i in range(m):
        avail = (rem == 0) & ~used
        leaf = np.argmax(avail, axis=1)
        anchor = seqs[:, i]
        edges[:, i, 0] = leaf
        edges[:, i, 1] = anchor
        used[rows, leaf] = True
        rem[rows, anchor] -= 1
    avail = (rem == 0) & ~used
    first = np.argmax(avail, axis=1)
    avail[rows, first] = False
    second = np.argmax(avail, axis=1)
    edges[:, m, 0] = first
    edges[:, m, 1] = second

    colors = np.zeros((batch, nv), dtype=np.int8)
    colors[rows, second] = 1
    # Walk the decode order backwards: each removed leaf attaches to a vertex
    # of the remaining tree, whose color is already settled.
    for i in range(m - 1, -1, -1):
        leaf = edges[:, i, 0].astype(np.intp)
        anchor = edges[:, i, 1].astype(np.intp)
        colors[rows, leaf] = 1 - colors[rows, anchor]
    return edges, colors


@lru_cache(maxsize=None)
def _split_trees(nv: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """All labeled trees on {0..nv-1} bipartite over the fixed half split."""
    if nv == 2:
        return (((0, 1),),)
    m = nv - 2
    half = nv // 2
    total = nv**m
    low_mask = (1 << half) - 1
    high_mask = low_mask << half
    found: list[tuple[tuple[int, int], ...]] = []
    for start in range(0, total, _BATCH):
        stop = min(start + _BATCH, total)
        base = np.arange(start, stop, dtype=np.int64)
        seqs = np.empty((stop - start, m), dtype=np.int8)
        x = base
        for j in range(m - 1, -1, -1):
            seqs[:, j] = x % nv
            x = x // nv
        # Degree sums over one part count each edge once, so a tree bipartite
        # over the fixed split has exactly half-1 low labels in its sequence.
        pre = (seqs < half).sum(axis=1) == half - 1
        if not pre.any():
            continue
        edges, colors = _decode_batch(seqs[pre], nv)
        mask = np.zeros(len(edges), dtype=np.int32)
        for v in range(nv):
            mask |= colors[:, v].astype(np.int32) << v
        keep = (mask == low_mask) | (mask == high_mask)
        for tree in edges[keep]:
            found.append(tuple(sorted((min(a, b), max(a, b)) for a, b in tree)))
    return tuple(found)


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

    Generates every labeled tree from its Prüfer sequence, keeps the
    balanced-bipartition representatives over the fixed half split, and
    quotients by brute-force isomorphism in the requested sign mode.
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
