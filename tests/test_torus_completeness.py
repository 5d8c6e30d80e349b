"""Completeness of the torus enumerator against labeled brute force.

The Prüfer oracle guards the sphere side; these checks rebuild the torus
families from scratch at small sizes: every labeled multigraph with the
right edge count, filtered and quotiented with the bijection-search
isomorphism test, must produce exactly the classes the generator emits.
"""

from itertools import combinations_with_replacement

from bcontact.admissibility import is_admissible
from bcontact.enumeration import enum_torus_classes
from bcontact.region_graph import RegionGraph
from bcontact.surfaces import S3_T2, DividingSetClass, Surface

from oracle import brute_force_isomorphic


def connected(nv, edges):
    adjacency = {v: set() for v in range(nv)}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == nv


def two_colorings(nv, edges):
    """Both proper 2-colorings of a connected graph, or [] if none exist."""
    color = {0: 0}
    stack = [0]
    adjacency = {v: [] for v in range(nv)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)
            elif color[w] == color[u]:
                return []
    return [color, {v: 1 - c for v, c in color.items()}]


def labeled_multigraphs(nv, ne):
    pairs = [(a, b) for a in range(nv) for b in range(a + 1, nv)]
    for multiset in combinations_with_replacement(pairs, ne):
        if any(multiset.count(e) > 2 for e in multiset):
            continue
        if connected(nv, multiset):
            yield multiset


def quotient(graphs):
    reps = []
    for g in graphs:
        if not any(brute_force_isomorphic(g, rep) for rep in reps):
            reps.append(g)
    return reps


def brute_force_cycle_classes(nv):
    """Admissible unicyclic torus classes on nv labeled vertices, by brute force."""
    found = []
    for edges in labeled_multigraphs(nv, nv):
        for color in two_colorings(nv, edges):
            g = RegionGraph([(v, 1 if color[v] == 0 else -1, 0) for v in range(nv)], edges)
            if is_admissible(S3_T2, DividingSetClass(Surface.TORUS, g, (1, 1))):
                found.append(g)
    return quotient(found)


def brute_force_genus_tree_classes(nv):
    """Admissible genus-carrying torus trees on nv labeled vertices."""
    found = []
    for edges in labeled_multigraphs(nv, nv - 1):
        colorings = two_colorings(nv, edges)
        for color in colorings:
            for genus_vertex in range(nv):
                g = RegionGraph(
                    [
                        (v, 1 if color[v] == 0 else -1, 1 if v == genus_vertex else 0)
                        for v in range(nv)
                    ],
                    edges,
                )
                if is_admissible(S3_T2, DividingSetClass(Surface.TORUS, g)):
                    found.append(g)
    return quotient(found)


class TestAgainstLabeledBruteForce:
    def test_unicyclic_classes_per_size(self):
        classes = enum_torus_classes(6, 1)
        for nv in (2, 3, 4, 5, 6):
            generated = [
                d for d in classes
                if d.slope is not None and d.graph.vertex_count == nv
            ]
            brute = brute_force_cycle_classes(nv)
            assert len(generated) == len(brute), (nv, len(generated), len(brute))

    def test_genus_tree_classes_per_size(self):
        classes = enum_torus_classes(6, 1)
        for nv in (2, 3, 4, 5, 6):
            generated = [
                d for d in classes
                if d.slope is None and d.graph.vertex_count == nv
            ]
            brute = brute_force_genus_tree_classes(nv)
            assert len(generated) == len(brute), (nv, len(generated), len(brute))

    def test_generated_classes_pairwise_nonisomorphic(self):
        classes = enum_torus_classes(5, 1)
        for i, a in enumerate(classes):
            for b in classes[i + 1:]:
                if a.slope == b.slope:
                    assert not brute_force_isomorphic(a.graph, b.graph)
