"""The brute-force oracle itself: decode correctness and small counts."""

import random
from itertools import permutations

import numpy as np
import pytest

from bcontact.region_graph import RegionGraph

from oracle import (
    _decode_batch,
    _split_trees,
    brute_force_isomorphic,
    by_id,
    oracle_count_trees,
)


def prufer_decode_reference(seq, nv):
    """Textbook decode: smallest available leaf first; test-local."""
    rem = [0] * nv
    for s in seq:
        rem[s] += 1
    used = [False] * nv
    edges = []
    for s in seq:
        leaf = min(v for v in range(nv) if rem[v] == 0 and not used[v])
        edges.append((leaf, s))
        used[leaf] = True
        rem[s] -= 1
    last = [v for v in range(nv) if rem[v] == 0 and not used[v]]
    edges.append((last[0], last[1]))
    return sorted((min(a, b), max(a, b)) for a, b in edges)


class TestDecodeBatch:
    def test_matches_reference_on_full_six_vertex_space(self):
        nv = 6
        seqs = np.array(
            [[a, b, c, d] for a in range(6) for b in range(6) for c in range(6) for d in range(6)],
            dtype=np.int8,
        )
        edges, colors = _decode_batch(seqs, nv)
        rng = random.Random(5)
        for idx in rng.sample(range(len(seqs)), 250):
            got = sorted((min(a, b), max(a, b)) for a, b in edges[idx])
            assert got == prufer_decode_reference(list(seqs[idx]), nv)
        # Colors are proper 2-colorings everywhere.
        for idx in rng.sample(range(len(seqs)), 250):
            for a, b in edges[idx]:
                assert colors[idx][a] != colors[idx][b]

    def test_split_tree_counts_follow_the_bipartite_formula(self):
        # Labeled trees bipartite over a fixed (h, h) split number h^(h-1)^2.
        assert len(_split_trees(2)) == 1
        assert len(_split_trees(4)) == 2 ** 1 * 2 ** 1
        assert len(_split_trees(6)) == 3 ** 2 * 3 ** 2
        assert len(_split_trees(8)) == 4 ** 3 * 4 ** 3


class TestBruteForceIsomorphic:
    def test_agrees_with_exhaustive_permutations(self):
        rng = random.Random(11)
        pool = []
        for signs, edges in [
            ([1, -1, 1, -1], [(0, 1), (1, 2), (2, 3)]),
            ([1, -1, -1, -1], [(0, 1), (0, 2), (0, 3)]),
            ([1, -1], [(0, 1), (0, 1)]),
            ([1, -1, 1], [(0, 1), (1, 2)]),
            ([1, -1, 1, -1], [(0, 1), (1, 2), (2, 3), (3, 0)]),
        ]:
            pool.append(RegionGraph([(i, s, 0) for i, s in enumerate(signs)], edges))

        def exhaustive(g1, g2):
            if g1.vertex_count != g2.vertex_count:
                return False
            ids1, ids2 = list(g1.vertex_ids), list(g2.vertex_ids)
            vertices1, vertices2 = by_id(g1), by_id(g2)
            for perm in permutations(ids2):
                mapping = dict(zip(ids1, perm))
                if any(vertices1[v].sign != vertices2[mapping[v]].sign for v in ids1):
                    continue
                mapped = sorted(
                    (min(mapping[a], mapping[b]), max(mapping[a], mapping[b]))
                    for a, b in g1.edges
                )
                if mapped == sorted(g2.edges):
                    return True
            return False

        for _ in range(120):
            a, b = rng.choice(pool), rng.choice(pool)
            assert brute_force_isomorphic(a, b) == exhaustive(a, b)

    def test_swap_mode(self):
        plus_star = RegionGraph([(0, 1, 0), (1, -1, 0), (2, -1, 0)], [(0, 1), (0, 2)])
        minus_star = RegionGraph([(0, -1, 0), (1, 1, 0), (2, 1, 0)], [(0, 1), (0, 2)])
        assert not brute_force_isomorphic(plus_star, minus_star)
        assert brute_force_isomorphic(plus_star, minus_star, modulo_swap=True)

    def test_genus_respected(self):
        flat = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1)])
        bumpy = RegionGraph([(0, 1, 1), (1, -1, 0)], [(0, 1)])
        assert not brute_force_isomorphic(flat, bumpy)


class TestOracleCounts:
    def test_small_counts_both_modes(self):
        assert [oracle_count_trees(n) for n in (1, 2, 3)] == [1, 1, 4]
        assert [oracle_count_trees(n, True) for n in (1, 2, 3)] == [1, 1, 3]

    def test_cap(self):
        with pytest.raises(ValueError):
            oracle_count_trees(6)
