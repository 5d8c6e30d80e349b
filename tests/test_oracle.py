"""The brute-force oracle itself: decode correctness and small counts."""

import random
import subprocess
import sys
from itertools import permutations, product
from pathlib import Path

import pytest

from bcontact.region_graph import RegionGraph

import oracle
from oracle import _decode, brute_force_isomorphic, by_id, oracle_count_trees


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


def all_code_pairs(nv):
    half = nv // 2
    lows = product(range(half), repeat=half - 1)
    highs = list(product(range(half, nv), repeat=half - 1))
    return [(low, high) for low in lows for high in highs]


def all_split_trees(nv):
    """Every labeled tree over the fixed half split, degree-sorted or not."""
    return [_decode(low, high) for low, high in all_code_pairs(nv)]


class TestDecode:
    @pytest.mark.parametrize("nv", [4, 6])
    def test_matches_reference_on_every_code_pair(self, nv):
        half = nv // 2
        reference = set()
        for seq in product(range(nv), repeat=nv - 2):
            tree = prufer_decode_reference(seq, nv)
            if all(a < half <= b for a, b in tree):
                reference.add(tuple(tree))
        decoded = all_split_trees(nv)
        assert len(decoded) == len(reference)
        assert set(decoded) == reference

    @pytest.mark.parametrize("nv", [2, 4, 6, 8])
    def test_code_pairs_count_follows_the_bipartite_formula(self, nv):
        # Spanning trees of K_{h,h} number h^(2h-2) (Scoins), one per pair.
        half = nv // 2
        trees = set()
        for low, high in all_code_pairs(nv):
            tree = _decode(low, high)
            trees.add(tree)
            # The degree-sorted filter reads each degree off the codes.
            ends = [v for edge in tree for v in edge]
            assert [ends.count(v) for v in range(nv)] == [
                1 + (low + high).count(v) for v in range(nv)
            ]
        assert len(trees) == half ** (2 * half - 2)


class TestDegreeSorted:
    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_quotient_equals_quotient_over_all_codes(self, monkeypatch, modulo_swap):
        sorted_counts = [oracle_count_trees(n, modulo_swap) for n in (1, 2, 3, 4)]
        monkeypatch.setattr(oracle, "_split_trees", all_split_trees)
        assert [oracle_count_trees(n, modulo_swap) for n in (1, 2, 3, 4)] == sorted_counts

    def test_keeps_only_sorted_codes(self):
        # On each side, 47 codes of length 4 over 5 labels have
        # non-increasing label counts: 1 + 4 + 6 + 12 + 24 arrangements of
        # the partitions 4, 3+1, 2+2, 2+1+1 and 1+1+1+1.
        assert len(oracle._split_trees(10)) == 47 ** 2


class TestImportFootprint:
    def test_no_numpy(self):
        # A fresh interpreter, so modules another test imported do not count.
        code = (
            "import sys\n"
            f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
            "import oracle\n"
            "print('numpy' in sys.modules)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == "False"


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
