"""Euler pairing, admissibility, and the tightness predicate."""

from bcontact.admissibility import Verdict, euler_pairing, is_admissible, is_tight_candidate
from bcontact.enumeration import enum_equicolored_trees, enum_torus_classes
from bcontact.region_graph import RegionGraph
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

from helpers import sphere_class, torus_cycle


class TestVerdict:
    def test_truth_is_the_verdict_not_the_tuple(self):
        assert not Verdict(False, "x")
        assert Verdict(True, "x")


class TestEulerPairing:
    def test_equator_balances(self):
        assert euler_pairing(sphere_class([1, -1], [(0, 1)])) == 0

    def test_path_of_four_balances(self):
        # Regions are disk, annulus, annulus, disk: (1 + 0) - (0 + 1) = 0.
        d = sphere_class([1, -1, 1, -1], [(0, 1), (1, 2), (2, 3)])
        assert euler_pairing(d) == 0

    def test_two_region_genus_tree_is_off_by_two(self):
        g = RegionGraph([(0, 1, 1), (1, -1, 0)], [(0, 1)])
        assert euler_pairing(DividingSetClass(Surface.TORUS, g)) == -2

    def test_sphere_pairing_is_twice_the_color_imbalance(self):
        for n in range(1, 6):
            for g in enum_equicolored_trees(n):
                d = DividingSetClass(Surface.SPHERE, g)
                positive = sum(1 for v in g.vertices if v.sign > 0)
                negative = g.vertex_count - positive
                assert euler_pairing(d) == 2 * (positive - negative) == 0


class TestIsAdmissible:
    def test_balanced_trees_are_admissible(self):
        for g in enum_equicolored_trees(3):
            assert is_admissible(S3_S2, DividingSetClass(Surface.SPHERE, g))

    def test_genus_tree_with_two_regions_is_not(self):
        g = RegionGraph([(0, 1, 1), (1, -1, 0)], [(0, 1)])
        verdict = is_admissible(S3_T2, DividingSetClass(Surface.TORUS, g))
        assert not verdict and "-2" in verdict.reason

    def test_bare_two_cycle_is_admissible(self):
        assert is_admissible(S3_T2, torus_cycle(2))

    def test_manifold_surface_mismatch(self):
        verdict = is_admissible(S3_T2, sphere_class([1, -1], [(0, 1)]))
        assert not verdict


class TestIsTightCandidate:
    def test_single_edge_sphere_class(self):
        assert is_tight_candidate(S3_S2, sphere_class([1, -1], [(0, 1)]))

    def test_balanced_path_of_four_is_not(self):
        d = sphere_class([1, -1, 1, -1], [(0, 1), (1, 2), (2, 3)])
        assert not is_tight_candidate(S3_S2, d)

    def test_bare_cycles_are_candidates(self):
        assert is_tight_candidate(S3_T2, torus_cycle(2))
        assert is_tight_candidate(S3_T2, torus_cycle(4))

    def test_pendant_edge_disqualifies_with_witness(self):
        g = RegionGraph(
            [(0, 1, 0), (1, -1, 0), (2, 1, 0), (3, -1, 0)],
            [(0, 1), (0, 1), (1, 2), (2, 3)],
        )
        verdict = is_tight_candidate(S3_T2, DividingSetClass(Surface.TORUS, g, (1, 1)))
        assert not verdict and "(2, 3)" in verdict.reason

    def test_four_cycle_with_pendant_edge_is_not_a_candidate(self):
        g = RegionGraph(
            [(0, 1, 0), (1, -1, 0), (2, 1, 0), (3, -1, 0), (4, 1, 0)],
            [(0, 1), (1, 2), (2, 3), (3, 0), (3, 4)],
        )
        d = DividingSetClass(Surface.TORUS, g, (1, 1))
        assert not is_tight_candidate(S3_T2, d)

    def test_tight_candidate_implies_admissible(self):
        manifold = {Surface.SPHERE: S3_S2, Surface.TORUS: S3_T2}
        classes = [
            DividingSetClass(Surface.SPHERE, g)
            for n in range(1, 5)
            for g in enum_equicolored_trees(n)
        ] + enum_torus_classes(6, 2)
        for d in classes:
            m = manifold[d.surface]
            if is_tight_candidate(m, d):
                assert is_admissible(m, d)

    def test_exactly_one_sphere_candidate_per_batch(self):
        for n in range(1, 5):
            hits = [
                g
                for g in enum_equicolored_trees(n)
                if is_tight_candidate(S3_S2, DividingSetClass(Surface.SPHERE, g))
            ]
            assert len(hits) == (1 if n == 1 else 0)
