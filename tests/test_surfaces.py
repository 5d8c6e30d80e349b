"""Surface binding: embeddability and Euler-characteristic bookkeeping."""

import pytest

from bcontact.enumeration import enum_equicolored_trees, enum_torus_classes
from bcontact.region_graph import RegionGraph
from bcontact.surfaces import (
    DividingSetClass,
    ManifoldSpec,
    Surface,
    check_embeddable,
    region_euler,
)

from helpers import sphere_class, total_euler


class TestRegionEuler:
    @pytest.mark.parametrize(
        "genus,boundaries,expected", [(0, 1, 1), (0, 2, 0), (1, 1, -1)]
    )
    def test_disk_annulus_holed_torus(self, genus, boundaries, expected):
        assert region_euler(genus, boundaries) == expected

    def test_rejects_closed_regions(self):
        with pytest.raises(ValueError):
            region_euler(0, 0)


class TestManifoldSpec:
    def test_only_the_three_sphere(self):
        assert ManifoldSpec(Surface.TORUS).complement_components == 2


class TestCheckEmbeddable:
    def test_equator_on_sphere(self):
        assert check_embeddable(sphere_class([1, -1], [(0, 1)])) is None

    def test_sphere_rejects_cycles(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        violation = check_embeddable(DividingSetClass(Surface.SPHERE, g))
        assert violation is not None and violation.rule == "sphere requires tree"

    def test_bare_cycle_with_slope_on_torus(self):
        g = RegionGraph(
            [(0, 1, 0), (1, -1, 0), (2, 1, 0), (3, -1, 0)],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        assert check_embeddable(DividingSetClass(Surface.TORUS, g, (1, 1))) is None

    def test_torus_cycle_requires_slope(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        violation = check_embeddable(DividingSetClass(Surface.TORUS, g))
        assert violation is not None and violation.rule == "slope"

    def test_torus_slope_must_be_normalized(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        for slope in ((2, 4), (1, 2), (0, 1)):
            violation = check_embeddable(DividingSetClass(Surface.TORUS, g, slope))
            assert violation is not None and violation.rule == "slope"

    def test_torus_tree_needs_exactly_one_genus_region(self):
        flat = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1)])
        violation = check_embeddable(DividingSetClass(Surface.TORUS, flat))
        assert violation is not None and violation.rule == "genus"
        one_genus = RegionGraph([(0, 1, 1), (1, -1, 0)], [(0, 1)])
        assert check_embeddable(DividingSetClass(Surface.TORUS, one_genus)) is None

    def test_empty_dividing_set_rejected(self):
        lonely = RegionGraph([(0, 1, 1)], [])
        violation = check_embeddable(DividingSetClass(Surface.TORUS, lonely))
        assert violation is not None and violation.rule == "no curves"


class TestTotalEuler:
    def test_equator_gives_sphere_euler(self):
        assert total_euler(sphere_class([1, -1], [(0, 1)])) == 2

    def test_bare_two_cycle_gives_torus_euler(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        assert total_euler(DividingSetClass(Surface.TORUS, g, (1, 1))) == 0

    def test_genus_tree_gives_torus_euler(self):
        g = RegionGraph([(0, 1, 1), (1, -1, 0)], [(0, 1)])
        assert total_euler(DividingSetClass(Surface.TORUS, g)) == 0

    def test_conservation_over_enumerated_classes(self):
        for n in range(1, 5):
            for g in enum_equicolored_trees(n):
                assert total_euler(DividingSetClass(Surface.SPHERE, g)) == 2
        for d in enum_torus_classes(6, 2):
            assert total_euler(d) == 0

    def test_bipartite_degree_sums_match_edge_count(self):
        for n in range(1, 5):
            for g in enum_equicolored_trees(n):
                positive = sum(g.degrees[v.id] for v in g.vertices if v.sign > 0)
                negative = sum(g.degrees[v.id] for v in g.vertices if v.sign < 0)
                assert positive == negative == g.edge_count
