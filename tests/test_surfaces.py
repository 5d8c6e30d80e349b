"""Surface binding: embeddability and Euler-characteristic bookkeeping."""

import pytest

from bcontact.enumeration import enum_equicolored_trees, enum_torus_classes
from bcontact.region_graph import InvalidRegionGraphError, RegionGraph
from bcontact.surfaces import DividingSetClass, Surface, check_embeddable, region_euler

from helpers import sphere_class, torus_cycle, total_euler


class TestRegionEuler:
    @pytest.mark.parametrize(
        "genus,boundaries,expected", [(0, 1, 1), (0, 2, 0), (1, 1, -1)]
    )
    def test_disk_annulus_holed_torus(self, genus, boundaries, expected):
        assert region_euler(genus, boundaries) == expected

    def test_rejects_closed_regions(self):
        with pytest.raises(ValueError):
            region_euler(0, 0)


def embedding_error(surface, g, slope=None):
    """The message ``DividingSetClass`` raises for a class that does not embed."""
    with pytest.raises(InvalidRegionGraphError) as caught:
        DividingSetClass(surface, g, slope)
    return str(caught.value)


class TestCheckEmbeddable:
    """Embeddability is checked where a class is made: the constructor
    raises with the first rule of ``check_embeddable`` the class breaks."""

    def test_equator_on_sphere(self):
        assert check_embeddable(sphere_class([1, -1], [(0, 1)])) is None

    def test_sphere_rejects_cycles(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        assert embedding_error(Surface.SPHERE, g).startswith("sphere requires tree: ")

    def test_bare_cycle_with_slope_on_torus(self):
        g = RegionGraph(
            [(0, 1, 0), (1, -1, 0), (2, 1, 0), (3, -1, 0)],
            [(0, 1), (1, 2), (2, 3), (3, 0)],
        )
        assert check_embeddable(DividingSetClass(Surface.TORUS, g, (1, 1))) is None

    def test_torus_cycle_requires_slope(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        assert embedding_error(Surface.TORUS, g).startswith("slope: ")

    def test_torus_slope_must_be_normalized(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        for slope in ((2, 4), (1, 2), (0, 1)):
            assert embedding_error(Surface.TORUS, g, slope).startswith("slope: ")

    @pytest.mark.parametrize(
        "slope,entry",
        [((True, True), "True"), ((1, True), "True"), ((1.0, 1), "1.0"), ((3, 2.0), "2.0"),
         (("3", 2), "'3'")],
    )
    def test_slope_entries_must_be_integers(self, slope, entry):
        # A bool would reach JSON as true, and a float math.gcd as a TypeError.
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        message = embedding_error(Surface.TORUS, g, slope)
        assert message == f"slope: slope entry {entry} is not an integer"

    def test_torus_tree_needs_exactly_one_genus_region(self):
        flat = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1)])
        assert embedding_error(Surface.TORUS, flat).startswith("genus: ")
        one_genus = RegionGraph([(0, 1, 1), (1, -1, 0)], [(0, 1)])
        assert check_embeddable(DividingSetClass(Surface.TORUS, one_genus)) is None

    def test_empty_dividing_set_rejected(self):
        lonely = RegionGraph([(0, 1, 1)], [])
        assert embedding_error(Surface.TORUS, lonely).startswith("no curves: ")

    def test_replace_and_make_check_too(self):
        # namedtuple's _replace goes through _make, which would otherwise
        # skip __new__ and so the check.
        d = torus_cycle(2)
        with pytest.raises(InvalidRegionGraphError, match="^slope: "):
            d._replace(slope=(2, 4))
        with pytest.raises(InvalidRegionGraphError, match="^slope: "):
            DividingSetClass._make([d.surface, d.graph, None])
        assert d._replace(slope=(3, 2)).slope == (3, 2)

    def test_surface_is_coerced_to_a_surface(self):
        # A surface given by its value is the Surface, so the sphere rules
        # apply, not the torus ones.
        d = sphere_class([1, -1], [(0, 1)])
        assert DividingSetClass("sphere", d.graph).surface is Surface.SPHERE
        with pytest.raises(ValueError, match="'cylinder' is not a valid Surface"):
            DividingSetClass("cylinder", d.graph)


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
