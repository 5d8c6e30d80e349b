"""Classification records, leaf census, and the batch table."""

import importlib
from fractions import Fraction
from math import comb, floor

import pytest

from bcontact import admissibility
from bcontact.admissibility import is_admissible, is_tight_candidate
from bcontact.classify import (
    InadmissibleError,
    RegimeDescriptor,
    classification_table,
    classify,
    leaf_census,
)
from bcontact.enumeration import ResourceLimitError, enum_torus_classes
from bcontact.formats import render_table_csv, render_table_jsonl
from bcontact.region_graph import RegionGraph
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

# The package re-exports ``classify``, which hides the submodule's name.
CLASSIFY_MODULE = importlib.import_module("bcontact.classify")


def sphere_class(signs, edges):
    g = RegionGraph([(i, s, 0) for i, s in enumerate(signs)], edges)
    return DividingSetClass(Surface.SPHERE, g)


def torus_cycle(length, slope):
    signs = [1 if i % 2 == 0 else -1 for i in range(length)]
    edges = [(0, 1), (0, 1)] if length == 2 else [
        (i, (i + 1) % length) for i in range(length)
    ]
    g = RegionGraph([(i, s, 0) for i, s in enumerate(signs)], edges)
    return DividingSetClass(Surface.TORUS, g, slope)


def tight_count_by_fractions(n, p, q):
    """Second implementation of the solid-torus count, via Fractions."""
    x = Fraction(-p, q)
    coefficients = []
    while True:
        a = floor(x)
        if a == x:
            coefficients.append(a)
            break
        coefficients.append(a)
        x = 1 / (a - x)
    if coefficients == [-1]:
        r = s = 1
    else:
        prefix = 1
        for a in coefficients[:-1]:
            prefix *= a + 1
        r = abs(prefix * coefficients[-1])
        s = abs(prefix * (coefficients[-1] + 1))
    cat = comb(2 * n, n) // (n + 1)
    return cat * ((r - s) * n + s)


class TestRegimeDescriptor:
    def test_impossible_regime_has_no_parameters(self):
        with pytest.raises(ValueError):
            RegimeDescriptor(0, 2)


class TestClassifySphere:
    def test_connected_dividing_set(self):
        record = classify(S3_S2, sphere_class([1, -1], [(0, 1)]))
        assert record.tight == RegimeDescriptor(1, 0)
        assert record.mixed == RegimeDescriptor(2, 1)
        assert record.fully_overtwisted == RegimeDescriptor(1, 2)
        assert record.tight_count_detail is None

    def test_six_region_tree_is_fully_overtwisted_only(self):
        record = classify(
            S3_S2,
            sphere_class([1, -1, 1, -1, 1, -1], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        )
        assert record.tight == RegimeDescriptor(0, 0)
        assert record.mixed == RegimeDescriptor(0, 0)
        assert record.fully_overtwisted == RegimeDescriptor(1, 2)

    def test_rejects_inadmissible(self):
        unbalanced = sphere_class([1, -1, -1], [(0, 1), (0, 2)])
        with pytest.raises(InadmissibleError):
            classify(S3_S2, unbalanced)


class TestClassifyTorus:
    def test_bare_two_cycle_slope_three_two(self):
        record = classify(S3_T2, torus_cycle(2, (3, 2)))
        assert record.tight == RegimeDescriptor(4, 0)
        assert record.mixed == RegimeDescriptor(4, 2)
        assert record.fully_overtwisted == RegimeDescriptor(1, 4)
        detail = record.tight_count_detail
        assert detail is not None and detail.count == 2
        assert (detail.r, detail.s) == (2, 1)

    def test_tight_factor_agrees_with_independent_formula(self):
        for d in enum_torus_classes(6, 3):
            record = classify(S3_T2, d)
            if record.tight.finite_factor:
                n = d.graph.edge_count // 2
                assert record.tight.finite_factor == 2 * tight_count_by_fractions(
                    n, *d.slope
                )

    def test_pendant_tree_kills_tight_regime(self):
        g = RegionGraph(
            [(0, 1, 0), (1, -1, 0), (2, 1, 0), (3, -1, 0)],
            [(0, 1), (0, 1), (1, 2), (0, 3)],
        )
        record = classify(S3_T2, DividingSetClass(Surface.TORUS, g, (1, 1)))
        assert record.tight == RegimeDescriptor(0, 0)
        assert record.mixed == RegimeDescriptor(0, 0)
        assert record.fully_overtwisted == RegimeDescriptor(1, 4)

    def test_tight_iff_candidate_over_enumeration(self):
        for d in enum_torus_classes(6, 2):
            record = classify(S3_T2, d)
            assert (record.tight.finite_factor > 0) == bool(is_tight_candidate(S3_T2, d))


class TestLeafCensus:
    def test_equator_census(self):
        census = leaf_census(S3_S2, sphere_class([1, -1], [(0, 1)]))
        assert (census.leaves_dim3, census.leaves_dim2, census.leaves_dim1) == (2, 2, 1)

    def test_six_region_tree(self):
        census = leaf_census(
            S3_S2,
            sphere_class([1, -1, 1, -1, 1, -1], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]),
        )
        assert (census.leaves_dim3, census.leaves_dim2, census.leaves_dim1) == (2, 6, 5)

    def test_bare_four_cycle(self):
        census = leaf_census(S3_T2, torus_cycle(4, (1, 1)))
        assert (census.leaves_dim3, census.leaves_dim2, census.leaves_dim1) == (2, 4, 4)

    def test_dimension_gap_identity(self):
        for n_curves, expected_gap in ((5, {1}),):
            records = classification_table(S3_S2, n_curves)
            for record in records:
                census = leaf_census(S3_S2, record.dividing_set)
                assert census.leaves_dim2 - census.leaves_dim1 in expected_gap
        for record in classification_table(S3_T2, 5, 2):
            census = leaf_census(S3_T2, record.dividing_set)
            assert census.leaves_dim2 - census.leaves_dim1 in {0, 1}


class TestClassificationTable:
    def test_sphere_row_count_up_to_six_regions(self):
        records = classification_table(S3_S2, 5)
        assert len(records) == 1 + 1 + 4

    def test_exactly_one_tight_row_on_the_sphere(self):
        records = classification_table(S3_S2, 5)
        tight_rows = [r for r in records if r.tight.finite_factor > 0]
        assert len(tight_rows) == 1
        assert tight_rows[0].dividing_set.graph.edge_count == 1

    def test_torus_two_cycle_rows_cover_requested_slopes(self):
        records = classification_table(S3_T2, 2, 2)
        slopes = sorted(
            r.dividing_set.slope for r in records if r.dividing_set.slope is not None
        )
        assert slopes == [(1, 1), (2, 1)]

    def test_overtwisted_ranks_by_surface(self):
        for record in classification_table(S3_S2, 5):
            assert record.fully_overtwisted == RegimeDescriptor(1, 2)
        for record in classification_table(S3_T2, 4, 2):
            assert record.fully_overtwisted == RegimeDescriptor(1, 4)


class TestFactoredTable:
    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_torus_table_equals_per_class_classification(self, modulo_swap):
        classes = enum_torus_classes(6, 12, modulo_swap)
        expected = [classify(S3_T2, d) for d in classes]
        assert classification_table(S3_T2, 6, 12, modulo_swap) == expected

    def test_classify_runs_once_per_graph_class(self, monkeypatch):
        calls = []

        def counting_classify(m, d):
            calls.append(d)
            return classify(m, d)

        monkeypatch.setattr(CLASSIFY_MODULE, "classify", counting_classify)
        records = classification_table(S3_T2, 6, 12)
        graphs = {id(r.dividing_set.graph) for r in records}
        bare_rows = [r for r in records if is_tight_candidate(S3_T2, r.dividing_set)]
        assert len({id(r.dividing_set.graph) for r in bare_rows}) < len(bare_rows)
        assert len(calls) == len(graphs)


class TestAdmissibilityOnce:
    def test_classify_checks_admissibility_once(self, monkeypatch):
        calls = []

        def counting_is_admissible(m, d):
            calls.append(d)
            return is_admissible(m, d)

        monkeypatch.setattr(CLASSIFY_MODULE, "is_admissible", counting_is_admissible)
        monkeypatch.setattr(admissibility, "is_admissible", counting_is_admissible)
        classes = [(S3_T2, d) for d in enum_torus_classes(4, 2)] + [
            (S3_S2, sphere_class([1, -1], [(0, 1)])),
            (S3_S2, sphere_class([1, -1, 1, -1], [(0, 1), (1, 2), (2, 3)])),
        ]
        for m, d in classes:
            before = len(calls)
            record = classify(m, d)
            assert len(calls) - before == 1
            # The shape test alone still gives the candidate's verdict.
            assert (record.tight.finite_factor > 0) == bool(is_tight_candidate(m, d))

    @pytest.mark.parametrize("manifold,max_curves,max_p", [(S3_T2, 8, 16), (S3_S2, 9, None)])
    def test_table_renderers_do_not_check_again(self, monkeypatch, manifold, max_curves, max_p):
        # classify checked every record when it made it.
        records = classification_table(manifold, max_curves, max_p)
        calls = []

        def counting_is_admissible(m, d):
            calls.append(d)
            return is_admissible(m, d)

        monkeypatch.setattr(CLASSIFY_MODULE, "is_admissible", counting_is_admissible)
        monkeypatch.setattr(admissibility, "is_admissible", counting_is_admissible)
        assert render_table_csv(records).count("\n") == 1 + len(records)
        assert render_table_jsonl(records).count("\n") == len(records)
        assert calls == []


class TestTableArguments:
    @pytest.mark.parametrize("max_curves,max_p", [(0, 2), (4, 0), (4, -3)])
    def test_out_of_range_bounds_are_rejected(self, max_curves, max_p):
        for manifold in (S3_S2, S3_T2):
            with pytest.raises(ValueError, match=">= 1"):
                classification_table(manifold, max_curves, max_p)

    def test_tree_cap_fires_before_enumeration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumeration ran before the cap check")

        monkeypatch.setattr(CLASSIFY_MODULE, "enum_equicolored_trees", never)
        with pytest.raises(ResourceLimitError):
            classification_table(S3_S2, 30)
