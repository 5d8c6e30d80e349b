"""Classification records, leaf census, and the batch table."""

import hashlib
import importlib
import io
import json
from math import comb, gcd

import pytest

from bcontact import admissibility
from bcontact.admissibility import is_admissible, is_tight_candidate, tight_shape
from bcontact.classify import (
    ClassificationRecord,
    InadmissibleError,
    RegimeDescriptor,
    classify,
    leaf_census,
    table_classes,
)
from bcontact.cli import run_cli
from bcontact.counting import expansion_products, solid_torus_count, tight_count_solid_torus
from bcontact.enumeration import (
    ResourceLimitError,
    enum_equicolored_trees,
    enum_torus_classes,
    enum_torus_graphs,
    enum_torus_rows,
    enum_tree_rows,
    graph_slopes,
    row_shape,
)
from bcontact.formats import render_table_csv, render_table_jsonl
from bcontact.region_graph import RegionGraph, canonical_code
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

from helpers import enumerated_records, farey_products, sphere_class, table_rows, torus_cycle

# The package re-exports ``classify``, which hides the submodule's name.
CLASSIFY_MODULE = importlib.import_module("bcontact.classify")
ENUMERATION_MODULE = importlib.import_module("bcontact.enumeration")


class TestRegimeDescriptor:
    def test_impossible_regime_has_no_parameters(self):
        with pytest.raises(ValueError):
            RegimeDescriptor(0, 2)

    def test_replace_and_make_check_too(self):
        # namedtuple's _replace goes through _make, which would otherwise
        # skip __new__ and so the check.
        with pytest.raises(ValueError, match="impossible regime"):
            RegimeDescriptor(1, 0)._replace(finite_factor=0, free_rank=2)
        with pytest.raises(ValueError, match="impossible regime"):
            RegimeDescriptor._make([0, 2])
        assert RegimeDescriptor(1, 0)._replace(free_rank=2) == (1, 2)


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
        # r and s come from the Farey graph; the factor C_n ((r - s) n + s)
        # is the formula itself, for n >= 2 checked only against hand values.
        for d in enum_torus_classes(6, 3):
            record = classify(S3_T2, d)
            if record.tight.finite_factor:
                n = d.graph.edge_count // 2
                r, s = farey_products(*d.slope)
                catalan_n = comb(2 * n, n) // (n + 1)
                assert record.tight.finite_factor == 2 * catalan_n * ((r - s) * n + s)

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
            records = enumerated_records(S3_S2, n_curves)
            for record in records:
                census = leaf_census(S3_S2, record.dividing_set)
                assert census.leaves_dim2 - census.leaves_dim1 in expected_gap
        for record in enumerated_records(S3_T2, 5, 2):
            census = leaf_census(S3_T2, record.dividing_set)
            assert census.leaves_dim2 - census.leaves_dim1 in {0, 1}


def refereed_rows(m, *bounds, modulo_swap=False):
    """The table's rows, parsed from its JSON lines, after checking them
    against the rows of ``classify`` of every enumerated class."""
    text = render_table_jsonl(table_classes(m, *bounds, modulo_swap=modulo_swap))
    rows = [json.loads(line) for line in text.splitlines()]
    records = enumerated_records(m, *bounds, modulo_swap=modulo_swap)
    assert rows == table_rows(records, modulo_swap)
    return rows


def run_entries(classes):
    """(code, slope, tight, mixed, fully overtwisted) of each row, read off
    the table's regime runs."""
    return [
        (c.code, slope, tight, mixed, ot)
        for c in classes
        for slopes, tight, mixed, ot in c.runs
        for slope in slopes
    ]


def record_entries(records, modulo_swap):
    """The same entries, from ``classify`` records."""
    return [
        (canonical_code(r.dividing_set.graph, modulo_swap), r.dividing_set.slope,
         r.tight, r.mixed, r.fully_overtwisted)
        for r in records
    ]


class TestClassificationTable:
    def test_sphere_row_count_up_to_six_regions(self):
        assert len(refereed_rows(S3_S2, 5)) == 1 + 1 + 4

    def test_exactly_one_tight_row_on_the_sphere(self):
        tight_rows = [row for row in refereed_rows(S3_S2, 5) if row["tight_count"] > 0]
        assert len(tight_rows) == 1
        assert tight_rows[0]["E"] == 1

    def test_torus_two_cycle_rows_cover_requested_slopes(self):
        rows = refereed_rows(S3_T2, 2, 2)
        slopes = sorted(
            (row["slope_p"], row["slope_q"]) for row in rows if row["slope_p"] is not None
        )
        assert slopes == [(1, 1), (2, 1)]

    def test_overtwisted_ranks_by_surface(self):
        for row in refereed_rows(S3_S2, 5):
            assert (row["ot_finite"], row["ot_rank"]) == (1, 2)
        for row in refereed_rows(S3_T2, 4, 2):
            assert (row["ot_finite"], row["ot_rank"]) == (1, 4)


def is_bare_ring(g):
    return g.edge_count == g.vertex_count and set(g.degrees.values()) == {2}


class TestFactoredTable:
    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_torus_table_equals_per_class_classification(self, modulo_swap):
        classes = table_classes(S3_T2, 6, 12, modulo_swap)
        records = enumerated_records(S3_T2, 6, 12, modulo_swap)
        assert run_entries(classes) == record_entries(records, modulo_swap)
        # One class per graph, with the graph's shape; one run per slope for
        # a bare ring, one run of all slopes otherwise.
        graphs = enum_torus_graphs(6, modulo_swap)
        assert [c.code for c in classes] == [canonical_code(g, modulo_swap) for g in graphs]
        for c, g in zip(classes, graphs):
            assert (c.surface, c.vertex_count, c.edge_count) == (
                Surface.TORUS, g.vertex_count, g.edge_count
            )
            assert len(c.runs) == (len(graph_slopes(g, 12)) if is_bare_ring(g) else 1)

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_sphere_table_equals_per_class_classification(self, modulo_swap):
        classes = table_classes(S3_S2, 9, modulo_swap=modulo_swap)
        records = enumerated_records(S3_S2, 9, modulo_swap=modulo_swap)
        assert run_entries(classes) == record_entries(records, modulo_swap)
        assert all(len(c.runs) == 1 for c in classes)
        assert [(c.surface, c.vertex_count, c.edge_count) for c in classes] == [
            (Surface.SPHERE, r.dividing_set.graph.vertex_count, r.dividing_set.graph.edge_count)
            for r in records
        ]

    def test_one_class_per_graph_class_and_no_classify(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the table classified a class object")

        monkeypatch.setattr(CLASSIFY_MODULE, "classify", never)
        classes = table_classes(S3_T2, 6, 12)
        rows = sum(len(slopes) for c in classes for slopes, *_ in c.runs)
        assert len(classes) == len(enum_torus_graphs(6))
        assert len(classes) < rows == len(enum_torus_classes(6, 12))


class TestTableFromRows:
    """The table reads each class's shape off the generator's row."""

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_torus_row_shapes_equal_the_graphs(self, modulo_swap):
        rows = enum_torus_rows(10, modulo_swap)
        graphs = enum_torus_graphs(10, modulo_swap)
        assert len(rows) == len(graphs)
        bare = 0
        for row, g in zip(rows, graphs):
            d = DividingSetClass(Surface.TORUS, g, graph_slopes(g, 1)[0])
            shape = (g.vertex_count, g.edge_count, bool(tight_shape(d)))
            assert row_shape(row) == shape
            bare += shape[2]
        # One bare ring per even curve count, in each sign mode.
        assert bare == 5
        classes = table_classes(S3_T2, 10, 1, modulo_swap)
        assert len(classes) == len(graphs)
        for c, g in zip(classes, graphs):
            d = DividingSetClass(Surface.TORUS, g, graph_slopes(g, 1)[0])
            assert c.census == leaf_census(S3_T2, d)
            assert (c.vertex_count, c.edge_count) == (g.vertex_count, g.edge_count)

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_sphere_row_shapes_equal_the_graphs(self, modulo_swap):
        for n in range(1, 7):
            rows = enum_tree_rows(n, modulo_swap)
            for row, g in zip(rows, enum_equicolored_trees(n, modulo_swap), strict=True):
                d = DividingSetClass(Surface.SPHERE, g)
                assert row_shape(row) == (g.vertex_count, g.edge_count, False)
                assert (g.edge_count == 1) == bool(tight_shape(d))

    def test_no_graph_no_class_object_no_classify_no_admissibility(self, monkeypatch):
        expected = [
            run_entries(table_classes(S3_T2, 6, 12)),
            run_entries(table_classes(S3_S2, 9)),
        ]

        def never(*args, **kwargs):
            raise AssertionError("the table built or checked a class")

        monkeypatch.setattr(RegionGraph, "__init__", never)
        monkeypatch.setattr(DividingSetClass, "__new__", never)
        monkeypatch.setattr(CLASSIFY_MODULE, "classify", never)
        monkeypatch.setattr(admissibility, "is_admissible", never)
        monkeypatch.setattr(admissibility, "tight_shape", never)
        assert [
            run_entries(table_classes(S3_T2, 6, 12)),
            run_entries(table_classes(S3_S2, 9)),
        ] == expected
        out = io.StringIO()
        assert run_cli(TestTableCommandCallCounts.ARGS, out=out) == 0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        assert digest == TestTableCommandCallCounts.SHA256


def counting_wrapper(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


class TestTableCommandCallCounts:
    """The CLI's table is built and rendered per graph class, never per row."""

    # The benchmark's table: 10,242 rows from 367 graph classes.
    ARGS = ["table", "--manifold", "s3-t2", "--max-curves", "8", "--max-slope", "16"]
    SHA256 = "a6bdfe3a9cf1330a255ff6a259f91f357ff26217c30fb8e056492152af90cfcf"

    def test_no_classify_and_slope_products_once_per_slope(self, monkeypatch):
        calls = {}
        for name, fn in (
            ("classify", classify),
            ("tight_count_solid_torus", tight_count_solid_torus),
            ("ClassificationRecord", ClassificationRecord),
            ("expansion_products", expansion_products),
            ("solid_torus_count", solid_torus_count),
        ):
            monkeypatch.setattr(CLASSIFY_MODULE, name, counting_wrapper(calls, name, fn))
        out = io.StringIO()
        assert run_cli(self.ARGS, out=out) == 0
        text = out.getvalue()
        assert hashlib.sha256(text.encode()).hexdigest() == self.SHA256
        assert text.count("\n") == 1 + 10_242

        graphs = enum_torus_graphs(8)
        bare_rings = [g for g in graphs if is_bare_ring(g)]
        slopes = [(p, q) for p in range(1, 17) for q in range(1, p + 1) if gcd(p, q) == 1]
        assert (len(graphs), len(bare_rings), len(slopes)) == (367, 4, 80)
        # No record and no class object: each slope is expanded once, and
        # each bare ring's count at each slope comes from its products.
        assert "classify" not in calls and "ClassificationRecord" not in calls
        assert "tight_count_solid_torus" not in calls
        assert calls["expansion_products"] == len(slopes)
        assert calls["solid_torus_count"] == len(bare_rings) * len(slopes)


class TestAdmissibilityOnce:
    def test_classify_checks_admissibility_once(self, monkeypatch):
        calls = []

        def counting_is_admissible(m, d):
            calls.append(d)
            return is_admissible(m, d)

        # classify imports the check when it runs, so this is the binding
        # it calls.
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

    @pytest.mark.parametrize(
        "manifold,max_curves,max_p",
        [(S3_T2, 8, 16), (S3_S2, 9, None)],
        ids=["manifold0-8-16", "manifold1-9-None"],
    )
    def test_table_renderers_do_not_check_again(self, monkeypatch, manifold, max_curves, max_p):
        # The generator makes only admissible classes, so nothing checks them.
        # A max_p of None passes no slope bound, as the sphere's table is asked.
        bounds = (max_curves,) if max_p is None else (max_curves, max_p)
        rows = len(enumerated_records(manifold, *bounds))
        classes = table_classes(manifold, *bounds)
        calls = []

        def counting_is_admissible(m, d):
            calls.append(d)
            return is_admissible(m, d)

        monkeypatch.setattr(admissibility, "is_admissible", counting_is_admissible)
        assert render_table_csv(classes).count("\n") == 1 + rows
        assert render_table_jsonl(classes).count("\n") == rows
        assert calls == []


class TestTableArguments:
    @pytest.mark.parametrize("max_curves,max_p", [(0, 2), (4, 0), (4, -3)])
    def test_out_of_range_bounds_are_rejected(self, max_curves, max_p):
        for manifold in (S3_S2, S3_T2):
            with pytest.raises(ValueError, match=">= 1"):
                table_classes(manifold, max_curves, max_p)

    def test_tree_cap_fires_before_enumeration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumeration ran before the cap check")

        monkeypatch.setattr(ENUMERATION_MODULE, "enum_equicolored_trees", never)
        monkeypatch.setattr(ENUMERATION_MODULE, "enum_tree_rows", never)
        with pytest.raises(ResourceLimitError):
            table_classes(S3_S2, 30)
