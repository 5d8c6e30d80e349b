"""Parsing, serialization, DOT export, and table rendering."""

import json

import pytest

from bcontact.classify import (
    ClassificationRecord,
    InadmissibleError,
    classification_table,
    leaf_census,
)
from bcontact.enumeration import enum_equicolored_trees, enum_torus_classes
from bcontact.formats import (
    ParseError,
    class_to_json_dict,
    export_dot,
    parse_dividing_set,
    parse_dot_metadata,
    parse_region_graph,
    render_table_csv,
    render_table_jsonl,
    serialize_class_text,
    TABLE_COLUMNS,
    serialize_graph_text,
)
from bcontact.region_graph import InvalidRegionGraphError, canonical_code
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

EQUATOR = "surface sphere\nv 0 + 0\nv 1 - 0\ne 0 1\n"
EQUATOR_JSON = json.dumps({
    "surface": "sphere",
    "vertices": [{"id": 0, "sign": 1, "genus": 0}, {"id": 1, "sign": -1, "genus": 0}],
    "edges": [[0, 1]],
})
TWO_CYCLE_JSON = json.dumps({
    "surface": "torus",
    "vertices": [{"id": 0, "sign": 1, "genus": 0}, {"id": 1, "sign": -1, "genus": 0}],
    "edges": [[0, 1], [0, 1]],
    "slope": [3, 2],
})


class TestParse:
    def test_smallest_valid_input(self):
        d = parse_dividing_set(EQUATOR)
        assert d.surface is Surface.SPHERE
        assert d.graph.edge_count == 1 and d.slope is None

    def test_sign_clash_reports_invariant(self):
        bad = "surface sphere\nv 0 + 0\nv 1 + 0\ne 0 1\n"
        with pytest.raises(InvalidRegionGraphError, match="improper coloring"):
            parse_dividing_set(bad)

    def test_bare_two_cycle_with_slope(self):
        text = "surface torus\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\nslope 3 2\n"
        d = parse_dividing_set(text)
        assert d.slope == (3, 2) and d.graph.edge_count == 2

    def test_comments_and_blank_lines_ignored(self):
        text = "# equator\n\nsurface sphere\nv 0 + 0  # north\nv 1 - 0\ne 0 1\n"
        assert parse_dividing_set(text).graph.vertex_count == 2

    def test_syntax_error_carries_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dividing_set("surface sphere\nv zero + 0\n")
        assert excinfo.value.line == 2
        assert excinfo.value.token == "zero"

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as excinfo:
            parse_dividing_set("surface sphere\nw 0 + 0\n")
        assert excinfo.value.line == 2

    def test_missing_surface_header(self):
        with pytest.raises(ParseError, match="surface"):
            parse_dividing_set("v 0 + 0\nv 1 - 0\ne 0 1\n")

    def test_duplicate_vertex_id(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_dividing_set("surface sphere\nv 0 + 0\nv 0 - 0\ne 0 0\n")

    def test_json_form(self):
        payload = {
            "surface": "torus",
            "vertices": [
                {"id": 0, "sign": 1, "genus": 0},
                {"id": 1, "sign": -1, "genus": 0},
            ],
            "edges": [[0, 1], [0, 1]],
            "slope": [3, 2],
        }
        d = parse_dividing_set(json.dumps(payload))
        assert d.slope == (3, 2)
        assert class_to_json_dict(d) == payload

    def test_json_syntax_error(self):
        with pytest.raises(ParseError):
            parse_dividing_set('{"surface": "sphere",}')

    def test_json_slope_of_one_number(self):
        payload = json.loads(TWO_CYCLE_JSON)
        payload["slope"] = [3]
        with pytest.raises(ParseError, match="slope"):
            parse_dividing_set(json.dumps(payload))

    def test_json_fractional_sign(self):
        payload = json.loads(EQUATOR_JSON)
        payload["vertices"][0]["sign"] = 1.7
        with pytest.raises(ParseError, match="sign"):
            parse_dividing_set(json.dumps(payload))

    def test_json_fractional_id(self):
        payload = json.loads(EQUATOR_JSON)
        payload["vertices"][0]["id"] = 1.5
        with pytest.raises(ParseError, match="vertex id"):
            parse_dividing_set(json.dumps(payload))

    def test_json_fractional_genus(self):
        payload = json.loads(EQUATOR_JSON)
        payload["vertices"][0]["genus"] = 1.5
        with pytest.raises(ParseError, match="genus"):
            parse_dividing_set(json.dumps(payload))


class TestRoundTrips:
    def test_text_round_trip_preserves_codes(self):
        classes = [
            DividingSetClass(Surface.SPHERE, g)
            for n in (1, 2, 3, 4, 5)
            for g in enum_equicolored_trees(n)
        ] + enum_torus_classes(6, 2)
        for d in classes:
            again = parse_dividing_set(serialize_class_text(d))
            assert again.surface is d.surface and again.slope == d.slope
            assert canonical_code(again.graph) == canonical_code(d.graph)

    def test_json_round_trip_preserves_codes(self):
        for d in enum_torus_classes(5, 2):
            again = parse_dividing_set(json.dumps(class_to_json_dict(d)))
            assert canonical_code(again.graph) == canonical_code(d.graph)
            assert again.slope == d.slope

    def test_bare_graph_round_trip(self):
        for n in (1, 2, 3):
            for g in enum_equicolored_trees(n):
                again = parse_region_graph(serialize_graph_text(g))
                assert canonical_code(again) == canonical_code(g)

    def test_bare_graph_rejects_class_directives(self):
        with pytest.raises(ParseError):
            parse_region_graph("surface sphere\nv 0 + 0\nv 1 - 0\ne 0 1\n")


class TestDot:
    def test_equator_export_shape(self):
        dot = export_dot(parse_dividing_set(EQUATOR))
        assert dot.count(" -- ") == 1
        assert 'label="+g0"' in dot and 'label="-g0"' in dot

    def test_parallel_edges_emitted_twice(self):
        d = parse_dividing_set("surface torus\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\nslope 2 1\n")
        dot = export_dot(d)
        assert dot.count("v0 -- v1;") == 2
        assert "slope 2/1" in dot

    def test_metadata_round_trip_reproduces_code(self):
        for d in enum_torus_classes(5, 2) + [
            DividingSetClass(Surface.SPHERE, g) for g in enum_equicolored_trees(3)
        ]:
            recovered = parse_dot_metadata(export_dot(d))
            assert canonical_code(recovered.graph) == canonical_code(d.graph)
            assert recovered.slope == d.slope


class TestTables:
    def test_csv_has_fixed_header_and_row_count(self):
        records = classification_table(S3_S2, 5)
        text = render_table_csv(records)
        lines = text.strip().split("\n")
        assert lines[0] == (
            "canonical_code,surface,V,E,slope_p,slope_q,tight_count,mixed_finite,"
            "mixed_rank,ot_finite,ot_rank,leaves_3,leaves_2,leaves_1"
        )
        assert len(lines) == 1 + len(records)

    def test_jsonl_rows_parse_and_match_csv_order(self):
        records = classification_table(S3_T2, 4, 2)
        rows = [json.loads(line) for line in render_table_jsonl(records).splitlines()]
        assert len(rows) == len(records)
        for row, record in zip(rows, records):
            assert row["tight_count"] == record.tight.finite_factor
            assert row["surface"] == "torus"

    def test_rendering_is_deterministic(self):
        records = classification_table(S3_T2, 5, 2)
        assert render_table_csv(records) == render_table_csv(
            classification_table(S3_T2, 5, 2)
        )


def expected_rows(records, modulo_swap=False):
    """Table rows built field by field from each record, as dicts."""
    rows = []
    for record in records:
        d = record.dividing_set
        census = leaf_census(record.manifold, d)
        rows.append({
            "canonical_code": canonical_code(d.graph, modulo_swap),
            "surface": d.surface.value,
            "V": d.graph.vertex_count,
            "E": d.graph.edge_count,
            "slope_p": d.slope[0] if d.slope else None,
            "slope_q": d.slope[1] if d.slope else None,
            "tight_count": record.tight.finite_factor,
            "mixed_finite": record.mixed.finite_factor,
            "mixed_rank": record.mixed.free_rank,
            "ot_finite": record.fully_overtwisted.finite_factor,
            "ot_rank": record.fully_overtwisted.free_rank,
            "leaves_3": census.leaves_dim3,
            "leaves_2": census.leaves_dim2,
            "leaves_1": census.leaves_dim1,
        })
    return rows


class TestTableRowsFieldByField:
    CASES = [(S3_T2, 6, 5, False), (S3_T2, 6, 5, True), (S3_S2, 7, None, False), (S3_S2, 7, None, True)]

    @pytest.mark.parametrize("manifold,max_curves,max_p,modulo_swap", CASES)
    def test_csv(self, manifold, max_curves, max_p, modulo_swap):
        records = classification_table(manifold, max_curves, max_p, modulo_swap)
        lines = render_table_csv(records, modulo_swap).splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        expected = [
            ",".join("" if row[c] is None else str(row[c]) for c in TABLE_COLUMNS)
            for row in expected_rows(records, modulo_swap)
        ]
        assert lines[1:] == expected

    @pytest.mark.parametrize("manifold,max_curves,max_p,modulo_swap", CASES)
    def test_jsonl(self, manifold, max_curves, max_p, modulo_swap):
        records = classification_table(manifold, max_curves, max_p, modulo_swap)
        text = render_table_jsonl(records, modulo_swap)
        assert text == "".join(
            json.dumps(row) + "\n" for row in expected_rows(records, modulo_swap)
        )

    def test_graph_shared_across_slopes_with_other_manifold(self):
        # Rows are built per graph, but a record of another manifold on the
        # same graph object still gets its own census check.
        records = classification_table(S3_T2, 2, 2)
        foreign = ClassificationRecord(
            S3_S2, records[1].dividing_set, records[1].tight, records[1].mixed,
            records[1].fully_overtwisted,
        )
        with pytest.raises(InadmissibleError):
            render_table_csv([records[0], foreign])
