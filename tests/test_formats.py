"""Parsing, serialization, DOT export, and table rendering."""

import io
import json

import pytest

from bcontact.classify import TABLE_COLUMNS, classify, table_classes, write_table
from bcontact.cli import run_cli
from bcontact.enumeration import (
    ResourceLimitError,
    enum_equicolored_trees,
    enum_torus_classes,
)
from bcontact.formats import (
    ParseError,
    _parse_items,
    class_dict,
    parse_dividing_set,
    render_table_csv,
)
from bcontact.listings import (
    export_dot,
    serialize_class_text,
    write_torus_listing,
    write_tree_listing,
)
from bcontact.region_graph import InvalidRegionGraphError, RegionGraph, canonical_code
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

from helpers import (
    class_json_reference,
    class_text_reference,
    enumerated_records,
    graph_text_reference,
    long_ring,
    record_json_reference,
    record_rows,
    table_jsonl,
)

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


def parse_region_graph(text):
    """A bare region graph (``v``/``e`` lines only), checked as it is made."""
    surface, vertices, edges, slope = _parse_items(text)
    if surface is not None or slope is not None:
        raise ParseError("surface and slope lines belong to dividing-set classes")
    return RegionGraph(vertices, edges)


def parse_dot_metadata(dot):
    """The class recovered from the comment block ``export_dot`` embeds."""
    meta = [line.strip()[3:] for line in dot.splitlines() if line.strip().startswith("// ")]
    assert meta, "no embedded metadata comments found"
    return parse_dividing_set("\n".join(meta) + "\n")


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
        # A syntax error whatever the graph: the header is checked before
        # the graph is made, so a like-signed edge does not decide it.
        for graph in ("v 0 + 0\nv 1 - 0\ne 0 1\n", "v 0 + 0\nv 1 + 0\ne 0 1\n"):
            with pytest.raises(ParseError, match="surface"):
                parse_dividing_set(graph)

    @pytest.mark.parametrize("token", ["1_0", "\u0661", "+1"])
    def test_integer_must_be_ascii_decimal(self, token):
        # int() would read these as 10, 1 and 1.
        with pytest.raises(ParseError) as excinfo:
            parse_dividing_set(f"surface sphere\nv {token} + 0\nv 0 - 0\ne 0 {token}\n")
        assert excinfo.value.line == 2
        assert excinfo.value.token == token

    @pytest.mark.parametrize(
        "text,line",
        [
            ("surface torus\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\nsurface torus\nslope 3 2\n", 6),
            ("surface torus\nslope 3 2\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\nslope 3 2\n", 7),
        ],
        ids=["surface", "slope"],
    )
    def test_a_field_given_twice_is_an_error_even_when_the_values_agree(self, text, line):
        with pytest.raises(ParseError) as excinfo:
            parse_dividing_set(text)
        assert excinfo.value.line == line

    def test_json_object_with_a_repeated_key_is_an_error(self):
        text = TWO_CYCLE_JSON.replace('"slope": [3, 2]', '"slope": [3, 2], "slope": [3, 2]')
        with pytest.raises(ParseError, match=r"repeated key in JSON object \(token 'slope'\)"):
            parse_dividing_set(text)

    def test_error_echoes_a_long_token_cut_but_keeps_it_whole(self):
        token = "x" * 1000
        with pytest.raises(ParseError) as excinfo:
            parse_dividing_set(f"surface sphere\n{token}\n")
        assert str(excinfo.value) == f"line 2: unknown directive (token {'x' * 40!r}...)"
        assert excinfo.value.token == token

    def test_duplicate_vertex_id(self):
        # A graph invariant, stated once in validate for text and JSON alike.
        with pytest.raises(InvalidRegionGraphError, match="duplicate vertex id 0$"):
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
        assert json.loads(json.dumps(class_dict(d))) == payload

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
            again = parse_dividing_set(json.dumps(class_dict(d)))
            assert canonical_code(again.graph) == canonical_code(d.graph)
            assert again.slope == d.slope

    def test_bare_graph_round_trip(self):
        for n in (1, 2, 3):
            for g in enum_equicolored_trees(n):
                again = parse_region_graph(graph_text_reference(g))
                assert canonical_code(again) == canonical_code(g)

    def test_bare_graph_rejects_class_directives(self):
        with pytest.raises(ParseError):
            parse_region_graph("surface sphere\nv 0 + 0\nv 1 - 0\ne 0 1\n")


class TestJsonRenderers:
    """A class's text and JSON are byte-equal to the references built field
    by field, ``json.dumps`` of the dicts for JSON."""

    @staticmethod
    def assert_class_matches(d):
        assert json.dumps(class_dict(d)) == json.dumps(class_json_reference(d))
        assert serialize_class_text(d) == class_text_reference(d)

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_enumerated_classes(self, modulo_swap):
        classes = [
            DividingSetClass(Surface.SPHERE, g)
            for n in range(1, 7)
            for g in enum_equicolored_trees(n, modulo_swap)
        ] + enum_torus_classes(8, 3, modulo_swap)
        for d in classes:
            self.assert_class_matches(d)

    @pytest.mark.parametrize(
        "text",
        [
            EQUATOR,
            TWO_CYCLE_JSON,
            # Sparse ids, given out of order.
            "surface sphere\nv 907 - 0\nv 12 + 0\nv 30000 + 0\ne 12 907\ne 907 30000\n",
            # Ids and a slope past the 64-bit range.
            json.dumps({
                "surface": "torus",
                "vertices": [{"id": 70, "sign": -1}, {"id": 9 * 10**21, "sign": 1}],
                "edges": [[9 * 10**21, 70], [70, 9 * 10**21]],
                "slope": [2**70 + 1, 2**69],
            }),
            "surface torus\nv 0 + 1\nv 5 - 0\nv 6 - 0\ne 0 5\ne 6 0\n",
            long_ring(16000),
        ],
        ids=["equator", "two-cycle", "sparse", "large", "genus", "ring-16000"],
    )
    def test_parsed_classes(self, text):
        self.assert_class_matches(parse_dividing_set(text))

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_graph_class_lines_join_the_per_slope_lines(self, modulo_swap):
        # A torus listing writes each graph class's fields once for all of
        # its slopes; its lines are still those of the classes one by one.
        classes = enum_torus_classes(7, 4, modulo_swap)
        expected = {
            "json": "".join(json.dumps(class_dict(d)) + "\n" for d in classes),
            "text": "\n".join(serialize_class_text(d) for d in classes),
        }
        for form, listing in expected.items():
            out = io.StringIO()
            write_torus_listing(out, 7, 4, modulo_swap, form)
            assert out.getvalue() == listing

    def test_classification_records(self, tmp_path):
        records = (
            enumerated_records(S3_S2, 7)
            + enumerated_records(S3_T2, 6, 5)
            + [classify(S3_T2, parse_dividing_set(long_ring(400)))]
        )
        assert any(r.tight_count_detail for r in records)
        gamma = tmp_path / "gamma.txt"
        for record in records:
            gamma.write_text(serialize_class_text(record.dividing_set), encoding="utf-8")
            out = io.StringIO()
            assert run_cli(["classify", "--format", "json", "--gamma", str(gamma)], out) == 0
            assert out.getvalue() == json.dumps(record_json_reference(record)) + "\n"


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
    def test_shared_runs_of_slopes_are_not_hashed(self):
        # A tuple does not keep its hash, so a cache keyed on a run's value
        # would hash the run of all slopes again for every ring class.
        class CountedSlopes(tuple):
            hashes = 0

            def __hash__(self):
                CountedSlopes.hashes += 1
                return super().__hash__()

        classes = table_classes(S3_T2, 6, 8)
        counted = {}
        hand_built = [
            c._replace(runs=tuple(
                (counted.setdefault(id(slopes), CountedSlopes(slopes)), *regimes)
                for slopes, *regimes in c.runs
            ))
            for c in classes
        ]
        assert any(len(slopes) > 1 for slopes in counted.values())
        assert render_table_csv(hand_built) == render_table_csv(classes)
        assert table_jsonl(hand_built) == table_jsonl(classes)
        assert CountedSlopes.hashes == 0


class TestTableRowsFieldByField:
    """The renderers against rows built field by field from ``classify`` of
    every enumerated class.  A ``max_p`` of None passes no slope bound,
    the way the sphere's table is asked for."""

    CASES = [(S3_T2, 6, 5, False), (S3_T2, 6, 5, True), (S3_S2, 7, None, False), (S3_S2, 7, None, True)]
    # Ids by position, so the test names do not depend on how a manifold prints.
    IDS = [f"manifold{i}-{c[1]}-{c[2]}-{c[3]}" for i, c in enumerate(CASES)]

    @pytest.mark.parametrize("manifold,max_curves,max_p,modulo_swap", CASES, ids=IDS)
    def test_csv(self, manifold, max_curves, max_p, modulo_swap):
        bounds = (max_curves,) if max_p is None else (max_curves, max_p)
        records = enumerated_records(manifold, *bounds, modulo_swap=modulo_swap)
        classes = table_classes(manifold, *bounds, modulo_swap=modulo_swap)
        lines = render_table_csv(classes).splitlines()
        assert lines[0] == ",".join(TABLE_COLUMNS)
        expected = [
            ",".join("" if row[c] is None else str(row[c]) for c in TABLE_COLUMNS)
            for row in record_rows(records, modulo_swap)
        ]
        assert lines[1:] == expected

    @pytest.mark.parametrize("manifold,max_curves,max_p,modulo_swap", CASES, ids=IDS)
    def test_jsonl(self, manifold, max_curves, max_p, modulo_swap):
        bounds = (max_curves,) if max_p is None else (max_curves, max_p)
        records = enumerated_records(manifold, *bounds, modulo_swap=modulo_swap)
        text = table_jsonl(table_classes(manifold, *bounds, modulo_swap=modulo_swap))
        assert text == "".join(
            json.dumps(row) + "\n" for row in record_rows(records, modulo_swap)
        )


class TestWritersRefuse:
    """A writer asked for what it cannot write raises ``ValueError`` before
    it writes a byte.  The CLI's ``--format`` choices never ask it."""

    def test_table_refuses_an_unknown_form(self):
        out = io.StringIO()
        with pytest.raises(ValueError, match="unknown table form 'text'"):
            write_table(out, table_classes(S3_T2, 4, 2), "text")
        assert out.getvalue() == ""

    @pytest.mark.parametrize("write", [
        lambda out: write_tree_listing(out, 2, False, "xml"),
        lambda out: write_torus_listing(out, 2, 1, False, "xml"),
    ], ids=["sphere", "torus"])
    def test_listing_refuses_an_unknown_form(self, write):
        out = io.StringIO()
        with pytest.raises(ValueError, match="unknown listing form 'xml'"):
            write(out)
        assert out.getvalue() == ""

    @pytest.mark.parametrize("form", ["text", "json", "csv"])
    @pytest.mark.parametrize("max_p,kind,message", [
        (0, ValueError, "max_p must be >= 1"),
        (-3, ValueError, "max_p must be >= 1"),
        (True, ValueError, "max_p=True is not an integer"),
        (2.0, ValueError, "max_p=2.0 is not an integer"),
        (257, ResourceLimitError, "slope bound capped at 256, got 257"),
    ], ids=["0", "-3", "True", "2.0", "257"])
    def test_torus_listing_refuses_a_slope_bound_out_of_range(self, form, max_p, kind, message):
        # Enumeration's own messages, with bounds 1 and 2 made first: a
        # cache keyed by value would take ``True`` and 2.0 for them.
        out = io.StringIO()
        write_torus_listing(io.StringIO(), 2, 1, False, form)
        write_torus_listing(io.StringIO(), 2, 2, False, form)
        with pytest.raises(ValueError) as raised:
            write_torus_listing(out, 2, max_p, False, form)
        assert (type(raised.value), str(raised.value)) == (kind, message)
        assert out.getvalue() == ""
