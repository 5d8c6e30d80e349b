"""Command-line behavior: outputs and the exit-status contract."""

import hashlib
import importlib
import io
import json
import subprocess
import sys

import pytest

from bcontact.cli import run_cli

EQUATOR = "surface sphere\nv 0 + 0\nv 1 - 0\ne 0 1\n"
TWO_CYCLE_32 = "surface torus\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\nslope 3 2\n"
GENUS_TREE = "surface torus\nv 0 + 1\nv 1 - 0\ne 0 1\n"  # valid, inadmissible
BAD_SYNTAX = "surface sphere\nv zero + 0\n"
TORUS_TABLE_6_8_SHA256 = "99a7611afb4aba5f7d54bfd627ea462e1723977121e3a3fc439349b004fe95df"


def run(argv):
    out = io.StringIO()
    status = run_cli(argv, out=out)
    return status, out.getvalue()


def gamma_file(tmp_path, text, name="gamma.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEnumCommands:
    def test_tree_counts(self):
        for n, expected in ((1, "1"), (3, "4"), (5, "65")):
            status, output = run(["enum-trees", "--n", str(n), "--count-only"])
            assert status == 0 and output.strip() == expected

    def test_tree_counts_with_identified_swap(self):
        status, output = run(
            ["enum-trees", "--n", "3", "--count-only", "--no-distinguish-signs"]
        )
        assert status == 0 and output.strip() == "3"

    def test_count_only_matches_listing_length(self):
        status, listing = run(["enum-trees", "--n", "3", "--format", "json"])
        assert status == 0
        status, count = run(["enum-trees", "--n", "3", "--count-only"])
        assert int(count) == len(listing.strip().splitlines())

    def test_csv_listing(self):
        status, output = run(["enum-trees", "--n", "2", "--format", "csv"])
        lines = output.strip().splitlines()
        assert status == 0
        assert lines[0] == "size,canonical_code,admissible"
        assert len(lines) == 2 and lines[1].endswith(",true")

    def test_enum_torus_listing_and_count(self):
        status, listing = run(
            ["enum-torus", "--max-curves", "2", "--max-slope", "1", "--format", "json"]
        )
        assert status == 0
        rows = [json.loads(line) for line in listing.strip().splitlines()]
        assert any(row["slope"] == [1, 1] for row in rows)
        status, count = run(["enum-torus", "--max-curves", "2", "--max-slope", "1", "--count-only"])
        assert int(count) == len(rows)

    def test_resource_guard_exit_code(self):
        status, _ = run(["enum-trees", "--n", "99", "--count-only"])
        assert status == 1


class TestArithmeticCommands:
    def test_tight_count(self):
        status, output = run(["tight-count", "--n", "1", "--p", "3", "--q", "2"])
        assert status == 0 and output.strip() == "2"

    def test_cf(self):
        status, output = run(["cf", "--p", "7", "--q", "2"])
        assert status == 0 and output.strip() == "-4 -2"

    def test_cf_json(self):
        status, output = run(["cf", "--p", "1", "--q", "1", "--format", "json"])
        assert status == 0
        assert json.loads(output) == {"coefficients": [-1], "degenerate": True}

    def test_non_coprime_is_domain_error(self):
        status, _ = run(["cf", "--p", "4", "--q", "2"])
        assert status == 1


class TestGammaCommands:
    def test_check_ok(self, tmp_path):
        status, output = run(["check", "--gamma", gamma_file(tmp_path, EQUATOR)])
        assert status == 0
        assert "admissible yes" in output

    def test_check_inadmissible_exits_one(self, tmp_path):
        status, output = run(["check", "--gamma", gamma_file(tmp_path, GENUS_TREE)])
        assert status == 1
        assert "admissible no" in output

    def test_classify_text(self, tmp_path):
        status, output = run(["classify", "--gamma", gamma_file(tmp_path, TWO_CYCLE_32)])
        assert status == 0
        assert "tight 4 0" in output and "mixed 4 2" in output
        assert "fully-overtwisted 1 4" in output and "count=2" in output

    def test_classify_json(self, tmp_path):
        status, output = run(
            ["classify", "--gamma", gamma_file(tmp_path, EQUATOR), "--format", "json"]
        )
        record = json.loads(output)
        assert status == 0
        assert record["tight"] == [1, 0] and record["mixed"] == [2, 1]
        assert record["fully_overtwisted"] == [1, 2]

    def test_classify_manifold_mismatch(self, tmp_path):
        status, _ = run(
            ["classify", "--gamma", gamma_file(tmp_path, EQUATOR), "--manifold", "s3-t2"]
        )
        assert status == 1

    def test_census(self, tmp_path):
        status, output = run(["census", "--gamma", gamma_file(tmp_path, EQUATOR)])
        assert status == 0 and output.strip() == "2 2 1"

    def test_export_dot_round_trip(self, tmp_path):
        status, dot = run(["export-dot", "--gamma", gamma_file(tmp_path, TWO_CYCLE_32)])
        assert status == 0
        assert dot.count("v0 -- v1;") == 2 and "// slope 3 2" in dot

    def test_parse_error_exits_two(self, tmp_path):
        status, _ = run(["check", "--gamma", gamma_file(tmp_path, BAD_SYNTAX)])
        assert status == 2

    def test_invalid_graph_exits_one(self, tmp_path):
        bad = "surface sphere\nv 0 + 0\nv 1 + 0\ne 0 1\n"
        status, _ = run(["check", "--gamma", gamma_file(tmp_path, bad)])
        assert status == 1

    def test_missing_file_exits_two(self, tmp_path):
        status, _ = run(["check", "--gamma", str(tmp_path / "absent.txt")])
        assert status == 2


class TestTable:
    def test_sphere_table_row_count(self):
        status, output = run(["table", "--manifold", "s3-s2", "--max-curves", "5"])
        lines = output.strip().splitlines()
        assert status == 0 and len(lines) == 1 + 6

    def test_torus_table_slopes(self):
        status, output = run(
            ["table", "--manifold", "s3-t2", "--max-curves", "2", "--max-slope", "2"]
        )
        assert status == 0
        assert ",1,1," in output and ",2,1," in output

    def test_json_table(self):
        status, output = run(
            ["table", "--manifold", "s3-s2", "--max-curves", "3", "--format", "json"]
        )
        rows = [json.loads(line) for line in output.strip().splitlines()]
        assert status == 0 and len(rows) == 2
        assert all(row["surface"] == "sphere" for row in rows)


class TestStrictJsonInput:
    @pytest.mark.parametrize(
        "field,value", [("slope", [3]), ("sign", 1.7), ("id", 1.5), ("genus", 1.5)]
    )
    def test_malformed_number_is_a_parse_error(self, monkeypatch, capsys, field, value):
        payload = {
            "surface": "torus",
            "vertices": [{"id": 0, "sign": 1, "genus": 0}, {"id": 1, "sign": -1, "genus": 0}],
            "edges": [[0, 1], [0, 1]],
            "slope": [3, 2],
        }
        (payload if field == "slope" else payload["vertices"][0])[field] = value
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
        status, output = run(["check", "--gamma", "-"])
        err = capsys.readouterr().err
        assert status == 2 and output == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err


class TestTableArguments:
    def test_zero_slope_bound_is_an_error(self, capsys):
        status, output = run(["table", "--manifold", "s3-t2", "--max-slope", "0"])
        err = capsys.readouterr().err
        assert status == 1 and output == ""
        assert err.startswith("error:") and err.count("\n") == 1

    def test_sphere_tree_cap_fires_before_enumeration(self, monkeypatch, capsys):
        def never(*args, **kwargs):
            raise AssertionError("enumeration ran before the cap check")

        classify_module = importlib.import_module("bcontact.classify")
        monkeypatch.setattr(classify_module, "enum_equicolored_trees", never)
        status, _ = run(["table", "--manifold", "s3-s2", "--max-curves", "30"])
        assert status == 1
        assert "capped" in capsys.readouterr().err


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_missing_required_flag(self):
        assert run(["enum-trees"])[0] == 2

    def test_bad_manifold_value(self):
        assert run(["table", "--manifold", "s3-rp2", "--max-curves", "2"])[0] == 2


class TestDeterminism:
    def test_gamma_from_stdin(self, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO(EQUATOR))
        status, output = run(["census", "--gamma", "-"])
        assert status == 0 and output.strip() == "2 2 1"

    def test_repeated_runs_are_byte_identical(self):
        args = ["enum-torus", "--max-curves", "4", "--max-slope", "2", "--format", "json"]
        assert run(args) == run(args)
        args = ["table", "--manifold", "s3-s2", "--max-curves", "5"]
        assert run(args) == run(args)

    def test_torus_table_matches_recorded_digest(self):
        # sha256 of this table's stdout before the table was built per
        # graph class; the rows must not change.
        status, output = run(["table", "--manifold", "s3-t2", "--max-curves", "6",
                              "--max-slope", "8", "--format", "csv"])
        assert status == 0
        assert hashlib.sha256(output.encode()).hexdigest() == TORUS_TABLE_6_8_SHA256

    def test_separate_processes_are_byte_identical(self):
        # Fresh interpreters get fresh hash seeds; output must not care.
        args = [sys.executable, "-m", "bcontact", "table", "--manifold", "s3-t2",
                "--max-curves", "4", "--max-slope", "2"]
        first = subprocess.run(args, capture_output=True, check=True)
        second = subprocess.run(args, capture_output=True, check=True)
        assert first.stdout == second.stdout and first.stdout
