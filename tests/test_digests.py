"""The pinned outputs of ``digests.json``: the file, its checker, and the
benchmark's own copy of three of them."""

import importlib
import json
import sys
from pathlib import Path

import pytest

import check_digests
from helpers import DIGESTS, recorded

ROOT = Path(__file__).resolve().parents[1]
COMMAND = [sys.executable, "-m", "bcontact"]


class TestFile:
    def test_each_name_and_digest_is_declared_once(self):
        entries = json.loads(check_digests.DIGESTS.read_text(encoding="utf-8"))
        names = [entry["name"] for entry in entries]
        digests = [entry["sha256"] for entry in entries if "sha256" in entry]
        assert len(names) == len(set(names))
        assert len(digests) == len(set(digests))
        # An entry records its output or names the entry it must equal.
        for entry in entries:
            assert ("same_as" in entry) != ({"sha256", "lines"} <= entry.keys()), entry["name"]


def test_the_benchmark_pins_entries_of_this_file(monkeypatch):
    # perfbench keeps its own reference; it must be the file's.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    workloads = importlib.import_module("workloads")
    pinned = [
        (workloads.ENUM_TREES, workloads.ENUM_TREES_SHA256, workloads.ENUM_TREES_CLASSES),
        (workloads.ENUM_TORUS, workloads.ENUM_TORUS_SHA256, workloads.ENUM_TORUS_CLASSES),
        # The table's rows and its header line.
        (workloads.TORUS_TABLE, workloads.TORUS_TABLE_SHA256, workloads.TORUS_TABLE_ROWS + 1),
    ]
    assert [lines for _, _, lines in pinned] == [10_079, 2_135, 10_243]
    for argv, digest, lines in pinned:
        entry = recorded(list(argv))
        assert (entry["sha256"], entry["lines"]) == (digest, lines), argv


def cheap_entries():
    """Two entries that run in a moment: a help text, and a classify answer
    read from stdin."""
    (equator,) = [entry for entry in DIGESTS if entry["name"].endswith("[classify-equator]")]
    return [recorded(["--help"]), equator]


class TestChecker:
    def test_passes_on_recorded_entries(self):
        assert check_digests.check(COMMAND, cheap_entries()) == []

    @pytest.mark.parametrize("field", ["sha256", "lines"])
    def test_names_the_entry_whose_record_is_altered(self, field):
        kept, entry = cheap_entries()
        altered = {**entry, field: "0" * 64 if field == "sha256" else entry["lines"] + 1}
        (failure,) = check_digests.check(COMMAND, [kept, altered])
        assert failure.startswith(entry["name"] + ": ")

    def test_main_prints_each_failure_and_exits_one(self, monkeypatch, capsys):
        kept, entry = cheap_entries()
        altered = {**entry, "sha256": "0" * 64}
        monkeypatch.setattr(check_digests, "load", lambda: [kept, altered])
        assert check_digests.main(COMMAND) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{entry['name']}: sha256 {entry['sha256']}, recorded {'0' * 64}"
        ]
        monkeypatch.setattr(check_digests, "load", lambda: [kept])
        assert check_digests.main(COMMAND) == 0
