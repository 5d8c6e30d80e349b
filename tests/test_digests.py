"""The pinned answers of ``digests.json``: the file, its checker, and the
benchmark's own copy of three of them."""

import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import check_digests
from helpers import DIGESTS, recorded

ROOT = Path(__file__).resolve().parents[1]
COMMAND = [sys.executable, "-m", "bcontact"]
FIELDS = {"name", "argv", "gamma", "env", "sha256", "lines", "same_as", "status", "stderr",
          "seconds", "peak_mb", "why"}
EMPTY = hashlib.sha256(b"").hexdigest()


class TestFile:
    def test_each_name_and_digest_is_declared_once(self):
        entries = json.loads(check_digests.DIGESTS.read_text(encoding="utf-8"))
        names = [entry["name"] for entry in entries]
        # Refusals all print nothing; any other output is recorded once, and
        # an entry that prints it again names that entry (same_as).
        digests = [entry["sha256"] for entry in entries if entry.get("sha256", EMPTY) != EMPTY]
        assert len(names) == len(set(names))
        assert len(digests) == len(set(digests))
        for entry in entries:
            assert entry.keys() <= FIELDS, entry["name"]
            # An entry records its output or names the entry it must equal.
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


PEAK = "tests/test_digests.py::test_each_peak_stays_under_its_bound["


@pytest.mark.parametrize("name", [
    pytest.param(entry["name"], id=entry["name"][len(PEAK):-1])
    for entry in DIGESTS if entry["name"].startswith(PEAK)
])
def test_each_peak_stays_under_its_bound(name):
    # A child's peak RSS starts at its parent's, so a fresh interpreter, not
    # this one, runs the checker on the entry.
    code = (
        f"import sys\nsys.path.insert(0, {str(Path(__file__).parent)!r})\nimport check_digests\n"
        "entries = [e for e in check_digests.load() if e['name'] == sys.argv[1]]\n"
        "sys.exit('\\n'.join(check_digests.check(sys.argv[2:], entries)) or None)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, name, *COMMAND], capture_output=True,
                          text=True)
    assert (proc.returncode, proc.stderr) == (0, "")


def cheap_entries():
    """Two entries that run in a moment: a help text, and a classify answer
    read from stdin."""
    (equator,) = [entry for entry in DIGESTS if entry["name"].endswith("[classify-equator]")]
    return [recorded(["--help"]), equator]


class TestChecker:
    def test_passes_on_recorded_entries(self):
        assert check_digests.check(COMMAND, cheap_entries()) == []

    # Each field altered so that the answer no longer meets it: a time limit
    # no call meets, and a peak bound under any process's own.
    @pytest.mark.parametrize("field,value", [
        ("sha256", "0" * 64), ("lines", -1), ("status", 1), ("stderr", "error: altered\n"),
        ("seconds", 0.001), ("peak_mb", 1),
    ], ids=["sha256", "lines", "status", "stderr", "seconds", "peak_mb"])
    def test_names_the_entry_whose_record_is_altered(self, monkeypatch, capsys, field, value):
        kept, entry = cheap_entries()
        monkeypatch.setattr(check_digests, "load", lambda: [kept, {**entry, field: value}])
        assert check_digests.main(COMMAND) == 1
        (failure,) = capsys.readouterr().out.splitlines()
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
