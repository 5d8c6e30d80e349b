"""Command-line behavior: outputs and the exit-status contract."""

import contextlib
import gc
import importlib
import io
import json
import math
import os
import random
import subprocess
import sys
import textwrap
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bcontact import admissibility, cli, counting
from bcontact.classify import TABLE_COLUMNS, table_classes, table_rows, write_table
from bcontact.cli import run_cli
from bcontact.enumeration import (
    ResourceLimitError,
    enum_equicolored_trees,
    enum_torus_classes,
    enum_torus_rows,
    enum_tree_rows,
    torus_count,
    tree_count,
)
from bcontact.listings import write_torus_listing, write_tree_listing
from bcontact.region_graph import canonical_code
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

from check_digests import mismatch
from helpers import (
    DIGESTS,
    class_json_reference,
    class_text_reference,
    enum_torus_graphs,
    graph_json_reference,
    graph_slopes,
    graph_text_reference,
    recorded,
    reference_namespace,
)

CLASSIFY_MODULE = importlib.import_module("bcontact.classify")
ENUMERATION_MODULE = importlib.import_module("bcontact.enumeration")
SURFACES_MODULE = importlib.import_module("bcontact.surfaces")

EQUATOR = "surface sphere\nv 0 + 0\nv 1 - 0\ne 0 1\n"
# The first 40 characters of a long list of empty lists, as an error line
# echoes it.
LIST_ECHO = "[" + "[], " * 9 + "[],..."
# A 4,000-digit id, under CPython's int-to-str digit limit.
NINES = "9" * 4000
TWO_CYCLE_32 = "surface torus\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\nslope 3 2\n"
GENUS_TREE = "surface torus\nv 0 + 1\nv 1 - 0\ne 0 1\n"  # valid, inadmissible
BAD_SYNTAX = "surface sphere\nv zero + 0\n"
FORMS = ("text", "json", "csv")


def run(argv):
    out = io.StringIO()
    status = run_cli(argv, out=out)
    return status, out.getvalue()


def set_stdin(monkeypatch, data):
    """Make ``data`` stdin, as bytes under a text layer, as a pipe gives it;
    text is encoded as UTF-8 first."""
    if isinstance(data, str):
        data = data.encode()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8"))


def gamma_file(tmp_path, text, name="gamma.txt"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEnumCommands:
    def test_enum_torus_builds_no_class_per_slope(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a class object was built per slope")

        # The enumerator imports the class where it builds classes, so the
        # class is replaced in its home module.
        monkeypatch.setattr(SURFACES_MODULE, "DividingSetClass", never)
        for fmt in ("text", "json", "csv"):
            status, _ = run(["enum-torus", "--max-curves", "6", "--max-slope", "5",
                             "--format", fmt])
            assert status == 0
        # 4,775 rings on up to 12 curves, each with the 19,948 normalized
        # slopes p/q with p <= 256, and 8,674 trees with none.
        status, count = run(["enum-torus", "--max-curves", "12", "--max-slope", "256",
                             "--count-only"])
        assert (status, count) == (0, "95260374\n")

    def test_resource_guard_exit_code(self):
        status, _ = run(["enum-trees", "--n", "99", "--count-only"])
        assert status == 1


def never_enumerate(*args, **kwargs):
    raise AssertionError("a class was enumerated")


def recorded_in(test):
    """The entries of digests.json that ``test`` of this module checks, each
    by the id its name gives."""
    prefix = f"tests/test_cli.py::{test}["
    return [
        pytest.param(entry, id=entry["name"][len(prefix):-1])
        for entry in DIGESTS if entry["name"].startswith(prefix)
    ]


def assert_answers_as_recorded(monkeypatch, capsys, entry):
    """Run ``entry`` in process, its gamma text on stdin, and compare its
    exit status, stdout and stderr with the record.  A refused call (exit
    status other than 0) walks no tree: it is refused before any work."""
    set_stdin(monkeypatch, entry.get("gamma", ""))
    if entry.get("status", 0):
        monkeypatch.setattr(ENUMERATION_MODULE, "_walk", never_enumerate)
    status, output = run(entry["argv"])
    called = capsys.readouterr()
    assert called.out == ""
    assert mismatch(entry, output.encode(), status, called.err.encode()) is None


class TestListingSize:
    """A listing or table request is sized from the recorded class counts,
    or refused, before any class is listed: ``--count-only`` prints that
    size, and a refusal is one error line, exit 1, a torus listing or a
    table past ``TABLE_ROW_CAP`` rows among them.  Each answer is an entry
    of digests.json named by the test that checks it; the listings'
    lengths referee the counts (``TestListingsMatchLibrary``)."""

    @pytest.mark.parametrize(
        "entry", recorded_in("TestListingSize::test_count_enumerates_nothing")
    )
    def test_count_enumerates_nothing(self, monkeypatch, capsys, entry):
        for name in ("enum_tree_rows", "enum_torus_rows", "_walk"):
            monkeypatch.setattr(ENUMERATION_MODULE, name, never_enumerate)
        assert_answers_as_recorded(monkeypatch, capsys, entry)

    @pytest.mark.parametrize("entry", recorded_in("TestListingSize::test_refusals_are_unchanged"))
    def test_refusals_are_unchanged(self, monkeypatch, capsys, entry):
        assert_answers_as_recorded(monkeypatch, capsys, entry)

    @pytest.mark.parametrize(
        "entry", recorded_in("TestListingSize::test_row_cap_refuses_before_enumerating")
    )
    def test_row_cap_refuses_before_enumerating(self, monkeypatch, capsys, entry):
        # The rows are counted from the recorded class counts.
        monkeypatch.setattr(ENUMERATION_MODULE, "enum_torus_rows", never_enumerate)
        assert_answers_as_recorded(monkeypatch, capsys, entry)

    @pytest.mark.parametrize("spare,status", [(0, 0), (-1, 1)], ids=["at-cap", "one-over"])
    def test_row_cap_counts_rows_exactly(self, monkeypatch, capsys, spare, status):
        # A listing's rows are its lines.
        argv = ["enum-torus", "--max-curves", "6", "--max-slope", "3", "--format", "json"]
        assert_row_cap_counts_rows(monkeypatch, capsys, "listing", argv, 0, spare, status)


def assert_row_cap_counts_rows(monkeypatch, capsys, kind, argv, header, spare, status):
    """With ``TABLE_ROW_CAP`` set ``spare`` rows above the rows of the
    ``kind`` answer of ``argv`` (its lines after ``header`` lines), the
    answer is as before (``status`` 0) or refused (``status`` 1)."""
    answer = run(argv)[1]
    rows = answer.count("\n") - header
    monkeypatch.setattr(ENUMERATION_MODULE, "TABLE_ROW_CAP", rows + spare)
    assert run(argv) == (status, answer if status == 0 else "")
    refusal = f"error: {kind} capped at {rows - 1} rows, got {rows}\n"
    assert capsys.readouterr().err == ("" if status == 0 else refusal)


def tree_calls(n):
    """The library calls of a sphere listing of the trees on 2n regions,
    its writer's in each form."""
    return [(tree_count, (n,)), (enum_tree_rows, (n,)), (enum_equicolored_trees, (n,)),
            *[(write_tree_listing, (io.StringIO(), n, False, fmt)) for fmt in FORMS]]


def writer_calls(max_curves, max_p):
    """The torus listing's writer in each form, each with a stream of its own."""
    return [(write_torus_listing, (io.StringIO(), max_curves, max_p, False, fmt)) for fmt in FORMS]


def torus_calls(max_curves, max_p):
    """The library calls of a torus listing and table."""
    request = (max_curves, max_p)
    return [(torus_count, request), (enum_torus_classes, request), *writer_calls(*request),
            (table_rows, (S3_T2, *request)), (table_classes, (S3_T2, *request))]


def curve_calls(max_curves):
    """``torus_calls`` at slope 1, and the row enumerator, which takes no
    slope bound."""
    return [*torus_calls(max_curves, 1), (enum_torus_rows, (max_curves,))]


def sphere_table_calls(max_curves, max_p):
    return [(table_rows, (S3_S2, max_curves, max_p)), (table_classes, (S3_S2, max_curves, max_p))]


def refusal(*argv):
    """The message of the CLI's recorded refusal of ``argv``, which the
    library gives as it is (the CLI writes it after "error: ")."""
    return recorded(list(argv))["stderr"].removeprefix("error: ").removesuffix("\n")


# Each refused listing or table request at every library door that takes
# it, and the one exception type and message they all give: where the
# request has a CLI spelling, the message of the CLI's refusal, recorded
# in digests.json (``TestListingSize``).  A refusal of a size below 1
# names only the sizes below 1, as the torus listing's writer does.
PARITY = [
    pytest.param(tree_calls(0), ValueError, refusal("enum-trees", "--n", "0"), id="n-0"),
    pytest.param(tree_calls(11), ResourceLimitError, refusal("enum-trees", "--n", "11"),
                 id="n-11"),
    pytest.param(tree_calls(True), ValueError, "n=True is not an integer", id="n-True"),
    pytest.param(tree_calls(2.0), ValueError, "n=2.0 is not an integer", id="n-2.0"),
    pytest.param(curve_calls(0) + sphere_table_calls(0, 1), ValueError,
                 refusal("enum-torus", "--max-curves", "0"), id="curves-0"),
    pytest.param(curve_calls(17), ResourceLimitError, refusal("enum-torus", "--max-curves", "17"),
                 id="curves-17"),
    pytest.param(curve_calls(21), ResourceLimitError, refusal("enum-torus", "--max-curves", "21"),
                 id="torus-curves-21"),
    pytest.param(sphere_table_calls(21, 1), ResourceLimitError,
                 refusal("table", "--manifold", "s3-s2", "--max-curves", "21"),
                 id="sphere-curves-21"),
    pytest.param(torus_calls(4, 0) + sphere_table_calls(4, 0), ValueError,
                 refusal("enum-torus", "--max-slope", "0"), id="slope-0"),
    pytest.param(torus_calls(4, 257), ResourceLimitError,
                 refusal("enum-torus", "--max-slope", "257"), id="slope-257"),
    pytest.param(curve_calls(True) + sphere_table_calls(True, 1), ValueError,
                 "max_curves=True is not an integer", id="curves-True"),
    pytest.param(curve_calls(2.0) + sphere_table_calls(2.0, 1), ValueError,
                 "max_curves=2.0 is not an integer", id="curves-2.0"),
    pytest.param(torus_calls(4, True) + sphere_table_calls(4, True),
                 ValueError, "max_p=True is not an integer", id="slope-True"),
    pytest.param(torus_calls(4, 2.0) + sphere_table_calls(4, 2.0),
                 ValueError, "max_p=2.0 is not an integer", id="slope-2.0"),
    # The library's listing refuses as the CLI's does; its --count-only
    # prints the size (TestListingSize).
    pytest.param([(enum_torus_classes, (16, 256)), *writer_calls(16, 256)], ResourceLimitError,
                 refusal("enum-torus", "--max-curves", "16", "--max-slope", "256"),
                 id="listing-16-256"),
    pytest.param([(table_classes, (S3_T2, 16, 256))], ResourceLimitError,
                 refusal("table", "--manifold", "s3-t2", "--max-curves", "16", "--max-slope", "256"),
                 id="table-16-256"),
]


@pytest.mark.parametrize("calls,kind,message", PARITY)
def test_every_door_refuses_alike(monkeypatch, calls, kind, message):
    # A refused request walks no tree, and a writer writes no byte.
    monkeypatch.setattr(ENUMERATION_MODULE, "_walk", never_enumerate)
    for function, args in calls:
        with pytest.raises(ValueError) as raised:
            function(*args)
        assert (type(raised.value), str(raised.value)) == (kind, message), function.__name__
        assert all(a.getvalue() == "" for a in args if isinstance(a, io.StringIO)), args


def referee_listing(graphs, fmt, modulo_swap, slopes=None):
    """The listing of ``graphs`` built from the graph objects by the
    references, one listed class at a time; with ``slopes``, per graph, a
    torus listing, whose CSV names each class's slope (a tree's empty)."""
    if slopes is None:
        if fmt == "csv":
            return "size,canonical_code,admissible\n" + "".join(
                f"{g.edge_count},{canonical_code(g, modulo_swap)},true\n" for g in graphs
            )
        blocks = [graph_text_reference(g) for g in graphs]
        lines = [json.dumps(graph_json_reference(g)) + "\n" for g in graphs]
    else:
        classes = [
            DividingSetClass(Surface.TORUS, g, slope) for g, s in zip(graphs, slopes) for slope in s
        ]
        blocks = [class_text_reference(d) for d in classes]
        lines = [json.dumps(class_json_reference(d)) + "\n" for d in classes]
    if fmt == "text":
        return "\n".join(blocks) or "\n"
    if fmt == "json":
        return "".join(lines)
    fields = [
        (g, ("", "") if slope is None else slope) for g, s in zip(graphs, slopes) for slope in s
    ]
    return "size,canonical_code,slope_p,slope_q,admissible\n" + "".join(
        f"{g.edge_count},{canonical_code(g, modulo_swap)},{p},{q},true\n" for g, (p, q) in fields
    )


class TestListingsMatchLibrary:
    """The CLI writes listings from the generator's rows; the library's
    graphs, written field by field, referee every byte."""

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_tree_listings(self, fmt, modulo_swap):
        sign_mode = ["--no-distinguish-signs"] if modulo_swap else []
        for n in range(1, 8):
            graphs = enum_equicolored_trees(n, modulo_swap)
            args = ["enum-trees", "--n", str(n), *sign_mode]
            listing = (0, referee_listing(graphs, fmt, modulo_swap))
            assert run([*args, "--format", fmt]) == listing, n
            if fmt == "text":
                assert run(args) == listing, n
            assert run([*args, "--count-only"]) == (0, f"{len(graphs)}\n")

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_torus_listings(self, fmt, modulo_swap):
        sign_mode = ["--no-distinguish-signs"] if modulo_swap else []
        for max_curves, max_p in ((1, 1), (2, 1), (4, 2), (6, 5), (7, 3), (9, 3)):
            graphs = enum_torus_graphs(max_curves, modulo_swap)
            slopes = [graph_slopes(g, max_p) for g in graphs]
            args = ["enum-torus", "--max-curves", str(max_curves), "--max-slope", str(max_p),
                    *sign_mode]
            assert run([*args, "--format", fmt]) == (
                0, referee_listing(graphs, fmt, modulo_swap, slopes)
            ), max_curves
            classes = enum_torus_classes(max_curves, max_p, modulo_swap)
            assert run([*args, "--count-only"]) == (0, f"{len(classes)}\n")

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    def test_torus_csv_repeats_no_line(self, modulo_swap):
        # A ring's line names its slope, so a class listed at each of its
        # slopes writes a line of its own at each.
        sign_mode = ["--no-distinguish-signs"] if modulo_swap else []
        for max_curves, max_p in ((2, 2), (8, 3)):
            status, listing = run(["enum-torus", "--max-curves", str(max_curves),
                                   "--max-slope", str(max_p), "--format", "csv", *sign_mode])
            lines = listing.splitlines()
            assert status == 0 and len(set(lines)) == len(lines) > 2, max_curves

class _ClassesPerWrite:
    """A stream that keeps, per write, how many classes it held."""

    def __init__(self, marker: str) -> None:
        self.marker = marker
        self.counts: list[int] = []

    def write(self, text: str) -> None:
        self.counts.append(text.count(self.marker))


class TestListingWrites:
    """``write_torus_listing`` hands each torus class's lines to ``out``
    in one write and holds no other row's, so a long run of slopes is
    never joined to another; the CLI's chunked stream does the batching.
    A sphere row is one class at no slope, so ``write_tree_listing``
    writes whole sphere rows in batches of ``listings._BATCH``."""

    @pytest.mark.parametrize("fmt,marker", [("json", '"surface"'), ("text", "surface ")])
    def test_each_write_is_one_class_at_its_slopes(self, fmt, marker):
        rows = ENUMERATION_MODULE.enum_torus_rows(5)
        stream = _ClassesPerWrite(marker)
        write_torus_listing(stream, 5, 256, False, fmt)
        # The five rings at 256: 19,948 classes each; a tree is one.
        assert stream.counts == [1 if row[2] is None else 19948 for row in rows]
        assert stream.counts.count(19948) == 5

    @pytest.mark.parametrize("fmt,marker", [("json", '"vertices"'), ("text", "v 0 ")])
    def test_sphere_writes_are_batches_of_whole_rows(self, fmt, marker):
        writes = []
        write_tree_listing(SimpleNamespace(write=writes.append), 7, False, fmt)
        # The 1,742 classes on 14 regions: six full batches and 206, each
        # write ending a line.
        assert [text.count(marker) for text in writes] == [256] * 6 + [206]
        assert all(text.endswith("\n") for text in writes)


class TestListingRows:
    """Each listing writer, handed the request, writes the CLI's bytes:
    the sphere's asks for the rows its form reads, and the torus's writes
    its rows at their slopes up to a bound."""

    @pytest.mark.parametrize("fmt", FORMS)
    @pytest.mark.parametrize("write,argv", [
        (lambda out, fmt: write_tree_listing(out, 5, False, fmt), ["enum-trees", "--n", "5"]),
        (lambda out, fmt: write_torus_listing(out, 7, 3, False, fmt),
         ["enum-torus", "--max-curves", "7", "--max-slope", "3"]),
    ], ids=["trees", "torus"])
    def test_default_rows_write_the_cli_bytes(self, write, argv, fmt):
        out = io.StringIO()
        write(out, fmt)
        assert (0, out.getvalue()) == run([*argv, "--format", fmt])


class TestTableWrites:
    """``write_table`` writes the CSV header, then runs of whole graph
    classes, each ended by the class that brings it to
    ``classify._BATCH`` lines, so the table is never held whole; the
    CLI's chunked stream does the rest of the batching."""

    @pytest.mark.parametrize("fmt,opening", [("csv", ""), ("json", '{"canonical_code": "')])
    @pytest.mark.parametrize("table,writes_made", [
        # Five rings of 19,948 lines each alone, then ten one-line genus
        # trees together.
        ((S3_T2, 5, 256), 6),
        # 2,143 one-line classes, 256 a write.
        ((S3_S2, 13, 1), 9),
    ], ids=["torus", "sphere"])
    def test_each_write_is_whole_classes(self, table, writes_made, fmt, opening):
        classes = table_classes(*table)
        writes = []
        write_table(SimpleNamespace(write=writes.append), classes, fmt)
        if fmt == "csv":
            assert writes.pop(0) == ",".join(TABLE_COLUMNS) + "\n"
        assert len(writes) == writes_made
        sizes = [sum(len(run[0]) for run in c.runs) for c in classes]
        total = sum(sizes)
        # Each write is the next classes' lines, all of them, up to the
        # first class that brings the run to the batch size.
        start = 0
        for text in writes:
            lines = text.splitlines()
            assert len(lines) < total
            end = start
            while end < len(classes) and sum(sizes[start:end]) < CLASSIFY_MODULE._BATCH:
                end += 1
            assert len(lines) == sum(sizes[start:end])
            for c, size in zip(classes[start:end], sizes[start:end]):
                code = opening + c.code + ("," if fmt == "csv" else '"')
                assert all(line.startswith(code) for line in lines[:size]), c.code
                lines = lines[size:]
            start = end
        assert start == len(classes)


class TestListingFragments:
    """A torus listing ranks each level sequence's edges once: a ring's
    closing edge joins its sequence's ranks, and another genus region or
    coloring of a tree reuses its sequence's text.  A sphere listing ranks
    none: each row brings its edges' ranks from the walk."""

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    @pytest.mark.parametrize("argv", [
        ["enum-trees", "--n", "6"],
        ["enum-torus", "--max-curves", "9", "--max-slope", "2"],
    ])
    def test_edge_text_made_once_per_skeleton(self, monkeypatch, argv, modulo_swap):
        ranked = []
        real_edge_ranks = ENUMERATION_MODULE._edge_ranks

        def counted(layout):
            ranked.append(layout)
            return real_edge_ranks(layout)

        # Each of the torus listing's sequences once, and none on the sphere.
        torus = argv[0] == "enum-torus"
        rows = ENUMERATION_MODULE.enum_torus_rows(9, modulo_swap) if torus else []
        expected = sorted({row[1] for row in rows})
        monkeypatch.setattr(ENUMERATION_MODULE, "_edge_ranks", counted)
        sign_mode = ["--no-distinguish-signs"] if modulo_swap else []
        for fmt in ("json", "text"):
            ranked.clear()
            assert run([*argv, *sign_mode, "--format", fmt])[0] == 0
            assert sorted(ranked) == expected, (argv, fmt)

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    def test_a_level_sequence_carries_trees_or_rings(self, modulo_swap):
        # The writer keeps one tail per sequence, text for a tree's and
        # ranks for a ring's.
        rows = ENUMERATION_MODULE.enum_torus_rows(12, modulo_swap)
        trees = {row[1] for row in rows if row[2] is None}
        rings = {row[1] for row in rows if row[2] is not None}
        assert trees and rings and not trees & rings


class TestParser:
    """Help and usage errors are written from the command table: the help
    on ``out``, exit 0; a usage error as the usage line and an error line
    on stderr, exit 2.  Each is an entry of digests.json, pinned by its
    bytes."""

    @pytest.mark.parametrize(
        "entry", recorded_in("TestParser::test_help_usage_and_errors_as_with_every_argument")
    )
    def test_help_usage_and_errors_as_with_every_argument(self, monkeypatch, capsys, entry):
        assert_answers_as_recorded(monkeypatch, capsys, entry)


# What the argv reader meets: every command, every declared flag and its
# --no- form, help, an abbreviation, a --flag=value, an unknown flag; and
# values that ints, choices and paths take or refuse, a 4,301-digit integer
# past CPython's int-from-str limit among them.
DECLARED_FLAGS = sorted({
    flag for _, _, arguments in cli._COMMANDS.values() for flag, _ in arguments
})
READER_TOKENS = [
    *cli._COMMANDS, *DECLARED_FLAGS, *("--no-" + flag[2:] for flag in DECLARED_FLAGS),
    "-h", "--help", "--max-c", "--n=3", "--bogus",
]
READER_VALUES = st.integers(-4, 12).map(str) | st.sampled_from([
    "-", "", "json", "csv", "text", "s3-t2", "nowhere", "1_0", " 7", "\u0663", "9" * 4301,
])


@st.composite
def reader_argvs(draw):
    """An argv over the reader's vocabulary: mostly a command and most of
    its flags in any order, a value flag mostly followed by a value that
    fits it, and sometimes a token or value put in anywhere."""
    def rarely():
        return draw(st.integers(0, 4)) == 4

    head = draw(st.sampled_from(READER_TOKENS if rarely() else list(cli._COMMANDS)))
    argv = [head]
    arguments = cli._COMMANDS[head][2] if head in cli._COMMANDS else ()
    for flag, options in draw(st.permutations(arguments)):
        if rarely():
            continue
        if "action" in options:
            argv.append(draw(st.sampled_from([flag, "--no-" + flag[2:]])))
            continue
        if "choices" in options:
            fitting = st.sampled_from(options["choices"])
        elif "type" in options:
            fitting = st.integers(0, 12).map(str)
        else:
            fitting = st.just("gamma.txt")
        argv += [flag, draw(READER_VALUES if rarely() else fitting)]
    while rarely():
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(READER_TOKENS) | READER_VALUES))
    return argv


# The argv of every pinned answer of digests.json that is neither help nor
# a usage error.
RECORDED_ARGVS = [
    entry["argv"] for entry in DIGESTS
    if entry["argv"][-1:] != ["--help"] and entry.get("status", 0) != 2
]


def spelled_out(argv):
    """``argv`` with each ``--flag=value`` split in two and each abbreviated
    flag written whole."""
    names = []
    for flag, options in cli._COMMANDS[argv[0]][2]:
        names.append(flag)
        if options.get("action") == "negatable":
            names.append("--no-" + flag[2:])
    spelled = [argv[0]]
    for token in argv[1:]:
        name, equals, value = token.partition("=")
        if name.startswith("--"):
            if name not in names:
                (name,) = [full for full in names if full.startswith(name)]
            spelled += [name, value] if equals else [name]
        else:
            spelled.append(token)
    return spelled


def read(argv):
    """``cli._read_args`` of ``argv`` as a dict, or None if it refuses it."""
    try:
        return vars(cli._read_args(argv))
    except cli._UsageError:
        return None


class TestArgvReader:
    """``cli._read_args``, the CLI's one grammar, reads every argv into the
    namespace that argparse reads from the same command table, and
    refuses every argv that argparse refuses."""

    @settings(max_examples=500, deadline=None, derandomize=True, database=None)
    @given(argv=reader_argvs())
    def test_a_namespace_it_reads_is_argparse_s(self, argv):
        # And an argv it refuses, the reference refuses.
        assume("-h" not in argv and "--help" not in argv)
        assert read(argv) == reference_namespace(argv)

    # These argvs are the ones an earlier reader declined, to have a second
    # parser read or report them: help, abbreviations, --flag=value,
    # repeated flags and refusals.  The one grammar now reads each of them
    # as the reference does, and answers a call for help with help.
    @pytest.mark.parametrize("argv", [
        ["cf", "--help"], ["cf", "-h"], ["cf", "--p", "5", "--q", "2", "--help"],
        ["table", "--manifold", "s3-t2", "--max-c", "4"],
        ["cf", "--p=5", "--q", "2"],
        ["cf", "--p", "5", "--p", "5", "--q", "2"],
        ["enum-trees", "--n", "3", "--distinguish-signs", "--no-distinguish-signs"],
        ["enum-trees", "--n", "3", "--count-only", "--count-only"],
        ["cf", "--p", "5", "--q", "2", "extra"], ["cf", "--p", "5", "--q", "2", "--bogus"],
        ["cf", "--p", "5", "--q"], ["cf", "--p", "5"], ["check"],
        ["cf", "--p", "-5", "--q", "2"], ["check", "--gamma", "-x"],
        ["cf", "--p", "five", "--q", "2"], ["cf", "--p", "9" * 4301, "--q", "2"],
        ["table", "--manifold", "nowhere"], ["cf", "--p", "5", "--q", "2", "--format", "csv"],
        ["frobnicate"], ["--help"], [],
        ["cf", "--he"], ["-h"], ["enum-torus", "--max", "4"],
    ])
    def test_declines_what_argparse_must_read_or_report(self, argv):
        if {"-h", "--he", "--help"} & set(argv):
            assert read(argv) == {"help": argv[0] if argv[0] in cli._COMMANDS else None}
        else:
            assert read(argv) == reference_namespace(argv)

    def test_reads_every_recorded_command(self, tmp_path, monkeypatch):
        # The benchmark's queries, made from a seed.  Its listings and table
        # are entries of digests.json (tests/test_digests.py), which
        # test_ci_spellings_read_as_spelled_out reads.
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        queries = importlib.import_module("queries")
        for query in queries.make_queries(1, 1, tmp_path):
            args = read(query.argv)
            assert args is not None, query.argv
            assert args == reference_namespace(query.argv), query.argv

    def test_ci_spellings_read_as_spelled_out(self):
        # An abbreviated flag or a --flag=value reads as the spelled-out
        # call, and as the reference reads it.
        assert any(argv != spelled_out(argv) for argv in RECORDED_ARGVS)
        for argv in RECORDED_ARGVS:
            args = read(argv)
            assert args is not None, argv
            assert args == read(spelled_out(argv)) == reference_namespace(argv), argv


class TestArithmeticCommands:
    def test_tight_count(self):
        status, output = run(["tight-count", "--n", "1", "--p", "3", "--q", "2"])
        assert status == 0 and output.strip() == "2"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_tight_count_past_the_int_to_str_digit_limit(self, tmp_path, capsys, fmt):
        # N(8000, -3, 2) has 4,815 digits, past the 4,300 that CPython's str
        # takes by default; the limit is lifted for the count alone.
        limit = sys.get_int_max_str_digits()
        argv = ["tight-count", "--n", "8000", "--p", "3", "--q", "2"]
        status, output = run([*argv, "--format", fmt])
        assert status == 0 and sys.get_int_max_str_digits() == limit
        if fmt == "json":
            head, _, output = output.partition('"count": ')
            assert head == '{"n": 8000, "p": 3, "q": 2, "r": 2, "s": 1, '
        digits = output.partition(",")[0].strip()
        assert len(digits) == 4815 and digits.isdigit()
        if fmt == "text":
            # One line, the same with the format left to its default.
            assert output == digits + "\n" and run(argv) == (0, output)
        sys.set_int_max_str_digits(0)
        try:
            assert int(digits) == counting.tight_count_solid_torus(8000, 3, 2).count
        finally:
            sys.set_int_max_str_digits(limit)
        # Integers read from input keep the limit.
        huge = "9" * (limit + 1)
        gamma = gamma_file(tmp_path, f"surface torus\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\n"
                                     f"slope {huge} 1\n")
        assert run(["check", "--gamma", gamma]) == (2, "")
        assert "expected an integer slope" in capsys.readouterr().err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    def test_classify_prints_a_count_past_the_int_to_str_digit_limit(self, tmp_path):
        # A bare ring of 14,400 regions: N(7200, -3, 2) has 4,334 digits.
        order = 14_400
        gamma = gamma_file(tmp_path, "".join(
            ["surface torus\n", "slope 3 2\n"]
            + [f"v {i} {'+-'[i % 2]} 0\ne {i} {(i + 1) % order}\n" for i in range(order)]
        ))
        limit = sys.get_int_max_str_digits()
        status, text = run(["classify", "--gamma", gamma])
        assert status == 0 and sys.get_int_max_str_digits() == limit
        status, line = run(["classify", "--gamma", gamma, "--format", "json"])
        assert status == 0
        sys.set_int_max_str_digits(0)
        try:
            count = counting.tight_count_solid_torus(7200, 3, 2).count
            assert text.splitlines()[-1].endswith(f" count={count}")
            assert json.loads(line)["tight_count_detail"]["count"] == count
        finally:
            sys.set_int_max_str_digits(limit)

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

    def test_tight_count_n_cap_fires_before_arithmetic(self, monkeypatch, capsys):
        def never(*args):
            raise AssertionError("arithmetic ran past the cap")

        monkeypatch.setattr(counting, "catalan", never)
        monkeypatch.setattr(counting, "negative_continued_fraction", never)
        for n in (100_001, 1_000_000):
            status, output = run(["tight-count", "--n", str(n), "--p", "3", "--q", "2"])
            assert status == 1 and output == ""
            assert capsys.readouterr().err == f"error: tight count capped at n=100000, got {n}\n"

    def test_cf_p_cap(self, capsys):
        status, output = run(["cf", "--p", "1000001", "--q", "2"])
        assert status == 1 and output == ""
        assert capsys.readouterr().err == (
            "error: slope numerator capped at p=1000000, got 1000001\n"
        )

    def test_tight_count_at_the_n_cap(self, monkeypatch):
        monkeypatch.setattr(counting, "catalan", lambda n: n)  # C_n's digits are not the point
        assert run(["tight-count", "--n", "100000", "--p", "1", "--q", "1"]) == (0, "100000\n")

    def test_cf_at_the_p_cap(self):
        status, output = run(["cf", "--p", "1000000", "--q", "999999"])
        assert status == 0 and output.split() == ["-2"] * 999999

    def test_gamma_slope_p_cap(self, tmp_path, capsys):
        ring = TWO_CYCLE_32.replace("slope 3 2", "slope 1000001 2")
        status, _ = run(["classify", "--gamma", gamma_file(tmp_path, ring)])
        assert status == 1
        assert capsys.readouterr().err == (
            "error: slope numerator capped at p=1000000, got 1000001\n"
        )


class TestGammaCommands:
    def test_check_ok(self, tmp_path):
        status, output = run(["check", "--gamma", gamma_file(tmp_path, EQUATOR)])
        assert status == 0
        assert "admissible yes" in output

    def test_check_inadmissible_exits_one(self, tmp_path):
        status, output = run(["check", "--gamma", gamma_file(tmp_path, GENUS_TREE)])
        assert status == 1
        assert "admissible no" in output

    @pytest.mark.parametrize(
        "gamma,status", [(EQUATOR, 0), (GENUS_TREE, 1)], ids=["admissible", "inadmissible"]
    )
    def test_check_asks_the_tight_rule_once(self, monkeypatch, tmp_path, gamma, status):
        calls = []

        def counting(name):
            real = getattr(admissibility, name)

            def wrapper(m, d):
                calls.append(name)
                return real(m, d)

            return wrapper

        # check imports both tests when it runs, and is_tight_candidate calls
        # is_admissible through the module, so these are the bindings they
        # call: admissibility for its report, then the one rule, which asks
        # it again, whether or not the class is admissible.
        for name in ("is_admissible", "is_tight_candidate"):
            monkeypatch.setattr(admissibility, name, counting(name))
        assert run(["check", "--gamma", gamma_file(tmp_path, gamma)])[0] == status
        assert calls == ["is_admissible", "is_tight_candidate", "is_admissible"]

    def test_classify_text(self, tmp_path):
        status, output = run(["classify", "--gamma", gamma_file(tmp_path, TWO_CYCLE_32)])
        assert (status, output) == (0, (
            "tight 4 0\nmixed 4 2\nfully-overtwisted 1 4\n"
            "tight-count-detail n=1 p=3 q=2 r=2 s=1 count=2\n"
        ))

    def test_classify_json(self, tmp_path):
        status, output = run(
            ["classify", "--gamma", gamma_file(tmp_path, EQUATOR), "--format", "json"]
        )
        record = json.loads(output)
        assert status == 0
        assert record["tight"] == [1, 0] and record["mixed"] == [2, 1]
        assert record["fully_overtwisted"] == [1, 2]

    def test_census(self, tmp_path):
        status, output = run(["census", "--gamma", gamma_file(tmp_path, EQUATOR)])
        assert status == 0 and output.strip() == "2 2 1"

    @pytest.mark.parametrize(
        "command,gamma,expected",
        [
            ("check", EQUATOR,
             '{"canonical_code": "T(+0)(-0)", "admissible": true, '
             '"admissible_reason": "euler pairing balances", "tight_candidate": true, '
             '"tight_candidate_reason": "dividing set is connected"}\n'),
            ("check", TWO_CYCLE_32,
             '{"canonical_code": "C2(+0)(-0)", "admissible": true, '
             '"admissible_reason": "euler pairing balances", "tight_candidate": true, '
             '"tight_candidate_reason": "bare cycle of 2 essential curves"}\n'),
            ("census", EQUATOR, '{"leaves_dim3": 2, "leaves_dim2": 2, "leaves_dim1": 1}\n'),
            ("census", TWO_CYCLE_32,
             '{"leaves_dim3": 2, "leaves_dim2": 2, "leaves_dim1": 2}\n'),
        ],
        ids=["check-equator", "check-two-cycle", "census-equator", "census-two-cycle"],
    )
    def test_json_output_bytes(self, tmp_path, command, gamma, expected):
        gamma = gamma_file(tmp_path, gamma)
        status, output = run([command, "--format", "json", "--gamma", gamma])
        assert (status, output) == (0, expected)

    def test_export_dot_round_trip(self, tmp_path):
        status, dot = run(["export-dot", "--gamma", gamma_file(tmp_path, TWO_CYCLE_32)])
        assert status == 0
        assert dot.count("v0 -- v1;") == 2 and "// slope 3 2" in dot

    def test_parse_error_exits_two(self, tmp_path):
        status, _ = run(["check", "--gamma", gamma_file(tmp_path, BAD_SYNTAX)])
        assert status == 2

    def test_invalid_graph_exits_one(self, tmp_path, monkeypatch, capsys):
        bad = "surface sphere\nv 0 + 0\nv 1 + 0\ne 0 1\n"
        set_stdin(monkeypatch, bad)
        for gamma in (gamma_file(tmp_path, bad), "-"):
            assert run(["check", "--gamma", gamma]) == (1, "")
            assert capsys.readouterr().err == (
                "error: improper coloring: edge (0,1) joins two like-signed regions\n"
            )

    def test_missing_file_exits_two(self, tmp_path):
        status, _ = run(["check", "--gamma", str(tmp_path / "absent.txt")])
        assert status == 2

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "text,defect",
        [
            ("surface sphere\n", "graph has no vertices"),
            ('{"surface": "sphere", "vertices": [], "edges": []}', "graph has no vertices"),
            ("surface sphere\nv 0 + 0\nv 4 - 0\nv 4 - 0\ne 0 4\n", "duplicate vertex id 4"),
            (json.dumps({
                "surface": "sphere",
                "vertices": [{"id": 0, "sign": 1}, {"id": 4, "sign": -1}, {"id": 4, "sign": -1}],
                "edges": [[0, 4]],
            }), "duplicate vertex id 4"),
        ],
        ids=["text-empty", "json-empty", "text-duplicate", "json-duplicate"],
    )
    def test_graph_invariant_exits_one_in_either_form(
        self, tmp_path, monkeypatch, capsys, source, text, defect
    ):
        # The graph invariants are stated once, in validate, for both forms.
        if source == "stdin":
            set_stdin(monkeypatch, text)
            gamma = "-"
        else:
            gamma = gamma_file(tmp_path, text)
        status, output = run(["check", "--gamma", gamma])
        assert status == 1 and output == ""
        assert capsys.readouterr().err == f"error: malformed: {defect}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("v 0 + 0\nv 1 + 0\ne 0 1\n", "input: missing 'surface sphere|torus' header"),
            (json.dumps({
                "surface": "cylinder",
                "vertices": [{"id": 0, "sign": 1}, {"id": 1, "sign": 1}],
                "edges": [[0, 1]],
            }), "input: malformed JSON class: 'cylinder' is not a valid Surface"),
            ("surface torus\nv 0 + 0\nv 1 + 0\ne 0 1\nslope 3\n",
             "line 5: slope line is 'slope <p> <q>'"),
        ],
        ids=["text-no-header", "json-unknown-surface", "text-short-slope"],
    )
    def test_syntax_error_comes_before_the_graph(self, monkeypatch, capsys, text, message):
        # The like-signed edge would exit 1; the syntax error is found first.
        set_stdin(monkeypatch, text)
        assert run(["check", "--gamma", "-"]) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"), reason="no int-to-str digit limit"
    )
    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize("form", ["text", "json"])
    def test_integer_past_the_digit_limit_exits_two(
        self, tmp_path, monkeypatch, capsys, source, form
    ):
        # A 5,000-digit vertex id is past CPython's int-to-str limit; either
        # form reports it as a syntax error on one line, which echoes the
        # token's first 40 characters.
        big = "9" * 5000
        if form == "text":
            text = f"surface sphere\nv {big} + 0\n"
            expected = f"error: line 2: expected an integer vertex id (token {big[:40]!r}...)\n"
        else:
            vertex = f'{{"id": {big}, "sign": 1}}'
            text = f'{{"surface": "sphere", "vertices": [{vertex}], "edges": []}}\n'
            expected = "error: input: JSON integer has too many digits\n"
        if source == "stdin":
            set_stdin(monkeypatch, text)
            gamma = "-"
        else:
            gamma = gamma_file(tmp_path, text)
        assert run(["check", "--gamma", gamma]) == (2, "")
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_input_that_is_not_utf8_exits_two(self, tmp_path, monkeypatch, capsys, source):
        for data in (EQUATOR.encode() + b"\xff\xfe\n", b"surface sphere\nv 0 + 0\n\xff\xfe\n"):
            if source == "stdin":
                set_stdin(monkeypatch, data)
                gamma = "-"
            else:
                path = tmp_path / "gamma.txt"
                path.write_bytes(data)
                gamma = str(path)
            status, output = run(["check", "--gamma", gamma])
            assert status == 2 and output == ""
            assert capsys.readouterr().err == (
                "error: input: not valid UTF-8 (invalid start byte)\n"
            )

    @pytest.mark.parametrize("errors", ["surrogateescape", "replace"])
    def test_stdin_is_decoded_strictly_whatever_its_text_layer(
        self, monkeypatch, capsys, errors
    ):
        # Under the C locale or UTF-8 mode sys.stdin lets undecodable bytes
        # through; here they sit in a comment, where no token sees them.
        data = b"surface sphere # \xff\nv 0 + 0\nv 1 - 0\ne 0 1\n"
        monkeypatch.setattr(
            "sys.stdin", io.TextIOWrapper(io.BytesIO(data), "utf-8", errors=errors)
        )
        status, output = run(["census", "--gamma", "-"])
        assert status == 2 and output == ""
        assert capsys.readouterr().err == "error: input: not valid UTF-8 (invalid start byte)\n"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    @pytest.mark.parametrize(
        "where,key",
        [("class", "slop"), ("vertex", "colour")],
    )
    def test_unknown_json_key_exits_two(
        self, tmp_path, monkeypatch, capsys, source, where, key
    ):
        # As the text form rejects an unknown directive such as "slop 3 2".
        payload = {
            "surface": "torus",
            "vertices": [{"id": 0, "sign": 1}, {"id": 1, "sign": -1}],
            "edges": [[0, 1], [0, 1]],
            "slope": [3, 2],
        }
        (payload if where == "class" else payload["vertices"][1])[key] = [3, 2]
        text = json.dumps(payload)
        if source == "stdin":
            set_stdin(monkeypatch, text)
            gamma = "-"
        else:
            gamma = gamma_file(tmp_path, text)
        status, output = run(["census", "--gamma", gamma])
        assert status == 2 and output == ""
        assert capsys.readouterr().err == (
            f"error: input: unknown key in JSON {where} (token {key!r})\n"
        )

    @pytest.mark.parametrize(
        "text,message",
        [
            ("surface torus\nsurface sphere\nv 0 + 0\nv 1 - 0\ne 0 1\n",
             "line 2: second surface line (the first is line 1)"),
            ("surface torus\nv 0 + 0\nv 1 - 0\ne 0 1\ne 0 1\nslope 3 2\n# again\nslope 5 3\n",
             "line 8: second slope line (the first is line 6)"),
            ('{"surface": "sphere", "surface": "torus", "vertices": [{"id": 0, "sign": 1}, '
             '{"id": 1, "sign": -1}], "edges": [[0, 1], [0, 1]], "slope": [3, 2]}',
             "input: repeated key in JSON object (token 'surface')"),
            ('{"surface": "sphere", "vertices": [{"id": 0, "sign": 1}, '
             '{"id": 1, "sign": -1, "sign": 1}], "edges": [[0, 1]]}',
             "input: repeated key in JSON object (token 'sign')"),
        ],
        ids=["text-surface", "text-slope", "json-class", "json-vertex"],
    )
    def test_repeated_field_exits_two(self, monkeypatch, capsys, text, message):
        # Each input would be read without the first value: a torus class
        # read as a sphere one, or a ring at the last of two slopes.
        set_stdin(monkeypatch, text)
        assert run(["classify", "--gamma", "-"]) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[]" * 50_000, f"line 1: unknown directive (token {'[]' * 20!r}...)"),
            (f"surface sphere\nv 0 + {'9' * 5000}\nv 1 - 0\ne 0 1\n",
             f"line 2: expected an integer genus (token {'9' * 40!r}...)"),
            ('{"surface": "sphere", "vertices": [{"id": 0, "sign": 1, "genus": ['
             + ",".join(["[]"] * 30_000) + ']}], "edges": []}',
             f"input: malformed JSON class: genus must be an integer, got {LIST_ECHO}"),
            ('{"surface": [' + ",".join(["[]"] * 30_000) + '], "vertices": [], "edges": []}',
             f"input: malformed JSON class: {LIST_ECHO} is not a valid Surface"),
        ],
        ids=["text-directive", "text-genus", "json-genus", "json-surface"],
    )
    def test_error_line_echoes_at_most_forty_characters(self, monkeypatch, capsys, text, message):
        # The whole token or value would make a "one-line" error of up to
        # twice the input's size.
        set_stdin(monkeypatch, text)
        assert run(["check", "--gamma", "-"]) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "text,message",
        [
            (f"surface sphere\nv 0 + 0\nv 1 - 0\ne 0 {NINES}\n",
             f"malformed: edge (0,{NINES[:40]}...) uses unknown vertex id"),
            (f"surface sphere\nv {NINES} + 0\nv {NINES} - 0\n",
             f"malformed: duplicate vertex id {NINES[:40]}..."),
            (f"surface sphere\nv 0 + 0\nv {NINES} + 0\ne 0 {NINES}\n",
             f"improper coloring: edge (0,{NINES[:40]}...) joins two like-signed regions"),
            ('{"surface": "sphere", "vertices": [{"id": 0, "sign": 1}, '
             f'{{"id": {NINES}, "sign": -1}}], "edges": [[0, {NINES}], [{NINES}, {NINES}]]}}',
             f"self-loop: edge ({NINES[:40]}...,{NINES[:40]}...) is a self-loop"),
        ],
        ids=["unknown-id", "duplicate-id", "like-signed", "self-loop"],
    )
    def test_graph_error_line_echoes_at_most_forty_characters(
        self, monkeypatch, capsys, text, message
    ):
        # A graph invariant's error line cuts each id as a syntax error cuts
        # a token, and still exits 1.
        set_stdin(monkeypatch, text)
        assert run(["check", "--gamma", "-"]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_check_deep_sphere_path(self, tmp_path, capsys):
        # 4,000 regions in a row: the canonical code must not recurse per level.
        n = 4000
        lines = ["surface sphere"]
        lines += [f"v {i} {'+-'[i % 2]} 0" for i in range(n)]
        lines += [f"e {i} {i + 1}" for i in range(n - 1)]
        status, output = run(["check", "--gamma", gamma_file(tmp_path, "\n".join(lines))])
        assert status == 0 and "admissible yes" in output
        assert "Traceback" not in capsys.readouterr().err

    def test_check_long_essential_ring(self, tmp_path):
        # 16,000 essential curves in one ring: the cycle's canonical rotation
        # must be found in linear time.
        n = 16000
        lines = ["surface torus"]
        lines += [f"v {i} {'+-'[i % 2]} 0" for i in range(n)]
        lines += [f"e {i} {(i + 1) % n}" for i in range(n)]
        lines += ["slope 3 2"]
        status, output = run(["check", "--gamma", gamma_file(tmp_path, "\n".join(lines))])
        assert status == 0 and "admissible yes" in output

    def test_check_long_ring_with_pendant_leaves(self, tmp_path):
        # 16,000 curves: a ring of 15,998 essential ones, and a contractible
        # one around each of two leaves, hung at a seeded positive and a
        # seeded negative cycle region.  The ring is not periodic, and most
        # of its rotations agree for thousands of entries, so a scan that
        # moves one start at a time is quadratic here, far past the bound on
        # CPU time below.  Written from another start and the other way
        # round, the ring keeps its code.
        n = 15998
        rng = random.Random(16000)
        hubs = [rng.randrange(0, n, 2), rng.randrange(1, n, 2)]

        def code(label):
            lines = ["surface torus"]
            lines += [f"v {label(i)} {'+-'[i % 2]} 0" for i in range(n)]
            lines += [f"v {n + j} {'-+'[hub % 2]} 0" for j, hub in enumerate(hubs)]
            lines += [f"e {label(i)} {label((i + 1) % n)}" for i in range(n)]
            lines += [f"e {label(hub)} {n + j}" for j, hub in enumerate(hubs)]
            lines += ["slope 3 2"]
            status, output = run(["check", "--gamma", gamma_file(tmp_path, "\n".join(lines))])
            assert status == 0 and "admissible yes" in output
            return output.splitlines()[0]

        started = time.process_time()
        assert code(lambda i: i) == code(lambda i: (7919 - i) % n)
        assert time.process_time() - started < 10


# Classes that break one embeddability rule each, as (surface, vertices as
# (id, sign, genus), edges, slope), with the rule and detail they report.
NOT_EMBEDDABLE = {
    "sphere-cycle": (
        "sphere", [(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)], None,
        "sphere requires tree: sphere region graphs are trees",
    ),
    "sphere-genus": (
        "sphere", [(0, 1, 1), (1, -1, 0)], [(0, 1)], None,
        "genus: sphere regions are all genus 0",
    ),
    "sphere-slope": (
        "sphere", [(0, 1, 0), (1, -1, 0)], [(0, 1)], (1, 1),
        "slope: sphere classes carry no slope",
    ),
    "torus-tree-genus": (
        "torus", [(0, 1, 0), (1, -1, 0)], [(0, 1)], None,
        "genus: a torus cut by contractible curves has one genus-1 region",
    ),
    "torus-tree-slope": (
        "torus", [(0, 1, 1), (1, -1, 0)], [(0, 1)], (1, 1),
        "slope: contractible-only torus classes carry no slope",
    ),
    "torus-ring-genus": (
        "torus", [(0, 1, 1), (1, -1, 0)], [(0, 1), (0, 1)], (1, 1),
        "genus: torus classes with essential curves are all genus 0",
    ),
    "torus-ring-no-slope": (
        "torus", [(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)], None,
        "slope: essential torus curves require a slope (p, q)",
    ),
    "torus-ring-slope-order": (
        "torus", [(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)], (2, 4),
        "slope: slope (2,4) must satisfy 0 < q <= p",
    ),
    "torus-ring-slope-coprime": (
        "torus", [(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)], (4, 2),
        "slope: slope (4,2) must be coprime",
    ),
    "no-curves": (
        "torus", [(0, 1, 1)], [], None,
        "no curves: a dividing set has at least one curve",
    ),
}


def class_input(surface, vertices, edges, slope, form):
    """The class in the text or the JSON input form."""
    if form == "json":
        return json.dumps({
            "surface": surface,
            "vertices": [{"id": i, "sign": s, "genus": g} for i, s, g in vertices],
            "edges": [list(e) for e in edges],
            "slope": None if slope is None else list(slope),
        })
    lines = [f"surface {surface}"]
    lines += [f"v {i} {'+' if s > 0 else '-'} {g}" for i, s, g in vertices]
    lines += [f"e {a} {b}" for a, b in edges]
    if slope is not None:
        lines.append(f"slope {slope[0]} {slope[1]}")
    return "\n".join(lines) + "\n"


class TestEmbeddabilityErrors:
    """A class that does not embed in its surface is a domain error, exit 1
    with one ``error: <rule>: <detail>`` line, in either input form: the
    check runs where the class is made, after parsing, never as a syntax
    error (exit 2)."""

    @pytest.mark.parametrize("command", ["check", "classify", "census", "export-dot"])
    @pytest.mark.parametrize("form", ["text", "json"])
    @pytest.mark.parametrize("case", sorted(NOT_EMBEDDABLE))
    def test_exits_one_with_the_rule(self, tmp_path, capsys, case, form, command):
        *fields, message = NOT_EMBEDDABLE[case]
        gamma = gamma_file(tmp_path, class_input(*fields, form))
        assert run([command, "--gamma", gamma]) == (1, "")
        assert capsys.readouterr().err == f"error: {message}\n"


class TestTable:
    def test_empty_table_is_no_json_line_and_a_csv_header(self):
        # One curve admits no torus class: JSON lines are none at all, not
        # one blank line, and the CSV is its header alone.
        args = ["table", "--manifold", "s3-t2", "--max-curves", "1", "--max-slope", "1"]
        assert run([*args, "--format", "json"]) == (0, "")
        header = (
            "canonical_code,surface,V,E,slope_p,slope_q,tight_count,mixed_finite,"
            "mixed_rank,ot_finite,ot_rank,leaves_3,leaves_2,leaves_1\n"
        )
        assert run([*args, "--format", "csv"]) == (0, header)


class TestStrictJsonInput:
    @pytest.mark.parametrize(
        "field,value",
        [("slope", [3]), ("sign", 1.7), ("id", 1.5), ("genus", 1.5), ("sign", True)],
    )
    def test_malformed_number_is_a_parse_error(self, monkeypatch, capsys, field, value):
        payload = {
            "surface": "torus",
            "vertices": [{"id": 0, "sign": 1, "genus": 0}, {"id": 1, "sign": -1, "genus": 0}],
            "edges": [[0, 1], [0, 1]],
            "slope": [3, 2],
        }
        (payload if field == "slope" else payload["vertices"][0])[field] = value
        set_stdin(monkeypatch, json.dumps(payload))
        status, output = run(["check", "--gamma", "-"])
        err = capsys.readouterr().err
        assert status == 2 and output == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text,message",
        [
            ('{"surface": "sphere", "vertices": 5, "edges": []}', "vertices must be a list, got 5"),
            ('{"surface": "sphere", "vertices": [], "edges": 7}', "edges must be a list, got 7"),
            ('{"surface": "sphere", "vertices": {"a": 1}, "edges": []}',
             'vertices must be a list, got {"a": 1}'),
            (f'{{"surface": "sphere", "vertices": "{"x" * 100}", "edges": []}}',
             f'vertices must be a list, got "{"x" * 39}...'),
            ('{"surface": "sphere", "vertices": ["x"], "edges": []}',
             'vertex must be an object, got "x"'),
            ('{"surface": "sphere", "vertices": [[0, 1, 0]], "edges": []}',
             "vertex must be an object, got [0, 1, 0]"),
            ('{"surface": "sphere", "vertices": [null], "edges": []}',
             "vertex must be an object, got null"),
            ('{"vertices": [], "edges": []}', "missing key 'surface'"),
            ('{"surface": "sphere", "edges": []}', "missing key 'vertices'"),
            ('{"surface": "sphere", "vertices": []}', "missing key 'edges'"),
            ('{"surface": "sphere", "vertices": [{"sign": 1}], "edges": []}', "missing key 'id'"),
            ('{"surface": "sphere", "vertices": [{"id": 0}], "edges": []}', "missing key 'sign'"),
        ],
        ids=["vertices-int", "edges-int", "vertices-object", "vertices-long-string",
             "vertex-string", "vertex-list", "vertex-null", "no-surface", "no-vertices",
             "no-edges", "no-id", "no-sign"],
    )
    def test_wrong_shape_names_the_field(self, monkeypatch, capsys, text, message):
        # Not Python's exception text, such as "'int' object is not iterable".
        set_stdin(monkeypatch, text)
        assert run(["check", "--gamma", "-"]) == (2, "")
        err = capsys.readouterr().err
        assert err == f"error: input: malformed JSON class: {message}\n"
        for phrase in ("object is not", "indices must", "subscriptable"):
            assert phrase not in err


class TestDeepJson:
    def test_deep_nesting_is_a_parse_error(self, monkeypatch, capsys):
        set_stdin(monkeypatch, '{"surface": ' + "[" * 100_000)
        status, output = run(["check", "--gamma", "-"])
        err = capsys.readouterr().err
        assert status == 2 and output == ""
        assert err.startswith("error:") and err.count("\n") == 1


FUZZ_SEEDS = [
    EQUATOR,
    TWO_CYCLE_32,
    GENUS_TREE,
    "surface torus\nv 0 + 1\nv 1 - 0\nv 2 - 0\ne 0 1\ne 0 2\n",
    "surface torus\nv 0 + 0\nv 1 - 0\nv 2 + 0\nv 3 - 0\n"
    "e 0 1\ne 1 2\ne 2 3\ne 3 0\nslope 2 1\n",
    json.dumps({
        "surface": "torus",
        "vertices": [{"id": 0, "sign": 1, "genus": 0}, {"id": 1, "sign": -1, "genus": 0}],
        "edges": [[0, 1], [0, 1]],
        "slope": [3, 2],
    }),
    json.dumps({
        "surface": "sphere",
        "vertices": [{"id": 5, "sign": -1}, {"id": 2, "sign": 1}, {"id": 9, "sign": 1}],
        "edges": [[5, 2], [9, 5]],
    }),
]
FUZZ_TOKENS = [
    "[", "]", "{", "}", ",", ":", '"', "-", "+", "0", "1", "2", "7", " ", "\n", "#",
    "v", "e", "slope", "surface", "torus", "sphere", "genus", "sign", "id", "null",
    "true", "1.5", "1e400", "NaN", "99999999999999999999", "\x00", "\u0661", "1_0",
]


@st.composite
def mutated_inputs(draw):
    """A valid text or JSON class with a few spans deleted, replaced or
    padded with tokens, some repeated many times."""
    text = draw(st.sampled_from(FUZZ_SEEDS))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 8)))
        token = draw(st.sampled_from(FUZZ_TOKENS)) * draw(st.sampled_from([0, 1, 2, 5000]))
        text = text[:start] + token + text[end:]
    return text


class TestCliFuzz:
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(mutated_inputs(), st.sampled_from(["check", "classify", "census", "export-dot"]))
    def test_exit_contract_on_mutated_input(self, text, command):
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            stdin = io.TextIOWrapper(io.BytesIO(text.encode()), "utf-8")
            old_stdin, sys.stdin = sys.stdin, stdin
            try:
                status, _ = run([command, "--gamma", "-"])
            finally:
                sys.stdin = old_stdin
        lines = err.getvalue().splitlines()
        assert status in (0, 1, 2)
        if status == 0:
            assert lines == []
        else:
            prefixes = ("error: ", "inadmissible: ") if command == "check" else ("error: ",)
            assert len(lines) == 1 and lines[0].startswith(prefixes), lines


class TestTableArguments:
    def test_row_cap_refuses_before_enumerating(self, monkeypatch, capsys):
        # 4,508,533,366 rows, counted from the recorded class counts.
        monkeypatch.setattr(ENUMERATION_MODULE, "enum_torus_rows", never_enumerate)
        argv = ["table", "--manifold", "s3-t2", "--max-curves", "16", "--max-slope", "256"]
        assert_answers_as_recorded(monkeypatch, capsys, recorded(argv))

    @pytest.mark.parametrize("spare,status", [(0, 0), (-1, 1)], ids=["at-cap", "one-over"])
    def test_row_cap_counts_rows_exactly(self, monkeypatch, capsys, spare, status):
        # A table's rows are its lines after the header.
        argv = ["table", "--manifold", "s3-t2", "--max-curves", "4", "--max-slope", "3"]
        assert_row_cap_counts_rows(monkeypatch, capsys, "table", argv, 1, spare, status)


class TestUsageErrors:
    def test_unknown_subcommand(self):
        assert run(["frobnicate"])[0] == 2

    def test_usage_and_error_lines_on_stderr(self, capsys):
        assert run(["tight-count", "--n", "1"]) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("usage: bcontact tight-count [-h] --n N --p P --q Q")
        assert err.endswith(
            "\nbcontact tight-count: error: the following arguments are required: --p, --q\n"
        )

    # Each usage error below is an entry of digests.json named by its test:
    # its usage line, its error line and no stdout.

    @pytest.mark.parametrize("entry", recorded_in("TestUsageErrors::test_manifold_option_is_gone"))
    def test_manifold_option_is_gone(self, monkeypatch, capsys, entry):
        # The manifold follows from the input's surface.
        assert_answers_as_recorded(monkeypatch, capsys, entry)

    def test_text_table_format_is_gone(self, monkeypatch, capsys):
        # It wrote the same bytes as csv, which is now the default.
        args = ["table", "--manifold", "s3-t2", "--max-curves", "4", "--max-slope", "2"]
        assert run(args) == run(args + ["--format", "csv"])
        assert_answers_as_recorded(monkeypatch, capsys, recorded([*args, "--format", "text"]))


def run_with_closed_fd(fd, argv):
    """``python -m bcontact`` in a fresh process with descriptor ``fd`` closed,
    so that Python starts with that standard stream set to None."""
    return subprocess.run(
        [sys.executable, "-m", "bcontact", *argv],
        capture_output=True, text=True, preexec_fn=lambda: os.close(fd),
    )


class TestClosedStreams:
    """A closed stdin or stdout is an I/O error, as a missing file is: one
    error line and exit 2, not a traceback."""

    def test_closed_stdin_exits_two(self):
        proc = run_with_closed_fd(0, ["check", "--gamma", "-"])
        assert (proc.returncode, proc.stderr) == (2, "error: stdin is closed\n")

    def test_closed_stdout_exits_two(self):
        proc = run_with_closed_fd(1, ["tight-count", "--n", "1", "--p", "3", "--q", "2"])
        assert (proc.returncode, proc.stderr) == (2, "error: stdout is closed\n")

    @pytest.mark.parametrize("argv", [["--help"], ["cf", "--help"]])
    def test_closed_stdout_refuses_help(self, argv):
        # Help is an answer like any other: it does not go to stderr instead.
        proc = run_with_closed_fd(1, argv)
        assert (proc.returncode, proc.stderr) == (2, "error: stdout is closed\n")

    # With stderr closed the error is lost, but the exit status still tells
    # it, and the message must not land on stdout instead.

    def test_closed_stderr_keeps_io_error_status(self):
        proc = run_with_closed_fd(2, ["check", "--gamma", "/nonexistent"])
        assert (proc.returncode, proc.stdout) == (2, "")

    def test_closed_stderr_keeps_domain_error_status(self):
        proc = run_with_closed_fd(2, ["tight-count", "--n", "0", "--p", "3", "--q", "2"])
        assert (proc.returncode, proc.stdout) == (1, "")

    def test_closed_stderr_keeps_usage_error_off_stdout(self):
        proc = run_with_closed_fd(2, ["tight-count", "--n", "1"])
        assert (proc.returncode, proc.stdout) == (2, "")


# Calls cli.main as the console script does, with an exit handler that
# reports, on stderr's last line, how many objects the collector holds
# frozen when the interpreter shuts down.
EXIT_PROBE = """\
import atexit, gc, sys
from bcontact import cli
atexit.register(lambda: print("frozen", gc.get_freeze_count(), file=sys.stderr))
sys.argv = ["bcontact", *sys.argv[1:]]
cli.main()
"""


class TestExitPath:
    """``main`` freezes the collector once the answer is written, so the
    interpreter's shutdown collections skip what the call made;
    ``run_cli`` leaves the collector to its caller."""

    @pytest.mark.parametrize(
        "argv,status,stdout,diagnostics",
        [
            (["tight-count", "--n", "3", "--p", "5", "--q", "2"], 0, "40\n", []),
            (["tight-count", "--n", "0", "--p", "1", "--q", "1"], 1, "",
             ["error: the boundary carries 2n curves with n >= 1"]),
            # The usage line, then the error.
            (["tight-count", "--n", "1"], 2, "",
             recorded(["tight-count", "--n", "1"])["stderr"].splitlines()),
        ],
        ids=["answer", "domain-error", "usage-error"],
    )
    def test_main_exits_with_the_heap_frozen(self, argv, status, stdout, diagnostics):
        proc = subprocess.run(
            [sys.executable, "-c", EXIT_PROBE, *argv], capture_output=True, text=True
        )
        assert (proc.returncode, proc.stdout) == (status, stdout)
        *lines, probe = proc.stderr.splitlines()
        assert lines == diagnostics
        assert probe.startswith("frozen ") and int(probe.split()[1]) > 0

    def test_run_cli_leaves_the_collector_alone(self):
        before = gc.get_freeze_count(), gc.isenabled()
        assert run(["tight-count", "--n", "3", "--p", "5", "--q", "2"]) == (0, "40\n")
        assert run(["tight-count", "--n", "0", "--p", "1", "--q", "1"])[0] == 1
        assert (gc.get_freeze_count(), gc.isenabled()) == before


# The benchmark's table, 10,243 lines, and its sphere listing, 10,079 lines
# and 7.2 MB.
TORUS_TABLE_8_16 = recorded(
    ["table", "--manifold", "s3-t2", "--max-curves", "8", "--max-slope", "16", "--format", "csv"]
)
ENUM_TREES_8_JSON = recorded(["enum-trees", "--n", "8", "--format", "json"])


def piped_process(argv, unbuffered):
    """``python -m bcontact`` in a fresh process writing to a pipe, its
    stdout unbuffered (``PYTHONUNBUFFERED``) or not."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen(
        [sys.executable, "-m", "bcontact", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )


def assert_early_close_exits_two(proc):
    proc.stdout.read(10)
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert (proc.wait(), stderr) == (2, b"error: [Errno 32] Broken pipe\n")


def assert_full_read_is(proc, entry):
    stdout, stderr = proc.communicate()
    assert (proc.returncode, stderr) == (0, b"")
    assert mismatch(entry, stdout) is None


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
class TestBrokenPipe:
    """A reader that closes the pipe early is an I/O error, exit 2, however
    stdout is buffered.  The table is written as one long string, the
    listing as 10,079 lines, both in chunks; the text layer over an
    unbuffered file would drop what a short write left over, with no
    error."""

    def test_early_close_exits_two(self, unbuffered):
        assert_early_close_exits_two(piped_process(TORUS_TABLE_8_16["argv"], unbuffered))

    def test_full_read_is_the_recorded_table(self, unbuffered):
        proc = piped_process(TORUS_TABLE_8_16["argv"], unbuffered)
        assert_full_read_is(proc, TORUS_TABLE_8_16)

    def test_listing_early_close_exits_two(self, unbuffered):
        assert_early_close_exits_two(piped_process(ENUM_TREES_8_JSON["argv"], unbuffered))

    def test_full_read_is_the_recorded_listing(self, unbuffered):
        proc = piped_process(ENUM_TREES_8_JSON["argv"], unbuffered)
        assert_full_read_is(proc, ENUM_TREES_8_JSON)


class CountingRaw(io.RawIOBase):
    """A raw file that keeps what it is given, at most ``limit`` bytes a
    write, and counts the writes."""

    def __init__(self, limit=None):
        self.data = bytearray()
        self.writes = 0
        self.limit = limit

    def writable(self):
        return True

    def write(self, data):
        taken = bytes(data[:self.limit])
        self.data += taken
        self.writes += 1
        return len(taken)


class TestChunkedWrites:
    """Output goes to stdout's binary file in whole chunks of at least
    64 KiB, even when that file is raw, as under ``PYTHONUNBUFFERED``."""

    ARGV = ["enum-trees", "--n", "6", "--format", "json"]

    def test_unbuffered_stdout_gets_whole_chunks(self):
        raw = CountingRaw()
        status = run_cli(self.ARGV, out=io.TextIOWrapper(raw, "utf-8", write_through=True))
        assert status == 0
        assert mismatch(recorded(self.ARGV), bytes(raw.data)) is None
        assert raw.writes <= math.ceil(len(raw.data) / 65_536) + 1

    def test_short_writes_lose_no_byte(self):
        raw = CountingRaw(limit=1000)
        status = run_cli(self.ARGV, out=io.TextIOWrapper(raw, "utf-8", write_through=True))
        assert status == 0
        assert mismatch(recorded(self.ARGV), bytes(raw.data)) is None


class TestDeterminism:
    def test_gamma_from_stdin(self, monkeypatch):
        set_stdin(monkeypatch, EQUATOR)
        status, output = run(["census", "--gamma", "-"])
        assert status == 0 and output.strip() == "2 2 1"

    def test_repeated_runs_are_byte_identical(self):
        args = ["enum-torus", "--max-curves", "4", "--max-slope", "2", "--format", "json"]
        assert run(args) == run(args)
        args = ["table", "--manifold", "s3-s2", "--max-curves", "5"]
        assert run(args) == run(args)

    @pytest.mark.parametrize(
        "entry", recorded_in("TestDeterminism::test_table_matches_recorded_digest")
    )
    def test_table_matches_recorded_digest(self, monkeypatch, capsys, entry):
        assert_answers_as_recorded(monkeypatch, capsys, entry)

    @pytest.mark.parametrize(
        "entry", recorded_in("TestDeterminism::test_enumeration_matches_recorded_digest")
    )
    def test_enumeration_matches_recorded_digest(self, monkeypatch, capsys, entry):
        assert_answers_as_recorded(monkeypatch, capsys, entry)

    @pytest.mark.parametrize(
        "entry", recorded_in("TestDeterminism::test_output_matches_recorded_digest")
    )
    def test_output_matches_recorded_digest(self, monkeypatch, capsys, entry):
        assert_answers_as_recorded(monkeypatch, capsys, entry)

    def test_empty_text_listing_is_one_newline(self):
        # One curve admits no class; the listing is still newline-terminated.
        assert run(["enum-torus", "--max-curves", "1", "--max-slope", "1"]) == (0, "\n")

    def test_separate_processes_are_byte_identical(self):
        # Fresh interpreters get fresh hash seeds; output must not care.
        args = [sys.executable, "-m", "bcontact", "table", "--manifold", "s3-t2",
                "--max-curves", "4", "--max-slope", "2"]
        first = subprocess.run(args, capture_output=True, check=True)
        second = subprocess.run(args, capture_output=True, check=True)
        assert first.stdout == second.stdout and first.stdout


RUN_TIGHT_COUNT = """\
import runpy, sys
sys.argv = ["bcontact", "tight-count", "--n", "3", "--p", "5", "--q", "2"]
try:
    runpy.run_module("bcontact", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    assert not exc.code, exc.code
"""


# The bcontact modules a CLI call loads: those of the arithmetic, the
# surfaces, the reader of a dividing set (the formats and their parsers,
# and the region graph they build), the enumerator, a listing's writer
# and the table's (``classify``).  The table and the listings read their
# classes off the generator's rows, build no graph and parse nothing, so
# they load neither the region graph nor the formats module; the table,
# all of whose classes are admissible by construction, loads no
# admissibility check.  The listings check no class, so they load no
# arithmetic, nor the surfaces, which a listing does not name.  The
# --gamma commands load the listing writers only to write a class's DOT
# export.
ARITHMETIC = frozenset({"cli", "counting"})
SURFACES = ARITHMETIC | {"surfaces"}
READING = SURFACES | {"codes", "formats", "region_graph"}
ENUMERATING = frozenset({"cli", "codes", "enumeration"})
LISTING = ENUMERATING | {"listings"}
TABLING = ENUMERATING | SURFACES | {"classify"}
CHECKING = READING | {"admissibility"}
CLASSIFYING = CHECKING | {"classify"}

# Each listing and table in each of its formats, the default one spelled
# by omission.
LISTINGS = [
    pytest.param([*argv, *format_flag], id="-".join([argv[0], *format_flag[1:]]))
    for argv in (["enum-trees", "--n", "3"], ["enum-torus", "--max-curves", "4", "--max-slope", "2"])
    for format_flag in ([], ["--format", "json"], ["--format", "csv"])
]
TABLES = [
    pytest.param(["table", "--manifold", "s3-t2", "--max-curves", "4", "--max-slope", "2",
                  *format_flag], id="-".join(["table", *format_flag[1:]]))
    for format_flag in ([], ["--format", "json"])
]
GAMMA_COMMANDS = [
    pytest.param(["export-dot", "--gamma", "GAMMA"], READING | {"listings"}, id="export-dot"),
    *(
        pytest.param([command, "--gamma", "GAMMA", *format_flag], layers,
                     id="-".join([command, *format_flag[1:]]))
        for command, layers in (
            ("check", CHECKING), ("classify", CLASSIFYING), ("census", CLASSIFYING),
        )
        for format_flag in ([], ["--format", "json"])
    ),
]


def loaded_modules(tmp_path, argv):
    """The status of ``argv`` run in a fresh interpreter, so that modules
    another test imported do not count, the ``bcontact`` modules it
    loaded, and whether it loaded the stdlib ``json``."""
    argv = [gamma_file(tmp_path, TWO_CYCLE_32) if a == "GAMMA" else a for a in argv]
    code = (
        "import io, sys\nfrom bcontact.cli import run_cli\n"
        f"status = run_cli({argv!r}, out=io.StringIO())\n"
        "print(status, 'json' in sys.modules, "
        "*sorted(m[9:] for m in sys.modules if m.startswith('bcontact.')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    status, json_loaded, *layers = proc.stdout.split()
    return int(status), set(layers), json_loaded == "True"


class TestImportFootprint:
    @pytest.mark.parametrize(
        "code", ["import bcontact\n", RUN_TIGHT_COUNT], ids=["import", "tight-count"]
    )
    def test_no_networkx_or_numpy_at_runtime(self, code):
        # A fresh interpreter, so modules another test imported do not count.
        # Tables are written with f-strings and continued fractions are never
        # evaluated, so neither csv nor fractions (and what it imports) loads.
        unwanted = {"networkx", "numpy", "fractions", "decimal", "numbers", "csv", "_csv"}
        code += f"print(sorted({unwanted!r} & set(sys.modules)))\n"
        proc = subprocess.run(
            [sys.executable, "-c", "import sys\n" + code],
            capture_output=True, text=True, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_cli_import_loads_no_dataclasses(self):
        # The value types are named tuples: dataclasses, with the inspect and
        # ast machinery it imports, would take most of a CLI call's import.
        code = (
            "import sys\nbefore = set(sys.modules)\nimport bcontact.cli\n"
            "print('dataclasses' in set(sys.modules) - before)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "False\n"

    @pytest.mark.parametrize(
        "argv,layers",
        [
            pytest.param(["tight-count", "--n", "3", "--p", "5", "--q", "2"], ARITHMETIC,
                         id="tight-count"),
            pytest.param(["cf", "--p", "5", "--q", "3"], ARITHMETIC, id="cf"),
            pytest.param(["tight-count", "--n", "3", "--p", "5", "--q", "2", "--format", "json"],
                         ARITHMETIC, id="tight-count-json"),
            *GAMMA_COMMANDS,
            *(
                pytest.param(*p.values, LISTING, id=p.id)
                for p in LISTINGS
            ),
            pytest.param(["enum-trees", "--n", "6", "--format", "json"], LISTING,
                         id="enum-trees-6-json"),
            # A count is read off the recorded class counts: no writer loads.
            pytest.param(["enum-trees", "--n", "3", "--count-only"], ENUMERATING,
                         id="enum-trees-count-only"),
            pytest.param(["enum-torus", "--max-curves", "4", "--max-slope", "2", "--count-only"],
                         ENUMERATING, id="enum-torus-count-only"),
            *(pytest.param(*p.values, TABLING, id=p.id) for p in TABLES),
        ],
    )
    def test_each_command_loads_only_its_layers(self, tmp_path, argv, layers):
        assert loaded_modules(tmp_path, argv)[:2] == (0, layers)

    @pytest.mark.parametrize("argv", [*LISTINGS, *TABLES])
    def test_table_and_listings_load_no_graph_and_no_json(self, tmp_path, argv):
        # They write the generator's rows with templates: no region graph is
        # built, no input is parsed, and json is not imported.
        status, layers, json_loaded = loaded_modules(tmp_path, argv)
        assert status == 0 and not json_loaded
        assert not {"region_graph", "formats"} & layers

    @pytest.mark.parametrize("argv", LISTINGS)
    def test_listings_load_no_arithmetic(self, tmp_path, argv):
        # A listing checks no class: no slope is checked, so counting stays
        # unloaded, and no surface is named either.
        status, layers, _ = loaded_modules(tmp_path, argv)
        assert status == 0 and not {"counting", "surfaces"} & layers

    @pytest.mark.parametrize("argv,layers", GAMMA_COMMANDS)
    def test_gamma_commands_load_a_listing_writer_only_to_write_one(
        self, tmp_path, argv, layers
    ):
        assert ("listings" in loaded_modules(tmp_path, argv)[1]) == (argv[0] == "export-dot")

    @pytest.mark.parametrize(
        "argv,status",
        [
            pytest.param(["tight-count", "--n", "3", "--p", "5", "--q", "2"], 0, id="tight-count"),
            pytest.param(["cf", "--p", "5", "--q", "2", "--format", "json"], 0, id="cf"),
            pytest.param(["classify", "--gamma", "GAMMA", "--format", "json"], 0, id="classify"),
            pytest.param(["enum-trees", "--n", "3", "--count-only", "--no-distinguish-signs"], 0,
                         id="enum-trees"),
            pytest.param(["enum-trees", "--n", "6", "--format", "json"], 0, id="listing"),
            pytest.param(["table", "--manifold", "s3-t2", "--max-c", "4", "--max-slope=2"], 0,
                         id="table"),
            pytest.param(["--help"], 0, id="program-help"),
            pytest.param(["tight-count", "--help"], 0, id="help"),
            pytest.param(["cf", "--p", "5"], 2, id="usage-error"),
        ],
    )
    def test_no_parser_library_loads(self, tmp_path, argv, status):
        # A fresh interpreter, so modules another test imported do not count.
        argv = [gamma_file(tmp_path, TWO_CYCLE_32) if a == "GAMMA" else a for a in argv]
        code = (
            "import io, sys\nfrom bcontact.cli import run_cli\n"
            f"status = run_cli({argv!r}, out=io.StringIO())\n"
            "print(status, sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout.splitlines()[-1] == f"{status} []"


class TestTerminalWidth:
    """Help, answers and usage errors are the same bytes at any terminal
    width: nothing is wrapped to ``$COLUMNS``."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["table", "--help"], ["tight-count", "--n", "1"],
    ])
    def test_same_bytes_at_forty_and_two_hundred_columns(self, argv):
        for columns in ("40", "200"):
            proc = subprocess.run(
                [sys.executable, "-m", "bcontact", *argv], capture_output=True,
                env={**os.environ, "COLUMNS": columns},
            )
            assert mismatch(recorded(argv), proc.stdout, proc.returncode, proc.stderr) is None


class TestPackageNamespace:
    """``bcontact`` binds each public name on first use.  The names must be
    the objects their home modules define, whatever is imported first, and
    ``bcontact.classify`` the function although a submodule has its name."""

    @pytest.mark.parametrize(
        "first",
        ["import bcontact", "import bcontact.classify", "from bcontact import table_classes"],
    )
    def test_public_names_are_their_home_objects(self, first):
        code = first + textwrap.dedent("""
            import sys, types
            import bcontact
            wrong = []
            for name in bcontact.__all__[:-1]:
                obj = getattr(bcontact, name)
                home = sys.modules.get(getattr(obj, "__module__", ""))
                if home is None or vars(home).get(name) is not obj:
                    wrong.append(name)
            print(bcontact.__all__[-1], wrong, type(bcontact.classify) is types.FunctionType)
        """)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "__version__ [] True\n"

    def test_import_loads_no_submodule(self):
        code = (
            "import sys\nimport bcontact\n"
            "print(sorted(m for m in sys.modules if m.startswith('bcontact.')))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, check=True
        )
        assert proc.stdout == "[]\n"
