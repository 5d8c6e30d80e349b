"""The benchmark's workloads: bcontact CLI commands and their correctness checks.

A workload is a list of units, run in order by one client; a unit is one
or more CLI commands.  A run does a fixed number of units, sized from
``--seconds`` by ``NOMINAL_UNIT_S``, so the same seed and seconds always
give the same commands.  Each command carries its expected exit code and a
check that names a wrong answer and counts the items (classes, rows or
answered queries) it produced.
"""

from __future__ import annotations

import csv
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import queries

# sha256 of the commands' stdout at the commit that defined the benchmark,
# with the invariant counts of the same output.
ENUM_TREES = ("enum-trees", "--n", "8", "--format", "json")
ENUM_TREES_SHA256 = "e9cf0908bacd8fdfabffbe70f81960572aa7692fc15e696f5c985a0c4fccd499"
ENUM_TREES_CLASSES = 10_079
ENUM_TORUS = ("enum-torus", "--max-curves", "10", "--max-slope", "1", "--format", "json")
ENUM_TORUS_SHA256 = "7969ab940682d292ff4da825a40b2825d366a2f093b96d7ceebd1ace6a6de6d6"
ENUM_TORUS_CLASSES = 2_135
TORUS_TABLE = (
    "table", "--manifold", "s3-t2", "--max-curves", "8", "--max-slope", "16", "--format", "csv",
)
TORUS_TABLE_SHA256 = "a6bdfe3a9cf1330a255ff6a259f91f357ff26217c30fb8e056492152af90cfcf"
TORUS_TABLE_ROWS = 10_242
TORUS_TABLE_TIGHT_ROWS = 320
TORUS_TABLE_CODES = 367

# The traced run of cli-queries replays this many rounds.
TRACED_QUERY_ROUNDS = 4

WORKLOADS = ("enumerate", "torus-table", "cli-queries")

# Wall seconds of one unit, and of one traced pass (each command untraced
# and traced), at the speed the benchmark was defined on (2-vCPU Intel Xeon
# VM, Python 3.11.7).  They fix how much work a run of --seconds does.
NOMINAL_UNIT_S = {"enumerate": 3.3, "torus-table": 3.0, "cli-queries": 2.8}
NOMINAL_PASS_S = {"enumerate": 15.0, "torus-table": 8.5, "cli-queries": 23.0}


def unit_count(workload: str, seconds: float) -> int:
    """Units in a run of ``seconds``: whole enum-trees/enum-torus pairs on
    ``enumerate``."""
    if workload == "enumerate":
        return 2 * max(1, round(seconds / (2 * NOMINAL_UNIT_S[workload])))
    return max(1, round(seconds / NOMINAL_UNIT_S[workload]))


def pass_count(workload: str, seconds: float) -> int:
    """Traced passes in a run of ``seconds``."""
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    expected_exit: int
    # (stdout, stderr) -> (reason the answer is wrong or None, items produced)
    check: Callable[[bytes, str], tuple[str | None, int]]
    # (exit code, stderr) -> whether an unexpected exit is the program's
    # known defect, which counts as failed without making the run incorrect
    known_defect: Callable[[int, str], bool] = lambda returncode, stderr: False


def _digest_differs(stdout: bytes, digest: str) -> str | None:
    if hashlib.sha256(stdout).hexdigest() != digest:
        return "stdout differs from the recorded output"
    return None


def _enumeration_check(digest: str, classes: int):
    def check(stdout: bytes, stderr: str):
        lines = stdout.count(b"\n")
        if lines != classes:
            return f"{lines} classes, expected {classes}", lines
        return _digest_differs(stdout, digest), lines
    return check


def table_invariants(text: str) -> tuple[int, int, int]:
    """Rows, rows with a nonzero tight count, and distinct canonical codes."""
    rows = list(csv.DictReader(io.StringIO(text)))
    tight = sum(row["tight_count"] != "0" for row in rows)
    return len(rows), tight, len({row["canonical_code"] for row in rows})


def _check_table(stdout: bytes, stderr: str):
    found = table_invariants(stdout.decode("utf-8", errors="replace"))
    expected = (TORUS_TABLE_ROWS, TORUS_TABLE_TIGHT_ROWS, TORUS_TABLE_CODES)
    if found != expected:
        return f"rows, tight rows, codes = {found}, expected {expected}", found[0]
    return _digest_differs(stdout, TORUS_TABLE_SHA256), found[0]


def _query_command(query: queries.Query) -> Command:
    def check(stdout: bytes, stderr: str):
        reason = queries.wrong_answer(query, stdout.decode("utf-8", errors="replace"), stderr)
        return reason, 1
    def known_defect(returncode: int, stderr: str) -> bool:
        return queries.digit_limit_refusal(query, returncode, stderr)

    return Command(query.argv, queries.expected_exit(query), check, known_defect)


def units(workload: str, seed: int, directory: Path, count: int) -> list[list[Command]]:
    """The workload's ``count`` units in run order; inputs are written to
    ``directory``.  A unit is one command, or one round of queries."""
    if workload == "enumerate":
        pair = [
            [Command(ENUM_TREES, 0, _enumeration_check(ENUM_TREES_SHA256, ENUM_TREES_CLASSES))],
            [Command(ENUM_TORUS, 0, _enumeration_check(ENUM_TORUS_SHA256, ENUM_TORUS_CLASSES))],
        ]
        return [pair[i % 2] for i in range(count)]
    if workload == "torus-table":
        return [[Command(TORUS_TABLE, 0, _check_table)]] * count
    if workload == "cli-queries":
        commands = [_query_command(q) for q in queries.make_queries(seed, count, directory)]
        size = len(queries.COMMANDS)
        return [commands[i:i + size] for i in range(0, len(commands), size)]
    raise ValueError(f"unknown workload {workload!r}")


def traced_pass(workload: str, seed: int, directory: Path) -> list[Command]:
    """The fixed commands one traced pass runs, so its counts repeat
    exactly: enum-trees and enum-torus, one table, or the first rounds of
    queries."""
    count = {"enumerate": 2, "torus-table": 1, "cli-queries": TRACED_QUERY_ROUNDS}[workload]
    return [command for unit in units(workload, seed, directory, count) for command in unit]
