"""Seeded-defect referee: which one-line defects the Tier-1 suite kills.

Run it from anywhere, with no options:

    python tests/mutants.py

Each defect in ``DEFECTS`` breaks one rule that README states; ``RULES``
names them all, and every rule has a defect.  For each defect, the
referee copies ``src/``, ``tests/``, ``perfbench/`` and ``pyproject.toml``
to a temporary directory, leaving out every ``__pycache__`` (a same-size
edit could otherwise run stale bytecode), makes the edit there, and runs
the Tier-1 command with ``-x``, less ``tests/test_mutants.py``, under
``LIMIT`` seconds, with ``PYTHONPATH`` set to the copy's ``src`` alone.
The run's whole process group is ended afterwards.  A defect is killed when the suite fails or
runs out of time, and survives when it passes: then no test pins the
rule the defect breaks, or the edit changes no behaviour.

It prints one JSON record, each defect with whether it was killed, the
first failing test and the seconds taken, and exits 1 exactly when a
defect survives.  It imports only the standard library, and it is not a
Tier-1 test: a survivor costs a full run.
"""

import contextlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
# The Tier-1 command but for the guard of this list, which fails on every
# seeded copy, since each edit removes the text it checks for.
TIER1 = ("-m", "pytest", "-q", "--continue-on-collection-errors", "-x", "-rfE",
         "--ignore=tests/test_mutants.py")
# A Tier-1 run takes about a minute on 2 vCPUs.
LIMIT = 600

RULES = (
    "admissibility", "tight candidacy", "row_shape",
    "TREE_CAP", "CURVE_CAP", "SLOPE_CAP", "TABLE_ROW_CAP", "TIGHT_N_CAP", "SLOPE_P_CAP",
    "size checks", "slope normalization", "continued fraction", "N's formula",
    "tight regime", "mixed regime", "fully overtwisted regime", "code tags", "least rotation",
    "sphere balance gate", "torus balance gate", "twin skip", "sphere keys", "recorded counts",
    "strict input parsing", "graph invariants", "exit status 0", "exit status 1", "exit status 2",
    "listing lines", "table lines",
)

# One edit of one file of the package: ``old`` occurs there exactly once.
Defect = namedtuple("Defect", ["file", "old", "new", "rule"])

DEFECTS = tuple(Defect(f"src/bcontact/{file}.py", *edit) for file, *edit in (
    ("admissibility", "if pairing != 0:", "if pairing > 0:", "admissibility"),
    ("admissibility", "v.sign * region_euler(", "abs(v.sign) * region_euler(", "admissibility"),
    ("admissibility", "if g.edge_count == 1:", "if g.edge_count <= 3:", "tight candidacy"),
    ("admissibility", "all(deg == 2 for deg", "any(deg == 2 for deg", "tight candidacy"),
    ("enumeration", "closing == ends and layout == _path(order)", "layout == _path(order)",
     "row_shape"),
    ("enumeration", "order, order - 1, order == 2", "order, order - 1, order <= 3", "row_shape"),
    ("enumeration", "TREE_CAP = len(_SPHERE_CLASSES[False])",
     "TREE_CAP = len(_SPHERE_CLASSES[False]) - 1", "TREE_CAP"),
    ("enumeration", "if max_curves > 2 * TREE_CAP:", "if max_curves > 2 * TREE_CAP + 1:",
     "TREE_CAP"),
    ("enumeration", "if max_curves > CURVE_CAP:", "if max_curves > CURVE_CAP + 1:", "CURVE_CAP"),
    ("enumeration", "if max_p > SLOPE_CAP:", "if max_p > SLOPE_CAP + 1:", "SLOPE_CAP"),
    ("enumeration", "if rows > TABLE_ROW_CAP:", "if rows > TABLE_ROW_CAP + 1:", "TABLE_ROW_CAP"),
    ("counting", "if n > TIGHT_N_CAP:", "if n > TIGHT_N_CAP + 1:", "TIGHT_N_CAP"),
    ("counting", "if n > TIGHT_N_CAP:", "if n >= TIGHT_N_CAP:", "TIGHT_N_CAP"),
    ("counting", "p > SLOPE_P_CAP:", "p > SLOPE_P_CAP + 1:", "SLOPE_P_CAP"),
    ("enumeration", "if size < 1]", "if size < 0]", "size checks"),
    ("enumeration", "if type(size) is not int:", "if not isinstance(size, int):", "size checks"),
    ("enumeration", "if gcd(p, q) == 1", "if gcd(p, q) <= 2", "slope normalization"),
    ("counting", "if not (0 < q <= p):", "if not (0 < q):", "slope normalization"),
    ("counting", "if not (0 < q <= p):", "if not (0 <= q <= p):", "slope normalization"),
    ("counting", "if rem == 0:", "if rem <= 1:", "continued fraction"),
    ("counting", "return catalan(n) * ((r - s) * n + s)", "return catalan(n) * ((r - s) * n + r)",
     "N's formula"),
    ("counting", "prefix *= a + 1", "prefix *= a", "N's formula"),
    ("counting", "comb(2 * n, n) // (n + 1)", "comb(2 * n, n) // (n + 2)", "N's formula"),
    ("classify", "RegimeDescriptor(2 * fillings, 0)", "RegimeDescriptor(fillings, 0)",
     "tight regime"),
    ("classify", "RegimeDescriptor(2 * fillings, 2)", "RegimeDescriptor(2 * fillings, 1)",
     "mixed regime"),
    ("classify", "RegimeDescriptor(2, 1), _SPHERE_OT)", "RegimeDescriptor(2, 2), _SPHERE_OT)",
     "mixed regime"),
    ("classify", "RegimeDescriptor(1, 2), RegimeDescriptor(1, 4)",
     "RegimeDescriptor(1, 2), RegimeDescriptor(1, 2)", "fully overtwisted regime"),
    ("codes", '(1, 1): "+1"', '(1, 1): "+2"', "code tags"),
    ("codes", 'str.maketrans("+-", "-+")', 'str.maketrans("+-", "+-")', "code tags"),
    ("codes", "            j += 1\n", "            pass\n", "least rotation"),
    ("codes", "return min(i, j)", "return max(i, j) % n", "least rotation"),
    ("enumeration", ".count(1) == odd:", ".count(1) >= odd:", "sphere balance gate"),
    ("enumeration", "if 2 * odd == nv and", "if 2 * odd >= nv and", "torus balance gate"),
    ("enumeration", "larger = int(2 * odd > nv)", "larger = int(2 * odd < nv)",
     "torus balance gate"),
    ("enumeration", "if s and down[s] == down[c] else", "if s else", "twin skip"),
    ("enumeration", "if hi[u] < nv:", "if hi[u] < 0:", "twin skip"),
    ("enumeration", "_KEY_UP = _KEY[-1:] + _KEY[:-1]", "_KEY_UP = _KEY", "sphere keys"),
    ("enumeration", 'rows.append((b"\\1" + key[1:],', 'rows.append((b"\\2" + key[1:],',
     "sphere keys"),
    ("enumeration", "13814, 97112),", "13814, 97113),", "recorded counts"),
    ("formats", "if digits.isascii() and digits.isdigit():", "if digits.isdigit():",
     "strict input parsing"),
    ("formats", "if len(obj) < len(pairs):", "if len(obj) < len(pairs) - 1:",
     "strict input parsing"),
    ("formats", "isinstance(value, int) and not isinstance(value, bool)",
     "isinstance(value, int)", "strict input parsing"),
    ("region_graph", "_ECHO = 40", "_ECHO = 41", "strict input parsing"),
    ("region_graph", "if any(v.id < 0 for v", "if any(v.id < -1 for v", "graph invariants"),
    ("region_graph", "if e not in (v - 1, v):", "if e not in (v - 1, v, v + 1):",
     "graph invariants"),
    ("region_graph", "if g.genus_sum > 1:", "if g.genus_sum > 2:", "graph invariants"),
    ("region_graph", "if a != b and sign[a] == sign[b]:", "if a != b and sign[a] == sign[b] == 1:",
     "graph invariants"),
    ("surfaces", "if g.genus_sum != 1:", "if g.genus_sum > 1:", "graph invariants"),
    ("cli", "status = handler(args, chunks)", "status = handler(args, chunks) or 1",
     "exit status 0"),
    ("cli", "OSError) else 1", "OSError) else 2", "exit status 1"),
    ("cli", "syntax = formats is not None and", "syntax = False and", "exit status 2"),
    ("cli", "if len(matches) > 1:", "if len(matches) > 2:", "exit status 2"),
    ("listings", '    ", ",', '    ",",', "listing lines"),
    ("listings", '"[{slope[0]}, {slope[1]}]}}', '"[{slope[1]}, {slope[0]}]}}', "listing lines"),
    ("listings", 'if form == "text" and not rows:', 'if form == "json" and not rows:',
     "listing lines"),
    ("listings", 'out.write("size,canonical_code,admissible\\n")',
     'out.write("size,code,admissible\\n")', "listing lines"),
    ("listings", "},{code},,,true", "},{code},,true", "listing lines"),
    ("listings", 'f"{p},{q},true\\n"', 'f"{q},{p},true\\n"', "listing lines"),
    ("classify", 'out.write(",".join(TABLE_COLUMNS) + "\\n")',
     'out.write(",".join(TABLE_COLUMNS[:-1]) + "\\n")', "table lines"),
    ("classify", 'sep = [","] * len(TABLE_COLUMNS)', 'sep = [", "] * len(TABLE_COLUMNS)',
     "table lines"),
    ("classify", '"null", "}\\n"', '"None", "}\\n"', "table lines"),
    ("classify", "q_sep = sep[5]", "q_sep = sep[4]", "table lines"),
))


def _copy(dest: Path) -> None:
    for name in COPIED:
        if (ROOT / name).is_dir():
            shutil.copytree(ROOT / name, dest / name, ignore=shutil.ignore_patterns("__pycache__"))
        else:
            shutil.copy2(ROOT / name, dest / name)


def _apply(dest: Path, defect: Defect) -> None:
    path = dest / defect.file
    text = path.read_text(encoding="utf-8")
    if text.count(defect.old) != 1:
        raise SystemExit(f"{defect.file}: {defect.old!r} does not occur exactly once")
    path.write_text(text.replace(defect.old, defect.new), encoding="utf-8")


def _first_failure(output: str) -> str | None:
    """The id on pytest's first ``FAILED`` or ``ERROR`` summary line."""
    for line in output.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return None


def run(defect: Defect) -> dict:
    """``defect`` applied to a fresh copy, and Tier-1's verdict on it."""
    with tempfile.TemporaryDirectory(prefix="bcontact-mutant-") as tmp:
        dest = Path(tmp)
        _copy(dest)
        _apply(dest, defect)
        env = {**os.environ, "PYTHONPATH": str(dest / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, *TIER1], cwd=dest, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT, stdin=subprocess.DEVNULL, text=True, start_new_session=True,
        )
        try:
            output = proc.communicate(timeout=LIMIT)[0]
        except subprocess.TimeoutExpired:
            output = None
        finally:
            # The run's whole group, on an interrupt too: the suite, and any
            # child that outlived it.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
        if output is None:
            proc.communicate()
        seconds = round(time.monotonic() - started, 1)
    if output is None:
        killed, by = True, f"timeout after {LIMIT} s"
    else:
        killed, by = proc.returncode != 0, _first_failure(output)
    return {**defect._asdict(), "killed": killed, "first_failure": by, "seconds": seconds}


def main() -> int:
    # A terminated referee unwinds, so that ``run`` ends its suite's group
    # and removes its copy.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    results = []
    for i, defect in enumerate(DEFECTS, 1):
        results.append(run(defect))
        r = results[-1]
        verdict = "killed" if r["killed"] else "SURVIVED"
        print(f"[{i}/{len(DEFECTS)}] {verdict} {r['seconds']} s: {defect.file}: "
              f"{defect.old.strip()!r} ({r['first_failure']})", file=sys.stderr, flush=True)
    survived = [r for r in results if not r["killed"]]
    print(json.dumps({
        "defects": len(results), "killed": len(results) - len(survived),
        "survived": len(survived), "results": results,
    }, indent=1))
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
