"""Inputs and reference answers for the cli-queries workload.

Queries come in rounds of one each of ``tight-count``, ``cf``, ``check``,
``classify --format json``, ``census`` and ``export-dot``, shuffled within
the round, all drawn from the workload seed.  Dividing sets are written as
text or JSON with their regions randomly relabelled, and about half of
them are inadmissible.

The answers are re-derived from the paper's rules without importing
bcontact: Euler balance for admissibility, the tightness rule, and
N(n, -p, q) = C_n((r - s)n + s) with r and s read off a negative
continued fraction computed here.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

COMMANDS = ("tight-count", "cf", "check", "classify", "census", "export-dot")

# tight-count's n is log-uniform over 1..MAX_TIGHT_N.  Counts for n above
# about 7,150 have more than 4,300 digits, which CPython's default
# int-to-str limit refuses; those calls stay in the mix.
MAX_TIGHT_N = 10_000
INT_STR_DIGITS = 4_300
DIGIT_LIMIT_ERROR = (
    f"error: Exceeds the limit ({INT_STR_DIGITS} digits) for integer string conversion"
)
MAX_CF_P = 10**6
MAX_TIGHT_P = 1_000
MAX_CLASS_SLOPE = 64
MAX_REGIONS = 12


# ---------------------------------------------------------------------------
# Reference arithmetic.
# ---------------------------------------------------------------------------


def negative_cf(p: int, q: int) -> list[int]:
    """Coefficients a0..ak of -p/q = a0 - 1/(a1 - ... - 1/ak), each <= -2.

    The one exception is p = q = 1, whose expansion is [-1].
    """
    x = Fraction(-p, q)
    coefficients = []
    while True:
        a = math.floor(x)
        coefficients.append(a)
        if x == a:
            return coefficients
        x = 1 / (a - x)


def cf_value(coefficients: list[int]) -> Fraction:
    value = Fraction(coefficients[-1])
    for a in reversed(coefficients[:-1]):
        value = a - 1 / value
    return value


def rs_products(coefficients: list[int]) -> tuple[int, int]:
    """r = |prod(a_i + 1, i < k) * a_k| and s = |prod(a_i + 1, i < k) * (a_k + 1)|."""
    if coefficients == [-1]:
        return 1, 1
    prefix = math.prod(a + 1 for a in coefficients[:-1])
    last = coefficients[-1]
    return abs(prefix * last), abs(prefix * (last + 1))


def catalan(n: int) -> int:
    return math.comb(2 * n, n) - math.comb(2 * n, n + 1)


def tight_count(n: int, p: int, q: int) -> int:
    """N(n, -p, q) = C_n((r - s)n + s)."""
    r, s = rs_products(negative_cf(p, q))
    return catalan(n) * ((r - s) * n + s)


# ---------------------------------------------------------------------------
# Dividing sets.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DividingSet:
    """Regions (id, sign, genus) sorted by id, curves as sorted id pairs."""

    surface: str
    vertices: tuple[tuple[int, int, int], ...]
    edges: tuple[tuple[int, int], ...]
    slope: tuple[int, int] | None = None

    @property
    def degrees(self) -> dict[int, int]:
        deg = {vid: 0 for vid, _, _ in self.vertices}
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        return deg

    def euler_pairing(self) -> int:
        """chi(positive part) - chi(negative part), chi = 2 - 2 genus - curves."""
        deg = self.degrees
        return sum(sign * (2 - 2 * genus - deg[vid]) for vid, sign, genus in self.vertices)

    def admissible(self) -> bool:
        return self.euler_pairing() == 0

    def bare_cycle(self) -> bool:
        return len(self.edges) == len(self.vertices) and all(
            d == 2 for d in self.degrees.values()
        )

    def tight_candidate(self) -> bool:
        """Admissible and free of contractible curves: one curve on the
        sphere, a bare ring of essential curves on the torus."""
        if not self.admissible():
            return False
        if self.surface == "sphere":
            return len(self.edges) == 1
        return self.bare_cycle()

    def json_dict(self, vertices=None, edges=None) -> dict:
        """The JSON input form, with regions and curves in the given order."""
        return {
            "surface": self.surface,
            "vertices": [{"id": v, "sign": s, "genus": g} for v, s, g in vertices or self.vertices],
            "edges": [list(e) for e in edges or self.edges],
            "slope": list(self.slope) if self.slope else None,
        }

    def text_lines(self, vertices=None, edges=None) -> list[str]:
        """The text input form, with regions and curves in the given order."""
        lines = [f"surface {self.surface}"]
        lines += [f"v {v} {'+' if s > 0 else '-'} {g}" for v, s, g in vertices or self.vertices]
        lines += [f"e {a} {b}" for a, b in edges or self.edges]
        if self.slope:
            lines.append(f"slope {self.slope[0]} {self.slope[1]}")
        return lines


def _two_coloring(nv: int, edges: list[tuple[int, int]]) -> list[int]:
    adjacency = [[] for _ in range(nv)]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    color = [-1] * nv
    color[0] = 0
    stack = [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if color[w] < 0:
                color[w] = 1 - color[u]
                stack.append(w)
    return color


def _coprime_slope(rng: random.Random, max_p: int) -> tuple[int, int]:
    p = rng.randint(1, max_p)
    while True:
        q = rng.randint(1, p)
        if math.gcd(p, q) == 1:
            return p, q


def _random_shape(rng: random.Random) -> DividingSet:
    """A valid dividing set with regions 0..V-1: a sphere tree, a torus tree
    with one genus-1 region, or a ring of essential curves with trees of
    contractible curves hung on it."""
    kind = rng.choice(("sphere", "torus-tree", "torus-ring"))
    if kind == "torus-ring":
        ring = 2 * rng.randint(1, MAX_REGIONS // 2)
        edges = [(i, (i + 1) % ring) for i in range(ring)]
        extra = 0 if rng.random() < 0.5 else rng.randint(1, MAX_REGIONS - ring + 1)
        nv = ring + extra
        first_pendant = ring
    else:
        nv = rng.randint(2, MAX_REGIONS)
        edges = []
        first_pendant = 1
    edges += [(v, rng.randrange(v)) for v in range(first_pendant, nv)]
    color = _two_coloring(nv, edges)
    positive = rng.randrange(2)
    genus_vertex = rng.randrange(nv) if kind == "torus-tree" else None
    vertices = tuple(
        (v, 1 if color[v] == positive else -1, 1 if v == genus_vertex else 0)
        for v in range(nv)
    )
    slope = _coprime_slope(rng, MAX_CLASS_SLOPE) if kind == "torus-ring" else None
    surface = "sphere" if kind == "sphere" else "torus"
    return DividingSet(surface, vertices, tuple(sorted(edges)), slope)


def random_dividing_set(rng: random.Random, admissible: bool) -> DividingSet:
    """A random relabelled dividing set, admissible or not as asked when a
    few hundred draws find one (bare rings are always admissible)."""
    for _ in range(300):
        shape = _random_shape(rng)
        if shape.admissible() == admissible:
            break
    ids = rng.sample(range(4 * len(shape.vertices)), len(shape.vertices))
    vertices = tuple(sorted((ids[v], s, g) for v, s, g in shape.vertices))
    edges = tuple(sorted(
        (min(ids[a], ids[b]), max(ids[a], ids[b])) for a, b in shape.edges
    ))
    return DividingSet(shape.surface, vertices, edges, shape.slope)


def render_input(d: DividingSet, rng: random.Random) -> str:
    """The set as text or JSON, with regions and curves in random order."""
    vertices = list(d.vertices)
    edges = [e if rng.random() < 0.5 else (e[1], e[0]) for e in d.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    if rng.random() < 0.5:
        return json.dumps(d.json_dict(vertices, edges)) + "\n"
    return "\n".join(d.text_lines(vertices, edges)) + "\n"


# ---------------------------------------------------------------------------
# Queries.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Query:
    command: str
    argv: tuple[str, ...]
    params: tuple[int, ...] = ()
    dividing_set: DividingSet | None = None


def make_queries(seed: int, rounds: int, directory: Path) -> list[Query]:
    """``rounds`` shuffled rounds of one query per command; dividing-set
    inputs are written under ``directory``.

    The rounds' ``tight-count`` n are a stratified log-uniform sample, one
    draw from each of ``rounds`` equal slices of log n in shuffled order:
    each n is still log-uniform, but every run of the same length holds
    about the same share of n past the digit limit.
    """
    rng = random.Random(seed)
    n_quantiles = [(k + rng.random()) / rounds for k in range(rounds)]
    rng.shuffle(n_quantiles)
    queries = []
    for r in range(rounds):
        commands = list(COMMANDS)
        rng.shuffle(commands)
        for command in commands:
            path = directory / f"q{len(queries)}.in"
            queries.append(_make_query(rng, command, path, n_quantiles[r]))
    return queries


def _make_query(rng: random.Random, command: str, path: Path,
                n_quantile: float | None = None) -> Query:
    if command == "tight-count":
        if n_quantile is None:
            n_quantile = rng.random()
        n = round(math.exp(n_quantile * math.log(MAX_TIGHT_N)))
        p, q = _coprime_slope(rng, MAX_TIGHT_P)
        argv = ("tight-count", "--n", str(n), "--p", str(p), "--q", str(q))
        return Query(command, argv, (n, p, q))
    if command == "cf":
        p, q = _coprime_slope(rng, MAX_CF_P)
        return Query(command, ("cf", "--p", str(p), "--q", str(q), "--format", "json"), (p, q))
    d = random_dividing_set(rng, admissible=rng.random() < 0.5)
    path.write_text(render_input(d, rng), encoding="utf-8")
    argv = (command, "--gamma", str(path))
    if command in ("check", "classify"):
        argv += ("--format", "json")
    return Query(command, argv, dividing_set=d)


# ---------------------------------------------------------------------------
# Checking answers.
# ---------------------------------------------------------------------------


def expected_exit(query: Query) -> int:
    """0, or 1 where the paper's rules reject the input (inadmissible)."""
    d = query.dividing_set
    if d is not None and query.command in ("check", "classify", "census"):
        return 0 if d.admissible() else 1
    return 0


def digit_limit_refusal(query: Query, returncode: int, stderr: str) -> bool:
    """True for the CLI's one known failure: a ``tight-count`` whose answer
    has more than 4,300 digits, refused with exit 1 and the int-to-str
    error.  It counts as failed but not as a wrong answer."""
    return (
        query.command == "tight-count"
        and tight_count(*query.params) >= 10**INT_STR_DIGITS
        and returncode == 1
        and stderr.startswith(DIGIT_LIMIT_ERROR)
        and "Traceback" not in stderr
    )


def _expected_classification(d: DividingSet) -> dict:
    sphere = d.surface == "sphere"
    expected = {
        "manifold": "s3-s2" if sphere else "s3-t2",
        "dividing_set": d.json_dict(),
        "tight": [0, 0],
        "mixed": [0, 0],
        "fully_overtwisted": [1, 2] if sphere else [1, 4],
        "tight_count_detail": None,
    }
    if d.tight_candidate():
        if sphere:
            expected["tight"], expected["mixed"] = [1, 0], [2, 1]
        else:
            n = len(d.edges) // 2
            p, q = d.slope
            coefficients = negative_cf(p, q)
            r, s = rs_products(coefficients)
            count = tight_count(n, p, q)
            expected["tight"], expected["mixed"] = [2 * count, 0], [2 * count, 2]
            expected["tight_count_detail"] = {
                "n": n, "p": p, "q": q, "r": r, "s": s, "count": count,
                "expansion": coefficients,
            }
    return expected


def wrong_answer(query: Query, stdout: str, stderr: str) -> str | None:
    """Why the output of a query that exited as expected is wrong, or None."""
    try:
        return _wrong_answer(query, stdout, stderr)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"


def _wrong_answer(query: Query, stdout: str, stderr: str) -> str | None:
    d = query.dividing_set
    if expected_exit(query) == 1:
        if query.command == "check":
            got = json.loads(stdout)
            if got["admissible"] is not False or got["tight_candidate"] is not False:
                return f"check of inadmissible input answered {got}"
            return None
        if stdout or not stderr.startswith("error:"):
            return "rejection is not a one-line error on stderr"
        return None
    if query.command == "tight-count":
        n, p, q = query.params
        if stdout.strip() != str(tight_count(n, p, q)):
            return f"N({n}, -{p}, {q}) is wrong"
    elif query.command == "cf":
        p, q = query.params
        expected = negative_cf(p, q)
        got = json.loads(stdout)
        if got != {"coefficients": expected, "degenerate": expected == [-1]}:
            return f"expansion of -{p}/{q} is {got}, expected {expected}"
    elif query.command == "check":
        got = json.loads(stdout)
        if got["admissible"] is not True or got["tight_candidate"] != d.tight_candidate():
            return f"check answered {got}"
        if not isinstance(got["canonical_code"], str) or not got["canonical_code"]:
            return "check gave no canonical code"
    elif query.command == "classify":
        got = json.loads(stdout)
        if got != _expected_classification(d):
            return f"classification {got} disagrees with the reference"
    elif query.command == "census":
        expected = f"2 {len(d.vertices)} {len(d.edges)}"
        if stdout.strip() != expected:
            return f"census {stdout.strip()!r}, expected {expected!r}"
    elif query.command == "export-dot":
        meta = [line.strip()[3:] for line in stdout.splitlines() if line.strip().startswith("// ")]
        if meta != d.text_lines():
            return "export-dot metadata does not reproduce the input"
        if sum(" -- " in line for line in stdout.splitlines()) != len(d.edges):
            return "export-dot edge count is wrong"
    return None
