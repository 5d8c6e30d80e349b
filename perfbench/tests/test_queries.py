"""The benchmark's reference rules agree with bcontact on small inputs."""

import contextlib
import io
import math
import random
from fractions import Fraction

import pytest

import bcontact
import queries
from bcontact.cli import run_cli


@pytest.mark.parametrize("p", range(1, 30))
def test_continued_fraction_matches_and_evaluates(p):
    for q in range(1, p + 1):
        if Fraction(p, q).denominator != q:
            continue
        ours = queries.negative_cf(p, q)
        assert ours == list(bcontact.negative_continued_fraction(p, q).coefficients)
        assert queries.cf_value(ours) == Fraction(-p, q)
        theirs = bcontact.expansion_products(bcontact.negative_continued_fraction(p, q))
        assert queries.rs_products(ours) == theirs


def test_tight_counts_match_on_small_inputs():
    for n in range(1, 7):
        assert queries.catalan(n) == bcontact.catalan(n)
        for p, q in [(1, 1), (2, 1), (3, 2), (5, 2), (7, 3), (13, 8)]:
            assert queries.tight_count(n, p, q) == bcontact.tight_count_solid_torus(n, p, q).count


def _bcontact_class(d: queries.DividingSet):
    graph = bcontact.RegionGraph(d.vertices, d.edges)
    return bcontact.DividingSetClass(bcontact.Surface(d.surface), graph, d.slope)


def test_admissibility_and_tightness_rules_match():
    rng = random.Random(0)
    seen = set()
    for i in range(300):
        d = queries.random_dividing_set(rng, admissible=i % 2 == 0)
        cls = _bcontact_class(d)
        manifold = bcontact.S3_S2 if d.surface == "sphere" else bcontact.S3_T2
        assert bcontact.check_embeddable(cls) is None
        assert d.euler_pairing() == bcontact.euler_pairing(cls)
        assert d.admissible() == bcontact.is_admissible(manifold, cls).ok
        assert d.tight_candidate() == bcontact.is_tight_candidate(manifold, cls).ok
        seen.add((d.surface, d.admissible(), d.tight_candidate()))
    assert {("sphere", False, False), ("sphere", True, True), ("torus", True, True),
            ("torus", False, False), ("torus", True, False)} <= seen


def test_queries_are_deterministic_in_the_seed(tmp_path):
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = queries.make_queries(5, 3, tmp_path / "a")
    b = queries.make_queries(5, 3, tmp_path / "b")
    assert [q.argv[0] for q in a] == [q.argv[0] for q in b]
    for qa, qb in zip(a, b):
        assert qa.params == qb.params and qa.dividing_set == qb.dividing_set
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files and all(
        (tmp_path / "a" / f).read_text() == (tmp_path / "b" / f).read_text() for f in files
    )
    assert sorted(q.command for q in a[:6]) == sorted(queries.COMMANDS)


def test_tight_count_n_is_not_capped_below_the_digit_limit():
    rng = random.Random(1)
    ns = [queries._make_query(rng, "tight-count", None).params[0] for _ in range(2000)]
    assert min(ns) == 1 and max(ns) > 7200 and max(ns) <= queries.MAX_TIGHT_N


def test_each_run_draws_one_tight_count_n_from_each_slice_of_log_n(tmp_path):
    for seed in range(5):
        ns = [q.params[0] for q in queries.make_queries(seed, 10, tmp_path)
              if q.command == "tight-count"]
        slices = sorted(int(10 * math.log(n) / math.log(queries.MAX_TIGHT_N)) for n in ns)
        assert slices == list(range(10))


def test_checked_answers_of_bcontact_are_right(tmp_path):
    """Every generated query, answered by bcontact in process, passes the
    reference check; the only failures are tight counts past the digit limit."""
    failures = []
    for query in queries.make_queries(11, 20, tmp_path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli(list(query.argv), out=out)
        if code != queries.expected_exit(query):
            failures.append((query.command, err.getvalue()))
            continue
        assert queries.wrong_answer(query, out.getvalue(), err.getvalue()) is None, query
    assert all(
        command == "tight-count" and "4300" in message for command, message in failures
    )


def test_wrong_answers_are_caught():
    d = queries.DividingSet("torus", ((0, 1, 0), (3, -1, 0)), ((0, 3), (0, 3)), (3, 2))
    q = queries.Query("census", ("census",), dividing_set=d)
    assert queries.wrong_answer(q, "2 2 2\n", "") is None
    assert queries.wrong_answer(q, "2 2 3\n", "") is not None
    t = queries.Query("tight-count", ("tight-count",), (1, 3, 2))
    assert queries.wrong_answer(t, "2\n", "") is None
    assert queries.wrong_answer(t, "3\n", "") is not None
    c = queries.Query("classify", ("classify",), dividing_set=d)
    assert queries.wrong_answer(c, "not json", "") is not None
