"""Acceptance suite: one test per shipping criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they complete.  Everything asserted here is exact; the only
tolerances are wall-clock budgets, which are part of the criteria.
"""

import io
import json
import random
import time
from contextlib import contextmanager
from math import gcd

from bcontact.admissibility import is_admissible
from bcontact.classify import classify, leaf_census, table_classes
from bcontact.cli import run_cli
from bcontact.counting import catalan, negative_continued_fraction, tight_count_solid_torus
from bcontact.enumeration import enum_equicolored_trees, enum_torus_classes, enum_tree_rows
from bcontact.region_graph import RegionGraph, validate
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

from helpers import enumerated_records, farey_products, record_rows, table_jsonl, total_euler
from oracle import oracle_count_trees

PUBLISHED_TREE_COUNTS = [1, 1, 4, 14, 65]


@contextmanager
def criterion(name):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[FAIL] {name}")
        raise
    print(f"[PASS] {name} ({time.perf_counter() - started:.1f}s)")


def test_tree_counts_via_cli():
    # --count-only reads the recorded counts, so the enumerator's own rows
    # are counted too: the published counts referee both.
    with criterion("tree counts 1,1,4,14,65 via enum-trees --count-only and the "
                   "enumerator, each <= 1s"):
        for n, expected in enumerate(PUBLISHED_TREE_COUNTS, start=1):
            out = io.StringIO()
            started = time.perf_counter()
            status = run_cli(["enum-trees", "--n", str(n), "--count-only"], out=out)
            rows = enum_tree_rows(n)
            elapsed = time.perf_counter() - started
            assert status == 0
            assert out.getvalue().strip() == str(expected)
            assert len(rows) == expected
            assert elapsed <= 1.0, f"n={n} took {elapsed:.2f}s"


def test_continued_fraction_soundness():
    with criterion("continued fractions reconstruct -p/q for all p <= 500, <= 10s"):
        started = time.perf_counter()
        failures = 0
        for p in range(1, 501):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                cf = negative_continued_fraction(p, q)
                # The value num/den of a_1 - 1/(a_2 - ... - 1/a_k), from the
                # innermost term out: a - 1/(num/den) = (a*num - den)/num.
                num, den = cf.coefficients[-1], 1
                for a in reversed(cf.coefficients[:-1]):
                    num, den = a * num - den, num
                if num * q != -p * den:
                    failures += 1
                if (p, q) != (1, 1) and any(a > -2 for a in cf.coefficients):
                    failures += 1
        elapsed = time.perf_counter() - started
        assert failures == 0
        assert elapsed <= 10.0, f"sweep took {elapsed:.1f}s"


def test_count_identities():
    with criterion("tight count collapses to Catalan; closed form matches recurrence"):
        for n in range(1, 21):
            assert tight_count_solid_torus(n, 1, 1).count == catalan(n)
        values = [1]
        for m in range(30):
            values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
        assert [catalan(m) for m in range(31)] == values


def test_sphere_classification_fixtures():
    with criterion("sphere: one tight class with record (1,0)/(2,1)/(1,2) and census (2,2,1)"):
        # classify of every enumerated class with 2n <= 10 regions.
        records = enumerated_records(S3_S2, 9)
        tight_rows = [r for r in records if r.tight.finite_factor > 0]
        assert len(tight_rows) == 1
        record = tight_rows[0]
        assert record.dividing_set.graph.edge_count == 1
        assert (record.tight.finite_factor, record.tight.free_rank) == (1, 0)
        assert (record.mixed.finite_factor, record.mixed.free_rank) == (2, 1)
        assert (
            record.fully_overtwisted.finite_factor,
            record.fully_overtwisted.free_rank,
        ) == (1, 2)
        census = leaf_census(S3_S2, record.dividing_set)
        assert (census.leaves_dim3, census.leaves_dim2, census.leaves_dim1) == (2, 2, 1)
        # The table has these records' rows, and no other.
        text = table_jsonl(table_classes(S3_S2, 9))
        assert [json.loads(line) for line in text.splitlines()] == record_rows(records)


def test_torus_fixture_two_implementations():
    with criterion("torus bare 2-cycle slope (3,2): tight 4, mixed (4,2), two code paths"):
        g = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        d = DividingSetClass(Surface.TORUS, g, (3, 2))
        record = classify(S3_T2, d)
        assert record.tight.finite_factor == 4
        assert (record.mixed.finite_factor, record.mixed.free_rank) == (4, 2)
        # N(1, -3, 2) = r, read off the Farey graph.
        assert record.tight.finite_factor == 2 * farey_products(3, 2)[0]


def _random_embeddable_class(rng):
    nv = rng.randrange(2, 11)
    if nv == 2:
        edges = [(0, 1)]
    else:
        seq = [rng.randrange(nv) for _ in range(nv - 2)]
        rem = [0] * nv
        for s in seq:
            rem[s] += 1
        used = [False] * nv
        edges = []
        for s in seq:
            leaf = min(v for v in range(nv) if rem[v] == 0 and not used[v])
            edges.append((leaf, s))
            used[leaf] = True
            rem[s] -= 1
        last = [v for v in range(nv) if rem[v] == 0 and not used[v]]
        edges.append((last[0], last[1]))

    # Mutate: relocate random leaves, possibly breaking the shape.
    for _ in range(rng.randrange(4)):
        degs = {v: 0 for v in range(nv)}
        for a, b in edges:
            degs[a] += 1
            degs[b] += 1
        leaves = [v for v in degs if degs[v] == 1]
        if not leaves:
            break
        leaf = rng.choice(leaves)
        idx = next(i for i, e in enumerate(edges) if leaf in e)
        others = [v for v in range(nv) if v != leaf]
        edges[idx] = (leaf, rng.choice(others))

    # Repair: keep the largest component only, recolor by bipartition.
    adjacency = {v: set() for v in range(nv)}
    for a, b in edges:
        if a != b:
            adjacency[a].add(b)
            adjacency[b].add(a)
    seen, stack = {0}, [0]
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    keep = sorted(seen)
    if len(keep) < 2:
        return None
    relabel = {v: i for i, v in enumerate(keep)}
    edges = [
        (relabel[a], relabel[b]) for a, b in edges if a in seen and b in seen and a != b
    ]
    nv = len(keep)
    if len(edges) != nv - 1:
        return None
    color = {0: 0}
    stack = [0]
    adjacency = {v: [] for v in range(nv)}
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    while stack:
        u = stack.pop()
        for w in adjacency[u]:
            if w not in color:
                color[w] = 1 - color[u]
                stack.append(w)

    surface = rng.choice(["sphere", "torus-tree", "torus-cycle"])
    flip = rng.randrange(2)
    genus_vertex = rng.randrange(nv) if surface == "torus-tree" else None
    if surface == "torus-cycle":
        # Close an even cycle by joining two vertices at odd distance.
        dist = {0: 0}
        queue = [0]
        while queue:
            u = queue.pop(0)
            for w in adjacency[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        odd = [v for v in range(1, nv) if dist[v] % 2 == 1]
        if not odd:
            return None
        edges.append((0, rng.choice(odd)))

    graph = RegionGraph(
        [
            (v, 1 if (color[v] ^ flip) == 0 else -1, 1 if v == genus_vertex else 0)
            for v in range(nv)
        ],
        edges,
    )
    if surface == "sphere":
        return DividingSetClass(Surface.SPHERE, graph)
    if surface == "torus-tree":
        return DividingSetClass(Surface.TORUS, graph)
    return DividingSetClass(Surface.TORUS, graph, (1, 1))


def test_euler_conservation():
    with criterion("total_euler is 2/0 on every enumerated class and 1000 fuzzed graphs"):
        for n in range(1, 6):
            for g in enum_equicolored_trees(n):
                assert total_euler(DividingSetClass(Surface.SPHERE, g)) == 2
        checked = 0
        for d in enum_torus_classes(10, 1):
            if d.graph.vertex_count <= 10:
                assert total_euler(d) == 0
                checked += 1
        assert checked > 0

        rng = random.Random(0x5EED)
        fuzzed = 0
        while fuzzed < 1000:
            d = _random_embeddable_class(rng)
            if d is None:  # a class that does not embed raises on construction
                continue
            expected = 2 if d.surface is Surface.SPHERE else 0
            assert total_euler(d) == expected, d
            fuzzed += 1


def test_oracle_agreement():
    with criterion("orderly generator equals Prüfer oracle, n <= 5, both modes, <= 5 min"):
        started = time.perf_counter()
        for mode in (False, True):
            for n in range(1, 6):
                generated = len(enum_equicolored_trees(n, mode))
                brute = oracle_count_trees(n, mode)
                assert generated == brute, (n, mode, generated, brute)
        elapsed = time.perf_counter() - started
        assert elapsed <= 300.0, f"oracle sweep took {elapsed:.0f}s"
        # The published sequence is the sign-distinguishing count.
        assert [len(enum_equicolored_trees(n)) for n in range(1, 6)] == PUBLISHED_TREE_COUNTS


def test_every_enumerated_class_is_coherent():
    with criterion("enumerated classes validate, embed, and admit (spot totals)"):
        total = 0
        for n in range(1, 6):
            for g in enum_equicolored_trees(n):
                d = DividingSetClass(Surface.SPHERE, g)
                assert validate(g) is None
                assert is_admissible(S3_S2, d)
                total += 1
        for d in enum_torus_classes(8, 2):
            assert validate(d.graph) is None
            assert is_admissible(S3_T2, d)
            total += 1
        assert total > 100
