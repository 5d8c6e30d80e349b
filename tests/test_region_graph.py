"""Region-graph invariants, canonical codes, and isomorphism."""

import random
import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcontact import region_graph
from bcontact.enumeration import (
    _EDGES,
    _coloring,
    _sphere_trees,
    _tree_edges,
    enum_equicolored_trees,
    enum_torus_classes,
    enum_tree_rows,
)
from bcontact.codes import _TAGS, _min_rotation
from bcontact.region_graph import (
    InvalidRegionGraphError,
    RegionGraph,
    canonical_code,
    codes_of,
    validate,
)
from bcontact.surfaces import DividingSetClass, Surface

from helpers import free_trees, key_code, torus_codes
from oracle import adjacency, brute_force_isomorphic, by_id


def graph(signs, edges, genera=None):
    genera = genera or [0] * len(signs)
    return RegionGraph(
        [(i, s, g) for i, (s, g) in enumerate(zip(signs, genera))], edges
    )


def path(signs):
    return graph(signs, [(i, i + 1) for i in range(len(signs) - 1)])


def star(center_sign, leaves):
    return graph([center_sign] + [-center_sign] * leaves, [(0, i + 1) for i in range(leaves)])


def permutations_isomorphic(g1, g2):
    """Exhaustive check over every vertex bijection; test-local oracle."""
    if g1.vertex_count != g2.vertex_count or g1.edge_count != g2.edge_count:
        return False
    ids1, ids2 = list(g1.vertex_ids), list(g2.vertex_ids)
    edges1 = sorted(g1.edges)
    vertices1, vertices2 = by_id(g1), by_id(g2)
    for perm in permutations(ids2):
        mapping = dict(zip(ids1, perm))
        if any(
            vertices1[v].sign != vertices2[mapping[v]].sign
            or vertices1[v].genus != vertices2[mapping[v]].genus
            for v in ids1
            ):
            continue
        mapped = sorted(
            (min(mapping[a], mapping[b]), max(mapping[a], mapping[b])) for a, b in edges1
        )
        if mapped == sorted(g2.edges):
            return True
    return False


def relabeled(g, mapping):
    return RegionGraph(
        [(mapping[v.id], v.sign, v.genus) for v in g.vertices],
        [(mapping[a], mapping[b]) for a, b in g.edges],
    )


def shuffled(g, rng):
    ids = list(g.vertex_ids)
    images = ids[:]
    rng.shuffle(images)
    return relabeled(g, dict(zip(ids, images)))


class TestValidate:
    """A graph is checked where it is made: the constructor raises with the
    first rule of ``validate`` the graph breaks."""

    def test_single_edge_is_ok(self):
        assert validate(path([1, -1])) is None

    def test_like_signed_edge_is_improper_coloring(self):
        for signs in ([1, 1], [-1, -1]):
            with pytest.raises(InvalidRegionGraphError, match="^improper coloring: "):
                path(signs)

    def test_two_independent_cycles_break_edge_count(self):
        with pytest.raises(InvalidRegionGraphError, match="^edge count: "):
            graph([1, -1, 1, -1], [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)])

    def test_self_loop(self):
        with pytest.raises(InvalidRegionGraphError, match="^self-loop: "):
            graph([1, -1], [(0, 1), (0, 0)])

    def test_disconnected(self):
        with pytest.raises(InvalidRegionGraphError, match="^disconnected: "):
            RegionGraph([(0, 1, 0), (1, -1, 0), (2, 1, 0), (3, -1, 0)], [(0, 1), (2, 3)])

    def test_genus_sum_capped(self):
        with pytest.raises(InvalidRegionGraphError, match="^genus sum: "):
            graph([1, -1], [(0, 1)], genera=[1, 1])

    def test_unknown_edge_endpoint(self):
        with pytest.raises(InvalidRegionGraphError, match="^malformed: "):
            RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 5)])

    @pytest.mark.parametrize(
        "vertex,detail",
        [
            ((-1, 1, 0), "vertex ids must be non-negative"),
            ((0, 2, 0), "vertex 0 has sign 2"),
            ((0, 1, 2), "vertex 0 has genus 2"),
        ],
    )
    def test_malformed_vertex(self, vertex, detail):
        with pytest.raises(InvalidRegionGraphError, match=f"^malformed: {detail}$"):
            RegionGraph([vertex, (1, -1, 0)], [(vertex[0], 1)])

    @pytest.mark.parametrize(
        "vid,shown", [(1.5, "1.5"), (1.0, "1.0"), ("1", "'1'"), (True, "True")]
    )
    def test_vertex_id_that_is_not_an_int(self, vid, shown):
        # Reported before the constructor sorts the ids, which a str among
        # ints would break; a float or bool equal to 1 is not taken for 1.
        detail = f"vertex id {shown} is not an integer"
        with pytest.raises(InvalidRegionGraphError, match=f"^malformed: {re.escape(detail)}$"):
            RegionGraph([(0, 1, 0), (vid, -1, 0)], [(0, vid)])

    @pytest.mark.parametrize("end,shown", [(1.0, "1.0"), ("1", "'1'"), (True, "True")])
    def test_edge_end_that_is_not_an_int(self, end, shown):
        detail = f"edge (0,{shown}) has an end that is not an integer"
        with pytest.raises(InvalidRegionGraphError, match=f"^malformed: {re.escape(detail)}$"):
            RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, end)])

    def test_ids_are_checked_once_per_graph(self, monkeypatch):
        # The constructor checks the ids before it sorts them, and validate,
        # which runs on the sorted graph, does not check them again.
        calls = []

        def counted(vertices, edges):
            calls.append(None)
            return check(vertices, edges)

        check = region_graph._non_integer_id
        monkeypatch.setattr(region_graph, "_non_integer_id", counted)
        path([1, -1, 1, -1])
        graph([1, -1], [(0, 1), (0, 1)])
        assert len(calls) == 2

    @pytest.mark.parametrize(
        "vertex,detail",
        [((0, True, 0), "vertex 0 has sign True"), ((0, 1, 1.0), "vertex 0 has genus 1.0")],
    )
    def test_sign_or_genus_that_is_not_an_int(self, vertex, detail):
        with pytest.raises(InvalidRegionGraphError, match=f"^malformed: {detail}$"):
            RegionGraph([vertex, (1, -1, 0)], [(0, 1)])

    @pytest.mark.parametrize(
        "vertex,end,detail",
        [
            (("x" * 100, -1, 0), 1, f"vertex id {'x' * 100!r:.40}... is not an integer"),
            ((1, -1, 0), "x" * 100,
             f"edge (0,{'x' * 100!r:.40}...) has an end that is not an integer"),
            ((1, "s" * 100, 0), 1, f"vertex 1 has sign {'s' * 100!r:.40}..."),
            ((1, -1, [0] * 100), 1, f"vertex 1 has genus {str([0] * 100):.40}..."),
        ],
        ids=["id", "edge-end", "sign", "genus"],
    )
    def test_malformed_data_is_echoed_at_most_forty_characters(self, vertex, end, detail):
        with pytest.raises(InvalidRegionGraphError) as raised:
            RegionGraph([(0, 1, 0), vertex], [(0, end)])
        assert str(raised.value) == f"malformed: {detail}"

    def test_graph_invariants_come_first(self):
        # No class can be made of an invalid graph: the graph's constructor
        # raises before any surface rule is tried.
        with pytest.raises(InvalidRegionGraphError, match="^improper coloring: "):
            DividingSetClass(Surface.SPHERE, RegionGraph([(0, 1, 0), (1, 1, 0)], [(0, 1)]))


class TestValueSemantics:
    """A graph is an immutable value: equal and equally hashed exactly when
    its normalized vertices and edges are equal."""

    def test_reordered_vertices_and_edges_give_an_equal_graph(self):
        g = RegionGraph([(0, 1, 0), (1, -1, 0), (2, 1, 0)], [(0, 1), (1, 2)])
        h = RegionGraph([(2, 1, 0), (0, 1, 0), (1, -1, 0)], [(2, 1), (1, 0)])
        assert g == h and hash(g) == hash(h) and len({g, h}) == 1
        assert g != path([1, -1, 1, -1])

    def test_generated_graph_equals_its_rebuild(self):
        for g in enum_equicolored_trees(4):
            rebuilt = RegionGraph(reversed(g.vertices), reversed(g.edges))
            assert rebuilt == g and hash(rebuilt) == hash(g)

    def test_a_graph_never_equals_a_tuple(self):
        g = path([1, -1])
        assert g != (g.vertices, g.edges)
        assert g.__eq__((g.vertices, g.edges)) is NotImplemented

    def test_fields_cannot_be_assigned_or_deleted(self):
        g = path([1, -1])
        with pytest.raises(AttributeError):
            g.edges = ()
        with pytest.raises(AttributeError):
            del g.vertices
        assert g.edges == ((0, 1),)
        assert validate(g) is None and canonical_code(g) == canonical_code(path([-1, 1]))

    def test_repr_names_the_fields(self):
        assert repr(path([1, -1])) == (
            "RegionGraph(vertices=(RegionVertex(id=0, sign=1, genus=0), "
            "RegionVertex(id=1, sign=-1, genus=0)), edges=((0, 1),))"
        )


class TestCanonicalCode:
    def test_relabeling_invariance_on_reversed_path(self):
        g1 = path([1, -1, 1, -1])
        g2 = relabeled(g1, {0: 3, 1: 2, 2: 1, 3: 0})
        assert canonical_code(g1) == canonical_code(g2)

    def test_swap_invariance_only_with_flag(self):
        g1 = path([1, -1, 1, -1])
        g2 = path([-1, 1, -1, 1])
        assert canonical_code(g1, modulo_swap=True) == canonical_code(g2, modulo_swap=True)
        # The path has a color-exchanging reversal, so the codes agree even
        # without the flag; a star has none.
        assert canonical_code(star(1, 3), True) == canonical_code(star(-1, 3), True)
        assert canonical_code(star(1, 3)) != canonical_code(star(-1, 3))

    def test_path_and_star_differ(self):
        p = path([1, -1, 1, -1])
        s = graph([1, -1, -1, -1], [(0, 1), (0, 2), (0, 3)])
        assert not permutations_isomorphic(p, s)
        assert canonical_code(p) != canonical_code(s)

    def test_hundred_random_permutations(self):
        rng = random.Random(20260810)
        pool = enum_equicolored_trees(3) + enum_equicolored_trees(4)
        pool += [d.graph for d in enum_torus_classes(5, 2)]
        for g in pool:
            code = canonical_code(g)
            code_swap = canonical_code(g, modulo_swap=True)
            for _ in range(100):
                h = shuffled(g, rng)
                assert canonical_code(h) == code
                assert canonical_code(h, modulo_swap=True) == code_swap

    def test_deterministic_across_calls(self):
        g = path([1, -1, 1, -1, 1, -1])
        assert canonical_code(g) == canonical_code(g)


class TestAreIsomorphic:
    def test_identity_after_random_permutation(self):
        rng = random.Random(7)
        for g in enum_equicolored_trees(4):
            assert canonical_code(g) == canonical_code(shuffled(g, rng))

    def test_path_vs_double_star_six_vertices(self):
        p = path([1, -1, 1, -1, 1, -1])
        double_star = graph(
            [1, -1, -1, -1, 1, 1], [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)]
        )
        assert validate(double_star) is None
        assert canonical_code(p) != canonical_code(double_star)
        assert not brute_force_isomorphic(p, double_star)

    def test_parallel_edges_distinguish(self):
        doubled = graph([1, -1], [(0, 1), (0, 1)])
        single = path([1, -1])
        assert canonical_code(doubled) != canonical_code(single)

    def test_equivalence_relation_on_samples(self):
        # Shuffled copies share a code exactly when they copy the same class.
        rng = random.Random(99)
        reps = enum_equicolored_trees(4)[:6]
        sample = [(i, shuffled(g, rng)) for i, g in enumerate(reps) for _ in range(3)]
        for i, a in sample:
            for j, b in sample:
                assert (canonical_code(a) == canonical_code(b)) == (i == j)

    def test_agrees_with_bijection_search_up_to_eight_vertices(self):
        rng = random.Random(4242)
        pool = [
            g
            for n in (1, 2, 3, 4)
            for g in enum_equicolored_trees(n)
        ] + [d.graph for d in enum_torus_classes(6, 1) if d.graph.vertex_count <= 8]
        for _ in range(300):
            a = shuffled(rng.choice(pool), rng)
            b = shuffled(rng.choice(pool), rng)
            for mode in (False, True):
                assert (canonical_code(a, mode) == canonical_code(b, mode)) == (
                    brute_force_isomorphic(a, b, mode)
                )

    def test_even_cycles_as_a_consequence_of_coloring(self):
        # Length of the unique cycle, found by stripping leaves; must be even
        # in every properly colored unicyclic graph the enumerator emits.
        for d in enum_torus_classes(6, 1):
            g = d.graph
            if g.edge_count != g.vertex_count:
                continue
            degrees = dict(g.degrees)
            neighbors = adjacency(g)
            alive = set(degrees)
            changed = True
            while changed:
                changed = False
                for v in list(alive):
                    if degrees[v] == 1:
                        alive.discard(v)
                        changed = True
                        for w in neighbors[v]:
                            if w in alive:
                                degrees[w] -= 1
            assert len(alive) % 2 == 0


class TestMinRotation:
    @staticmethod
    def brute_force(seq):
        return min(
            tuple(candidate[k:] + candidate[:k])
            for candidate in (seq, seq[::-1])
            for k in range(len(seq))
        )

    def test_matches_every_rotation_and_reflection(self):
        rng = random.Random(1980)
        alphabet = ["(+0)", "(-0)", "(+0(-0))", "(-0(+0))", "(+0(-0)(-0))"]
        for trial in range(6000):
            n = rng.randint(1, 12 if trial < 3000 else 64)
            letters = alphabet[: rng.randint(1, len(alphabet))]
            if trial % 2:
                # Periodic: a random block repeated, so rotations tie.
                block = [rng.choice(letters) for _ in range(rng.randint(1, n))]
                seq = block * (n // len(block))
            else:
                seq = [rng.choice(letters) for _ in range(n)]
            assert _min_rotation(seq) == self.brute_force(seq), seq


def neighbor_lists(order, edges):
    adj = [[] for _ in range(order)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    return adj


def tree_neighbors(layout):
    """Neighbor lists of the tree with level sequence ``layout``."""
    return neighbor_lists(len(layout), _tree_edges(layout))


@pytest.fixture(scope="module")
def trees_up_to_fourteen():
    """Every free tree on 1 to 14 vertices, one center or two, as its level
    sequence and neighbor lists: made once for the tests that walk them."""
    return [
        (layout, tree_neighbors(layout))
        for order in range(1, 15)
        for layout in ([bytes(1)] if order == 1 else free_trees(order))
    ]


def level_tags(layout, positive, genus_vertex=None):
    """Tags of the coloring with the levels of parity ``positive`` positive."""
    return [
        _TAGS[1 if level & 1 == positive else -1, int(v == genus_vertex)]
        for v, level in enumerate(layout)
    ]


class TestSwapByTranslate:
    """``codes_of`` gets the code with every sign negated by exchanging
    ``+`` and ``-`` in the core codes of one pass; each such code equals
    the code of a second pass over the negated tags."""

    @staticmethod
    def check(layout, adj, genus_vertex=None):
        code, swapped = codes_of(adj, level_tags(layout, 0, genus_vertex))
        negated, negated_swapped = codes_of(adj, level_tags(layout, 1, genus_vertex))
        assert (swapped, negated_swapped) == (negated, code), (layout, adj, genus_vertex)

    def test_every_tree_up_to_fourteen_vertices(self, trees_up_to_fourteen):
        # One center, or two of opposite signs; each free tree with no
        # genus region and with the genus region at each vertex.
        checked = 0
        for layout, adj in trees_up_to_fourteen:
            for genus_vertex in (None, *range(len(layout))):
                self.check(layout, adj, genus_vertex)
                checked += 1
        # The sum over orders k of k + 1 times the free trees on k vertices.
        assert checked == 77_592

    def test_every_even_cycle_ring_up_to_ten_regions(self):
        # Each free tree on up to ten vertices closed by an edge between
        # levels of different parity: every properly colored unicyclic
        # graph on up to ten vertices, 2-cycles (doubled edges) included.
        checked = 0
        for order in range(2, 11):
            for layout in free_trees(order):
                edges = _tree_edges(layout)
                for u in range(order):
                    for v in range(u + 1, order):
                        if layout[u] & 1 != layout[v] & 1:
                            self.check(layout, neighbor_lists(order, edges + [(u, v)]))
                            checked += 1
        assert checked == 3884


class TestLevelCodes:
    """The enumerators code a tree skeleton from its level sequence: a
    genus-free one by its bracket reading, carried along the walk
    (``_sphere_trees``), one with a genus region by sorting the genus
    region's code in at each of its ancestors.  The peel over its edges
    referees every such code."""

    @staticmethod
    def check(layout, adj, genus_vertex=None, read=None):
        peeled = codes_of(adj, level_tags(layout, 0, genus_vertex))
        if genus_vertex is None:
            assert read == peeled, layout
        else:
            assert torus_codes(layout, None, genus_vertex) == peeled, (
                layout, genus_vertex
            )

    def test_every_tree_up_to_fourteen_vertices(self, trees_up_to_fourteen):
        # One center or two, the genus region anywhere or nowhere.
        read = {
            layout: codes for order in range(1, 15) for layout, codes, _ in _sphere_trees(order)
        }
        checked = 0
        for layout, adj in trees_up_to_fourteen:
            for genus_vertex in (None, *range(len(layout))):
                self.check(layout, adj, genus_vertex, read.pop(layout, None))
                checked += 1
        assert not read
        assert checked == 77_592

    def test_every_tree_on_sixteen_vertices(self):
        # The skeletons of the sphere classes on 16 regions, and the rest.
        checked = 0
        for layout, codes, _ in _sphere_trees(16):
            self.check(layout, tree_neighbors(layout), None, codes)
            checked += 1
        assert checked == 19_320

    def test_every_balanced_tree_on_eighteen_vertices(self):
        # The skeletons of the sphere classes on 18 regions.
        checked = 0
        for layout, codes, _ in _sphere_trees(18, 9):
            assert sum(level & 1 for level in layout) == 9
            self.check(layout, tree_neighbors(layout), None, codes)
            checked += 1
        assert checked == 30_983

    def test_genus_region_breaks_the_bracket_reading(self):
        # The two leaves of [0, 1, 1] have equal level sequences, so the
        # canonical order lists vertex 1 first.  With the genus region on
        # vertex 1 the reading would write its "(-1)" before vertex 2's
        # "(-0)", but AHU sorts "(-0)" first: a genus code is sorted in.
        layout = bytes([0, 1, 1])
        [(walked, (genus_free, _), _)] = _sphere_trees(3)
        assert (walked, genus_free) == (layout, "T(+0(-0)(-0))")
        read = genus_free.replace("(-0", "(-1", 1)
        peeled = codes_of(tree_neighbors(layout), level_tags(layout, 0, 1))
        assert (read, peeled[0]) == ("T(+0(-1)(-0))", "T(+0(-0)(-1))")
        self.check(layout, tree_neighbors(layout), 1)


class TestSphereRows:
    """The sphere rows come from the walk's carried reading and edges."""

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    def test_rows_and_writer_edges_match_the_peel_and_the_tree(self, modulo_swap):
        # Up to 16 regions, the rows are the balanced free trees coded by
        # the peel, one per coloring unless a sign swap maps it to the other.
        for n in range(1, 9):
            expected = []
            for layout in free_trees(2 * n):
                if sum(level & 1 for level in layout) != n:
                    continue
                codes = codes_of(tree_neighbors(layout), level_tags(layout, 0))
                for positive in (0,) if modulo_swap or codes[0] == codes[1] else (0, 1):
                    code = min(codes) if modulo_swap else codes[positive]
                    expected.append((code, layout, None, _coloring(layout, positive)))
            expected.sort()
            assert enum_tree_rows(n, modulo_swap) == expected, n


class TestSphereKeys:
    """A text or JSON sphere listing orders its rows by byte keys, and
    builds no code (``enumeration._sphere_trees``): the keys sort and
    split the rows as the codes do, and the sign-1 rows replay the
    unicentral trees' sign-0 rows."""

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    def test_keyed_rows_are_the_coded_rows(self, modulo_swap):
        for n in range(1, 10):
            rows = enum_tree_rows(n, modulo_swap, edges=True)
            coded = enum_tree_rows(n, modulo_swap)
            # Row for row the same class, from distinct keys in sorted
            # order, each reading back to its row's code.
            assert [row[1:4] for row in rows] == [row[1:] for row in coded], n
            assert [key_code(row[0]) for row in rows] == [row[0] for row in coded], n
            keys = [row[0] for row in rows]
            assert all(type(key) is bytes for key in keys)
            assert keys == sorted(set(keys)), n
            for _, layout, _, _, ranks in rows:
                assert [_EDGES[rank] for rank in ranks] == sorted(_tree_edges(layout)), layout
            # The sign-1 rows come last, each a unicentral tree's, in the
            # order of those trees' sign-0 rows.
            replayed = [row[1] for row in rows if row[0][0]]
            assert not (modulo_swap and replayed)
            assert all(row[0][0] for row in rows[len(rows) - len(replayed):])
            kept = set(replayed)
            assert [row[1] for row in rows if row[1] in kept and not row[0][0]] == replayed, n

    @pytest.mark.parametrize("n", range(1, 10))
    def test_a_trees_keys_are_equal_exactly_when_its_codes_are(self, n):
        order = 2 * n
        walks = zip(_sphere_trees(order, n), _sphere_trees(order, n, True), strict=True)
        for (layout, codes, none), (walked, keys, ranks) in walks:
            assert (walked, none, type(ranks)) == (layout, None, bytes)
            if len(keys) == 1:
                # A unicentral tree's key with odd levels positive.
                keys += (b"\1" + keys[0][1:],)
            assert (keys[0] == keys[1]) == (codes[0] == codes[1]), layout
            assert tuple(map(key_code, keys)) == codes, layout


@st.composite
def small_graphs(draw):
    """A valid graph on at most nine vertices: a tree, or an even cycle
    (a 2-cycle is a doubled edge) with pendant trees; at most one region
    carries genus.  Each vertex after the core hangs from an earlier one,
    and colors alternate along every edge."""
    nv = draw(st.integers(1, 9))
    cycle = draw(st.sampled_from([0] + [k for k in (2, 4, 6, 8) if k <= nv]))
    color = [i & 1 for i in range(max(cycle, 1))]
    edges = [(i, (i + 1) % cycle) for i in range(cycle)]
    for v in range(len(color), nv):
        parent = draw(st.integers(0, v - 1))
        color.append(1 - color[parent])
        edges.append((parent, v))
    positive = draw(st.integers(0, 1))
    genus_vertex = draw(st.none() | st.integers(0, nv - 1))
    return RegionGraph(
        [(v, 1 if c == positive else -1, int(v == genus_vertex)) for v, c in enumerate(color)],
        edges,
    )


def swap_two_edges(g, i, j):
    """Exchange the negative ends of two edges: degrees, signs and genera
    stay, the shape may not; ``None`` when the result is invalid."""
    edges = list(g.edges)
    (a, b), (c, d) = edges[i], edges[j]
    vertices = by_id(g)
    if vertices[a].sign < 0:
        a, b = b, a
    if vertices[c].sign < 0:
        c, d = d, c
    edges[i], edges[j] = (a, d), (c, b)
    try:
        return RegionGraph(g.vertices, edges)
    except InvalidRegionGraphError:
        return None


@st.composite
def graph_pairs(draw):
    """A relabeled pair: a graph with itself, with a degree-preserving edge
    swap of itself, or with an independent graph."""
    a = draw(small_graphs())
    kind = draw(st.sampled_from(["same", "swapped", "independent"]))
    b = a
    if kind == "independent":
        b = draw(small_graphs())
    elif kind == "swapped":
        swaps = [
            h
            for i in range(a.edge_count)
            for j in range(i + 1, a.edge_count)
            if (h := swap_two_edges(a, i, j)) is not None and h.edges != a.edges
        ]
        if swaps:
            b = draw(st.sampled_from(swaps))
    images = draw(st.permutations(range(b.vertex_count)))
    return a, relabeled(b, dict(zip(b.vertex_ids, images)))


class TestCanonicalFormProperty:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(graph_pairs())
    def test_agrees_with_bijection_search(self, pair):
        a, b = pair
        for mode in (False, True):
            assert (canonical_code(a, mode) == canonical_code(b, mode)) == (
                brute_force_isomorphic(a, b, mode)
            )

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(small_graphs())
    def test_code_modulo_swap_is_the_least_of_the_two_colorings(self, g):
        negated = RegionGraph([(v.id, -v.sign, v.genus) for v in g.vertices], g.edges)
        assert canonical_code(g, True) == min(canonical_code(g), canonical_code(negated))
        assert canonical_code(negated, True) == canonical_code(g, True)
