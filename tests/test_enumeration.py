"""Generator output: counts, admissibility, uniqueness, stability."""

import hashlib

import pytest

from bcontact import enumeration, region_graph
from bcontact.admissibility import euler_pairing, is_admissible
from bcontact.classify import table_classes
from bcontact.enumeration import (
    CURVE_CAP,
    TREE_CAP,
    _SPHERE_CLASSES,
    _TORUS_RINGS,
    _TORUS_TREES,
    TABLE_ROW_CAP,
    ResourceLimitError,
    _coloring,
    _tree_edges,
    _vertices,
    enum_equicolored_trees,
    enum_torus_classes,
    enum_torus_rows,
    enum_tree_rows,
    torus_count,
    torus_request,
    tree_count,
)
from bcontact.region_graph import RegionGraph, canonical_code, codes_of, validate
from bcontact.surfaces import S3_S2, S3_T2, DividingSetClass, Surface

from helpers import (
    all_torus_candidates,
    enum_torus_graphs,
    free_trees,
    key_code,
    skeleton_edges,
    torus_codes,
    twin_image,
)
from oracle import oracle_count_trees
from polya import sphere_counts, torus_counts


# The sha256 of ``repr`` of each order's sorted edge lists, in the
# generator's order, recorded after checking them against
# ``networkx.nonisomorphic_trees`` (networkx 3.6.1).
NETWORKX_TREE_DIGESTS = {
    2: "262e139c97fa9ad965ee0eaa13a415ec8fa0318f3f68c057eb2e1b495650c873",
    3: "69eecba2ab685ff82cc0d8952676b9a678881d7804fb50eb22122b2a6bb9437c",
    4: "80a2633e4aa24567f60f5e512f932d9934ef2bfcab748375a7221547bb2763de",
    5: "4825ba724c2c0ddb97518445b72ab443ed5b60d5dc7336dc0319e245dba670d1",
    6: "afa729df39c9c2521469f50706adbf3c32962b4b2a95ee7d9c7da1b554811b67",
    7: "1cbdec136ed4e25d228643d5bfaa33e6a969a0607f47e71f9a6c338fbcd5ce4a",
    8: "dc8f0987d52578624e0a2e39e47f001a03b4c72df3cb65ea2359f7263a822e18",
    9: "cb40eda11b2c2eeb3ba217e79c9e0a46d489e59ce7753b5e1bbee286de6d7aa1",
    10: "d339c8d5da115221df34900becae5e68587d645fe56965ad9acf05317cd2a4b3",
    11: "15a450abe35c5cd61bb3a72077caa63446b94064e58c5c2118832d817238d21b",
    12: "2926eef034a7da0ea9296749c6be7114c21c1823949d6a490043803ed9091cdd",
}


def _colored_graph(layout, edges, positive, genus_vertex=None):
    """A generator candidate built by the public constructor."""
    return RegionGraph(_vertices(_coloring(layout, positive, genus_vertex)), edges)


class TestTreeCounts:
    def test_published_sequence(self):
        assert [len(enum_equicolored_trees(n)) for n in range(1, 6)] == [1, 1, 4, 14, 65]

    def test_swap_identified_sequence(self):
        # One class per balanced unlabeled tree once the orientations merge.
        assert [len(enum_equicolored_trees(n, True)) for n in range(1, 6)] == [1, 1, 3, 9, 37]

    def test_generator_matches_oracle_small(self):
        for n in (1, 2, 3, 4):
            for mode in (False, True):
                assert len(enum_equicolored_trees(n, mode)) == oracle_count_trees(n, mode)

    def test_free_tree_skeletons_match_oeis_a000055(self):
        # Unlabeled free trees on 2..14 vertices.
        expected = [1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
        assert [sum(1 for _ in free_trees(order)) for order in range(2, 15)] == expected

    def test_free_trees_number_vertices_like_networkx(self):
        # The first graph per class is the printed representative, so the
        # skeletons must keep networkx's order and vertex numbering: each
        # order's sorted edge lists hash as networkx 3.6.1's
        # nonisomorphic_trees did, and match the installed networkx, if any.
        try:
            import networkx as nx
        except ImportError:
            nx = None
        for order, digest in NETWORKX_TREE_DIGESTS.items():
            ours = [sorted(_tree_edges(layout)) for layout in free_trees(order)]
            assert hashlib.sha256(repr(ours).encode()).hexdigest() == digest, order
            if nx is not None:
                theirs = [
                    sorted(tuple(sorted(e)) for e in tree.edges())
                    for tree in nx.nonisomorphic_trees(order)
                ]
                assert ours == theirs, order

    def test_polya_otter_counts(self):
        # Otter's dissimilarity theorem, and Burnside for the swap.
        assert sphere_counts(8, False) == [1, 1, 4, 14, 65, 316, 1742, 10079]
        assert sphere_counts(8, True) == [1, 1, 3, 9, 37, 168, 895, 5097]
        for mode in (False, True):
            assert [
                len(enum_equicolored_trees(n, mode)) for n in range(1, 9)
            ] == sphere_counts(8, mode)

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            enum_equicolored_trees(11)
        with pytest.raises(ValueError):
            enum_equicolored_trees(0)


@pytest.mark.parametrize(
    "enumerate_, args",
    [
        (enum_equicolored_trees, (2.0,)),
        (enum_equicolored_trees, (True,)),
        (enum_tree_rows, ("3",)),
        (tree_count, ("3",)),
        (enum_torus_graphs, (3.0,)),
        (enum_torus_rows, (True,)),
        (enum_torus_classes, (2, 1.5)),
        (enum_torus_classes, (True, True)),
        (torus_count, (4, 2.0)),
        (table_classes, (S3_S2, 3.0)),
        (table_classes, (S3_T2, 4, 2.0)),
    ],
    ids=lambda x: repr(x) if isinstance(x, tuple) else x.__name__,
)
def test_sizes_that_are_not_ints_are_rejected(enumerate_, args):
    # A float equal to an int, a string or a bool is no size: each is
    # refused before any work, as counting refuses them.
    with pytest.raises(ValueError, match="is not an integer"):
        enumerate_(*args)


class TestTreeOutputQuality:
    def test_items_valid_admissible_and_distinct(self):
        for mode in (False, True):
            for n in (1, 2, 3, 4):
                graphs = enum_equicolored_trees(n, mode)
                codes = [canonical_code(g, mode) for g in graphs]
                assert len(set(codes)) == len(graphs)
                for g in graphs:
                    assert validate(g) is None
                    assert is_admissible(S3_S2, DividingSetClass(Surface.SPHERE, g))

    def test_sorted_by_code_and_stable(self):
        first = enum_equicolored_trees(4)
        second = enum_equicolored_trees(4)
        codes = [canonical_code(g) for g in first]
        assert codes == sorted(codes)
        assert [g.edges for g in first] == [g.edges for g in second]
        assert [g.vertices for g in first] == [g.vertices for g in second]


class TestGeneratedGraphsAreValid:
    """A library graph is made by ``RegionGraph``'s constructor, which
    checks it, and coded by the peel, as any graph is.  So building every
    listed class refutes an invalid row, and comparing the peel's codes
    with the rows' referees the level-sequence coders on each class."""

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_every_emitted_graph_is_valid(self, modulo_swap):
        rows = [row for n in range(1, 9) for row in enum_tree_rows(n, modulo_swap)]
        rows += enum_torus_rows(10, modulo_swap)
        graphs = [g for n in range(1, 9) for g in enum_equicolored_trees(n, modulo_swap)]
        graphs += enum_torus_graphs(10, modulo_swap)
        trees, cycles = torus_counts(10, modulo_swap)
        assert len(graphs) == sum(sphere_counts(8, modulo_swap)) + sum(trees) + sum(cycles)
        assert [g for g in graphs if validate(g) is not None] == []
        assert [canonical_code(g, modulo_swap) for g in graphs] == [row[0] for row in rows]


class TestTorusClasses:
    def test_contains_bare_two_cycle_with_unit_slope(self):
        classes = enum_torus_classes(2, 1)
        bare = [
            d
            for d in classes
            if d.slope == (1, 1) and d.graph.vertex_count == 2 and d.graph.edge_count == 2
        ]
        assert len(bare) == 1

    def test_two_region_bare_trees_excluded(self):
        # The genus region and the disk differ by two in Euler characteristic.
        for d in enum_torus_classes(2, 1):
            assert d.graph.vertex_count != 2 or d.graph.edge_count != 1

    def test_bare_four_cycles_with_both_slopes(self):
        classes = enum_torus_classes(4, 2)
        four_cycles = [
            d.slope
            for d in classes
            if d.graph.edge_count == 4
            and all(deg == 2 for deg in d.graph.degrees.values())
        ]
        assert sorted(four_cycles) == [(1, 1), (2, 1)]

    def test_items_valid_embeddable_admissible_distinct(self):
        classes = enum_torus_classes(6, 2)
        keys = set()
        for d in classes:
            assert validate(d.graph) is None
            assert is_admissible(S3_T2, d)
            key = (canonical_code(d.graph), d.slope)
            assert key not in keys
            keys.add(key)

    def test_stable_output(self):
        a = enum_torus_classes(5, 2)
        b = enum_torus_classes(5, 2)
        assert [(d.graph.vertices, d.graph.edges, d.slope) for d in a] == [
            (d.graph.vertices, d.graph.edges, d.slope) for d in b
        ]

    def test_polya_counts_per_size_and_shape(self):
        # Genus-1 trees from the rooted series, unicyclic classes by Polya
        # over the dihedral group of the cycle.
        assert torus_counts(12, False) == (
            [0, 2, 0, 8, 0, 36, 0, 196, 0, 1152, 0, 7280],
            [0, 1, 0, 4, 0, 18, 0, 102, 0, 616, 0, 4034],
        )
        assert torus_counts(12, True)[1] == [0, 1, 0, 3, 0, 11, 0, 56, 0, 320, 0, 2049]
        for mode in (False, True):
            trees = [0] * 10
            cycles = [0] * 10
            for d in enum_torus_classes(10, 1, mode):
                g = d.graph
                (cycles if g.edge_count == g.vertex_count else trees)[g.edge_count - 1] += 1
            assert (trees, cycles) == torus_counts(10, mode)

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    def test_recorded_counts_are_the_polya_counts(self, modulo_swap):
        # The counts a table's size is taken from, up to the caps.
        trees, rings = torus_counts(CURVE_CAP, modulo_swap)
        assert list(_SPHERE_CLASSES[modulo_swap]) == sphere_counts(TREE_CAP, modulo_swap)
        assert list(_TORUS_TREES[modulo_swap]) == trees[1::2]
        assert list(_TORUS_RINGS[modulo_swap]) == rings[1::2]
        # A torus class has an even number of curves.
        assert not any(trees[::2] + rings[::2])

    def test_resource_guards(self):
        with pytest.raises(ResourceLimitError):
            enum_torus_classes(99, 1)
        with pytest.raises(ResourceLimitError):
            enum_torus_classes(2, 10**6)
        with pytest.raises(ValueError):
            enum_torus_classes(0, 1)


class TestCaps:
    """The caps are the recorded counts' extents, and the row cap refuses a
    library torus listing before any class is made."""

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    def test_caps_are_the_recorded_extents(self, modulo_swap):
        assert TREE_CAP == len(_SPHERE_CLASSES[modulo_swap])
        assert CURVE_CAP == 2 * len(_TORUS_TREES[modulo_swap])
        assert CURVE_CAP == 2 * len(_TORUS_RINGS[modulo_swap])
        # So no sphere listing (enum-trees, enum_equicolored_trees) needs a
        # row check.
        assert tree_count(TREE_CAP, modulo_swap) <= TABLE_ROW_CAP

    @pytest.mark.parametrize("max_curves,rows", [(10, 14782862), (16, 4508533366)])
    def test_torus_classes_refuse_past_the_row_cap(self, monkeypatch, max_curves, rows):
        def never(*args, **kwargs):
            raise AssertionError("a class was enumerated")

        monkeypatch.setattr(enumeration, "enum_torus_rows", never)
        with pytest.raises(ResourceLimitError) as refusal:
            enum_torus_classes(max_curves, 256)
        assert str(refusal.value) == f"listing capped at 4000000 rows, got {rows}"

    @pytest.mark.parametrize("spare", [0, -1], ids=["at-cap", "one-over"])
    def test_row_cap_counts_classes_exactly(self, monkeypatch, spare):
        classes = enum_torus_classes(6, 3)
        monkeypatch.setattr(enumeration, "TABLE_ROW_CAP", len(classes) + spare)
        if spare == 0:
            assert enum_torus_classes(6, 3) == classes
            return
        with pytest.raises(ResourceLimitError) as refusal:
            enum_torus_classes(6, 3)
        rows = len(classes)
        assert str(refusal.value) == f"listing capped at {rows - 1} rows, got {rows}"


class TestTorusGraphs:
    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_classes_are_the_per_slope_expansion_of_the_graphs(self, modulo_swap):
        graphs = enum_torus_graphs(7, modulo_swap)
        assert isinstance(graphs, list)
        codes = [canonical_code(g, modulo_swap) for g in graphs]
        assert codes == sorted(set(codes))
        slopes = [(1, 1), (2, 1), (3, 1), (3, 2), (4, 1), (4, 3)]
        expected = [
            (g, slope)
            for g in graphs
            for slope in (slopes if g.edge_count == g.vertex_count else [None])
        ]
        classes = enum_torus_classes(7, 4, modulo_swap)
        assert [(d.graph, d.slope) for d in classes] == expected
        assert all(d.surface is Surface.TORUS for d in classes)

    def test_graph_slopes(self):
        # The two-curve ring and a genus-1 tree on three regions.
        ring, tree = enum_torus_rows(2)[:2]
        assert (ring[0], tree[0]) == ("C2(+0)(-0)", "T(+0(-0)(-1))")
        # Two trees, and the ring at each slope.
        assert torus_request(2, 3) == (2 + 4, ((1, 1), (2, 1), (3, 1), (3, 2)))

    def test_slope_cap_fires_before_enumeration(self, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("enumeration ran before the cap check")

        monkeypatch.setattr(enumeration, "_torus_candidates", never)
        with pytest.raises(ResourceLimitError, match="slope bound"):
            enum_torus_classes(4, 257)
        with pytest.raises(ResourceLimitError, match="16 curves"):
            enum_torus_classes(17, 1)


def _counted_balance(g):
    """2 (P - N) - 2 sum sign * genus, counted from the vertices."""
    positive = sum(1 for v in g.vertices if v.sign > 0)
    negative = g.vertex_count - positive
    return 2 * (positive - negative) - 2 * sum(v.sign * v.genus for v in g.vertices)


class TestTorusBalanceGate:
    def test_layout_condition_is_exactly_admissibility(self):
        # Every ungated torus candidate on up to nine regions: the Euler
        # pairing is the counted balance, and the level-sequence condition
        # that gates enumeration accepts exactly the admissible candidates.
        checked = 0
        for nv in range(2, 10):
            for layout in free_trees(nv):
                odd = sum(level & 1 for level in layout)
                edges = _tree_edges(layout)
                for positive in (0, 1):
                    for genus_vertex in range(nv):
                        g = _colored_graph(layout, edges, positive, genus_vertex)
                        d = DividingSetClass(Surface.TORUS, g, None)
                        gated_in = (
                            abs(nv - 2 * odd) == 1
                            and layout[genus_vertex] & 1 == int(2 * odd > nv)
                        )
                        assert euler_pairing(d) == _counted_balance(g)
                        assert bool(is_admissible(S3_T2, d)) == gated_in, (
                            layout, positive, genus_vertex
                        )
                        checked += 1
                    for u in range(nv):
                        for v in range(u + 1, nv):
                            if layout[u] & 1 == layout[v] & 1:
                                continue
                            g = _colored_graph(layout, edges + [(u, v)], positive)
                            d = DividingSetClass(Surface.TORUS, g, (1, 1))
                            assert euler_pairing(d) == _counted_balance(g)
                            assert bool(is_admissible(S3_T2, d)) == (2 * odd == nv), (
                                layout, u, v
                            )
                            checked += 1
        assert checked == 4310


class TestArrayCodes:
    def test_array_codes_match_built_graphs(self, monkeypatch):
        # Every skeleton the generators code on up to nine regions, in both
        # shapes and sign modes: each coloring's array code is the code of
        # the same graph built by the public constructor.
        tried = []
        real_genus_codes, real_ring_codes = enumeration._genus_codes, enumeration._ring_codes

        def recording_genus(layout, genus_vertex):
            codes = real_genus_codes(layout, genus_vertex)
            tried.append((layout, skeleton_edges(layout, None), genus_vertex, codes))
            return codes

        def recording_ring(layout, u, v):
            codes = real_ring_codes(layout, u, v)
            tried.append((layout, skeleton_edges(layout, (u, v)), None, codes))
            return codes

        real_sphere_trees = enumeration._sphere_trees

        def recording_trees(order, odd=None, edges=False):
            for layout, codes, ranks in real_sphere_trees(order, odd, edges):
                read = codes
                if edges:
                    # Keys in place of codes, read back; a unicentral tree's
                    # key with odd levels positive is its other after sign byte 1.
                    keys = codes if len(codes) == 2 else (codes[0], b"\1" + codes[0][1:])
                    read = tuple(map(key_code, keys))
                tried.append((layout, skeleton_edges(layout, None), None, read))
                yield layout, codes, ranks

        monkeypatch.setattr(enumeration, "_genus_codes", recording_genus)
        monkeypatch.setattr(enumeration, "_ring_codes", recording_ring)
        monkeypatch.setattr(enumeration, "_sphere_trees", recording_trees)
        emitted = []
        for mode in (False, True):
            emitted += [g for n in (1, 2, 3, 4) for g in enum_equicolored_trees(n, mode)]
            emitted += [d.graph for d in enum_torus_classes(8, 1, mode)]
            for n in (1, 2, 3, 4):
                enumeration.enum_tree_rows(n, mode, edges=True)
        for layout, edges, genus_vertex, codes in tried:
            for positive in (0, 1):
                g = _colored_graph(layout, edges, positive, genus_vertex)
                assert codes[positive] == canonical_code(g), (layout, edges, positive)
                assert min(codes) == canonical_code(g, True), (layout, edges, positive)
        # Per mode: 1 + 1 + 3 + 9 balanced trees, coded and keyed, and the
        # 244 gated torus skeletons the twin skip leaves of 352.
        assert len(tried) == 2 * (2 * 14 + 244)

        # Graphs are built only for emitted classes, each by the checking
        # constructor, and a rebuild of one equals it and codes as it does.
        assert len(emitted) == (1 + 1 + 4 + 14) + (1 + 1 + 3 + 9) + 367 + 192
        for g in emitted:
            assert validate(g) is None
            fresh = RegionGraph(g.vertices, g.edges)
            assert (fresh.vertices, fresh.edges) == (g.vertices, g.edges)
            for mode in (False, True):
                assert canonical_code(g, mode) == canonical_code(fresh, mode)


def _peeled(layout, closing, genus_vertex):
    """``codes_of`` on a candidate's edges, with even levels positive."""
    adj = [[] for _ in layout]
    for a, b in _tree_edges(layout) + ([closing] if closing else []):
        adj[a].append(b)
        adj[b].append(a)
    tags = [
        ("+" if level % 2 == 0 else "-") + str(int(v == genus_vertex))
        for v, level in enumerate(layout)
    ]
    return codes_of(adj, tags)


class TestRingCodes:
    """Generated rings are coded from their skeleton's level sequence and
    the candidates a twin swap moves to earlier ones are skipped; the peel
    and the full candidate stream referee both."""

    def test_skeleton_coder_matches_the_peel_on_every_ring_candidate(self):
        # Every gated ring candidate up to 12 curves, before the twin skip.
        checked = 0
        for layout, closing, genus_vertex in all_torus_candidates(12):
            if closing is not None:
                codes = torus_codes(layout, closing, None)
                assert codes == _peeled(layout, closing, None), (layout, closing)
                checked += 1
        assert checked == 7_149

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_twin_skip_keeps_every_row(self, modulo_swap):
        full = enumeration._class_rows(all_torus_candidates(12), modulo_swap)
        assert enum_torus_rows(12, modulo_swap) == full

    def test_each_skipped_candidate_codes_as_its_twin_image(self):
        kept = set(enumeration._torus_candidates(12))
        order = {}  # each candidate's place in the full stream
        skipped = []
        for candidate in all_torus_candidates(12):
            order[candidate] = len(order)
            if candidate not in kept:
                skipped.append(candidate)
        rings = sum(1 for _, closing, _ in skipped if closing is not None)
        assert (rings, len(skipped) - rings) == (7_149 - 4_817, 5_819 - 4_337)
        for candidate in skipped:
            image = twin_image(*candidate)
            # An earlier candidate of the same skeleton, with the same codes.
            assert order[image] < order[candidate], candidate
            assert torus_codes(*image) == torus_codes(*candidate), candidate

    def test_candidate_counts(self):
        # Ring candidates, then genus candidates, after the twin skip.
        for max_curves, expected in [(10, (736, 697)), (14, (34_259, 28_353))]:
            rings = trees = 0
            for _, closing, _ in enumeration._torus_candidates(max_curves):
                if closing is None:
                    trees += 1
                else:
                    rings += 1
            assert (rings, trees) == expected

    def test_torus_walk_visits_each_order_once(self, monkeypatch):
        # One walk of the free trees per order serves both shapes: orders 2
        # to 11 for 10 curves.
        orders = []
        real_walk = enumeration._walk

        def counted(order, odd=None):
            orders.append(order)
            return real_walk(order, odd)

        monkeypatch.setattr(enumeration, "_walk", counted)
        list(enumeration._torus_candidates(10))
        assert orders == list(range(2, 12))

    @pytest.mark.parametrize("modulo_swap", [False, True], ids=["signs", "swap"])
    @pytest.mark.parametrize("max_curves", [10, 12])
    def test_a_coloring_is_made_only_for_a_first_seen_code(
        self, monkeypatch, max_curves, modulo_swap
    ):
        # Every coloring made is a listed row's: none is made for a code
        # that an earlier candidate already gave.
        made = []
        real_coloring = enumeration._coloring

        def counted(*args):
            made.append(args)
            return real_coloring(*args)

        monkeypatch.setattr(enumeration, "_coloring", counted)
        rows = enum_torus_rows(max_curves, modulo_swap)
        assert len(made) == len(rows) == len({row[0] for row in rows})

    @pytest.mark.parametrize("modulo_swap", [False, True])
    def test_torus_rows_reach_no_peel(self, monkeypatch, modulo_swap):
        expected = enumeration.enum_torus_rows(10, modulo_swap)

        def never(*args):
            raise AssertionError("a generated class reached the peel")

        monkeypatch.setattr(region_graph, "codes_of", never)
        monkeypatch.setattr(region_graph, "_peel", never)
        assert enumeration.enum_torus_rows(10, modulo_swap) == expected
        # A graph from input is still peeled.
        ring = RegionGraph([(0, 1, 0), (1, -1, 0)], [(0, 1), (0, 1)])
        with pytest.raises(AssertionError, match="peel"):
            canonical_code(ring)
