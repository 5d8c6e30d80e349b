"""Class builders and referees shared by the test modules.

``farey_products`` reads the products r and s of the solid-torus count
off the Farey graph, with no continued fraction, and must not call
``bcontact.counting``, which it referees.
``enumerated_records`` and ``table_rows`` referee the classification
table: the rows of ``classify`` of every enumerated class, built field by
field, without ``table_classes``.
"""

from itertools import groupby

from bcontact.classify import classify, leaf_census
from bcontact.enumeration import enum_equicolored_trees, enum_torus_classes
from bcontact.region_graph import RegionGraph, canonical_code
from bcontact.surfaces import DividingSetClass, Surface, region_euler


def sphere_class(signs, edges):
    """A sphere class on genus-0 regions ``0..len(signs)-1``."""
    g = RegionGraph([(i, s, 0) for i, s in enumerate(signs)], edges)
    return DividingSetClass(Surface.SPHERE, g)


def torus_cycle(length, slope=(1, 1)):
    """A bare ring of ``length`` essential curves of the given slope."""
    signs = [1 if i % 2 == 0 else -1 for i in range(length)]
    edges = [(0, 1), (0, 1)] if length == 2 else [
        (i, (i + 1) % length) for i in range(length)
    ]
    g = RegionGraph([(i, s, 0) for i, s in enumerate(signs)], edges)
    return DividingSetClass(Surface.TORUS, g, slope)


def total_euler(d):
    """Sum of per-region Euler characteristics over all regions.

    For every embeddable class this reproduces the Euler characteristic
    of the closed surface: 2 on the sphere, 0 on the torus.
    """
    g = d.graph
    return sum(region_euler(v.genus, g.degrees[v.id]) for v in g.vertices)


def farey_products(p, q):
    """The pair (r, s) of the count N(n, -p, q) = C_n ((r - s) n + s), from
    the Farey graph (Honda 2000, "On the classification of tight contact
    structures I", Theorem 2.3): N(1, -p, q) = r.

    Walk the shortest path of increasing slopes from -p/q to -1, each step
    to the largest Farey neighbour that is at most -1, and split its edges
    into blocks along which the step vector stays constant.  r is the
    product of (block length + 1); s is the same product with the block at
    -p/q contributing its length instead.  p = q = 1 gives the empty path
    and r = s = 1.
    """
    path = [(q, -p)]  # each slope c/d as the vector (d, c), d > 0
    while path[-1] != (1, -1):
        b, a = path[-1]
        # A Farey neighbour c/d has a d - b c = +-1; the largest one above
        # a/b has the least denominator, so d <= b.
        best = None
        for d in range(1, b + 1):
            for det in (1, -1):
                c, rem = divmod(a * d - det, b)
                above = a * d < b * c <= -b * d
                if rem == 0 and above and (best is None or c * best[0] > best[1] * d):
                    best = (d, c)
        path.append(best)
    steps = [(d1 - d0, c1 - c0) for (d0, c0), (d1, c1) in zip(path, path[1:])]
    r = s = 1
    for i, (_, block) in enumerate(groupby(steps)):
        length = len(list(block))
        r *= length + 1
        s *= length if i == 0 else length + 1
    return r, s


def enumerated_records(m, max_curves, max_p=1, modulo_swap=False):
    """``classify`` of every class the enumerators list with at most
    ``max_curves`` curves (and, on the torus, slopes up to ``max_p``), in
    the table's row order: by canonical code, then slope."""
    if m is Surface.SPHERE:
        classes = [
            DividingSetClass(Surface.SPHERE, g)
            for n in range(1, (max_curves + 1) // 2 + 1)
            for g in enum_equicolored_trees(n, modulo_swap)
        ]
    else:
        classes = enum_torus_classes(max_curves, max_p, modulo_swap)
    classes.sort(key=lambda d: (canonical_code(d.graph, modulo_swap), d.slope or ()))
    return [classify(m, d) for d in classes]


def table_rows(records, modulo_swap=False):
    """Table rows built field by field from each record, as dicts."""
    rows = []
    for record in records:
        d = record.dividing_set
        census = leaf_census(d.surface, d)
        rows.append({
            "canonical_code": canonical_code(d.graph, modulo_swap),
            "surface": d.surface.value,
            "V": d.graph.vertex_count,
            "E": d.graph.edge_count,
            "slope_p": d.slope[0] if d.slope else None,
            "slope_q": d.slope[1] if d.slope else None,
            "tight_count": record.tight.finite_factor,
            "mixed_finite": record.mixed.finite_factor,
            "mixed_rank": record.mixed.free_rank,
            "ot_finite": record.fully_overtwisted.finite_factor,
            "ot_rank": record.fully_overtwisted.free_rank,
            "leaves_3": census.leaves_dim3,
            "leaves_2": census.leaves_dim2,
            "leaves_1": census.leaves_dim1,
        })
    return rows
