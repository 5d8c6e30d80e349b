"""Class builders and referees shared by the test modules.

``tight_count_by_fractions`` is a second implementation of the solid-torus
count and must not call ``bcontact.counting``, which it referees.
``enumerated_records`` and ``table_rows`` referee the classification
table: the rows of ``classify`` of every enumerated class, built field by
field, without ``table_classes``.
"""

from fractions import Fraction
from math import comb, floor

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


def tight_count_by_fractions(n, p, q):
    """Second implementation of the solid-torus count N(n, -p, q), via Fractions."""
    x = Fraction(-p, q)
    coefficients = []
    while True:
        a = floor(x)
        coefficients.append(a)
        if a == x:
            break
        x = 1 / (a - x)
    if coefficients == [-1]:
        r = s = 1
    else:
        prefix = 1
        for a in coefficients[:-1]:
            prefix *= a + 1
        r = abs(prefix * coefficients[-1])
        s = abs(prefix * (coefficients[-1] + 1))
    return (comb(2 * n, n) // (n + 1)) * ((r - s) * n + s)


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
