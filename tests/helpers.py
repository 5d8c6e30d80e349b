"""Class builders and referees shared by the test modules.

``tight_count_by_fractions`` is a second implementation of the solid-torus
count and must not import ``bcontact.counting``, which it referees.
"""

from fractions import Fraction
from math import comb, floor

from bcontact.region_graph import RegionGraph
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
