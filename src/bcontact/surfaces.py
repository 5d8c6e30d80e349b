"""Surfaces, b-manifolds, and dividing-set classes.

A dividing-set class binds a region graph to the closed surface it lives
on.  The two surfaces in scope split the three-sphere into two pieces:
the equatorial sphere into two balls, the unknotted torus into two solid
tori.  The ambient manifold is always the three-sphere, so a b-manifold
is named by its critical surface alone: ``S3_S2`` is ``Surface.SPHERE``
and ``S3_T2`` is ``Surface.TORUS``.  Embeddability is a per-surface
shape constraint on the graph:

* sphere: the graph is a tree and every region is planar (genus 0);
* torus, no essential curves: still a tree, but exactly one region
  carries the genus of the torus;
* torus, essential curves: the graph has exactly one cycle (the ring of
  essential curves, possibly with trees of contractible curves attached),
  every region is planar, and the common homology class of the essential
  curves is a normalized slope (p, q), coprime with 0 < q <= p.

``region_euler`` gives a region's Euler characteristic (chi = 2 - 2g - b
for a genus-g region with b boundary curves); the regions of a class add
up to the Euler characteristic of the closed surface, a conservation law
the suite checks on everything the enumerator produces.
"""

from __future__ import annotations

import enum
from collections import namedtuple

# Violation (region_graph) names a type in annotations only, which are
# never evaluated: region_graph is imported only to report a violation,
# and counting only to check a slope.


class Surface(enum.Enum):
    SPHERE = "sphere"
    TORUS = "torus"


S3_S2 = Surface.SPHERE
S3_T2 = Surface.TORUS


class DividingSetClass(namedtuple("DividingSetClass", ["surface", "graph", "slope"])):
    """Isotopy class of a dividing set: surface, region graph, optional
    slope.  ``surface`` is coerced to a ``Surface`` (``ValueError`` for
    an unknown one).  Making a class that does not embed in its surface
    raises ``InvalidRegionGraphError`` with ``check_embeddable``'s
    violation."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, surface, graph, slope=None):
        self = super().__new__(cls, Surface(surface), graph, slope)
        violation = check_embeddable(self)
        if violation is not None:
            from .region_graph import _raise_on

            _raise_on(violation)
        return self


def region_euler(genus: int, boundary_count: int) -> int:
    """Euler characteristic 2 - 2*genus - boundary_count of a compact region."""
    if boundary_count < 1:
        raise ValueError("a region of a cut surface has at least one boundary curve")
    return 2 - 2 * genus - boundary_count


def check_embeddable(d: DividingSetClass) -> Violation | None:
    """The first per-surface rule a dividing-set class breaks; ``None`` if
    the class embeds.  Its graph is valid by construction."""
    broken = _broken_rule(d)
    if broken is None:
        return None
    from .region_graph import Violation

    return Violation(*broken)


def _broken_rule(d: DividingSetClass) -> tuple[str, str] | None:
    """``check_embeddable``'s rule and detail, as a pair."""
    g = d.graph
    if g.edge_count == 0:
        return "no curves", "a dividing set has at least one curve"

    is_tree = g.edge_count == g.vertex_count - 1

    if d.surface is Surface.SPHERE:
        if not is_tree:
            return "sphere requires tree", "sphere region graphs are trees"
        if g.genus_sum != 0:
            return "genus", "sphere regions are all genus 0"
        if d.slope is not None:
            return "slope", "sphere classes carry no slope"
        return None

    if is_tree:
        if g.genus_sum != 1:
            return "genus", "a torus cut by contractible curves has one genus-1 region"
        if d.slope is not None:
            return "slope", "contractible-only torus classes carry no slope"
        return None

    # Exactly one cycle: the essential curves.
    if g.genus_sum != 0:
        return "genus", "torus classes with essential curves are all genus 0"
    if d.slope is None:
        return "slope", "essential torus curves require a slope (p, q)"
    from .counting import slope_error

    error = slope_error(*d.slope)
    return None if error is None else ("slope", error)
