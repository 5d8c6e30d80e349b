"""Classification of b-contact structures for an admissible dividing set.

For each admissible class the record reports three regimes, each as the
shape of its parameter space: a finite factor (number of discrete
choices, 0 when the regime is impossible) and the rank of a free abelian
family.

Sphere, connected dividing set: one tight structure; tight-on-one-side
structures are a sign choice times an integer; fully overtwisted
structures form a Z + Z family.  Sphere, disconnected dividing set: only
the fully overtwisted regime survives (contractible curves force
overtwisted disks on both sides).

Torus, bare cycle of 2n essential curves of slope (p, q): each solid
torus side can be filled tightly in N(n, -p, q) ways or overtwistedly in
a Z^2 family, giving 2 N tight structures, 2 N x Z^2 mixed ones, and a
Z^2 + Z^2 fully overtwisted family.  Any contractible curve again kills
all but the fully overtwisted regime.

The census of the associated singular foliation is immediate from the
graph: two maximal-dimension leaves (the complement of the critical
surface), one two-dimensional leaf per region, one one-dimensional leaf
per curve.

So only a bare cycle's record depends on the slope, and only through its
tight count.  The batch table is therefore built per graph class, and
that is its only form (``table_classes``): each graph class is
classified once, at its first slope, and carries its code and its slopes
in runs sharing (tight, mixed, fully overtwisted) regimes, the tight
count of a bare cycle computed once per slope.
"""

from __future__ import annotations

from collections import namedtuple

from .admissibility import is_admissible, tight_shape
from .counting import TightCountResult, tight_count_solid_torus
from .region_graph import RegionGraph, canonical_code
from .surfaces import DividingSetClass, Surface

# Slopes (enumeration) names a type in annotations only, which are never
# evaluated; ``table_classes`` imports the enumerator when it runs, so
# ``classify`` and ``census`` calls do not load it.


class InadmissibleError(ValueError):
    """Raised when classifying a dividing set no b-contact structure induces."""


class RegimeDescriptor(namedtuple("RegimeDescriptor", ["finite_factor", "free_rank"])):
    """Parameter-space shape of one regime: discrete choices x free rank."""

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, finite_factor, free_rank):
        self = super().__new__(cls, finite_factor, free_rank)
        if self.finite_factor == 0 and self.free_rank != 0:
            raise ValueError("an impossible regime has no free parameters")
        return self


class LeafCensus(namedtuple("LeafCensus", ["leaves_dim3", "leaves_dim2", "leaves_dim1"])):
    __slots__ = ()


class ClassificationRecord(namedtuple("ClassificationRecord", [
    "dividing_set", "tight", "mixed", "fully_overtwisted", "tight_count_detail",
], defaults=(None,))):
    __slots__ = ()


def _require_admissible(m: Surface, d: DividingSetClass) -> None:
    verdict = is_admissible(m, d)
    if not verdict:
        raise InadmissibleError(verdict.reason)


def classify(m: Surface, d: DividingSetClass) -> ClassificationRecord:
    """Full classification record of b-contact structures inducing ``d``."""
    _require_admissible(m, d)
    tight_candidate = tight_shape(d)

    if d.surface is Surface.SPHERE:
        if tight_candidate:
            return ClassificationRecord(
                d,
                tight=RegimeDescriptor(1, 0),
                mixed=RegimeDescriptor(2, 1),
                fully_overtwisted=RegimeDescriptor(1, 2),
            )
        return ClassificationRecord(
            d,
            tight=RegimeDescriptor(0, 0),
            mixed=RegimeDescriptor(0, 0),
            fully_overtwisted=RegimeDescriptor(1, 2),
        )

    if tight_candidate:
        return _bare_cycle_record(d)
    return ClassificationRecord(
        d,
        tight=RegimeDescriptor(0, 0),
        mixed=RegimeDescriptor(0, 0),
        fully_overtwisted=RegimeDescriptor(1, 4),
    )


def _bare_cycle_record(d: DividingSetClass) -> ClassificationRecord:
    """The record of an admissible bare cycle, whose regimes depend on the
    slope only through the solid-torus tight count."""
    p, q = d.slope
    detail = tight_count_solid_torus(d.graph.edge_count // 2, p, q)
    return ClassificationRecord(d, *_bare_cycle_regimes(detail), detail)


def _bare_cycle_regimes(
    detail: TightCountResult,
) -> tuple[RegimeDescriptor, RegimeDescriptor, RegimeDescriptor]:
    """Tight, mixed and fully overtwisted regimes of a bare cycle whose
    solid-torus sides have ``detail.count`` tight fillings each."""
    return (
        RegimeDescriptor(2 * detail.count, 0),
        RegimeDescriptor(2 * detail.count, 2),
        RegimeDescriptor(1, 4),
    )


def leaf_census(m: Surface, d: DividingSetClass) -> LeafCensus:
    """Leaves of the singular foliation by dimension: (2, regions, curves)."""
    _require_admissible(m, d)
    return graph_census(d.graph)


def graph_census(g: RegionGraph) -> LeafCensus:
    """The counting half of ``leaf_census``, for a class already known to be
    admissible, such as the class of a ``classify`` record.  Both critical
    surfaces cut the three-sphere in two."""
    return LeafCensus(
        leaves_dim3=2,
        leaves_dim2=g.vertex_count,
        leaves_dim1=g.edge_count,
    )


class TableClass(namedtuple("TableClass", ["record", "code", "runs"])):
    """One graph class of a classification table, with all of its slopes.

    ``record`` is ``classify``'s ``ClassificationRecord`` of the class at
    its first slope, and ``code`` its canonical code in the table's sign
    mode.  ``runs`` holds the class's slopes in order, grouped into runs
    sharing regimes: tuples ``(slopes, tight, mixed, fully_overtwisted)``
    of ``Slopes`` and three ``RegimeDescriptor``s.  A class whose regimes
    do not depend on the slope has one run, whose slopes are ``(None,)``
    for a tree or a sphere class; a bare cycle has one run per slope.
    """

    __slots__ = ()

    @property
    def graph(self) -> RegionGraph:
        return self.record.dividing_set.graph


def table_classes(
    m: Surface,
    max_curves: int,
    max_p: int = 1,
    modulo_swap: bool = False,
) -> list[TableClass]:
    """The classification table per graph class: every enumerated
    admissible graph class with at most ``max_curves`` curves, sorted by
    canonical code, each with its slopes up to ``max_p`` (on the torus
    only; the sphere has no slopes).

    ``classify`` runs once per graph class and, for a bare cycle,
    ``tight_count_solid_torus`` once per slope.
    """
    from .enumeration import (
        TREE_CAP,
        ResourceLimitError,
        check_torus_request,
        enum_equicolored_trees,
        enum_torus_graphs,
        graph_slopes,
    )

    if max_curves < 1 or max_p < 1:
        raise ValueError("max_curves and max_p must be >= 1")
    if m is Surface.SPHERE:
        # Equicolored trees on 2n regions have 2n - 1 curves, so the cap
        # on n admits up to 2 * TREE_CAP curves.
        if max_curves > 2 * TREE_CAP:
            raise ResourceLimitError(
                f"sphere table capped at --max-curves {2 * TREE_CAP}, got {max_curves}"
            )
        graphs = [
            g
            for n in range(1, (max_curves + 1) // 2 + 1)
            for g in enum_equicolored_trees(n, modulo_swap)
        ]
        graphs.sort(key=lambda g: canonical_code(g, modulo_swap))
        return [_table_class(m, g, canonical_code(g, modulo_swap), (None,)) for g in graphs]
    check_torus_request(max_curves, max_p)
    return [
        _table_class(m, g, canonical_code(g, modulo_swap), graph_slopes(g, max_p))
        for g in enum_torus_graphs(max_curves, modulo_swap)
    ]


def _table_class(m: Surface, g: RegionGraph, code: str, slopes: Slopes) -> TableClass:
    record = classify(m, DividingSetClass(m, g, slopes[0]))
    detail = record.tight_count_detail
    if detail is None:
        return TableClass(
            record, code, ((slopes, record.tight, record.mixed, record.fully_overtwisted),)
        )
    n = g.edge_count // 2
    rest = [tight_count_solid_torus(n, p, q) for p, q in slopes[1:]]
    return TableClass(record, code, tuple([
        ((slope,), *_bare_cycle_regimes(count)) for slope, count in zip(slopes, (detail, *rest))
    ]))
