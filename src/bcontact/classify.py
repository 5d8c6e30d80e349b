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

So only a bare cycle's record depends on the slope.  The batch table is
built per graph class and expanded by slope: each graph class is
classified once and its regimes are reused at every slope, and a bare
cycle's tight count alone is computed again at each slope.
"""

from __future__ import annotations

from dataclasses import dataclass

from .admissibility import is_admissible, tight_shape
from .counting import TightCountResult, tight_count_solid_torus
from .enumeration import check_tree_request, enum_equicolored_trees, enum_torus_classes
from .region_graph import RegionGraph, canonical_code
from .surfaces import DividingSetClass, ManifoldSpec, Surface


class InadmissibleError(ValueError):
    """Raised when classifying a dividing set no b-contact structure induces."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


@dataclass(frozen=True)
class RegimeDescriptor:
    """Parameter-space shape of one regime: discrete choices x free rank."""

    finite_factor: int
    free_rank: int

    def __post_init__(self) -> None:
        if self.finite_factor == 0 and self.free_rank != 0:
            raise ValueError("an impossible regime has no free parameters")


@dataclass(frozen=True)
class LeafCensus:
    leaves_dim3: int
    leaves_dim2: int
    leaves_dim1: int


@dataclass(frozen=True)
class ClassificationRecord:
    manifold: ManifoldSpec
    dividing_set: DividingSetClass
    tight: RegimeDescriptor
    mixed: RegimeDescriptor
    fully_overtwisted: RegimeDescriptor
    tight_count_detail: TightCountResult | None = None


def _require_admissible(m: ManifoldSpec, d: DividingSetClass) -> None:
    verdict = is_admissible(m, d)
    if not verdict:
        raise InadmissibleError(verdict.reason)


def classify(m: ManifoldSpec, d: DividingSetClass) -> ClassificationRecord:
    """Full classification record of b-contact structures inducing ``d``."""
    _require_admissible(m, d)
    tight_candidate = tight_shape(d)

    if d.surface is Surface.SPHERE:
        if tight_candidate:
            return ClassificationRecord(
                m, d,
                tight=RegimeDescriptor(1, 0),
                mixed=RegimeDescriptor(2, 1),
                fully_overtwisted=RegimeDescriptor(1, 2),
            )
        return ClassificationRecord(
            m, d,
            tight=RegimeDescriptor(0, 0),
            mixed=RegimeDescriptor(0, 0),
            fully_overtwisted=RegimeDescriptor(1, 2),
        )

    if tight_candidate:
        return _bare_cycle_record(m, d)
    return ClassificationRecord(
        m, d,
        tight=RegimeDescriptor(0, 0),
        mixed=RegimeDescriptor(0, 0),
        fully_overtwisted=RegimeDescriptor(1, 4),
    )


def _bare_cycle_record(m: ManifoldSpec, d: DividingSetClass) -> ClassificationRecord:
    """The record of an admissible bare cycle, whose regimes depend on the
    slope only through the solid-torus tight count."""
    n = d.graph.edge_count // 2
    p, q = d.slope
    detail = tight_count_solid_torus(n, p, q)
    return ClassificationRecord(
        m, d,
        tight=RegimeDescriptor(2 * detail.count, 0),
        mixed=RegimeDescriptor(2 * detail.count, 2),
        fully_overtwisted=RegimeDescriptor(1, 4),
        tight_count_detail=detail,
    )


def leaf_census(m: ManifoldSpec, d: DividingSetClass) -> LeafCensus:
    """Leaves of the singular foliation by dimension: (2, regions, curves)."""
    _require_admissible(m, d)
    return graph_census(m, d.graph)


def graph_census(m: ManifoldSpec, g: RegionGraph) -> LeafCensus:
    """The counting half of ``leaf_census``, for a class already known to be
    admissible on ``m``, such as the class of a ``classify`` record."""
    return LeafCensus(
        leaves_dim3=m.complement_components,
        leaves_dim2=g.vertex_count,
        leaves_dim1=g.edge_count,
    )


def classification_table(
    m: ManifoldSpec,
    max_curves: int,
    max_p: int | None = None,
    modulo_swap: bool = False,
) -> list[ClassificationRecord]:
    """One record per enumerated admissible class, sorted by canonical code
    and then slope; ``max_p`` defaults to 1 on the torus.

    ``classify`` runs once per graph class, and the record's regimes are
    reused for the class's other slopes.  Only a bare cycle's tight count
    depends on the slope, so at its other slopes that count alone is
    computed again.
    """
    if max_curves < 1 or (max_p is not None and max_p < 1):
        raise ValueError("max_curves and max_p must be >= 1")
    if m.critical is Surface.SPHERE:
        largest = (max_curves + 1) // 2
        check_tree_request(largest)
        graphs = [
            g for n in range(1, largest + 1) for g in enum_equicolored_trees(n, modulo_swap)
        ]
        graphs.sort(key=lambda g: canonical_code(g, modulo_swap))
        classes = [DividingSetClass(Surface.SPHERE, g) for g in graphs]
    else:
        classes = enum_torus_classes(max_curves, 1 if max_p is None else max_p, modulo_swap)

    records: list[ClassificationRecord] = []
    previous: ClassificationRecord | None = None
    for d in classes:
        if previous is None or d.graph is not previous.dividing_set.graph:
            record = classify(m, d)
        elif previous.tight_count_detail is None:
            record = ClassificationRecord(
                m, d, previous.tight, previous.mixed, previous.fully_overtwisted
            )
        else:
            record = _bare_cycle_record(m, d)
        records.append(record)
        previous = record
    return records
