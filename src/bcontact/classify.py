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

So a class's regimes follow from its surface and shape alone, except a
bare cycle's, which depend on the slope through its tight count; one
function (``_regimes``) states them for ``classify`` and for the
batch table alike.  The table is built per graph class, and that is its
only form (``table_classes``): it reads each class's shape off the
generator's row (``enumeration.row_shape``), builds no graph and checks
nothing again, since the generator makes only admissible classes, and
keeps the class's slopes in runs sharing (tight, mixed, fully
overtwisted) regimes.  The products (r, s) of each slope's expansion are
taken once per table, and a bare cycle's count at each slope comes from
them (``counting.solid_torus_count``).
"""

from __future__ import annotations

from collections import namedtuple
from operator import itemgetter

from .counting import (
    expansion_products,
    negative_continued_fraction,
    solid_torus_count,
    tight_count_solid_torus,
)
from .surfaces import DividingSetClass, Surface

# Slopes (enumeration) names a type in annotations only, which are never
# evaluated; ``table_classes`` imports the enumerator when it runs,
# so ``classify`` and ``census`` calls do not load it.  Nor does the table
# load ``admissibility``: ``classify`` and ``leaf_census`` import it when
# they check a class.


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
    from .admissibility import is_admissible

    verdict = is_admissible(m, d)
    if not verdict:
        raise InadmissibleError(verdict.reason)


# The regimes of an admissible class with no tight structure, by surface:
# only the fully overtwisted family, Z + Z on the sphere and Z^2 + Z^2 on
# the torus; and of the one-curve sphere class.
_NONE = RegimeDescriptor(0, 0)
_SPHERE_OT, _TORUS_OT = RegimeDescriptor(1, 2), RegimeDescriptor(1, 4)
_OVERTWISTED_ONLY = {
    Surface.SPHERE: (_NONE, _NONE, _SPHERE_OT),
    Surface.TORUS: (_NONE, _NONE, _TORUS_OT),
}
_CONNECTED_SPHERE = (RegimeDescriptor(1, 0), RegimeDescriptor(2, 1), _SPHERE_OT)


def _regimes(
    surface: Surface, tight: bool, fillings: int = 0
) -> tuple[RegimeDescriptor, RegimeDescriptor, RegimeDescriptor]:
    """Tight, mixed and fully overtwisted regimes of an admissible class on
    ``surface``: of the one-curve sphere class or a bare cycle when
    ``tight`` holds, else of a class with a contractible curve.  A
    bare cycle's solid-torus sides have ``fillings`` = N(n, -p, q) tight
    fillings each, so 2N tight structures and 2N x Z^2 mixed ones."""
    if not tight:
        return _OVERTWISTED_ONLY[surface]
    if surface is Surface.SPHERE:
        return _CONNECTED_SPHERE
    return RegimeDescriptor(2 * fillings, 0), RegimeDescriptor(2 * fillings, 2), _TORUS_OT


def classify(m: Surface, d: DividingSetClass) -> ClassificationRecord:
    """Full classification record of b-contact structures inducing ``d``."""
    from .admissibility import tight_shape

    _require_admissible(m, d)
    tight = bool(tight_shape(d))
    if tight and d.surface is Surface.TORUS:
        # A bare cycle: the regimes depend on the slope only through the
        # solid-torus tight count.
        p, q = d.slope
        detail = tight_count_solid_torus(d.graph.edge_count // 2, p, q)
        return ClassificationRecord(d, *_regimes(d.surface, True, detail.count), detail)
    return ClassificationRecord(d, *_regimes(d.surface, tight))


def _census(vertex_count: int, edge_count: int) -> LeafCensus:
    # Both critical surfaces cut the three-sphere in two.
    return LeafCensus(leaves_dim3=2, leaves_dim2=vertex_count, leaves_dim1=edge_count)


def leaf_census(m: Surface, d: DividingSetClass) -> LeafCensus:
    """Leaves of the singular foliation by dimension: (2, regions, curves)."""
    _require_admissible(m, d)
    return _census(d.graph.vertex_count, d.graph.edge_count)


class TableClass(
    namedtuple("TableClass", ["code", "surface", "vertex_count", "edge_count", "runs"])
):
    """One graph class of a classification table, with all of its slopes.

    ``code`` is the class's canonical code in the table's sign mode, on
    the critical surface ``surface``, with ``vertex_count`` regions and
    ``edge_count`` curves.  ``runs`` holds the class's slopes in order,
    grouped into runs sharing regimes: tuples ``(slopes, tight, mixed,
    fully_overtwisted)`` of ``Slopes`` and three ``RegimeDescriptor``s.  A
    class whose regimes do not depend on the slope has one run, whose
    slopes are ``(None,)`` for a tree or a sphere class; a bare cycle has
    one run per slope.
    """

    __slots__ = ()

    @property
    def census(self) -> LeafCensus:
        """``leaf_census`` of the class, from its counts alone."""
        return _census(self.vertex_count, self.edge_count)


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

    Each class is read off the generator's row, with no graph built and
    no ``classify``: its regimes are ``_regimes`` of its shape, and a
    bare cycle's counts come from each slope's expansion products, taken
    once per table.
    """
    from .enumeration import (
        TREE_CAP,
        ResourceLimitError,
        _check_ints,
        check_torus_request,
        enum_torus_rows,
        enum_tree_rows,
        row_shape,
        row_slopes,
    )

    _check_ints(max_curves=max_curves, max_p=max_p)
    if max_curves < 1 or max_p < 1:
        raise ValueError("max_curves and max_p must be >= 1")
    m = Surface(m)
    if m is Surface.SPHERE:
        # Equicolored trees on 2n regions have 2n - 1 curves, so the cap
        # on n admits up to 2 * TREE_CAP curves.
        if max_curves > 2 * TREE_CAP:
            raise ResourceLimitError(
                f"sphere table capped at --max-curves {2 * TREE_CAP}, got {max_curves}"
            )
        rows = [
            row
            for n in range(1, (max_curves + 1) // 2 + 1)
            for row in enum_tree_rows(n, modulo_swap)
        ]
        rows.sort(key=itemgetter(0))
        runs = {tight: (((None,), *_regimes(m, tight)),) for tight in (False, True)}
        classes = []
        for row in rows:
            v, e, _ = row_shape(row)
            classes.append(TableClass(row[0], m, v, e, runs[e == 1]))
        return classes
    check_torus_request(max_curves, max_p)
    products = None
    classes = []
    for row in enum_torus_rows(max_curves, modulo_swap):
        v, e, bare = row_shape(row)
        slopes = row_slopes(row, max_p)
        if bare:
            if products is None:
                products = [expansion_products(negative_continued_fraction(*s)) for s in slopes]
            runs = _bare_cycle_runs(e // 2, slopes, products)
        else:
            runs = ((slopes, *_regimes(m, False)),)
        classes.append(TableClass(row[0], m, v, e, runs))
    return classes


def _bare_cycle_runs(n: int, slopes: Slopes, products: list[tuple[int, int]]) -> tuple:
    """One run per slope of a bare cycle of 2n curves, each slope's count
    from its expansion products (r, s)."""
    return tuple([
        ((slope,), *_regimes(Surface.TORUS, True, solid_torus_count(n, r, s)))
        for slope, (r, s) in zip(slopes, products)
    ])
