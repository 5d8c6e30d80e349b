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

So a class's regimes follow from its surface and whether it is a tight
candidate (``admissibility.is_tight_candidate``, the one rule, which
``classify`` calls), except a bare cycle's, which depend on the slope
through its tight count; one function (``_regimes``) states them for
``classify`` and for the batch table alike.  The table is built per
graph class, and that is its only form (``table_classes``): one loop
over the generator's rows, on either surface, reads each class's region
and curve counts and whether it has the tight shape
(``enumeration.row_shape``: the one-curve sphere class or a bare cycle)
and its slopes: a ring has the request's, made once per table
(``enumeration.torus_request``), and a tree none.  It builds no graph and
checks nothing again, since the generator makes only admissible classes,
and keeps the class's slopes in runs sharing (tight, mixed, fully
overtwisted) regimes.  Classes whose regimes take no slope share one run
per shape.  The products (r, s) of each slope's expansion are taken once
per table, and a bare cycle's count at each slope comes from them
(``counting.solid_torus_count``).  A table's size (``table_rows``) is
the enumerator's (``enumeration.tree_count``, ``torus_count``), read off
the recorded class counts, and ``table_classes`` holds it to the row
cap, so a table too large to write is refused before any class is
listed.  Both refuse a request out of range where ``enumeration`` sizes
it, and state none here.

The table's writer (``write_table``) writes that one form in
``TABLE_COLUMNS`` order.  It checks nothing, reads no graph, and hands
its stream one graph class's lines at a time, so the table is never
held whole.  A row, in CSV or as a JSON line, is the head (code,
surface, V, E) and tail (census) strings of its graph class, each made
once per class, the regime string of its run, made once per run, and
its slope's text, made once per distinct run of slopes; the CSV form
leaves an absent slope empty and the JSON form writes ``null``.  Every
value is an ``int`` or an ASCII string of ``T C ( ) + -`` and digits,
``sphere`` or ``torus``, so nothing needs quoting or escaping: the lines
are byte-equal to ``csv.writer``'s and to ``json.dumps`` of the row
dict.
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


LeafCensus = namedtuple("LeafCensus", ["leaves_dim3", "leaves_dim2", "leaves_dim1"])
ClassificationRecord = namedtuple("ClassificationRecord", [
    "dividing_set", "tight", "mixed", "fully_overtwisted", "tight_count_detail",
], defaults=(None,))


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
    from .admissibility import is_tight_candidate

    _require_admissible(m, d)
    tight = bool(is_tight_candidate(m, d))
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


def table_rows(m: Surface, max_curves: int, max_p: int = 1, modulo_swap: bool = False) -> int:
    """The number of rows of ``table_classes`` of the same request, one
    per class and slope, from the enumerator's sizes, with no class
    enumerated: on the torus the listing's (``torus_count``), on the
    sphere those of the trees up to n = (``max_curves`` + 1) // 2
    (``tree_count``).  The request is refused as ``table_classes``
    refuses it."""
    return _table_request(Surface(m), max_curves, max_p, modulo_swap)[0]


def _table_request(m: Surface, max_curves: int, max_p: int, modulo_swap: bool) -> tuple:
    """``table_rows`` and what ``table_classes`` lists by, each checked
    once: the sphere's tree sizes, or the torus's slopes."""
    from .enumeration import check_sphere_table_request, torus_request, tree_count

    if m is Surface.TORUS:
        return torus_request(max_curves, max_p, modulo_swap)
    sizes = check_sphere_table_request(max_curves, max_p)
    return sum(tree_count(n, modulo_swap) for n in sizes), sizes


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

    The request is sized (``table_rows``) and held to the row cap
    (``check_row_cap``) first, so a table refused lists no class.  Each
    class is read off the generator's row, with no graph built and no
    ``classify``: its regimes are ``_regimes`` of its shape
    (``row_shape``), and a bare cycle's counts come from each slope's
    expansion products, taken once per table, as its slopes are.
    """
    from .enumeration import check_row_cap, enum_torus_rows, enum_tree_rows, row_shape

    m = Surface(m)
    size, by = _table_request(m, max_curves, max_p, modulo_swap)
    check_row_cap("table", size)
    if m is Surface.TORUS:
        rows, slopes = enum_torus_rows(max_curves, modulo_swap), by
    else:
        rows = [row for n in by for row in enum_tree_rows(n, modulo_swap)]
        rows.sort(key=itemgetter(0))
    # One loop for both surfaces; only torus rows are rings, so only they
    # read ``slopes``.  A bare ring's runs hold each slope's count; every
    # other class's regimes take no slope, so the classes of one shape
    # (tree or ring, tight or not) share one runs tuple.
    shared: dict[tuple[bool, bool], tuple] = {}
    products = None
    classes = []
    for row in rows:
        v, e, tight = row_shape(row)
        ring = row[2] is not None
        if ring and tight:
            if products is None:
                products = [
                    ((s,), *expansion_products(negative_continued_fraction(*s))) for s in slopes
                ]
            runs = _bare_cycle_runs(e // 2, products)
        else:
            runs = shared.get((ring, tight))
            if runs is None:
                runs = shared[ring, tight] = ((slopes if ring else (None,), *_regimes(m, tight)),)
        classes.append(TableClass(row[0], m, v, e, runs))
    return classes


def _bare_cycle_runs(n: int, products: list[tuple[Slopes, int, int]]) -> tuple:
    """One run per slope of a bare cycle of 2n curves, each slope's count
    from its expansion products: ``products`` holds (the slope's one-slope
    run, r, s), made once per table, so the bare rings share their runs'
    slope tuples as the other classes share theirs."""
    return tuple([
        (run, *_regimes(Surface.TORUS, True, solid_torus_count(n, r, s)))
        for run, r, s in products
    ])


# The lines a table gathers before a write: 256 one-line sphere classes.
_BATCH = 256

TABLE_COLUMNS = [
    "canonical_code",
    "surface",
    "V",
    "E",
    "slope_p",
    "slope_q",
    "tight_count",
    "mixed_finite",
    "mixed_rank",
    "ot_finite",
    "ot_rank",
    "leaves_3",
    "leaves_2",
    "leaves_1",
]


def write_table(out, classes: list[TableClass], form: str) -> None:
    """Write the classification table of ``classes`` (``table_classes``)
    to ``out`` as CSV, header first, or as JSON lines (``form`` "json"),
    one line per (graph class, slope) in ``TABLE_COLUMNS`` order, whole
    graph classes' lines in one write: a run of classes, ended by the
    first that brings it to ``_BATCH`` lines, so a class of many slopes
    goes out alone and one-line classes ``_BATCH`` at a time.

    The code, shape and census columns depend on the graph class alone,
    so they are written once per class, as a head and a tail string, and
    the regime columns once per run of slopes sharing them.  The slope
    columns are formatted once per distinct run of slopes, and a run's
    rows are its slope texts joined between the head and the regime
    string.  Every class came from the generator, which makes only
    admissible ones, so nothing is checked here.  A ``form`` other than
    "csv" or "json" is refused before a byte is written.
    """
    if form not in ("csv", "json"):
        raise ValueError(f"unknown table form {form!r} (choose from 'csv', 'json')")
    if form == "json":
        sep = [f', "{column}": ' for column in TABLE_COLUMNS]
        sep[0], quote, null, end = '{"canonical_code": ', '"', "null", "}\n"
    else:
        sep = [","] * len(TABLE_COLUMNS)
        sep[0], quote, null, end = "", "", "", "\n"
        out.write(",".join(TABLE_COLUMNS) + "\n")
    q_sep = sep[5]
    # The slope columns of each run of slopes, formatted once and keyed on
    # the run's identity, which ``classes`` keeps alive: the classes of one
    # table share their run objects, and a tuple does not keep its hash, so
    # keying on its value would hash the run of all slopes again for every
    # ring class.
    slope_texts: dict[int, list[str]] = {}
    block: list[str] = []
    lines = 0
    for c in classes:
        census = c.census
        head = (
            f"{sep[0]}{quote}{c.code}{quote}"
            f"{sep[1]}{quote}{c.surface.value}{quote}"
            f"{sep[2]}{c.vertex_count}{sep[3]}{c.edge_count}{sep[4]}"
        )
        tail = (
            f"{sep[11]}{census.leaves_dim3}{sep[12]}{census.leaves_dim2}"
            f"{sep[13]}{census.leaves_dim1}{end}"
        )
        for slopes, t, m, o in c.runs:
            rest = (
                f"{sep[6]}{t.finite_factor}{sep[7]}{m.finite_factor}{sep[8]}{m.free_rank}"
                f"{sep[9]}{o.finite_factor}{sep[10]}{o.free_rank}{tail}"
            )
            texts = slope_texts.get(id(slopes))
            if texts is None:
                pairs = ((null, null),) if slopes == (None,) else slopes
                texts = slope_texts[id(slopes)] = [f"{p}{q_sep}{q}" for p, q in pairs]
            block += (head, (rest + head).join(texts), rest)
            lines += len(texts)
        if lines >= _BATCH:
            out.write("".join(block))
            block, lines = [], 0
    if block:
        out.write("".join(block))
