"""Which dividing sets a b-contact structure can induce, and which can be tight.

Two tests gate a dividing-set class:

* Admissibility.  The signed Euler characteristics of the positive and
  negative parts of the cut surface must balance, because their
  difference computes the Euler class of the structure's plane field
  evaluated on the critical surface, and every plane field on a surface
  inside the three-sphere has zero Euler class (H^2(S^3) = 0).

* Tightness candidacy.  Near the critical surface, a contractible
  dividing curve forces overtwisted disks on both sides, with the single
  exception of a connected dividing set on the sphere.  On the sphere
  that leaves exactly the one-edge graph; on the torus it leaves the bare
  cycles of essential curves (any tree edge is a contractible curve).
  ``is_tight_candidate`` states this rule once, behind admissibility.
"""

from __future__ import annotations

from collections import namedtuple

from .surfaces import DividingSetClass, Surface, region_euler


class Verdict(namedtuple("Verdict", ["ok", "reason"])):
    """Boolean with a witness naming why it holds or fails."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def euler_pairing(d: DividingSetClass) -> int:
    """chi(Z+) - chi(Z-) for the positive and negative parts of the cut surface."""
    g = d.graph
    return sum(
        v.sign * region_euler(v.genus, g.degrees[v.id]) for v in g.vertices
    )


def is_admissible(m: Surface, d: DividingSetClass) -> Verdict:
    """Whether the class can arise from a b-contact structure on the
    b-manifold ``m``, named by its critical surface.

    Both supported manifolds live in the three-sphere, so the Euler-class
    target is zero and admissibility is exactly ``euler_pairing == 0``.
    """
    if m is not d.surface:
        return Verdict(False, f"class lives on {d.surface.value}, manifold critical "
                              f"surface is {m.value}")
    pairing = euler_pairing(d)
    if pairing != 0:
        return Verdict(False, f"euler pairing {pairing} != 0")
    return Verdict(True, "euler pairing balances")


def is_tight_candidate(m: Surface, d: DividingSetClass) -> Verdict:
    """Whether the dividing set is free of contractible curves in the sense
    that permits a tight b-contact structure: the one rule of tight
    candidacy, which ``check``, ``classify`` and the library all call.

    An inadmissible class fails with its admissibility reason.  Sphere:
    only a connected dividing set (one edge) qualifies.  Torus: only bare
    even cycles qualify; every edge off the cycle is a contractible curve
    and forces overtwisted disks near the surface.
    """
    admissible = is_admissible(m, d)
    if not admissible:
        return admissible
    g = d.graph
    if d.surface is Surface.SPHERE:
        if g.edge_count == 1:
            return Verdict(True, "dividing set is connected")
        return Verdict(
            False,
            f"{g.edge_count} curves on the sphere: all are contractible circles",
        )

    if g.edge_count == g.vertex_count and all(deg == 2 for deg in g.degrees.values()):
        return Verdict(True, f"bare cycle of {g.edge_count} essential curves")
    if g.edge_count == g.vertex_count - 1:
        return Verdict(False, "all curves are contractible (no essential cycle)")
    pendant = next(
        (a, b)
        for a, b in g.edges
        if g.degrees[a] == 1 or g.degrees[b] == 1
    )
    return Verdict(False, f"contractible curve at edge {pendant}")
