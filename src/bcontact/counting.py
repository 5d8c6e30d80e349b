"""Exact counting arithmetic for tight structures on the solid torus.

The number of tight contact structures on a solid torus whose boundary
carries 2n dividing curves of slope -p/q is

    N(n, -p, q) = C_n * ((r - s) * n + s),

where C_n is the n-th Catalan number and r, s are absolute products read
off the negative continued fraction expansion

    -p/q = a0 - 1/(a1 - 1/(... - 1/ak)),   a_i <= -2,

namely r = |(a0+1)(a1+1)...(a_{k-1}+1) * ak| and
s = |(a0+1)(a1+1)...(a_{k-1}+1) * (ak+1)|.  The boundary slope p = q = 1
degenerates: its expansion is the single coefficient [-1] and r = s = 1,
which collapses the count to C_n.

Everything here is exact integer arithmetic; the counts outgrow 64 bits
quickly (C_34 already does).  n and p are capped before any of it:
C_n has about 0.6 n digits, and the expansion of p/(p-1) has p - 1
coefficients.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb, gcd

TIGHT_N_CAP = 100_000
SLOPE_P_CAP = 1_000_000


class ContinuedFractionExpansion(namedtuple("ContinuedFractionExpansion", ["coefficients"])):
    """Coefficients a0..ak of a negative continued fraction, all <= -2.

    The single-coefficient expansion [-1] only arises from p = q = 1 and
    is flagged ``degenerate``.
    """

    __slots__ = ()
    # namedtuple's _make, which _replace calls, would skip __new__.
    _make = classmethod(lambda cls, iterable: cls(*iterable))

    def __new__(cls, coefficients):
        self = super().__new__(cls, tuple(coefficients))
        if not self.coefficients:
            raise ValueError("expansion needs at least one coefficient")
        if self.coefficients == (-1,):
            return self
        bad = [a for a in self.coefficients if a > -2]
        if bad:
            raise ValueError(f"coefficients must be <= -2, got {bad}")
        return self

    @property
    def degenerate(self) -> bool:
        return self.coefficients == (-1,)


class TightCountResult(
    namedtuple("TightCountResult", ["n", "p", "q", "r", "s", "count", "expansion"])
):
    """N(n, -p, q) together with every intermediate the formula used."""

    __slots__ = ()


def slope_error(p: int, q: int) -> str | None:
    """Why (p, q) is not a normalized slope (coprime integers, 0 < q <= p),
    or ``None``.  A ``bool`` is not an integer here, nor is a float."""
    for entry in (p, q):
        if type(entry) is not int:
            return f"slope entry {entry!r} is not an integer"
    if not (0 < q <= p):
        return f"slope ({p},{q}) must satisfy 0 < q <= p"
    if gcd(p, q) != 1:
        return f"slope ({p},{q}) must be coprime"
    return None


def negative_continued_fraction(p: int, q: int) -> ContinuedFractionExpansion:
    """Expand -p/q with every coefficient <= -2 (p = q = 1 gives [-1]).

    Runs the exact recursion x0 = -p/q; a_i = floor(x_i), stopping when
    x_i is an integer; x_{i+1} = 1/(a_i - x_i).  Plain integer pairs
    throughout: flooring floats near integers is exactly the failure mode
    this must not have.
    """
    # An entry that is not an int is named by slope_error, not compared.
    if type(p) is int and type(q) is int and p > SLOPE_P_CAP:
        raise ValueError(f"slope numerator capped at p={SLOPE_P_CAP}, got {p}")
    error = slope_error(p, q)
    if error is not None:
        raise ValueError(error)
    coefficients = []
    num, den = -p, q
    while True:
        a, rem = divmod(num, den)
        if rem == 0:
            coefficients.append(a)
            break
        coefficients.append(a)
        # x - floor(x) = rem/den, so 1/(a - x) = -den/rem.
        num, den = -den, rem
    return ContinuedFractionExpansion(tuple(coefficients))


def expansion_products(cf: ContinuedFractionExpansion) -> tuple[int, int]:
    """The pair (r, s) of absolute coefficient products entering the count.

    r multiplies the last coefficient into the running product of
    (a_i + 1); s multiplies in (ak + 1) instead.  The degenerate
    expansion [-1] yields (1, 1).
    """
    if cf.degenerate:
        return (1, 1)
    prefix = 1
    for a in cf.coefficients[:-1]:
        prefix *= a + 1
    last = cf.coefficients[-1]
    return (abs(prefix * last), abs(prefix * (last + 1)))


def catalan(n: int) -> int:
    """The n-th Catalan number binom(2n, n) / (n + 1), exactly."""
    if type(n) is not int:
        raise ValueError(f"catalan index n={n!r} is not an integer")
    if n < 0:
        raise ValueError("catalan is defined for n >= 0")
    return comb(2 * n, n) // (n + 1)


def solid_torus_count(n: int, r: int, s: int) -> int:
    """C_n ((r - s) n + s): N(n, -p, q) from the products (r, s) of the
    slope's expansion (``expansion_products``), for an ``n`` already
    checked.  A caller with many curve counts at one slope expands the
    slope once."""
    return catalan(n) * ((r - s) * n + s)


def tight_count_solid_torus(n: int, p: int, q: int) -> TightCountResult:
    """N(n, -p, q) = C_n ((r - s) n + s) for 2n boundary curves of slope -p/q."""
    if type(n) is not int:
        raise ValueError(f"curve pair count n={n!r} is not an integer")
    if n < 1:
        raise ValueError("the boundary carries 2n curves with n >= 1")
    if n > TIGHT_N_CAP:
        raise ValueError(f"tight count capped at n={TIGHT_N_CAP}, got {n}")
    cf = negative_continued_fraction(p, q)
    r, s = expansion_products(cf)
    count = solid_torus_count(n, r, s)
    return TightCountResult(n=n, p=p, q=q, r=r, s=s, count=count, expansion=cf)
