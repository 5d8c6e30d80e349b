"""Exact arithmetic: continued fractions, products, Catalan, tight counts."""

import re
from fractions import Fraction
from math import gcd

import pytest

from bcontact.counting import (
    ContinuedFractionExpansion,
    catalan,
    expansion_products,
    negative_continued_fraction,
    tight_count_solid_torus,
)

from helpers import farey_products


def reconstruct(coefficients):
    """Independent evaluation of a0 - 1/(a1 - 1/(... - 1/ak)) in Fractions."""
    acc = Fraction(coefficients[-1])
    for a in reversed(coefficients[:-1]):
        acc = Fraction(a) - 1 / acc
    return acc


def catalan_by_recurrence(limit):
    """C_0 = 1, C_{m+1} = sum C_i C_{m-i}: the convolution definition."""
    values = [1]
    for m in range(limit):
        values.append(sum(values[i] * values[m - i] for i in range(m + 1)))
    return values


class TestNegativeContinuedFraction:
    @pytest.mark.parametrize(
        "p,q,expected",
        [
            (2, 1, (-2,)),
            (3, 2, (-2, -2)),
            (7, 2, (-4, -2)),
            (1, 1, (-1,)),
        ],
    )
    def test_hand_checked_expansions(self, p, q, expected):
        assert negative_continued_fraction(p, q).coefficients == expected

    def test_degenerate_flag(self):
        assert negative_continued_fraction(1, 1).degenerate
        assert not negative_continued_fraction(2, 1).degenerate

    # ("3", 2): an entry that is not an integer is named, not compared.
    @pytest.mark.parametrize("p,q", [(4, 2), (2, 3), (3, 0), (1, 0), (0, 1), ("3", 2)])
    def test_rejects_bad_slopes(self, p, q):
        with pytest.raises(ValueError):
            negative_continued_fraction(p, q)

    def test_round_trip_small_range(self):
        for p in range(1, 80):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                cf = negative_continued_fraction(p, q)
                assert reconstruct(cf.coefficients) == Fraction(-p, q)
                if (p, q) != (1, 1):
                    assert all(a <= -2 for a in cf.coefficients)


class TestContinuedFractionExpansion:
    def test_coefficients_become_a_tuple(self):
        assert ContinuedFractionExpansion([-2, -3]).coefficients == (-2, -3)

    def test_lone_minus_one_is_the_degenerate_expansion(self):
        assert ContinuedFractionExpansion([-1]).degenerate

    @pytest.mark.parametrize("coefficients", [(), (-1, -2), (-2, -1), (-3, 0)])
    def test_rejects_empty_and_coefficients_above_minus_two(self, coefficients):
        with pytest.raises(ValueError):
            ContinuedFractionExpansion(coefficients)
        with pytest.raises(ValueError):
            ContinuedFractionExpansion._make([coefficients])

    def test_replace_checks_too(self):
        # namedtuple's _replace goes through _make, which would otherwise
        # skip __new__ and so the check.
        with pytest.raises(ValueError, match="at least one coefficient"):
            ContinuedFractionExpansion([-2])._replace(coefficients=())
        assert ContinuedFractionExpansion([-2])._replace(coefficients=[-3]) == ((-3,),)


class TestExpansionProducts:
    @pytest.mark.parametrize(
        "coefficients,expected",
        [
            ((-2,), (2, 1)),
            ((-2, -2), (2, 1)),
            ((-1,), (1, 1)),
            ((-4, -2), (6, 3)),
        ],
    )
    def test_products(self, coefficients, expected):
        cf = ContinuedFractionExpansion(coefficients)
        assert expansion_products(cf) == expected

    def test_r_exceeds_s_for_nondegenerate(self):
        for p in range(2, 60):
            for q in range(1, p):
                if gcd(p, q) != 1:
                    continue
                r, s = expansion_products(negative_continued_fraction(p, q))
                assert r > s >= 1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            ContinuedFractionExpansion(())


class TestCatalan:
    def test_small_values(self):
        assert catalan(0) == 1
        assert catalan(3) == 5

    def test_value_ten_against_recurrence(self):
        assert catalan(10) == catalan_by_recurrence(10)[10] == 16796

    def test_closed_form_agrees_with_convolution(self):
        expected = catalan_by_recurrence(30)
        assert [catalan(m) for m in range(31)] == expected

    @pytest.mark.parametrize("n", ["2", 2.0, True], ids=["str", "float", "bool"])
    def test_index_that_is_not_an_int_is_rejected(self, n):
        # A bool would pass for 0 or 1, and a str or float fail in comb.
        with pytest.raises(ValueError, match=re.escape(f"n={n!r}")):
            catalan(n)


class TestTightCount:
    def test_degenerate_slope_gives_catalan(self):
        result = tight_count_solid_torus(1, 1, 1)
        assert (result.r, result.s, result.count) == (1, 1, 1)
        assert tight_count_solid_torus(2, 1, 1).count == 2

    def test_hand_checked_value(self):
        result = tight_count_solid_torus(1, 3, 2)
        assert result.expansion.coefficients == (-2, -2)
        assert (result.r, result.s) == (2, 1)
        assert result.count == 2

    def test_reduces_to_catalan_for_unit_slope(self):
        for m in range(1, 21):
            assert tight_count_solid_torus(m, 1, 1).count == catalan(m)

    def test_count_is_positive(self):
        for p in range(1, 25):
            for q in range(1, p + 1):
                if gcd(p, q) != 1:
                    continue
                result = tight_count_solid_torus(3, p, q)
                assert result.count >= catalan(3) * result.s >= 1

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            tight_count_solid_torus(0, 1, 1)
        with pytest.raises(ValueError):
            tight_count_solid_torus(1, 2, 4)

    @pytest.mark.parametrize(
        "args,entry",
        [(("1", 3, 2), "'1'"), ((1, "3", 2), "'3'"), ((True, 3, 2), "True"), ((1.0, 3, 2), "1.0")],
        ids=["str-n", "str-p", "bool-n", "float-n"],
    )
    def test_entry_that_is_not_an_integer_is_named(self, args, entry):
        # A bool or a float is not a curve count, even where it compares
        # like one.
        with pytest.raises(ValueError, match=f"{re.escape(entry)} is not an integer"):
            tight_count_solid_torus(*args)


class TestFareyReferee:
    """The n = 1 count against Honda's Farey-graph form of it.

    ``farey_products`` reads r and s off the shortest path of slopes from
    -p/q to -1, in blocks of constant step, with no continued fraction.
    It referees r and s, and so N(1, -p, q) = r.  The factor
    C_n ((r - s) n + s) for n >= 2 is still checked only against hand
    values.
    """

    def test_n1_products_follow_the_farey_path(self):
        slopes = [(p, q) for p in range(2, 120) for q in range(1, p) if gcd(p, q) == 1]
        assert len(slopes) == 4353
        for p, q in slopes:
            result = tight_count_solid_torus(1, p, q)
            assert (result.r, result.s) == farey_products(p, q), (p, q)
            assert result.count == result.r

    @pytest.mark.parametrize("p,q,products", [(1, 1, (1, 1)), (3, 2, (2, 1)), (7, 2, (6, 3))])
    def test_hand_checked_paths(self, p, q, products):
        # -7/2 -> -3 -> -2 -> -1: a block of one edge, then one of two.
        assert farey_products(p, q) == products
