import random
from fractions import Fraction

import pytest

from abalg.checks import random_element
from abalg.coefficients import GaussianRational
from abalg.elements import (LEFT, RIGHT, AlgebraElement, add, anti_automorphism,
                            binomial_pow, coefficient_profile, gen_a, gen_b, mul,
                            power, reorder_coeff, scale, shear, to_left, to_right)
from abalg.errors import OrderingMismatchError, OrderMismatchError
from abalg.oracle import PolySeries, act


def rng():
    return random.Random(421)


# -- reorder coefficients -----------------------------------------------------

def test_reorder_coeff_values():
    assert reorder_coeff(1, 1, 1) == 1          # ab = ba + b^2
    assert [reorder_coeff(2, 1, j) for j in range(3)] == [1, 2, 2]
    assert [reorder_coeff(2, 2, j) for j in range(3)] == [1, 4, 6]
    for p in range(8):
        assert reorder_coeff(p, 0, 0) == 1
        assert all(reorder_coeff(p, 0, j) == 0 for j in range(1, p + 1))
    assert reorder_coeff(3, 2, -1) == 0
    assert reorder_coeff(3, 2, 4) == 0


def test_reorder_coeff_recursions_small():
    for p in range(12):
        for q in range(12):
            for j in range(1, p + 2):
                assert reorder_coeff(p + 1, q, j) == (
                    reorder_coeff(p, q, j) + (q + j - 1) * reorder_coeff(p, q, j - 1))
                assert reorder_coeff(p + 1, q, j) == (
                    reorder_coeff(p, q, j) + q * reorder_coeff(p, q + 1, j - 1))


# -- ordering conversions --------------------------------------------------------

def test_to_right_examples():
    n = 6
    a, b = gen_a(n), gen_b(n)
    assert to_right(mul(a, b)) == AlgebraElement(n, RIGHT, {(1, 1): 1, (0, 2): 1})
    assert to_right(power(a, 2)) == AlgebraElement(n, RIGHT, {(2, 0): 1})
    assert to_right(mul(power(a, 2), b)) == AlgebraElement(
        n, RIGHT, {(2, 1): 1, (1, 2): 2, (0, 3): 2})


def test_to_left_examples():
    n = 6
    ba = AlgebraElement.monomial(1, 1, n, ordering=RIGHT)
    assert to_left(ba) == AlgebraElement(n, LEFT, {(1, 1): 1, (0, 2): -1})
    b2 = AlgebraElement.monomial(0, 2, n, ordering=RIGHT)
    assert to_left(b2) == AlgebraElement(n, LEFT, {(0, 2): 1})
    b2a2 = AlgebraElement.monomial(2, 2, n, ordering=RIGHT)
    assert to_left(b2a2) == AlgebraElement(n, LEFT, {(2, 2): 1, (1, 3): -4, (0, 4): 6})


def test_round_trip_random():
    r = rng()
    for _ in range(60):
        x = random_element(r, 10, terms=6)
        assert to_left(to_right(x)) == x
        y = random_element(r, 10, terms=6, ordering=RIGHT)
        assert to_right(to_left(y)) == y


def test_eq3_against_oracle():
    # b^2 a^2 and its LEFT form must act identically; on 1 both give z^4/12
    n = 6
    x = to_left(AlgebraElement.monomial(2, 2, n, ordering=RIGHT))
    image = act(x, PolySeries.monomial(0, 8))
    assert image == PolySeries(8, {4: Fraction(1, 12)})


# -- linear structure --------------------------------------------------------------

def test_add_scale_basics():
    n = 5
    a, b = gen_a(n), gen_b(n)
    assert add(a, AlgebraElement.zero(n)) == a
    assert add(a, scale(-1, a)).is_zero
    assert scale(2, b + mul(a, b)) == AlgebraElement(n, LEFT, {(0, 1): 2, (1, 1): 2})
    assert add(gen_a(7), gen_b(5)).order == 5  # min of the operand orders


def test_ordering_mismatch_is_an_error():
    a = gen_a(4)
    with pytest.raises(OrderingMismatchError):
        add(a, a.to_right())
    with pytest.raises(OrderingMismatchError):
        mul(a.to_right(), a.to_right())
    with pytest.raises(OrderingMismatchError):
        a == a.to_right()


def test_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatchError):
        gen_a(4) == gen_a(5)
    with pytest.raises(OrderMismatchError):
        mul(gen_a(4), gen_a(5))


# -- multiplication -----------------------------------------------------------------

def test_mul_examples():
    n = 6
    a, b = gen_a(n), gen_b(n)
    assert mul(a, b) == AlgebraElement(n, LEFT, {(1, 1): 1})
    assert mul(b, a) == AlgebraElement(n, LEFT, {(1, 1): 1, (0, 2): -1})
    assert mul(a - b, a - scale(2, b)) == AlgebraElement(
        n, LEFT, {(2, 0): 1, (1, 1): -3, (0, 2): 3})


def test_defining_relation():
    n = 9
    a, b = gen_a(n), gen_b(n)
    assert mul(a, b) - mul(b, a) == mul(b, b)


def test_mul_respects_truncation_grading():
    n = 4
    a = gen_a(n)
    assert mul(power(a, 2), power(a, 2)) == AlgebraElement(n, LEFT, {(4, 0): 1})
    assert mul(power(a, 3), power(a, 2)).is_zero  # degree 5 > 4 quotients away


def test_power_past_the_order_is_zero_at_once():
    assert power(gen_a(3), 10 ** 12) == AlgebraElement.zero(3)
    assert power(gen_b(5).to_right(), 10 ** 12) == AlgebraElement.zero(5, RIGHT)
    assert power(AlgebraElement.zero(3), 0) == AlgebraElement.one(3)


def test_power_equals_repeated_mul():
    r = rng()
    for ordering in (LEFT, RIGHT):
        for _ in range(6):
            x = random_element(r, 6, terms=4, ordering=ordering)
            left = x.with_ordering(LEFT)
            expect = AlgebraElement.one(6)
            for n in range(7):
                assert power(x, n) == expect.with_ordering(ordering)
                expect = mul(expect, left)


# -- the anti-automorphism -----------------------------------------------------------

def test_anti_automorphism_examples():
    n = 5
    a, b = gen_a(n), gen_b(n)
    assert anti_automorphism(a, LEFT) == a
    assert anti_automorphism(b, LEFT) == -b
    # F(ab) = -ba = -ab + b^2 in LEFT form
    assert anti_automorphism(mul(a, b), LEFT) == -mul(a, b) + mul(b, b)


def test_anti_automorphism_reverses_and_involutes():
    r = rng()
    for _ in range(30):
        x = random_element(r, 8, terms=4)
        y = random_element(r, 8, terms=4)
        assert anti_automorphism(mul(x, y), LEFT) == mul(
            anti_automorphism(y, LEFT), anti_automorphism(x, LEFT))
        assert anti_automorphism(anti_automorphism(x)) == x


# -- binomial powers and shears -------------------------------------------------------

def test_binomial_pow_examples():
    assert binomial_pow(-1, 3, 6) == AlgebraElement(6, RIGHT, {(3, 0): 1, (2, 1): -3})
    assert binomial_pow(0, 4, 6) == AlgebraElement(6, RIGHT, {(4, 0): 1})
    assert binomial_pow(1, 2, 6) == AlgebraElement(
        6, RIGHT, {(2, 0): 1, (1, 1): 2, (0, 2): 2})


def test_binomial_pow_equals_iterated_product():
    n = 7
    a, b = gen_a(n), gen_b(n)
    for x in (Fraction(1, 2), -2, GaussianRational(1, 1)):
        base = a + scale(x, b)
        for p in range(n + 1):
            assert binomial_pow(x, p, n).to_left() == power(base, p)


def test_negative_one_collapse():
    # (a-b)^p = a^p - p b a^(p-1)
    for p in range(2, 11):
        expect = AlgebraElement(p, RIGHT, {(p, 0): 1, (p - 1, 1): -p})
        assert binomial_pow(-1, p, p) == expect


def test_shear_examples():
    n = 6
    a, b = gen_a(n), gen_b(n)
    x = Fraction(5, 3)
    assert shear(x, a) == a + scale(x, b)
    for q in range(n + 1):
        assert shear(x, power(b, q)) == power(b, q)
    assert shear(1, power(a, 2)).to_right() == AlgebraElement(
        n, RIGHT, {(2, 0): 1, (1, 1): 2, (0, 2): 2})


def test_shear_group_law_and_homomorphism():
    r = rng()
    for _ in range(20):
        x, y = Fraction(r.randrange(-4, 5), r.choice([1, 2])), Fraction(r.randrange(-4, 5))
        u, v = random_element(r, 8, terms=4), random_element(r, 8, terms=4)
        assert shear(x, shear(y, u)) == shear(x + y, u)
        assert shear(x, mul(u, v)) == mul(shear(x, u), shear(x, v))


# -- diagnostics ------------------------------------------------------------------------

def test_coefficient_profile():
    n = 5
    assert coefficient_profile(AlgebraElement.zero(n)) == [0] * (n + 1)
    import math
    growth = AlgebraElement(n, LEFT, {(0, q): math.factorial(q) for q in range(n + 1)})
    assert coefficient_profile(growth) == [1] * (n + 1)
    x = gen_a(n) + scale(2, gen_b(n))
    assert coefficient_profile(x)[1] == 2


def test_homogeneous_part_and_degrees():
    x = AlgebraElement(6, LEFT, {(1, 1): 1, (0, 2): -1, (3, 0): 2})
    assert x.degree == 3 and x.valuation == 2
    assert not x.is_homogeneous
    assert x.homogeneous_part(2).is_homogeneous
    assert x.homogeneous_part(5).is_zero
