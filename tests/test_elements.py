import hashlib
import random
from fractions import Fraction

import pytest

from abalg.checks import random_element
from abalg.coefficients import GaussianRational
from abalg.division import invert
from abalg.elements import (LEFT, RIGHT, AlgebraElement, add, anti_automorphism,
                            binomial_pow, coefficient_profile, gen_a, gen_b, mul,
                            power, reorder_coeff, scale, shear, to_left, to_right)
from abalg.errors import OrderingMismatchError, OrderMismatchError
from abalg.expr import format_element, parse_element
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


# mul sizes its accumulator by deg x + deg y and skips the empty degrees of y.
# Each case is (x, y, order, the product as printed); the order-100 product
# is pinned by the SHA-256 of its 5418-character printed form.
MUL_BOUND_CASES = [
    ("0", "1 + a*b", 5, "0"),  # a zero factor, on either side
    ("1 + a*b", "0", 5, "0"),
    ("a^2*b + b^3", "a^4 - b^5", 6, "0"),  # val x + val y = 7 > 6: all truncated away
    # x of a single degree, y with gaps in its degrees, below and well below the order
    ("a^2*b", "1 + b^4 + a^3*b^6", 12,
     "a^2*b + a^2*b^5 + a^5*b^7 - 3*a^4*b^8 + 6*a^3*b^9 - 6*a^2*b^10"),
    ("a^2*b", "1 + b^4 + a^3*b^6", 30,
     "a^2*b + a^2*b^5 + a^5*b^7 - 3*a^4*b^8 + 6*a^3*b^9 - 6*a^2*b^10"),
    ("a^10", "b + a^5", 20, "a^10*b + a^15"),  # the a-power reaches deg x + deg y
    ("2", "1/3 + i", 0, "(2/3 + 2*i)"),
    ("1 + a", "b - 2", 1, "-2 - 2*a + b"),
    ("a^3*b^2 + 1/2*b^40", "b^7 + i*a^20*b^60 - 3*a^45", 100,
     "a15dc8b1760c2f8f5c545321f5c64068099a12abf0c4865169a3c4767fdbac05"),
]


@pytest.mark.parametrize("xs, ys, n, expected", MUL_BOUND_CASES)
def test_mul_sized_by_degree_keeps_its_results(xs, ys, n, expected):
    x, y = parse_element(xs, n), parse_element(ys, n)
    product = mul(x, y)
    text = format_element(product)
    assert expected in (text, hashlib.sha256(text.encode()).hexdigest())
    for r in range(n + 1):
        f = PolySeries.monomial(r, n + r)
        assert act(product, f) == act(x, act(y, f))


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


def test_shear_examples():
    n = 6
    a, b = gen_a(n), gen_b(n)
    x = Fraction(5, 3)
    assert shear(x, a) == a + scale(x, b)
    for q in range(n + 1):
        assert shear(x, power(b, q)) == power(b, q)
    assert shear(1, power(a, 2)).to_right() == AlgebraElement(
        n, RIGHT, {(2, 0): 1, (1, 1): 2, (0, 2): 2})


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


# -- one representation ----------------------------------------------------------------

def test_the_kernels_construct_no_gaussian_rational(monkeypatch):
    """Elements are stored as integer tables over one denominator, and the
    kernels read and build those tables directly: a GaussianRational made
    inside one of them means it converts a table to coefficients and back."""
    keys = [(p, d - p) for d in range(7) for p in range(d + 1)]
    values = [GaussianRational(Fraction(k + 1, 3 + k % 4), Fraction(2 - k, 5 + k % 3))
              for k in range(len(keys))]
    x = AlgebraElement(6, LEFT, dict(zip(keys, values)))
    y = AlgebraElement(6, LEFT, dict(zip(keys, reversed(values))))
    x_right = AlgebraElement(6, RIGHT, dict(zip(keys, values)))
    s = GaussianRational(Fraction(-3, 2), Fraction(2, 3))
    made = []
    original = GaussianRational.__init__

    def counted(self, *args):
        made.append(args)
        original(self, *args)

    monkeypatch.setattr(GaussianRational, "__init__", counted)
    results = [mul(x, y), to_right(x), to_left(x_right), shear(s, x), shear(s, x_right),
               invert(x), power(x, 5), add(x, y), anti_automorphism(x),
               anti_automorphism(x_right, LEFT)]
    assert made == []
    monkeypatch.undo()
    assert all(not r.is_zero for r in results)
