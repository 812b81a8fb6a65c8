import random
from fractions import Fraction

import pytest

from abalg.coefficients import GaussianRational
from abalg.elements import LEFT, RIGHT, AlgebraElement, gen_a, gen_b, mul, power
from abalg.errors import OrderMismatchError, ZeroConstantTermError
from abalg.linalg import QMatrix, characteristic_polynomial, minimal_polynomial
from abalg.polynomials import Poly, gaussian_roots, interpolate, rational_roots
from abalg.series import APolynomial, BSeries


# -- b-series ------------------------------------------------------------------

def test_bseries_arithmetic():
    s = BSeries(4, {0: 1, 2: Fraction(1, 2)})
    t = BSeries(4, {1: 2})
    assert (s + t).coeffs == BSeries(4, {0: 1, 1: 2, 2: Fraction(1, 2)}).coeffs
    assert (s * t) == BSeries(4, {1: 2, 3: 1})
    assert s * t == t * s
    assert s.shifted(2) == BSeries(4, {2: 1, 4: Fraction(1, 2)})


def test_bseries_shift_by_a_negative_power_is_refused():
    s = BSeries(4, {1: 3})
    assert s.shifted(0) == s
    with pytest.raises(ValueError):
        s.shifted(-1)


def test_bseries_inverse():
    s = BSeries(6, {0: 2, 1: -1, 3: Fraction(1, 3)})
    assert s * s.inverse() == BSeries.one(6)
    with pytest.raises(ZeroConstantTermError):
        BSeries(3, {1: 1}).inverse()


def test_bseries_derivative():
    s = BSeries(4, {1: 3, 3: 2})
    assert s.derivative() == BSeries(3, {0: 3, 2: 6})


def test_bseries_element_round_trip():
    s = BSeries(5, {0: 1, 4: GaussianRational(0, 1)})
    assert BSeries.from_element(s.to_element()) == s
    with pytest.raises(ValueError):
        BSeries.from_element(gen_a(3))
    with pytest.raises(OrderMismatchError):
        s == BSeries(4, {0: 1})


def test_bseries_is_a_commutative_subalgebra():
    rng = random.Random(9)
    n = 8
    for _ in range(20):
        s = BSeries(n, {rng.randrange(0, n + 1): Fraction(rng.randrange(-3, 4))
                        for _ in range(3)})
        t = BSeries(n, {rng.randrange(0, n + 1): Fraction(rng.randrange(-3, 4))
                        for _ in range(3)})
        assert s * t == t * s
        assert mul(s.to_element(), t.to_element()) == (s * t).to_element()


# -- a-polynomials ------------------------------------------------------------------

def test_apolynomial_structure():
    n = 6
    p = APolynomial(n, [BSeries(n, {1: 3}), BSeries(n - 1, {0: 1})])
    assert p.a_degree == 1
    assert p.to_element(LEFT) == gen_a(n) + AlgebraElement.monomial(0, 1, n, 3)
    assert APolynomial.from_element(p.to_element(RIGHT)) == p
    assert APolynomial.zero(n).is_zero
    assert APolynomial.zero(n).a_degree is None


def test_apolynomial_respects_total_degree():
    n = 4
    x = power(gen_a(n), 2) + mul(power(gen_a(n), 2), power(gen_b(n), 2))
    p = APolynomial.from_element(x.to_right())
    assert p.coefficient(2).order == n - 2
    assert p.to_element(LEFT) == x


# -- dense polynomials ----------------------------------------------------------------

def test_poly_divmod_and_gcd():
    f = Poly.from_roots([1, 2, 3])
    q, r = f.divmod(Poly.from_roots([1]))
    assert q == Poly.from_roots([2, 3]) and r.is_zero


def test_interpolation():
    pts = [(0, 1), (1, 2), (2, 5), (3, 10)]
    assert interpolate(pts) == Poly([1, 0, 1])
    assert interpolate([(Fraction(1, 2), Fraction(1, 4))])(Fraction(1, 2)) == Fraction(1, 4)


def test_rational_roots():
    f = Poly.from_roots([Fraction(1, 2), -3, -3]) * 4
    assert rational_roots(f) == [-3, Fraction(1, 2)]
    assert rational_roots(Poly([1, 0, 1])) == []


def test_gaussian_sqrt():
    i = GaussianRational(0, 1)
    assert gaussian_roots(Poly([1, 0, 1])) == [-i, i]
    z = GaussianRational(3, 4)
    ws = gaussian_roots(Poly([-z, 0, 1]))
    assert len(ws) == 2 and all(w * w == z for w in ws)
    assert gaussian_roots(Poly([-2, 0, 1])) == []


def test_gaussian_roots_mixed():
    i = GaussianRational(0, 1)
    f = Poly.from_roots([2, i, -i, GaussianRational(1, 1)])
    roots = gaussian_roots(f)
    assert len(roots) == 4 and all(not f(z) for z in roots)
    # roots outside Q(i) are never reported
    assert gaussian_roots(Poly([-2, 0, 1])) == []


# -- exact linear algebra ------------------------------------------------------------

def test_matrix_operations():
    m = QMatrix([[1, 2], [3, 4]])
    ident = QMatrix.identity(2)
    assert m @ ident == m
    assert (m - m).is_zero


def test_characteristic_vs_minimal():
    rng = random.Random(17)
    for _ in range(10):
        k = rng.randrange(1, 4)
        m = QMatrix([[Fraction(rng.randrange(-3, 4)) for _ in range(k)]
                     for _ in range(k)])
        mp = minimal_polynomial(m)
        cp = characteristic_polynomial(m)
        assert cp.degree == k and cp.is_monic
        # the minimal polynomial divides the characteristic polynomial
        _, rem = cp.divmod(mp)
        assert rem.is_zero
