"""Property tests of the integer kernels: mul, invert, the ordering
conversions, shear and divide_linear; and of the one-pass module stack:
remainder_polynomial, factored divide and from_differential_system.

Inputs are dense and sparse elements at orders 0-10 in both orderings,
with coefficients of three heights: the small values of the invariant
suites, ~20-bit numerators over distinct 10-bit primes (so the common
denominator of an element is large), and integers (common denominator 1).
The zero element is drawn too.  The oracle `act` referees mul, and
`act_composed` (composed act_a/act_b on Fractions) referees `act` itself on
dense, sparse and zero series with degree bounds on both sides of
deg X + max r; divide_linear referees remainder_polynomial, the product
identity referees divide, and satisfies_system (the module action
substituted back into the system) referees from_differential_system.
"""

import random
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from abalg.coefficients import GaussianRational  # noqa: E402
from abalg.division import (FactoredProduct, divide, divide_linear, invert,  # noqa: E402
                            remainder_polynomial)
from abalg.elements import (LEFT, RIGHT, AlgebraElement, gen_a, gen_b, mul,  # noqa: E402
                            scale, shear, to_left, to_right, with_ordering)
from abalg.linalg import QMatrix  # noqa: E402
from abalg.modules import (DifferentialSystem, from_differential_system,  # noqa: E402
                           satisfies_system)
from abalg.oracle import PolySeries, act, act_composed  # noqa: E402
from abalg.series import BSeries  # noqa: E402

MAX_ORDER = 10

SUITE_VALUES = [
    GaussianRational(1), GaussianRational(-1), GaussianRational(2),
    GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-3, 2)),
    GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(1, 1),
    GaussianRational(Fraction(2, 3)), GaussianRational(-2, Fraction(1, 2)),
]

# The primes between 2^9 and 2^10: denominators drawn from them are pairwise coprime.
PRIMES_10_BIT = [n for n in range(2 ** 9 + 1, 2 ** 10, 2) if all(n % d for d in range(3, 32, 2))]

HEIGHTS = ("small", "large", "integer")


def _part(height):
    if height == "large":
        return st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20), st.sampled_from(PRIMES_10_BIT))
    return st.integers(-9, 9)


def coefficients(height):
    if height == "small":
        return st.sampled_from(SUITE_VALUES)
    return st.builds(GaussianRational, _part(height), _part(height))


def scalars():
    return st.sampled_from(HEIGHTS).flatmap(coefficients)


@st.composite
def elements(draw, order, ordering=None, unit=False):
    """A dense, sparse or zero element of the given order (a unit if asked)."""
    ordering = draw(st.sampled_from([LEFT, RIGHT])) if ordering is None else ordering
    height = draw(st.sampled_from(HEIGHTS))
    keys = [(p, d - p) for d in range(order + 1) for p in range(d + 1)]
    shape = draw(st.sampled_from(("dense", "sparse", "zero")))
    if shape == "dense":
        chosen = keys
    elif shape == "sparse":
        chosen = draw(st.lists(st.sampled_from(keys), max_size=5, unique=True))
    else:
        chosen = []
    table = {k: draw(coefficients(height)) for k in chosen}
    if unit:
        table[(0, 0)] = draw(coefficients(height).filter(bool))
    return AlgebraElement(order, ordering, table)


orders = st.integers(0, MAX_ORDER)


def pairs(ordering=None):
    return orders.flatmap(lambda n: st.tuples(elements(n, ordering), elements(n, ordering)))


@given(pairs())
def test_mul_agrees_with_the_oracle(xy):
    x, y = (with_ordering(v, LEFT) for v in xy)
    n = x.order
    product = mul(x, y)
    for r in range(n + 1):
        f = PolySeries.monomial(r, n + r)
        assert act(product, f) == act(x, act(y, f))


@st.composite
def series_for(draw, x):
    """A dense, sparse (with gaps) or zero series whose degree bound lies
    below or above deg x + max r, so that the output is truncated or not."""
    height = draw(st.sampled_from(HEIGHTS))
    shape = draw(st.sampled_from(("dense", "sparse", "zero")))
    if shape == "dense":
        exponents = range(draw(st.integers(0, 3 * MAX_ORDER)) + 1)
    elif shape == "sparse":
        exponents = draw(st.lists(st.integers(0, 60), max_size=6, unique=True))
    else:
        exponents = []
    table = {r: draw(coefficients(height)) for r in exponents}
    reach = (x.degree or 0) + max(table, default=0)
    return PolySeries(draw(st.integers(0, reach + 2)), table)


@given(orders.flatmap(lambda n: elements(n, LEFT)).flatmap(
    lambda x: st.tuples(st.just(x), series_for(x))))
def test_act_agrees_with_the_composed_action(xf):
    x, f = xf
    assert act(x, f) == act_composed(x, f)


def _dense_left(order):
    keys = [(p, d - p) for d in range(order + 1) for p in range(d + 1)]
    return AlgebraElement(order, LEFT, {k: SUITE_VALUES[i % len(SUITE_VALUES)]
                                        for i, k in enumerate(keys)})


def test_act_with_a_huge_degree_bound_visits_only_the_reached_degrees():
    x = _dense_left(6)
    f = PolySeries(10 ** 9, {0: GaussianRational(1), 5000: GaussianRational(Fraction(2, 3), 1)})
    assert act(x, f) == act_composed(x, f)


def test_act_on_a_widely_scattered_series():
    x = _dense_left(4)
    exponents = random.Random(0).sample(range(10 ** 5), 300)
    f = PolySeries(10 ** 5, {r: SUITE_VALUES[r % len(SUITE_VALUES)] for r in exponents})
    assert act(x, f) == act_composed(x, f)


@given(orders.flatmap(lambda n: elements(n, unit=True)))
def test_invert_is_a_two_sided_inverse(x):
    y = invert(x)
    assert y.ordering is x.ordering
    xl, yl = with_ordering(x, LEFT), with_ordering(y, LEFT)
    one = AlgebraElement.one(x.order)
    assert mul(xl, yl) == one
    assert mul(yl, xl) == one


@given(orders.flatmap(elements))
def test_ordering_conversions_are_inverse(x):
    if x.ordering is LEFT:
        assert to_left(to_right(x)) == x
    else:
        assert to_right(to_left(x)) == x


@given(scalars(), orders.flatmap(elements))
def test_shear_by_minus_s_undoes_shear_by_s(s, x):
    sheared = shear(s, x)
    assert sheared.ordering is x.ordering
    assert shear(-s, sheared) == x


@given(scalars(), pairs(LEFT))
def test_shear_is_multiplicative(s, xy):
    x, y = xy
    assert shear(s, mul(x, y)) == mul(shear(s, x), shear(s, y))


@given(scalars(), orders.flatmap(elements))
def test_divide_linear_identity(lam, x):
    q, r = divide_linear(x, lam)
    n = x.order
    assert q.ordering is x.ordering
    # a - lam*b has degree 1, so it is zero in the order-0 quotient
    divisor = gen_a(n) - scale(lam, gen_b(n)) if n else AlgebraElement.zero(0)
    lhs = mul(with_ordering(q, LEFT).lifted(n), divisor) + r.to_element()
    assert lhs == with_ordering(x, LEFT)


@st.composite
def monic_homogeneous(draw):
    """A homogeneous element of degree m <= 8 with a^m coefficient 1, at order >= m."""
    m = draw(st.integers(0, 8))
    order = m + draw(st.integers(0, 2))
    coeff = scalars()
    table = {(p, m - p): draw(coeff) for p in range(m)}
    table[(m, 0)] = GaussianRational(1)
    return AlgebraElement(order, draw(st.sampled_from([LEFT, RIGHT])), table)


@given(monic_homogeneous(), scalars())
def test_remainder_polynomial_gives_the_remainder_at_any_lambda(x, lam):
    m = x.degree
    _, rem = divide_linear(x, lam)
    assert rem == BSeries.monomial(m, x.order, remainder_polynomial(x)(lam))


@st.composite
def factored_products(draw, k, order):
    def unit():
        c0 = draw(coefficients("small").filter(bool))
        return BSeries(order, [c0] + [draw(scalars()) for _ in range(order)])

    return FactoredProduct(tuple((draw(scalars()), unit()) for _ in range(k)), order)


@st.composite
def division_cases(draw):
    """(x, z, P): x RIGHT-ordered at order n, P of k factors known to order >= n."""
    k = draw(st.integers(1, 3))
    n = draw(st.integers(k, 8))
    product = draw(factored_products(k, n + draw(st.integers(0, 3))))
    return draw(elements(n, RIGHT)), draw(elements(n, LEFT)), product


@given(division_cases())
def test_divide_identity_and_remainder_invariance(case):
    x, z, product = case
    n, k = x.order, len(product)
    p = product.expanded(n)
    res = divide(x, product)
    assert res.quotient.ordering is RIGHT and res.quotient.order == n - k
    assert res.remainder.a_degree is None or res.remainder.a_degree <= k - 1
    q = with_ordering(res.quotient, LEFT).lifted(n)
    assert mul(q, p) + res.remainder.to_element(LEFT) == with_ordering(x, LEFT)
    shifted = divide(with_ordering(with_ordering(x, LEFT) + mul(z, p), RIGHT), product)
    assert shifted.remainder == res.remainder
    assert shifted.quotient == with_ordering(q.truncated(n - k) + z.truncated(n - k), RIGHT)


@st.composite
def systems(draw):
    k = draw(st.integers(1, 3))
    entry = st.sampled_from(SUITE_VALUES + [GaussianRational(0)])
    mats = [QMatrix([[draw(entry) for _ in range(k)] for _ in range(k)])
            for _ in range(draw(st.integers(1, 4)))]
    return DifferentialSystem(tuple(mats))


@given(systems(), st.integers(0, 16))
def test_ode2ab_satisfies_the_system(system, order):
    module, coeffs = from_differential_system(system, order)
    assert len(coeffs) == order + 1 and module.order == order
    assert module.x_at_zero() == system.residue
    assert satisfies_system(module, system)
