"""Property tests of BSeries and APolynomial, which are views of an AlgebraElement.

Every BSeries operation that runs on the element's integer table (sum,
difference, negation, scaling, shift, derivative, truncation, lifting and
the coefficient view) is refereed coefficientwise by GaussianRational
arithmetic on `coeffs`, at orders 0-12, for dense, sparse and zero series
with small coefficients and ~20-bit numerators over distinct 10-bit primes.
`BSeries.__mul__`, the Cauchy product on `coeffs`, referees `inverse`.
APolynomial's `parts`, its conversions to and from elements in both
orderings and its sum are checked to round-trip.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from abalg.coefficients import GaussianRational  # noqa: E402
from abalg.elements import LEFT, RIGHT  # noqa: E402
from abalg.series import APolynomial, BSeries  # noqa: E402

ZERO = GaussianRational(0)
PRIMES_10_BIT = [n for n in range(2 ** 9 + 1, 2 ** 10, 2) if all(n % d for d in range(3, 32, 2))]

orders = st.integers(0, 12)
large_part = st.builds(Fraction, st.integers(-2 ** 20, 2 ** 20), st.sampled_from(PRIMES_10_BIT))
scalars = st.one_of(st.builds(GaussianRational, st.integers(-3, 3), st.integers(-3, 3)),
                    st.builds(GaussianRational, large_part, large_part),
                    st.builds(GaussianRational, st.fractions(max_denominator=9)))


@st.composite
def series(draw, order=None, unit=False):
    """A dense, sparse or zero b-series (a unit if asked)."""
    order = draw(orders) if order is None else order
    shape = draw(st.sampled_from(("dense", "sparse", "zero")))
    coeffs = [ZERO] * (order + 1)
    if shape != "zero":
        keys = range(order + 1) if shape == "dense" else draw(
            st.lists(st.integers(0, order), max_size=4, unique=True))
        for q in keys:
            coeffs[q] = draw(scalars)
    if unit:
        coeffs[0] = draw(scalars.filter(bool))
    return BSeries(order, coeffs)


def padded(coeffs, order):
    """coeffs cut or filled with zeros to order + 1 entries."""
    return tuple(coeffs[:order + 1]) + (ZERO,) * (order + 1 - len(coeffs))


@given(series(), series(), scalars)
def test_linear_operations_agree_with_the_coefficients(s, t, c):
    order = min(s.order, t.order)
    cs, ct = s.coeffs, t.coeffs
    assert len(cs) == s.order + 1 and BSeries(s.order, cs) == s
    assert (s + t).order == (s - t).order == order
    assert (s + t).coeffs == tuple(cs[q] + ct[q] for q in range(order + 1))
    assert (s - t).coeffs == tuple(cs[q] - ct[q] for q in range(order + 1))
    assert (-s).coeffs == tuple(-v for v in cs)
    assert s.scaled(c).coeffs == tuple(c * v for v in cs)
    assert s.is_zero == (not any(cs))
    assert s.valuation == next((q for q, v in enumerate(cs) if v), None)
    for q in range(-2, s.order + 3):
        assert s.coefficient(q) == (cs[q] if 0 <= q <= s.order else ZERO)


@given(series(), st.integers(0, 14), st.integers(0, 14))
def test_shift_derivative_truncation_and_lift_agree_with_the_coefficients(s, k, m):
    cs, n = s.coeffs, s.order
    assert s.shifted(k).coeffs == padded((ZERO,) * k + cs, n)
    d = s.derivative()
    assert d.order == max(n - 1, 0)
    assert d.coeffs == padded(tuple(cs[q + 1] * (q + 1) for q in range(n)), d.order)
    if m <= n:
        assert s.truncated(m).coeffs == cs[:m + 1]
    else:
        assert s.lifted(m).coeffs == padded(cs, m)
    with pytest.raises(ValueError):
        s.shifted(-1 - k)


@given(orders.flatmap(lambda n: series(n, unit=True)))
def test_a_unit_times_its_inverse_is_one(s):
    assert s * s.inverse() == BSeries.one(s.order)
    assert s.inverse() * s == BSeries.one(s.order)


@st.composite
def a_polynomials(draw, order=None):
    """(order, parts) with parts b-series at any orders, trailing zeros allowed."""
    order = draw(orders) if order is None else order
    count = draw(st.integers(0, order + 1))
    parts = [draw(series(draw(orders))) for _ in range(count)]
    return order, parts


@given(a_polynomials(), st.integers(0, 3))
def test_a_polynomial_parts_and_conversions_round_trip(case, extra):
    order, parts = case
    p = APolynomial(order, parts)
    expected = [padded(s.coeffs, order - j) for j, s in enumerate(parts)]
    while expected and not any(expected[-1]):
        expected.pop()
    assert [s.coeffs for s in p.parts] == expected
    assert [s.order for s in p.parts] == [order - j for j in range(len(expected))]
    assert p.a_degree == (len(expected) - 1 if expected else None)
    assert p.is_zero == (not expected)
    assert APolynomial(order, p.parts) == p
    for j in range(order + extra + 1):
        want = expected[j] if j < len(expected) else padded((), max(order - j, 0))
        assert p.coefficient(j).coeffs == want
    for ordering in (LEFT, RIGHT):
        x = p.to_element(ordering)
        assert x.ordering is ordering and APolynomial.from_element(x) == p


@given(a_polynomials(), a_polynomials())
def test_a_polynomial_sum_and_difference_agree_with_the_parts(p_case, q_case):
    p, q = APolynomial(*p_case), APolynomial(*q_case)
    low = min(p.order, q.order)
    total, difference = p + q, p - q
    assert total.order == difference.order == low
    for j in range(low + 1):
        s, t = (v.coefficient(j).truncated(low - j).coeffs for v in (p, q))
        assert total.coefficient(j).coeffs == tuple(x + y for x, y in zip(s, t))
        assert difference.coefficient(j).coeffs == tuple(x - y for x, y in zip(s, t))
    assert total.to_element() == p.to_element() + q.to_element()
    assert (-p).to_element() == -p.to_element()
