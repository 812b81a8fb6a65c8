"""Property tests of the integer kernels: mul, invert, the ordering
conversions, shear and divide_linear (through the product identity and the
closed form on powers of a, for lam over large denominators too); and of the
one-pass module stack: remainder_polynomial, factor_homogeneous, factored divide,
from_differential_system and BSeries.inverse.

Inputs are dense and sparse elements at orders 0-10 in both orderings,
with coefficients of three heights: the small values of the invariant
suites, ~20-bit numerators over distinct 10-bit primes (so the common
denominator of an element is large), and integers (common denominator 1).
The zero element is drawn too.  mul is also drawn on pairs of sparse
elements at orders 20-60, where deg x + deg y falls below or above the
order.  The oracle `act` referees mul, and
`act_composed` (composed act_a/act_b on Fractions) referees `act` itself on
dense, sparse and zero series with degree bounds on both sides of
deg X + max r; divide_linear referees remainder_polynomial, the
running-tail formula (checks._divide_by_the_tail) and the invariance of the
remainder under x -> x + zP referee divide, the peel loop that searches rho
again after every peel (checks._factor_by_peeling) referees
factor_homogeneous, satisfies_system (the module action
substituted back into the system) referees from_differential_system, and
BSeries.__mul__ and invert referee BSeries.inverse.

The module layer's integer kernels are refereed on GaussianRationals too:
`@` by an explicit triple sum, minimal_polynomial by evaluate_poly_at_matrix
and the first solve_dependency among the flattened powers,
characteristic_polynomial by Cayley-Hamilton and a cofactor-expansion
determinant, rational_roots by Poly.__call__ on the rational-root-theorem
candidates, gaussian_roots by the Gaussian-rational roots planted in
products of degree at most 13 with an integer quadratic, an irreducible
quadratic or 1 and an integer scale (and, counted with multiplicity, by
exact division by the product of their linear factors), the square-free
part and the modular certificate by products planted with multiplicities
1-4 and an irreducible quadratic, the count of roots with multiplicity
mod p by named forms with multiplicities up to 10 on the divisibility of
f by (x - z)^e and not (x - z)^(e+1), and modules.act by
the basis law summed over RIGHT monomials.
Matrices are 1x1 to 6x6: dense or sparse over distinct denominators, zero,
scalar and nilpotent; up to MAX_RANK for Cayley-Hamilton alone; and up to
8x8, sparse, block diagonal or with a repeated diagonal, where e_1's Krylov
space is often a proper subspace, so that minimal_polynomial's certificate on
it fails or passes with fewer than k vectors.  Both polynomials are also
pinned by SHA-256 on six fixed matrices.

Every element kernel's result is checked to be stored in lowest terms (one
denominator, no zero entry, no common factor) and to agree with its
GaussianRational view, and so are the matrices and polynomials that `@`, the
minimal, characteristic and remainder polynomials give; printing and JSON
are checked to round-trip elements with Gaussian coefficients over mixed
denominators.
"""

import hashlib
import json
import math
import random
import time
from collections import Counter
from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from abalg.checks import _divide_by_the_tail, _factor_by_peeling  # noqa: E402
from abalg.coefficients import GaussianRational  # noqa: E402
from abalg.division import (FactoredProduct, divide, divide_linear,  # noqa: E402
                            factor_homogeneous, invert, power_division_closed_form,
                            remainder_polynomial)
from abalg.elements import (LEFT, RIGHT, AlgebraElement, add,  # noqa: E402
                            anti_automorphism, binomial_pow, gen_a, gen_b, mul, power, scale,
                            shear, to_left, to_right, with_ordering)
from abalg.expr import format_element, parse_element  # noqa: E402
from abalg.jsonio import MAX_RANK, element_from_json, element_to_json  # noqa: E402
from abalg.linalg import (QMatrix, characteristic_polynomial,  # noqa: E402
                          evaluate_poly_at_matrix, matrix_power_sequence,
                          minimal_polynomial, solve_dependency)
from abalg import linalg, modules, polynomials  # noqa: E402
from abalg.modules import (DifferentialSystem, SimplePoleModule,  # noqa: E402
                           from_differential_system, satisfies_system)
from abalg.oracle import PolySeries, act, act_composed  # noqa: E402
from abalg.polynomials import (Poly, _certified_squarefree, _roots_with_multiplicity,  # noqa: E402
                               _squarefree, gaussian_roots, rational_roots)
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
def sparse_pairs(draw):
    """Two LEFT elements of at most 5 terms each at an order from 20 to 60.

    Pure powers of a are drawn often: a^p a^p' is the one product term whose
    a-power reaches deg x + deg y, the bound of mul's accumulator."""
    order = draw(st.integers(20, 60))
    keys = st.one_of(st.integers(0, order).map(lambda p: (p, 0)),
                     st.tuples(st.integers(0, order), st.integers(0, order)).filter(
                         lambda k: sum(k) <= order))
    return tuple(AlgebraElement(order, LEFT, draw(st.dictionaries(keys, scalars(), max_size=5)))
                 for _ in range(2))


@given(sparse_pairs(), st.lists(st.integers(0, 60), min_size=1, max_size=3))
def test_sparse_mul_at_high_orders(xy, exponents):
    """mul at orders 20-60 on sparse operands, whose degrees leave gaps and
    whose sum may fall below or above the order: the oracle agrees, and so
    does the product taken at a higher order and truncated back."""
    x, y = xy
    n = x.order
    product = mul(x, y)
    assert product == mul(x.lifted(n + 7), y.lifted(n + 7)).truncated(n)
    for r in exponents:
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


# -- storage in lowest terms, and the GaussianRational view --------------------------


def stored_in_lowest_terms(x) -> bool:
    parts = [part for c in x.table.values() for part in c]
    return (x.den >= 1 and all(re or im for re, im in x.table.values())
            and math.gcd(x.den, *parts) == 1
            and all(p >= 0 and q >= 0 and p + q <= x.order for p, q in x.table)
            and all(type(c) is tuple and len(c) == 2 for c in x.table.values()))


def agrees_with_its_view(x) -> bool:
    view = x.coeffs
    keys = [(p, d - p) for d in range(x.order + 1) for p in range(d + 1)]
    return (AlgebraElement(x.order, x.ordering, view) == x
            and all(x.coefficient(*k) == view.get(k, 0) for k in keys)
            and all(view[k] == GaussianRational(Fraction(re, x.den), Fraction(im, x.den))
                    for k, (re, im) in x.table.items()))


@given(orders.flatmap(lambda n: st.tuples(elements(n), elements(n), elements(n, unit=True),
                                          st.integers(0, n))),
       scalars())
def test_every_kernel_result_is_stored_in_lowest_terms(case, s):
    x, y, u, k = case
    n = x.order
    xl, yl = with_ordering(x, LEFT), with_ordering(y, LEFT)
    other = RIGHT if x.ordering is LEFT else LEFT
    zero = AlgebraElement.zero(n)
    results = [x, y, u, mul(xl, yl), mul(xl, zero), with_ordering(x, other), shear(s, x),
               invert(u), power(xl, 3), add(x, with_ordering(y, x.ordering)), x - x, -x,
               scale(s, x), scale(0, x), anti_automorphism(x), x.truncated(k),
               x.homogeneous_part(k), x.lifted(n + 1), binomial_pow(s, k, n),
               divide_linear(x, s)[0]]
    for r in results:
        assert stored_in_lowest_terms(r)
        assert agrees_with_its_view(r)
        if r.is_zero:
            assert r.den == 1 and r.table == {}
    assert (x - x).is_zero and scale(0, x).is_zero and mul(xl, zero).is_zero


def mixed_coefficients():
    part = st.one_of(st.integers(-5, 5),
                     st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=10 ** 4))
    return st.builds(GaussianRational, part, part)


@st.composite
def mixed_elements(draw):
    """An element of order <= 8 in either ordering, each coefficient over its own denominator."""
    order = draw(st.integers(0, 8))
    keys = [(p, d - p) for d in range(order + 1) for p in range(d + 1)]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True, max_size=len(keys)))
    return AlgebraElement(order, draw(st.sampled_from([LEFT, RIGHT])),
                          {k: draw(mixed_coefficients()) for k in chosen})


@given(st.one_of(mixed_elements(), orders.flatmap(elements)))
def test_printing_and_parsing_round_trip(x):
    assert parse_element(format_element(x), x.order, x.ordering) == x


@given(st.one_of(mixed_elements(), orders.flatmap(elements)))
def test_json_round_trip(x):
    assert element_from_json(json.loads(json.dumps(element_to_json(x)))) == x


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


@st.composite
def graded_units(draw):
    """A unit of order 0-8 whose degree blocks lie over distinct denominators.

    Some blocks are empty (degree 1 among them, often), so that invert's
    per-degree scales skip those degrees; the constant term is a Gaussian
    rational of norm other than 1.
    """
    order = draw(st.integers(0, 8))
    ordering = draw(st.sampled_from([LEFT, RIGHT]))
    dens = draw(st.lists(st.sampled_from([1, 2, 3, 4, 9, 25, 49] + PRIMES_10_BIT[:6]),
                         min_size=order + 1, max_size=order + 1, unique=True))
    empty = draw(st.sets(st.integers(1, max(order, 1))))
    re, im = draw(st.tuples(st.integers(-5, 5), st.integers(-5, 5))
                  .filter(lambda c: c[0] ** 2 + c[1] ** 2 > 1))
    table = {(0, 0): GaussianRational(Fraction(re, dens[0]), Fraction(im, dens[0]))}
    numerators = st.integers(-30, 30)
    for d in range(1, order + 1):
        if d in empty:
            continue
        keys = [(p, d - p) for p in range(d + 1)]
        for k in draw(st.lists(st.sampled_from(keys), min_size=1, unique=True)):
            table[k] = GaussianRational(Fraction(draw(numerators), dens[d]),
                                        Fraction(draw(numerators), dens[d]))
    return AlgebraElement(order, ordering, table)


@given(graded_units())
def test_invert_of_a_unit_with_graded_denominators(x):
    y = invert(x)
    assert y.ordering is x.ordering and stored_in_lowest_terms(y)
    xl, yl = with_ordering(x, LEFT), with_ordering(y, LEFT)
    n = x.order
    one = AlgebraElement.one(n)
    assert mul(xl, yl) == one and mul(yl, xl) == one
    for r in range(n + 1):
        f = PolySeries.monomial(r, n + r)
        assert act(xl, act(yl, f)) == f and act(yl, act(xl, f)) == f


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


@given(scalars(), pairs(LEFT))
def test_shear_on_the_left_form_agrees_with_the_right_form(s, xy):
    """shear runs on its input's own table, with falling products on the LEFT
    form and rising ones on the RIGHT form; the RIGHT path is multiplicative
    through mul as well."""
    x, y = xy
    assert shear(s, x) == to_left(shear(s, to_right(x)))
    product = to_left(shear(s, to_right(mul(x, y))))
    assert product == mul(to_left(shear(s, to_right(x))), to_left(shear(s, to_right(y))))


def large_denominator_scalars():
    """Gaussian lam over denominators up to 2^40: divide_linear's back-substitution
    runs on numerators times powers of lam's denominator."""
    part = st.builds(Fraction, st.integers(-2 ** 40, 2 ** 40), st.integers(1, 2 ** 40))
    return st.builds(GaussianRational, part, part)


def lambdas():
    return st.one_of(scalars(), large_denominator_scalars())


def check_divide_linear_identity(x, lam):
    q, r = divide_linear(x, lam)
    n = x.order
    assert q.ordering is x.ordering and q.order == max(n - 1, 0) and r.order == n
    # a - lam*b has degree 1, so it is zero in the order-0 quotient
    divisor = gen_a(n) - scale(lam, gen_b(n)) if n else AlgebraElement.zero(0)
    lhs = mul(with_ordering(q, LEFT).lifted(n), divisor) + r.to_element()
    assert lhs == with_ordering(x, LEFT)


@given(lambdas(), orders.flatmap(elements))
def test_divide_linear_identity(lam, x):
    check_divide_linear_identity(x, lam)


@given(lambdas(), st.integers(0, 1).flatmap(elements))
def test_divide_linear_identity_at_orders_0_and_1(lam, x):
    check_divide_linear_identity(x, lam)


@given(large_denominator_scalars(), orders.flatmap(lambda n: elements(n, RIGHT)))
def test_divide_linear_identity_on_right_input_with_large_denominators(lam, x):
    check_divide_linear_identity(x, lam)


@given(st.integers(1, MAX_ORDER), lambdas(), st.sampled_from([LEFT, RIGHT]))
def test_divide_linear_agrees_with_the_closed_form_on_powers_of_a(m, lam, ordering):
    qc, rc = power_division_closed_form(m, lam)
    q, r = divide_linear(with_ordering(power(gen_a(m), m), ordering), lam)
    assert q == with_ordering(qc, ordering) and r == rc


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
    assert (res.quotient, res.remainder) == _divide_by_the_tail(x, product)
    q = with_ordering(res.quotient, LEFT).lifted(n)
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


@st.composite
def gaussian_systems(draw):
    """Systems whose entries each draw their own height: Gaussian, over mixed denominators."""
    k = draw(st.integers(1, 3))
    mats = [QMatrix([[draw(scalars()) for _ in range(k)] for _ in range(k)])
            for _ in range(draw(st.integers(1, 3)))]
    return DifferentialSystem(tuple(mats))


@given(gaussian_systems(), st.integers(0, 8))
def test_ode2ab_satisfies_a_system_with_gaussian_entries_over_mixed_denominators(system, order):
    module, coeffs = from_differential_system(system, order)
    assert len(coeffs) == order + 1 and module.x_at_zero() == system.residue
    assert satisfies_system(module, system)


@st.composite
def bseries_units(draw):
    """A dense or sparse unit b-series whose constant term is not real."""
    order = draw(orders)
    rest = st.one_of(st.just(GaussianRational(0)), scalars())
    return BSeries(order, [draw(scalars().filter(lambda c: c.im))]
                   + [draw(rest) for _ in range(order)])


@given(bseries_units())
def test_bseries_inverse_of_a_unit_with_a_non_real_constant_term(s):
    inverse = s.inverse()
    assert s * inverse == BSeries.one(s.order)
    assert inverse.to_element() == invert(s.to_element())


# -- the module layer: matrices, their polynomials and the rational-root test ------

ZERO = GaussianRational(0)
MATRIX_KINDS = ("dense", "sparse", "zero", "scalar", "nilpotent")


@st.composite
def matrices(draw, k=None):
    """A k x k matrix, k in 1..6, of one of MATRIX_KINDS."""
    k = draw(st.integers(1, 6)) if k is None else k
    kind = draw(st.sampled_from(MATRIX_KINDS))
    entry = scalars()
    if kind == "zero":
        return QMatrix.zeros(k)
    if kind == "scalar":
        return QMatrix.identity(k).scaled(draw(entry))
    if kind == "sparse":
        entry = st.one_of(st.just(ZERO), entry)
    rows = [[draw(entry) if kind != "nilpotent" or j > i else ZERO for j in range(k)]
            for i in range(k)]
    return QMatrix(rows)


def _product(x, y):
    """x @ y as the triple sum on GaussianRationals."""
    return [[sum((x.entry(i, l) * y.entry(l, j) for l in range(x.shape[1])), ZERO)
             for j in range(y.shape[1])] for i in range(x.shape[0])]


@given(st.integers(1, 6).flatmap(lambda k: st.tuples(matrices(k), matrices(k))))
def test_matmul_agrees_with_the_triple_sum(xy):
    x, y = xy
    assert (x @ y).rows == tuple(map(tuple, _product(x, y)))


def _first_power_dependency(a) -> Poly:
    """The monic first dependency among the flattened powers of a, by
    solve_dependency over matrix_power_sequence."""
    flat = [tuple(c for row in m.rows for c in row) for m in matrix_power_sequence(a, a.shape[0])]
    d = 1
    while (dependency := solve_dependency(flat[:d + 1])) is None:
        d += 1
    return Poly(dependency)


@given(matrices())
def test_minimal_polynomial_is_the_first_power_dependency(a):
    p = minimal_polynomial(a)
    k = a.shape[0]
    assert p.is_monic and 1 <= p.degree <= k
    assert evaluate_poly_at_matrix(p, a).is_zero
    assert p == _first_power_dependency(a)


def _diagonal(entries):
    k = len(entries)
    return QMatrix([[entries[i] if i == j else 0 for j in range(k)] for i in range(k)])


def _jordan(blocks):
    """The direct sum of Jordan blocks J_size(value), each upper triangular."""
    k = sum(size for _, size in blocks)
    rows = [[0] * k for _ in range(k)]
    start = 0
    for value, size in blocks:
        for t in range(start, start + size):
            rows[t][t] = value
            if t + 1 < start + size:
                rows[t][t + 1] = 1
        start += size
    return QMatrix(rows)


@pytest.mark.parametrize("a", [
    # in the first seven, e_1 alone misses part of the spectrum, so a unit vector
    # off its pivots adds a factor
    _diagonal([1, 2, 3, 4, 5]),
    _diagonal([GaussianRational(0, 1), Fraction(1, 2), -3, GaussianRational(2, -1)]),
    _diagonal([2, 5, 2, 7, 5, 2]),
    QMatrix([[0, 0, 3, 0], [0, 2, 0, 0], [1, 0, 0, 0], [0, 0, 0, 2]]),  # a permuted diagonal
    _jordan([(2, 3), (2, 2), (-1, 1)]),
    _jordan([(GaussianRational(0, 1), 2), (GaussianRational(0, 1), 2), (Fraction(1, 3), 3)]),
    _jordan([(0, 1), (0, 3)]),
    QMatrix.zeros(5),
    QMatrix.identity(5),
    QMatrix.identity(1),
], ids=["distinct", "gaussian", "repeated", "permuted", "jordan", "jordan-gaussian",
        "nilpotent", "zero", "identity", "one"])
def test_minimal_polynomial_widens_to_the_columns_it_needs(a):
    assert minimal_polynomial(a) == _first_power_dependency(a)


def test_minimal_polynomial_of_a_dense_24x24_integer_matrix_in_bounded_time():
    r = random.Random(24)
    a = QMatrix([[r.randint(-9, 9) for _ in range(24)] for _ in range(24)])
    start = time.perf_counter()
    p = minimal_polynomial(a)
    assert time.perf_counter() - start < 1  # 0.09 s on one Xeon vCPU
    assert p == characteristic_polynomial(a)


def _determinant(rows):
    """Cofactor expansion along the first row."""
    if not rows:
        return GaussianRational(1)
    out = ZERO
    for j, c in enumerate(rows[0]):
        if c:
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            out = out + (c if j % 2 == 0 else -c) * _determinant(minor)
    return out


@given(matrices())
def test_characteristic_polynomial_cayley_hamilton_and_determinant(a):
    k = a.shape[0]
    cp = characteristic_polynomial(a)
    assert cp.degree == k and cp.is_monic
    assert evaluate_poly_at_matrix(cp, a).is_zero
    assert cp.divmod(minimal_polynomial(a))[1].is_zero
    det = _determinant([list(r) for r in a.rows])
    assert cp.coefficient(0) == (det if k % 2 == 0 else -det)


def test_characteristic_polynomial_of_the_special_kinds():
    n = QMatrix([[0, 2, GaussianRational(1, 1)], [0, 0, Fraction(1, 3)], [0, 0, 0]])
    assert characteristic_polynomial(n) == Poly([0, 0, 0, 1])
    assert minimal_polynomial(n) == Poly([0, 0, 0, 1])
    s = QMatrix.identity(3).scaled(GaussianRational(Fraction(2, 7), -1))
    assert minimal_polynomial(s) == Poly([GaussianRational(Fraction(-2, 7), 1), 1])
    assert minimal_polynomial(QMatrix.zeros(4)) == Poly([0, 1])


@st.composite
def gaussian_matrices(draw):
    """A dense or sparse k x k matrix, k in 1..MAX_RANK, of small or integer entries."""
    k = draw(st.integers(1, MAX_RANK))
    entry = coefficients(draw(st.sampled_from(("small", "integer"))))
    if draw(st.booleans()):
        entry = st.one_of(st.just(ZERO), entry)
    return QMatrix([[draw(entry) for _ in range(k)] for _ in range(k)])


@settings(max_examples=12)  # evaluate_poly_at_matrix takes about 1 s at k = 14
@given(gaussian_matrices())
def test_characteristic_polynomial_up_to_the_largest_rank_is_cayley_hamilton(a):
    cp = characteristic_polynomial(a)
    assert cp.degree == a.shape[0] and cp.is_monic
    assert evaluate_poly_at_matrix(cp, a).is_zero


def test_an_inexact_division_in_newtons_identities_is_an_internal_bug():
    """No matrix has the power sums p_1 = 0, p_2 = 1: 2 c_0 = -1 is no Gaussian integer."""
    assert linalg._newton([(2, 0), (4, 0)]) == [(0, 0), (-2, 0), (1, 0)]  # roots 2 and 0
    with pytest.raises(AssertionError, match="internal bug"):
        linalg._newton([(0, 0), (1, 0)])


def _dense_gaussian(k, seed):
    r = random.Random(seed)
    return QMatrix([[GaussianRational(Fraction(r.randint(-9, 9), r.randint(1, 4)),
                                      Fraction(r.randint(-9, 9), r.randint(1, 4)))
                     for _ in range(k)] for _ in range(k)])


# sha256 of repr((den, table)) of the characteristic and the minimal polynomial,
# as Faddeev-LeVerrier and the elimination on the first columns of the powers
# gave them before both moved to power sums and the Krylov vectors of e_1.
PINNED_POLYNOMIALS = [
    (QMatrix([[GaussianRational(Fraction(-3, 7), 2)]]),
     "2b1ff8ece6b6f75258c26686003d1b662ae36e16d644982a51482c48113882b3",
     "2b1ff8ece6b6f75258c26686003d1b662ae36e16d644982a51482c48113882b3"),
    (QMatrix.zeros(6),
     "76a45880019c381f2a7a25efe92b8d7e54e9c7462aafb949e3f985d8ccf2a92b",
     "2e030b929d296604971fcdc54c83a2620acedc4b4fefafaa425c026009faff89"),
    (QMatrix.identity(6),
     "55f84ccdd2d9a9f68d90cb5d2e806b18780ae640506e5f745dea38df12dec043",
     "4753c8eac3af9b51a169e3ebc64543a6a10ed43a3f159a368d571897d9f696a1"),
    (QMatrix([[0, 2, GaussianRational(0, 1), 0, Fraction(1, 3)], [0, 0, -1, 5, 0],
              [0, 0, 0, GaussianRational(0, 1), 7], [0, 0, 0, 0, Fraction(-2, 9)],
              [0, 0, 0, 0, 0]]),
     "60bc7b7c12f970a6a3aae8d9b1537947c425ce6e45ab59abc2fb16c5107a5870",
     "60bc7b7c12f970a6a3aae8d9b1537947c425ce6e45ab59abc2fb16c5107a5870"),
    (_jordan([(2, 3), (GaussianRational(0, 1), 2), (Fraction(-1, 2), 2), (2, 1)]),
     "76ce08fe4dd326a9970411729ef69b08f69a925d015eb959bf514d4310a6a5b3",
     "1f48b10fd6890a280525e9e0506aa241d599e146648915884848d92dad07f3a3"),
    (_dense_gaussian(14, 14),
     "87d9474761ba178cf293988a9d157c3c3264f8659b972cf7d7aa2d658b84cfc9",
     "87d9474761ba178cf293988a9d157c3c3264f8659b972cf7d7aa2d658b84cfc9"),
]


@pytest.mark.parametrize("a, charpoly, minpoly", PINNED_POLYNOMIALS,
                         ids=["one", "zero", "identity", "nilpotent", "jordan", "dense-14"])
def test_matrix_polynomials_keep_their_pinned_values(a, charpoly, minpoly):
    def digest(p):
        return hashlib.sha256(repr((p.den, p.table)).encode()).hexdigest()
    assert digest(characteristic_polynomial(a)) == charpoly
    assert digest(minimal_polynomial(a)) == minpoly


@st.composite
def split_krylov_matrices(draw):
    """k <= 8: sparse, block diagonal, or a repeated diagonal with some Jordan
    chains, under a permutation, so that e_1's Krylov space is often a proper
    subspace, with entries of every height, so that the lcm meets large
    integers too."""
    k = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("sparse", "blocks", "repeated")))
    entry = coefficients(draw(st.sampled_from(HEIGHTS)))
    if kind == "sparse":
        rows = [[draw(st.one_of(st.just(ZERO), st.just(ZERO), entry)) for _ in range(k)]
                for _ in range(k)]
    elif kind == "blocks":
        block = sorted(draw(st.lists(st.integers(0, 2), min_size=k, max_size=k)))
        rows = [[draw(entry) if block[i] == block[j] else ZERO for j in range(k)]
                for i in range(k)]
    else:
        values = draw(st.lists(entry, min_size=1, max_size=3))
        diagonal = [draw(st.sampled_from(values)) for _ in range(k)]
        rows = [[diagonal[i] if i == j else GaussianRational(int(
            j == i + 1 and diagonal[i] == diagonal[j] and draw(st.booleans())))
                 for j in range(k)] for i in range(k)]
    perm = draw(st.permutations(range(k)))
    return QMatrix([[rows[perm[i]][perm[j]] for j in range(k)] for i in range(k)])


@given(split_krylov_matrices())
def test_minimal_polynomial_beyond_the_krylov_space_of_e1(a):
    assert minimal_polynomial(a) == _first_power_dependency(a)


def _diagonalizable_with_a_repeated_eigenvalue():
    """Eigenvalues 1, 2, 1, 1, 3 (1 three times; A - I has rank 2), and e_1
    meets the eigenspaces of 1, 2 and 3: d = 3 < k = 5."""
    rows = [[(1, 2, 1, 1, 3)[i] if i == j else 0 for j in range(5)] for i in range(5)]
    rows[1][0] = rows[4][0] = 1
    return QMatrix(rows)


@pytest.mark.parametrize("a, certified", [
    (_diagonalizable_with_a_repeated_eigenvalue(), True),
    (QMatrix([[1, 0, 0], [1, 2, 0], [0, 0, 1]]), True),
    (QMatrix.identity(4).scaled(GaussianRational(Fraction(2, 3), -1)), True),
    (_dense_gaussian(6, 6), True),  # d = k: no unit vector to check
    # e_1 is an eigenvector, and the eigenvalues are distinct
    (_diagonal([1, 2, 3, 4, 5]), False),
    # two blocks, e_1 in the first one
    (QMatrix([[0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 1, 0]]), False),
    # p = x - 1 kills every unit vector off the pivot but one: the first, a middle, the last
    (_diagonal([1, 2, 1, 1, 1]), False),
    (_diagonal([1, 1, 1, 2, 1]), False),
    (_diagonal([1, 1, 1, 1, 2]), False),
], ids=["repeated", "repeated-3", "scalar", "dense", "distinct", "two-blocks",
        "first-off-pivot", "middle-off-pivot", "last-off-pivot"])
def test_minimal_polynomial_certificate_on_the_krylov_vectors_of_e1(a, certified, monkeypatch):
    """The first dependency among A^j e_1 is accepted when its polynomial
    kills every unit vector off the pivots; else each unit vector it does
    not kill runs one more Krylov elimination, and the lcm is the product."""
    calls = []
    dependency = linalg._first_dependency
    monkeypatch.setattr(linalg, "_first_dependency", lambda vectors: calls.append(1) or
                        dependency(vectors))
    assert minimal_polynomial(a) == _first_power_dependency(a)
    assert (len(calls) == 1) == certified


def test_minimal_polynomial_of_a_two_block_24x24_integer_matrix_in_bounded_time():
    """e_1's Krylov space is the first block, so a unit vector of the second
    block runs one more Krylov elimination."""
    r = random.Random(24)
    a = QMatrix([[r.randint(-9, 9) if (i < 12) == (j < 12) else 0 for j in range(24)]
                 for i in range(24)])
    start = time.perf_counter()
    p = minimal_polynomial(a)
    assert time.perf_counter() - start < 1.5  # 0.005 s on one Xeon vCPU
    assert p == characteristic_polynomial(a)


def test_minimal_polynomial_of_a_14x14_matrix_of_three_20_bit_blocks_in_bounded_time():
    """Blocks of 5, 5 and 4 entries with 20-bit numerators and denominators:
    e_1's Krylov space is the first block, and the unit vectors of the
    others add their factors over large integers."""
    r = random.Random(14)
    block = [0] * 5 + [1] * 5 + [2] * 4
    a = QMatrix([[Fraction(r.randint(-2 ** 20, 2 ** 20), r.randint(1, 2 ** 20))
                  if block[i] == block[j] else 0 for j in range(14)] for i in range(14)])
    start = time.perf_counter()
    p = minimal_polynomial(a)
    assert time.perf_counter() - start < 1  # 0.08 s on one Xeon vCPU
    assert p == characteristic_polynomial(a)


def _divisors(n):
    n = abs(n)
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in small]


def _candidates(f):
    """The rational-root-theorem candidates, on Fractions: p/q with p dividing
    the lowest nonzero and q the leading coefficient of the real part with its
    denominators cleared (the imaginary part when the real part is zero)."""
    part = [c.re for c in f.coeffs]
    if not any(part):
        part = [c.im for c in f.coeffs]
    lcm = 1
    for c in part:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    ints = [int(c * lcm) for c in part]
    ints = ints[next(j for j, c in enumerate(ints) if c):]
    return {Fraction(0)} | {Fraction(s * p, q) for p in _divisors(ints[0])
                            for q in _divisors(ints[-1]) for s in (1, -1)}


small_fractions = st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6))


@st.composite
def polys_with_roots(draw):
    """prod (x - r) over drawn rational roots (repeats allowed), times a drawn
    cofactor with small Gaussian-rational coefficients, times a scalar."""
    f = Poly.from_roots(draw(st.lists(small_fractions, max_size=4)))
    cofactor = draw(st.lists(st.builds(GaussianRational, small_fractions, small_fractions),
                             min_size=1, max_size=4))
    f = f * Poly(cofactor)
    if f.is_zero:
        f = Poly([1])
    return f * draw(st.sampled_from(SUITE_VALUES))


@given(polys_with_roots())
def test_rational_roots_are_the_candidates_that_vanish(f):
    assert rational_roots(f) == sorted(r for r in _candidates(f) if not f(r))


@st.composite
def polys(draw):
    """A Gaussian, fractional or zero polynomial of degree < 7, drawn with
    zero coefficients (trailing ones too)."""
    kind = draw(st.sampled_from(("gaussian", "fractional", "zero")))
    if kind == "zero":
        return Poly([ZERO] * draw(st.integers(0, 3)))
    entry = scalars() if kind == "gaussian" else small_fractions
    return Poly(draw(st.lists(st.one_of(st.just(ZERO), entry), max_size=7)))


def stored_canonically(x) -> bool:
    """One denominator >= 1, lowest terms, (re, im) pairs, and no trailing zero."""
    rows = x.table if isinstance(x, QMatrix) else [x.table]
    pairs = [z for r in rows for z in r]
    return (x.den >= 1 and math.gcd(x.den, *(v for z in pairs for v in z)) == 1
            and all(type(z) is tuple and len(z) == 2 for z in pairs)
            and (isinstance(x, QMatrix) or not x.table or x.table[-1] != (0, 0)))


@given(matrices(), polys(), monic_homogeneous(), st.integers(1, 10 ** 6))
def test_matrices_and_polynomials_are_stored_canonically(a, f, x, c):
    """Every kernel output is canonical, so == and hash compare the storage:
    the view builds the same value back, and so do numerators and
    denominator scaled by any c (trailing zeros added for a Poly)."""
    for r in [a, -a, a @ a, QMatrix.identity(a.shape[0])]:
        assert stored_canonically(r) and QMatrix(r.rows) == r
        assert QMatrix.from_ints(c * r.den, [[(c * re, c * im) for re, im in row]
                                             for row in r.table]) == r
    for r in [f, minimal_polynomial(a), characteristic_polynomial(a), remainder_polynomial(x)]:
        same = Poly.from_ints(c * r.den, [(c * re, c * im) for re, im in r.table] + [(0, 0)])
        assert stored_canonically(r) and Poly(r.coeffs) == r == same
        assert hash(Poly(r.coeffs)) == hash(same) == hash(r)
    assert Poly().den == 1 and Poly().table == ()


@pytest.mark.parametrize("rs, cs, scale", [
    ([Fraction(1, 2), Fraction(-1, 2), 1], [(0, 1), (0, -1), (-2, 1), (-2, -1)], 2),
    ([-1, 1, Fraction(1, 9)], [(-2, 2), (-2, -2), (0, 2), (0, -2)], 3),
])
def test_gaussian_roots_search_the_exactly_deflated_part(rs, cs, scale):
    """The roots of f are its rational roots, ascending, then those of
    g = f / prod (x - r), whatever the scale of g."""
    g = Poly.from_roots([GaussianRational(*c) for c in cs]) * scale
    f = Poly.from_roots(rs) * g
    assert gaussian_roots(f) == [GaussianRational(r) for r in sorted(map(Fraction, rs))] \
        + gaussian_roots(g)


# x^2 + c with -c no square in Q(i): irreducible there, so it adds no root
IRREDUCIBLE_C = [2, 3, 5, -7, Fraction(1, 2), Fraction(-2, 3)]


@st.composite
def planted_roots(draw):
    """(R, prod_(r in R) (x - r) * g * k), of degree at most 13: 1-4 roots R,
    all rational or Gaussian rational, some drawn again as repeats (up to
    7), times g, an integer quadratic, an irreducible x^2 + c or 1, and an
    integer scale k.  With a repeat drawn, and g irreducible or 1, the
    count attempt of gaussian_roots runs first, and settles f when it
    splits and its distinct roots stay distinct mod the first prime."""
    im = st.just(Fraction(0)) if draw(st.booleans()) else small_fractions
    roots = draw(st.lists(st.builds(GaussianRational, small_fractions, im),
                          min_size=1, max_size=4))
    roots += draw(st.lists(st.sampled_from(roots), max_size=7))
    g = draw(st.one_of(
        st.builds(lambda c, top: Poly(c + [top]),
                  st.lists(st.integers(-9, 9), min_size=2, max_size=2), st.integers(1, 9)),
        st.sampled_from(IRREDUCIBLE_C).map(lambda c: Poly([c, 0, 1])),
        st.just(Poly([1]))))
    return roots, Poly.from_roots(roots) * g * draw(st.integers(1, 50))


@given(planted_roots())
def test_gaussian_roots_include_every_planted_root(case):
    roots, f = case
    found = gaussian_roots(f)
    assert set(roots) <= set(found)
    assert all(not f(z) for z in found)
    assert len(set(found)) == len(found)
    assert rational_roots(f) == [z.re for z in found if not z.im]


@given(planted_roots())
def test_roots_with_multiplicity_take_out_each_root_as_often_as_it_divides(case):
    roots, f = case
    found = _roots_with_multiplicity(f)
    assert list(dict.fromkeys(found)) == gaussian_roots(f)
    assert Counter(roots) <= Counter(found)
    quotient, rem = f.divmod(Poly.from_roots(found))
    assert rem.is_zero and all(quotient(z) for z in found)


@st.composite
def planted_products(draw):
    """(planted roots with multiplicity, whether x^2 + c was planted, f):
    1-4 distinct Gaussian-rational roots, each of multiplicity 1-4, times an
    optional irreducible x^2 + c, times a nonzero Gaussian-rational scale."""
    roots = draw(st.lists(st.builds(GaussianRational, small_fractions, small_fractions),
                          min_size=1, max_size=4, unique=True))
    planted = [z for z in roots for _ in range(draw(st.integers(1, 4)))]
    f = Poly.from_roots(planted)
    c = draw(st.sampled_from([None] + IRREDUCIBLE_C))
    if c is not None:
        f = f * Poly([c, 0, 1])
    scale = draw(st.builds(GaussianRational, small_fractions, small_fractions).filter(bool))
    return planted, c is not None, f * scale


@given(planted_products())
def test_squarefree_part_and_certificate_on_planted_products(case):
    """The square-free part has the roots of f, each once, and divides f;
    the roots with multiplicity are the planted multiset; and the
    certificate never calls f square-free when a root was planted twice."""
    planted, quadratic, f = case
    part = Poly.from_ints(1, _squarefree(f.table))
    assert part.degree == len(set(planted)) + 2 * quadratic
    assert f.divmod(part)[1].is_zero
    assert set(gaussian_roots(part)) == set(gaussian_roots(f)) == set(planted)
    assert _roots_with_multiplicity(part) == gaussian_roots(part)
    assert Counter(_roots_with_multiplicity(f)) == Counter(planted)
    if len(set(planted)) < len(planted):
        assert not _certified_squarefree(f.table)


def test_squarefree_part_of_a_degree_25_product_in_bounded_time():
    """Ten roots of multiplicity 1-4 and x^2 + 2: the subresultant sequence
    keeps its coefficients to the size of its determinants."""
    roots = [GaussianRational(Fraction(t, 3), Fraction(t % 4 - 2, 2)) for t in range(1, 11)]
    planted = [z for j, z in enumerate(roots) for _ in range(1 + j % 4)]
    f = Poly.from_roots(planted) * Poly([2, 0, 1])
    start = time.perf_counter()
    part = Poly.from_ints(1, _squarefree(f.table))
    assert time.perf_counter() - start < 1  # 0.01 s on one Xeon vCPU
    assert part.degree == 12 and f.divmod(part)[1].is_zero
    assert Counter(_roots_with_multiplicity(f)) == Counter(planted)


def test_a_leading_coefficient_divisible_by_the_certificate_prime_takes_the_exact_path(
        monkeypatch):
    """14 simple roots that meet in pairs mod 29, the first prime for degree
    14: the certificate clears f, but not q f for q = 2^61 - 1, whose
    residues of multiplicity 2 lift to no double root, so it takes the
    exact square-free part to the same roots."""
    roots = list(range(1, 8)) + list(range(30, 37))
    f = Poly.from_roots(roots)
    scaled = f * (2 ** 61 - 1)
    assert _certified_squarefree(f.table) and not _certified_squarefree(scaled.table)
    calls = []
    exact = polynomials._squarefree
    monkeypatch.setattr(polynomials, "_squarefree", lambda cs: calls.append(cs) or exact(cs))
    assert gaussian_roots(f) == [GaussianRational(r) for r in roots]
    assert calls == []
    assert gaussian_roots(scaled) == gaussian_roots(f)
    assert calls == [scaled.table]


def _assert_multiplicities(f, found):
    """Referee of roots with multiplicity, on GaussianRationals: (x - z)^e
    divides f and (x - z)^(e+1) does not, for each z found e times."""
    for z, e in Counter(found).items():
        assert f.divmod(Poly.from_roots([z] * e))[1].is_zero
        assert not f.divmod(Poly.from_roots([z] * (e + 1)))[1].is_zero


G = GaussianRational


@pytest.mark.parametrize("planted, cofactor, squarefree_calls", [
    # split, with repeated roots, each root distinct from the others mod 29
    ([Fraction(1, 2)] * 10 + [-3] * 4 + [Fraction(2, 3)], [1], 0),
    ([2] * 3 + [-1] * 2 + [5], [1], 0),
    ([7] * 10, [3], 0),
    ([G(Fraction(1, 2), -1)] * 10 + [G(3, 2)] * 2 + [G(Fraction(-2, 3), 1)], [1], 0),
    ([G(1, 2)] * 3 + [G(1, -2)] * 3 + [Fraction(1, 2)] * 2, [1], 0),   # a real form
    ([G(0, 1)] * 4 + [G(Fraction(1, 3))] * 5, [G(2, -1)], 0),
    # (x - 1)^2 (x^2 + 7)^2: does not split; x^2 + 7 is double mod 29 too
    ([1, 1], [49, 0, 14, 0, 1], 1),
    # split, 1 is double, and 1 and 30 meet mod 29: the count attempt fails
    ([1, 1, 2, 30], [1], 1),
    # 1, 30 and 59 meet mod 29, and f'' = 6x - 180 vanishes at 30: the triple
    # residue lifts on f'' to an exact root, but a simple one
    ([1, 30, 59], [1], 1),
])
def test_roots_with_multiplicity_by_the_count_certificate(
        monkeypatch, planted, cofactor, squarefree_calls):
    """A form that splits with repeated roots, whose distinct roots stay
    distinct mod the first prime, is settled by lifting each root mod p on
    the derivative that makes it simple, with no square-free part; any other
    form falls back to the square-free part.  Either way the roots with
    multiplicity are the planted ones, by the divisibility referee, and for a
    real form the rational roots are the rational-root candidates that
    vanish."""
    f = Poly.from_roots(planted) * Poly(cofactor)
    calls = []
    exact = polynomials._squarefree
    monkeypatch.setattr(polynomials, "_squarefree", lambda cs: calls.append(cs) or exact(cs))
    found = _roots_with_multiplicity(f)
    assert len(calls) == squarefree_calls
    assert Counter(found) == Counter(map(G.coerce, planted))
    _assert_multiplicities(f, found)
    if not any(im for _, im in f.table):
        assert rational_roots(f) == sorted(r for r in _candidates(f) if not f(r))


@pytest.mark.parametrize("planted", [
    [0, 3, G(17, -1)],
    [0, 0, 3, G(17, -1)],
])
def test_one_reduction_reads_off_roots_that_meet_under_the_other_sign_of_i(
        monkeypatch, planted):
    """At p = 29, s = 12 (the first prime and square root of -1 for these
    degrees), the roots 0, 3 and 17 - i reduce to 0, 3 and 5 under i -> 12,
    and 17 - i meets 0 under i -> 17, where the residue 0 would be multiple
    and call for the square-free part.  The one reduction by i -> 12 finds
    them all at the first prime, the doubled 0 by the count attempt, with no
    square-free part."""
    primes, squarefree_calls = [], []
    roots_mod, exact = polynomials._roots_mod, polynomials._squarefree
    monkeypatch.setattr(polynomials, "_roots_mod",
                        lambda cs, p: primes.append(p) or roots_mod(cs, p))
    monkeypatch.setattr(polynomials, "_squarefree",
                        lambda cs: squarefree_calls.append(cs) or exact(cs))
    f = Poly.from_roots(planted)
    assert polynomials._reduction(f.table, 29)[0] == 12
    primes.clear()
    found = _roots_with_multiplicity(f)
    assert primes == [29] and squarefree_calls == []
    assert Counter(found) == Counter(map(G.coerce, planted))
    _assert_multiplicities(f, found)


def test_the_per_prime_constants_meet_their_definitions():
    """For the first five primes p = 1 mod 4 above 20 and 0 to 4 squarings:
    s^2 = -1 mod p, t = s mod p, t^2 = -1 mod M = p^(2^k), |gamma|^2 = M and
    gamma divides t - i, so gamma Z[i] is the kernel of i -> t mod M."""
    primes = [polynomials._prime_after(20)]
    while len(primes) < 5:
        primes.append(polynomials._prime_after(primes[-1]))
    assert primes == [29, 37, 41, 53, 61]
    for p in primes:
        s = polynomials._square_root_of_minus_one(p)
        assert (s * s + 1) % p == 0
        for k in range(5):
            (gr, gi), m, t = polynomials._lift_constants(p, k)
            assert m == p ** (2 ** k) and t % p == s and (t * t + 1) % m == 0
            assert gr * gr + gi * gi == m
            # (t - i) conj(gamma) / M is a Gaussian integer
            assert (t * gr - gi) % m == 0 and (-t * gi - gr) % m == 0


@given(planted_products())
def test_root_bound_covers_every_root_of_the_monic_form(case):
    """_root_bound from bit lengths is at least max(|u|, |v|) for each root
    w = u + vi = c_n z of g = _monic(f.table), z a planted root of f."""
    planted, _, f = case
    g = polynomials._monic(f.table)
    bound = polynomials._root_bound(g)
    lr, li = f.table[-1]
    for z in planted:
        w = z * GaussianRational(lr, li)
        assert w.re.denominator == w.im.denominator == 1
        assert bound >= max(abs(w.re), abs(w.im))


@st.composite
def homogeneous_products(draw):
    """s b^j C prod_t (a - lam_t b): C is 1 or a^2 + c b^2 (rho of C is
    lam^2 + lam + c; c = 7 has no root in Q(i), a drawn c may or may not),
    each lam_t new, (1 - i)/2, or lam_(t-1), lam_(t-1) - 1 (a double root of rho)."""
    order = draw(st.integers(2, 9))
    a, b = gen_a(order), gen_b(order)
    j = draw(st.integers(0, 2))
    x = scale(draw(scalars().filter(bool)), power(b, j))
    room = order - j
    if room >= 2 and draw(st.booleans()):
        c = draw(st.one_of(st.just(GaussianRational(7)),
                           st.builds(GaussianRational, small_fractions, small_fractions)))
        x = mul(x, power(a, 2) + scale(c, power(b, 2)))
        room -= 2
    lam = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    for _ in range(draw(st.integers(0, room))):
        lam = draw(st.sampled_from([
            lam, lam - 1, GaussianRational(Fraction(1, 2), Fraction(-1, 2)),
            GaussianRational(draw(small_fractions), draw(small_fractions))]))
        x = mul(x, a - scale(lam, b))
    return with_ordering(x, draw(st.sampled_from([LEFT, RIGHT])))


@given(st.one_of(homogeneous_products(),
                 st.tuples(scalars().filter(bool), monic_homogeneous()).map(lambda s: scale(*s))))
def test_factor_homogeneous_agrees_with_peeling(x):
    """One root search, shifted, peels what a fresh search after each peel does."""
    f = factor_homogeneous(x)
    assert f == _factor_by_peeling(x)
    assert f.expanded() == with_ordering(x, LEFT)


@given(st.lists(st.builds(GaussianRational, small_fractions, small_fractions), max_size=7),
       st.randoms())
def test_factor_peels_planted_roots_in_re_im_order(roots, rnd):
    """The roots of rho, planted in any order by the shift rule, are peeled
    from the largest under (re, im): lam_t = r_t + t, with the r_t sorted
    by (z.re, z.im) descending and the lambdas listed from the left."""
    m = len(roots)
    order = m + 1
    a, b = gen_a(order), gen_b(order)
    planted = list(roots)
    rnd.shuffle(planted)
    x = AlgebraElement.one(order)
    for t in range(m - 1, -1, -1):
        x = mul(x, a - scale(planted[t] + t, b))
    f = factor_homogeneous(x)
    ranked = sorted(roots, key=lambda z: (z.re, z.im), reverse=True)
    assert f.complete and f.lambdas == tuple(r + t for t, r in enumerate(ranked))[::-1]


I = GaussianRational(0, 1)


@pytest.mark.parametrize("search, f, expected", [
    # about 9 * 10^7 rational-root-theorem candidates
    (rational_roots, Poly([963761198400, 1, 963761198400]), []),
    # a semiprime constant term
    (gaussian_roots, Poly([1000000007 * 1000000009, 0, 1]), []),
    # a scaled product of two Gaussian quadratics
    (gaussian_roots, Poly.from_roots([I, -I, -2 + I, -2 - I]) * 2, [-2 - I, -2 + I, -I, I]),
])
def test_root_searches_end_at_once_on_large_and_scaled_coefficients(search, f, expected):
    start = time.perf_counter()
    assert search(f) == expected
    assert time.perf_counter() - start < 1


@st.composite
def module_cases(draw):
    """(x, v, module): x RIGHT-ordered at order n >= the module's b-order."""
    theta = draw(matrices(draw(st.integers(1, 4))))
    k = theta.shape[0]
    order = draw(st.integers(0, 6))
    module = SimplePoleModule(theta, order)
    height = draw(st.sampled_from(HEIGHTS))
    entries = []
    for _ in range(k):
        exps = draw(st.lists(st.integers(0, order), max_size=3, unique=True))
        entries.append(BSeries(order, {q: draw(coefficients(height)) for q in exps}))
    x = draw(elements(order + draw(st.integers(0, 2)), RIGHT))
    return x, module.element(entries), module


def _shift_factor(theta, p):
    """M_p = (theta + (p-1)I) ... (theta + I) theta on GaussianRationals."""
    k = theta.shape[0]
    out = QMatrix.identity(k)
    for s in range(p):
        shifted = QMatrix([[theta.entry(i, j) + (s if i == j else 0) for j in range(k)]
                           for i in range(k)])
        out = QMatrix(_product(shifted, out))
    return out


@given(module_cases())
def test_module_act_is_the_basis_law_summed_over_right_monomials(case):
    """x (sum_i V_i e_i) = sum_i sum_(p,q) w_(p,q) b^q a^p e_i with w = x V_i in
    RIGHT order, and b^q a^p e = M_p b^(p+q) e."""
    x, v, module = case
    n, k = module.order, module.rank
    out = [[ZERO] * (n + 1) for _ in range(k)]
    for i, series in enumerate(v.entries):
        w = to_right(mul(to_left(x), series.to_element(x.order)))
        for (p, q), c in w.coeffs.items():
            if p + q <= n:
                m = _shift_factor(module.theta, p)
                for l in range(k):
                    out[l][p + q] = out[l][p + q] + c * m.entry(i, l)
    assert modules.act(x, v, module) == module.element(out)
