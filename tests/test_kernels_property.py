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

The module layer's integer kernels are refereed on GaussianRationals too:
`@` by an explicit triple sum, minimal_polynomial by evaluate_poly_at_matrix
and the first solve_dependency among the flattened powers,
characteristic_polynomial by Cayley-Hamilton and a cofactor-expansion
determinant, rational_roots by Poly.__call__ on the rational-root-theorem
candidates, gaussian_roots by the Gaussian-rational roots planted in
products with an integer quadratic and an integer scale, and modules.act by
the basis law summed over RIGHT monomials.
Matrices are 1x1 to 6x6: dense or sparse over distinct denominators, zero,
scalar and nilpotent.
"""

import math
import random
import time
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
from abalg.linalg import (QMatrix, characteristic_polynomial,  # noqa: E402
                          evaluate_poly_at_matrix, matrix_power_sequence,
                          minimal_polynomial, solve_dependency)
from abalg import modules  # noqa: E402
from abalg.modules import (DifferentialSystem, SimplePoleModule,  # noqa: E402
                           from_differential_system, satisfies_system)
from abalg.oracle import PolySeries, act, act_composed  # noqa: E402
from abalg.polynomials import Poly, gaussian_roots, rational_roots  # noqa: E402
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


@given(st.integers(1, 6).flatmap(lambda k: st.tuples(matrices(k), st.lists(scalars(), min_size=k,
                                                                            max_size=k))))
def test_apply_agrees_with_the_triple_sum(case):
    a, vec = case
    assert a.apply(vec) == tuple(r[0] for r in _product(a, QMatrix([[c] for c in vec])))


@given(matrices())
def test_minimal_polynomial_is_the_first_power_dependency(a):
    p = minimal_polynomial(a)
    k = a.shape[0]
    assert p.is_monic and 1 <= p.degree <= k
    assert evaluate_poly_at_matrix(p, a).is_zero
    flat = [tuple(c for row in m.rows for c in row) for m in matrix_power_sequence(a, k)]
    d = 1
    while solve_dependency(flat[:d + 1]) is None:
        d += 1
    assert d == p.degree


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


@st.composite
def planted_roots(draw):
    """(R, prod_(r in R) (x - r) * g * k): 1-4 Gaussian-rational roots R, some
    drawn again as repeats, an integer quadratic g and an integer scale k."""
    roots = draw(st.lists(st.builds(GaussianRational, small_fractions, small_fractions),
                          min_size=1, max_size=4))
    roots += draw(st.lists(st.sampled_from(roots), max_size=3))
    g = Poly(draw(st.lists(st.integers(-9, 9), min_size=2, max_size=2)) + [draw(st.integers(1, 9))])
    return roots, Poly.from_roots(roots) * g * draw(st.integers(1, 50))


@given(planted_roots())
def test_gaussian_roots_include_every_planted_root(case):
    roots, f = case
    found = gaussian_roots(f)
    assert set(roots) <= set(found)
    assert all(not f(z) for z in found)
    assert len(set(found)) == len(found)
    assert rational_roots(f) == [z.re for z in found if not z.im]


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
