import random
import time
from fractions import Fraction

import pytest

from abalg import division, elements, polynomials
from abalg.checks import (_divide_by_the_tail, random_bseries_unit, random_element, random_gaussian,
                          random_unit)
from abalg.coefficients import GaussianRational
from abalg.division import (FactoredProduct, divide, divide_linear, factor_homogeneous,
                            invert, power_division_closed_form, remainder_polynomial)
from abalg.elements import (LEFT, RIGHT, AlgebraElement, gen_a, gen_b, mul, power, scale)
from abalg.errors import (NotHomogeneousError, NotMonicError, OrderMismatchError,
                          ZeroConstantTermError, ZeroElementError)
from abalg.oracle import oracle_check_mul
from abalg.polynomials import Poly, gaussian_roots, rational_roots
from abalg.series import BSeries


def rng():
    return random.Random(97)


# -- inversion ---------------------------------------------------------------

def test_invert_geometric_series():
    n = 7
    one = AlgebraElement.one(n)
    assert invert(one - gen_b(n)) == AlgebraElement(n, LEFT,
                                                    {(0, q): 1 for q in range(n + 1)})
    assert invert(one - gen_a(n)) == AlgebraElement(n, LEFT,
                                                    {(p, 0): 1 for p in range(n + 1)})


def test_invert_one_minus_ab():
    n = 4
    x = AlgebraElement.one(n) - mul(gen_a(n), gen_b(n))
    y = invert(x)
    # frozen via the fixed-point oracle Y <- 1 + (ab)Y, checked below too
    assert y == AlgebraElement(n, LEFT, {(0, 0): 1, (1, 1): 1, (2, 2): 1, (1, 3): -1})
    fixed = AlgebraElement.one(n)
    for _ in range(n):
        fixed = AlgebraElement.one(n) + mul(mul(gen_a(n), gen_b(n)), fixed)
    assert y == fixed
    assert oracle_check_mul(x, y, 3 * n)


def test_invert_is_two_sided_and_respects_scaling():
    r = rng()
    n = 8
    one = AlgebraElement.one(n)
    for _ in range(25):
        x = random_unit(r, n)
        y = invert(x)
        assert mul(x, y) == one
        assert mul(y, x) == one
        c = random_gaussian(r)
        if c:
            assert invert(scale(c, x)) == scale(c.inverse(), y)


def test_invert_agrees_with_series_inverse_on_b():
    n = 9
    s = BSeries(n, {0: 2, 1: GaussianRational(Fraction(-1, 2)), 3: 1})
    assert invert(s.to_element()) == s.inverse().to_element()


def _bits(n: int) -> int:
    return abs(n).bit_length()


@pytest.mark.parametrize("order", [8, 9, 10])
def test_invert_numerators_stay_near_the_size_of_the_result(monkeypatch, order):
    """Each degree of the inverse is carried over its own denominator, so no
    numerator the loop feeds to _times_b_power is much longer than the
    largest part (denominator or numerator) of the reduced result; one
    denominator for all of x' would scale degree d by D^d, about three times
    the result's size on these units."""
    r = random.Random(4099 + order)

    def part():
        return Fraction(r.randrange(2 ** 19, 2 ** 20) * r.choice((1, -1)),
                        r.randrange(2 ** 9, 2 ** 10))

    keys = [(p, d - p) for d in range(order + 1) for p in range(d + 1)]
    x = AlgebraElement(order, LEFT, {k: GaussianRational(part(), part()) for k in keys})
    seen = []
    original = division._times_b_power

    def spy(q, terms, width):
        seen.extend(max(_bits(re), _bits(im)) for _, _, re, im in terms)
        return original(q, terms, width)

    monkeypatch.setattr(division, "_times_b_power", spy)
    y = invert(x)
    monkeypatch.undo()
    result = max([_bits(y.den)] + [max(_bits(re), _bits(im)) for re, im in y.table.values()])
    assert result > 1000 and seen
    assert max(seen) <= result + 32
    assert mul(x, y) == AlgebraElement.one(order)


def test_invert_requires_unit():
    with pytest.raises(ZeroConstantTermError):
        invert(gen_a(5))


# -- linear division ---------------------------------------------------------------

def test_divide_linear_examples():
    n = 6
    a, b = gen_a(n), gen_b(n)
    lam = Fraction(7, 2)
    q, r = divide_linear(a, lam)
    assert q == AlgebraElement.one(n - 1) and r == BSeries(n, {1: lam})
    q, r = divide_linear(power(b, 3), lam)
    assert q.is_zero and r == BSeries(n, {3: 1})
    q, r = divide_linear(power(a, 2), 1)
    assert q == gen_a(n - 1) + gen_b(n - 1)
    assert r == BSeries(n, {2: 2})


def test_closed_form_oracle():
    q, rem = power_division_closed_form(4, 0)
    assert q == AlgebraElement(3, LEFT, {(3, 0): 1}) and rem.is_zero


# -- factored products --------------------------------------------------------------

def test_divide_product_examples():
    n = 6
    a, b = gen_a(n), gen_b(n)
    product = FactoredProduct.from_lambdas([1, 2], n)
    res = divide(power(a, 2), product)
    assert res.quotient == AlgebraElement.one(n - 2)
    assert res.remainder.to_element(LEFT) == scale(3, mul(a, b)) - scale(3, mul(b, b))
    # dividing the expansion itself gives Q = 1, R = 0
    res = divide(product.expanded(), product)
    assert res.quotient == AlgebraElement.one(n - 2)
    assert res.remainder.is_zero
    # b is already reduced
    res = divide(b, product)
    assert res.quotient.is_zero
    assert res.remainder.to_element(LEFT) == b


def test_divide_inverts_each_unit_part_once(monkeypatch):
    r = rng()
    n = 8
    product = FactoredProduct(tuple((GaussianRational(k), random_bseries_unit(r, n))
                                    for k in range(3)), n)
    dividends = [random_element(r, n, terms=5) for _ in range(4)]
    inverted = []
    original = BSeries.inverse

    def counted(self):
        inverted.append(self.order)
        return original(self)

    monkeypatch.setattr(BSeries, "inverse", counted)
    results = [divide(x, product) for x in dividends]
    monkeypatch.undo()
    assert inverted == [n] * 3
    for x, res in zip(dividends, results):
        recon = mul(res.quotient.lifted(n), product.expanded()) + res.remainder.to_element(LEFT)
        assert recon == x


def test_divide_agrees_with_the_running_tail_formula():
    # divide forms R = x - Q P, which makes Q P + R = x hold by construction;
    # the running-tail formula computes R from the peels' own remainders
    r = rng()
    for _ in range(40):
        n = r.randrange(1, 11)
        k = r.randrange(1, min(n, 4) + 1)
        above = r.randrange(0, 4)
        product = FactoredProduct(tuple(
            (GaussianRational(Fraction(r.randrange(-4, 5), r.choice([1, 2, 3])),
                              r.randrange(-1, 2)),
             random_bseries_unit(r, n + above)) for _ in range(k)), n + above)
        x = random_element(r, n, terms=6, ordering=r.choice([LEFT, RIGHT]))
        res = divide(x, product)
        assert (res.quotient, res.remainder) == _divide_by_the_tail(x, product)


def test_divide_by_one_to_six_factors_at_orders_0_to_16():
    # every k = 1..6 at every order 0..16, LEFT and RIGHT, the divisor known
    # 0..3 orders above the dividend; each lam, the up to 12 terms of x and
    # the unit parts (a constant and up to two more terms) are Gaussian over
    # denominators from 1 to 7
    r = rng()

    def gaussian():
        return GaussianRational(Fraction(r.randrange(-9, 10), r.randrange(1, 8)),
                                Fraction(r.randrange(-9, 10), r.randrange(1, 8)))

    for k in range(1, 7):
        for n in range(17):
            order = n + r.randrange(0, 4)
            units = []
            for _ in range(k):
                table = {r.randrange(0, order + 1): gaussian() for _ in range(r.randrange(3))}
                table[0] = gaussian() or GaussianRational(1, 1)
                units.append(BSeries(order, table))
            product = FactoredProduct(tuple((gaussian(), s) for s in units), order)
            for ordering in (LEFT, RIGHT):
                x = AlgebraElement(n, ordering, {(p, r.randrange(0, n + 1 - p)): gaussian()
                                                 for p in (r.randrange(0, n + 1)
                                                           for _ in range(12))})
                if n < k:
                    with pytest.raises(OrderMismatchError):
                        divide(x, product)
                    continue
                res = divide(x, product)
                assert res.quotient.ordering is ordering and res.quotient.order == n - k
                assert res.remainder.a_degree is None or res.remainder.a_degree <= k - 1
                assert (res.quotient, res.remainder) == _divide_by_the_tail(x, product)
                q = res.quotient.with_ordering(LEFT).lifted(n)
                assert (mul(q, product.expanded(n)) + res.remainder.to_element(LEFT)
                        == x.with_ordering(LEFT))


def _by_factors(y, product):
    """y P multiplied out factor by factor, as divide checks R = x - Q P."""
    n = y.order
    left = y.with_ordering(LEFT)
    return AlgebraElement.from_ints(n, LEFT, *division._times_factors(n, left.den, left.table,
                                                                       product.factors))


def test_the_product_by_factors_equals_the_expanded_product():
    # the referee of divide's check: for every k = 1..6 at every order
    # 0..16, on LEFT and RIGHT dividends x (whose terms past degree n - k
    # the product drops as they appear) and on their quotients Q, the
    # product by the factors has the den and table of mul by the expanded
    # divisor; each lam, the up to 12 terms of x and the unit parts (a
    # constant and up to two more terms) are Gaussian over denominators 1..7
    r = random.Random(131)

    def gaussian():
        return GaussianRational(Fraction(r.randrange(-9, 10), r.randrange(1, 8)),
                                Fraction(r.randrange(-9, 10), r.randrange(1, 8)))

    for k in range(1, 7):
        for n in range(17):
            order = max(n, 1) + r.randrange(0, 3)
            units = []
            for _ in range(k):
                table = {r.randrange(1, order + 1): gaussian() for _ in range(r.randrange(3))}
                table[0] = gaussian() or GaussianRational(1, 1)
                units.append(BSeries(order, table))
            product = FactoredProduct(tuple((gaussian(), s) for s in units), order)
            expanded = product.expanded(n)
            for ordering in (LEFT, RIGHT):
                x = AlgebraElement(n, ordering, {(p, r.randrange(0, n + 1 - p)): gaussian()
                                                 for p in (r.randrange(0, n + 1)
                                                           for _ in range(12))})
                ys = [x]
                if n >= k:
                    ys.append(divide(x, product).quotient.with_ordering(LEFT).lifted(n))
                for y in ys:
                    assert _by_factors(y, product) == mul(y.with_ordering(LEFT), expanded)


def test_a_product_of_order_0_expands_to_zero():
    # every factor (a - lam b) S has degree at least 1, so at order 0 the
    # product is the zero element, with or without unit parts
    units = FactoredProduct(((GaussianRational(1, 2), BSeries(3, {0: 2, 1: 1})),
                             (GaussianRational(-1), BSeries(0, {0: GaussianRational(0, 1)}))), 0)
    for product in (FactoredProduct.from_lambdas([1], 0), units):
        assert product.expanded() == AlgebraElement.zero(0)
        assert product.expanded(0) == AlgebraElement.zero(0)
    product = FactoredProduct(((GaussianRational(1, 2), BSeries(3, {0: 2, 1: 1})),), 3)
    assert product.expanded(0) == product.expanded().truncated(0) == AlgebraElement.zero(0)


def test_divide_calls_no_mul_and_never_expands_the_divisor(monkeypatch):
    # Q P is multiplied out factor by factor on Q's integer table, so a
    # division makes no generic product and leaves the divisor unexpanded
    r = rng()
    n, k = 8, 3
    product = FactoredProduct(tuple((GaussianRational(j), random_bseries_unit(r, n))
                                    for j in range(k)), n)
    dividends = [random_element(r, order, terms=5, ordering=ordering)
                 for order, ordering in ((n, LEFT), (n, RIGHT), (n - 1, LEFT), (n, LEFT))]

    def refuse(*args):
        raise AssertionError("divide made a generic product")

    for module in (elements, division):
        monkeypatch.setattr(module, "mul", refuse)
    monkeypatch.setattr(FactoredProduct, "expanded", refuse)
    results = [divide(x, product) for x in dividends]
    monkeypatch.undo()
    assert product._expansion is None
    for x, res in zip(dividends, results):
        assert (res.quotient, res.remainder) == _divide_by_the_tail(x, product)
        q = res.quotient.with_ordering(LEFT).lifted(x.order)
        assert (mul(q, product.expanded(x.order)) + res.remainder.to_element(LEFT)
                == x.with_ordering(LEFT))


def test_divide_builds_as_many_elements_for_any_number_of_factors(monkeypatch):
    # the peels and the check R = x - Q P, with Q P multiplied out factor by
    # factor, run on integer tables: with the unit parts inverted ahead, one
    # division builds the same few elements (every element is filled in by
    # elements._fill) for k = 1..6
    r = rng()
    n = 10
    x = random_element(r, n, terms=6, ordering=RIGHT)
    built = []
    original = elements._fill

    def counted(*args):
        built.append(None)
        return original(*args)

    counts = []
    for k in range(1, 7):
        product = FactoredProduct(tuple((GaussianRational(Fraction(j + 1, 3), 1),
                                         random_bseries_unit(r, n)) for j in range(k)), n)
        product.unit_inverses
        built.clear()
        monkeypatch.setattr(elements, "_fill", counted)
        res = divide(x, product)
        monkeypatch.undo()
        counts.append(len(built))
        assert not res.quotient.is_zero
        assert (res.quotient, res.remainder) == _divide_by_the_tail(x, product)
    assert counts == [counts[0]] * 6 and counts[0] <= 10, counts


def test_divide_linear_on_left_input_makes_no_shear_and_no_reordering(monkeypatch):
    def refuse(*args):
        raise AssertionError("divide_linear left the LEFT table")

    for module in (elements, division):
        for name in ("shear", "to_right", "to_left"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    r = rng()
    n = 9
    cases = [(random_element(r, n, terms=6), GaussianRational(Fraction(r.randrange(-9, 10), 7),
                                                              Fraction(1, 3)))
             for _ in range(10)]
    results = [divide_linear(x, lam) for x, lam in cases]
    monkeypatch.undo()
    a, b = gen_a(n), gen_b(n)
    for (x, lam), (q, rem) in zip(cases, results):
        assert q.ordering is LEFT
        assert mul(q.lifted(n), a - scale(lam, b)) + rem.to_element() == x


def test_divide_needs_enough_order():
    product = FactoredProduct.from_lambdas([0, 0, 0], 2)
    with pytest.raises(OrderMismatchError):
        divide(gen_a(2), product)


def test_unit_parts_must_be_units():
    with pytest.raises(ZeroConstantTermError):
        FactoredProduct(((GaussianRational(1), BSeries(4, {1: 1})),), 4)


# -- remainder polynomials ------------------------------------------------------------

def test_remainder_polynomial_of_pure_powers():
    for m in (1, 2, 4):
        rho = remainder_polynomial(power(gen_a(m), m))
        assert rho == Poly.from_roots(list(range(0, -m, -1)))


def test_remainder_polynomial_linear_convention():
    n = 4
    lam0 = GaussianRational(Fraction(5, 2))
    rho = remainder_polynomial(gen_a(n) - scale(lam0, gen_b(n)))
    assert rho == Poly([-lam0, 1])   # rho(lam) = lam - lam0


def test_remainder_polynomial_roots_give_right_factors():
    n = 6
    a, b = gen_a(n), gen_b(n)
    x = mul(a - b, a - scale(2, b))   # = a^2 - 3ab + 3b^2
    rho = remainder_polynomial(x)
    roots = rational_roots(rho)
    assert roots == [0, 2]
    for lam in roots:
        _, rem = divide_linear(x, lam)
        assert rem.is_zero


def test_remainder_polynomial_rejects_bad_input():
    with pytest.raises(NotHomogeneousError):
        remainder_polynomial(gen_a(3) + AlgebraElement.one(3))
    with pytest.raises(NotMonicError):
        remainder_polynomial(scale(2, gen_a(3)))
    with pytest.raises(ZeroElementError):
        remainder_polynomial(AlgebraElement.zero(3))


# -- homogeneous factorization -----------------------------------------------------------

def test_factor_pure_power():
    f = factor_homogeneous(power(gen_a(5), 4))
    assert f.complete and f.b_power == 0
    assert all(not lam for lam in f.lambdas) and len(f.lambdas) == 4


def test_factor_known_quadratic():
    n = 6
    a, b = gen_a(n), gen_b(n)
    x = mul(a - b, a - scale(2, b))
    f = factor_homogeneous(x)
    assert f.complete
    assert [lam.re for lam in f.lambdas] == [1, 2]
    assert f.expanded() == x


def test_factor_collapsed_cube():
    # (a-b)^3 = a^3 - 3 b a^2 in RIGHT form
    n = 6
    cube = power(gen_a(n) - gen_b(n), 3)
    assert cube.to_right() == AlgebraElement(n, RIGHT, {(3, 0): 1, (2, 1): -3})
    f = factor_homogeneous(cube)
    assert f.complete and f.expanded() == cube
    assert all(lam == GaussianRational(1) for lam in f.lambdas)


def test_factor_strips_b_powers_and_scale():
    n = 8
    a, b = gen_a(n), gen_b(n)
    x = scale(GaussianRational(0, 3), mul(power(b, 2), mul(a - b, a + b)))
    f = factor_homogeneous(x)
    assert f.b_power == 2 and f.scale == GaussianRational(0, 3)
    assert f.complete and f.expanded() == x


def test_factor_gaussian_lambdas():
    n = 6
    a, b = gen_a(n), gen_b(n)
    i = GaussianRational(0, 1)
    x = mul(a - scale(i, b), a + scale(i, b))
    f = factor_homogeneous(x)
    assert f.complete and f.expanded() == x


def test_factor_partial_when_roots_are_irrational():
    # rho of a^2 + c b^2 is lam^2 + lam + c, whose discriminant 1 - 4c is 7/3
    # or -27: not a square in Q(i), so no linear form splits off that core
    n = 6
    a, b = gen_a(n), gen_b(n)
    half = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    for c in (Fraction(-1, 3), 7):
        for lambdas in ((), (1, Fraction(-1, 2)), (half,)):
            x = power(a, 2) + scale(c, power(b, 2))
            for lam in lambdas:
                x = mul(x, a - scale(lam, b))
            f = factor_homogeneous(x)
            assert not f.complete and f.core.degree == 2 and len(f.lambdas) == len(lambdas)
            assert f.expanded() == x
            assert gaussian_roots(remainder_polynomial(f.core)) == []


def test_factor_re_expands_at_order_0():
    x = AlgebraElement.scalar(GaussianRational(2, -1), 0)
    f = factor_homogeneous(x)
    assert f.complete and f.lambdas == () and f.expanded() == x


def test_factor_makes_one_root_search(monkeypatch):
    calls = {"roots": 0, "rho": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(polynomials, "gaussian_roots", counted("roots", polynomials.gaussian_roots))
    monkeypatch.setattr(division, "remainder_polynomial",
                        counted("rho", division.remainder_polynomial))
    n = 9
    a, b = gen_a(n), gen_b(n)
    half = GaussianRational(Fraction(1, 2), Fraction(-1, 2))
    cases = [
        power(a, 2),
        mul(a - b, a - scale(2, b)),
        mul(mul(a - scale(2, b), a - b), a - b),   # a double and a simple root of rho
        mul(power(b, 2), mul(a - scale(half, b), a + scale(half, b))),
        mul(power(a, 2) + scale(7, power(b, 2)), a - b),   # partial
        power(a, 2) + scale(7, power(b, 2)),
        power(a - scale(half, b), 6),
    ]
    for x in cases:
        calls.update(roots=0, rho=0)
        f = factor_homogeneous(x)
        assert f.expanded() == x
        assert calls == {"roots": 1, "rho": 1}


def test_factor_a_tenfold_root_of_rho_at_order_30_in_bounded_time():
    """By the shift rule, (a - (c+9)b) ... (a - (c+1)b)(a - cb) has
    rho = (lam - c)^10."""
    n = 30
    a, b = gen_a(n), gen_b(n)
    c = GaussianRational(Fraction(1, 2), -1)
    x = AlgebraElement.one(n)
    for t in range(9, -1, -1):
        x = mul(x, a - scale(c + t, b))
    assert remainder_polynomial(x) == Poly.from_roots([c] * 10)
    start = time.perf_counter()
    f = factor_homogeneous(x)
    assert time.perf_counter() - start < 1  # 0.01 s on one Xeon vCPU
    assert f.complete and f.lambdas == tuple(c + t for t in range(9, -1, -1))
    assert f.expanded() == x


def test_factor_random_split_products():
    r = rng()
    n = 8
    for _ in range(15):
        x = AlgebraElement.one(n)
        for _ in range(r.randrange(0, 4)):
            lam = GaussianRational(Fraction(r.randrange(-3, 4), r.choice([1, 2])))
            x = mul(x, gen_a(n) - scale(lam, gen_b(n)))
        x = mul(power(gen_b(n), r.randrange(0, 3)), x)
        f = factor_homogeneous(x)
        assert f.complete and f.expanded() == x


def _planted(roots, order):
    """A product of linear forms whose remainder polynomial has exactly the
    given roots, by the shift rule: (a - (r_(m-1) + m-1) b) ... (a - (r_1 + 1) b)(a - r_0 b)."""
    a, b = gen_a(order), gen_b(order)
    x = AlgebraElement.one(order)
    for t in range(len(roots) - 1, -1, -1):
        x = mul(x, a - scale(roots[t] + t, b))
    assert remainder_polynomial(x) == Poly.from_roots(roots)
    return x


def _g(re, im=0):
    return GaussianRational(Fraction(re), Fraction(im))


@pytest.mark.parametrize("roots, lambdas", [
    # repeated real roots
    ([_g(1), _g("1/2"), _g(2), _g(1), _g("1/2"), _g(1)],
     [_g("11/2"), _g("9/2"), _g(4), _g(3), _g(2), _g(2)]),
    # Gaussian roots that share a real part
    ([_g("1/2", 1), _g("1/2"), _g("1/2", -1), _g("1/2", 2), _g("-1/2", 1)],
     [_g("7/2", 1), _g("7/2", -1), _g("5/2"), _g("3/2", 1), _g("1/2", 2)]),
    # roots over mixed denominators: the integer sort keys over one common
    # denominator order them as their Fractions do
    ([_g("1/2"), _g("2/3"), _g("5/6"), _g("-1/2", "1/3"), _g("2/3", "-5/6"), _g("5/6", "1/2")],
     [_g("9/2", "1/3"), _g("9/2"), _g("11/3", "-5/6"), _g("8/3"), _g("11/6"), _g("5/6", "1/2")]),
], ids=["repeated-real", "shared-real-part", "mixed-denominators"])
def test_factor_peels_the_pinned_lambdas(roots, lambdas):
    x = _planted(roots, len(roots) + 1)
    f = factor_homogeneous(x)
    assert f.complete and list(f.lambdas) == lambdas
    assert f.expanded() == x
