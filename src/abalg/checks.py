"""Named invariant suites, shared by the `selftest` subcommand and the tests.

Each check takes a seeded Random and raises AssertionError with a helpful
message on the first violation.  The default volumes are sized for a fast
`selftest`; tests/test_acceptance.py runs every suite in-process, each
acceptance criterion at its prescribed volume through the keyword arguments,
so each invariant is written once, here.
"""

from __future__ import annotations

import json
import math
import random
import time
from fractions import Fraction

from .coefficients import GaussianRational, ONE
from .division import (FactoredProduct, HomogeneousFactorization, divide, divide_linear,
                       factor_homogeneous, invert, power_division_closed_form,
                       remainder_polynomial)
from .elements import (LEFT, RIGHT, AlgebraElement, anti_automorphism, binomial_pow,
                       gen_a, gen_b, mul, power, reorder_coeff, scale, shear, with_ordering)
from .expansions import XiElement, xi_act_a, xi_act_b, xi_check_simple_pole
from .expr import format_element, parse_element
from .linalg import QMatrix, evaluate_poly_at_matrix, matrix_power_sequence, solve_dependency
from .modules import (DifferentialSystem, Fresco, SimplePoleModule, act, bernstein,
                      fresco_act, from_differential_system, satisfies_system, unit_fresco)
from .oracle import PolySeries, act as oracle_act, act_composed, injectivity_witness, oracle_check_mul
from .polynomials import gaussian_roots
from .series import APolynomial, BSeries

CHECKS: dict = {}


def check(name):
    def register(fn):
        CHECKS[name] = fn
        return fn
    return register


# -- random data ------------------------------------------------------------

_COEFF_POOL = [
    GaussianRational(1), GaussianRational(-1), GaussianRational(2),
    GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-3, 2)),
    GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(1, 1),
    GaussianRational(Fraction(2, 3)), GaussianRational(-2, Fraction(1, 2)),
]


def random_coeff(rng) -> GaussianRational:
    return rng.choice(_COEFF_POOL)


def random_rational(rng) -> Fraction:
    return Fraction(rng.randrange(-6, 7), rng.choice([1, 1, 2, 3]))


def random_element(rng, order, terms=5, ordering=LEFT, max_degree=None) -> AlgebraElement:
    top = order if max_degree is None else min(order, max_degree)
    table = {}
    for _ in range(terms):
        p = rng.randrange(0, top + 1)
        q = rng.randrange(0, top + 1 - p)
        table[(p, q)] = random_coeff(rng)
    return AlgebraElement(order, ordering, table)


def random_gaussian(rng) -> GaussianRational:
    return GaussianRational(random_rational(rng), rng.randrange(-1, 2))


def random_unit(rng, order, terms=5) -> AlgebraElement:
    x = random_element(rng, order, terms)
    table = dict(x.coeffs)
    table[(0, 0)] = rng.choice([c for c in _COEFF_POOL if c])
    return AlgebraElement(order, LEFT, table)


def random_bseries_unit(rng, order) -> BSeries:
    table = {0: rng.choice([ONE, GaussianRational(2), GaussianRational(Fraction(1, 2))])}
    for _ in range(2):
        table[rng.randrange(1, order + 1)] = random_coeff(rng)
    return BSeries(order, table)


def random_matrix(rng, k, rational_only=False) -> QMatrix:
    def entry():
        c = random_coeff(rng)
        return GaussianRational(c.re) if rational_only else c
    return QMatrix([[entry() for _ in range(k)] for _ in range(k)])


# -- core-algebra ----------------------------------------------------------------


@check("core-algebra/defining-relation-and-ring-axioms")
def check_ring_axioms(rng, triples=30, order=12):
    a, b = gen_a(order), gen_b(order)
    assert mul(a, b) - mul(b, a) == mul(b, b), "ab - ba != b^2"
    for _ in range(triples):
        x = random_element(rng, order, terms=4)
        y = random_element(rng, order, terms=4)
        z = random_element(rng, order, terms=4)
        assert mul(mul(x, y), z) == mul(x, mul(y, z)), "associativity failed"
        assert mul(x, y + z) == mul(x, y) + mul(x, z), "left distributivity failed"
        assert mul(x + y, z) == mul(x, z) + mul(y, z), "right distributivity failed"


@check("core-algebra/ordering-round-trip")
def check_ordering_round_trip(rng, count=100, order=10):
    for _ in range(count):
        x = random_element(rng, order, terms=rng.randrange(0, 8))
        assert x.to_right().to_left() == x, "to_left(to_right(x)) != x"
        y = random_element(rng, order, terms=rng.randrange(0, 8), ordering=RIGHT)
        assert y.to_left().to_right() == y, "to_right(to_left(y)) != y"


@check("core-algebra/reorder-coeff-recursions")
def check_reorder_recursions(rng, bound=30):
    for p in range(bound + 1):
        for q in range(bound + 1):
            for j in range(0, p + 2):
                lhs = reorder_coeff(p + 1, q, j)
                first = reorder_coeff(p, q, j) + (q + j - 1) * reorder_coeff(p, q, j - 1)
                second = reorder_coeff(p, q, j) + q * reorder_coeff(p, q + 1, j - 1)
                assert lhs == first, f"first recursion fails at {(p, q, j)}"
                assert lhs == second, f"second recursion fails at {(p, q, j)}"
    # spot values forced by the definition
    assert reorder_coeff(1, 1, 1) == 1
    for p in range(bound):
        assert reorder_coeff(p, 0, 0) == 1
        for j in range(1, p + 1):
            assert reorder_coeff(p, 0, j) == 0
    # the expansion of a^p b^q acts on z^r as its RIGHT terms b^qq a^pp do:
    # shift by pp, then integrate qq times
    for p in range(7):
        for q in range(7):
            mono = AlgebraElement.monomial(p, q, p + q)
            for r in range(7):
                top = r + p + q
                expect = PolySeries(top)
                for (pp, qq), c in mono.to_right().coeffs.items():
                    kernel = Fraction(1, math.perm(qq + r + pp, qq))
                    expect = expect + PolySeries(top, {r + pp + qq: c * kernel})
                assert oracle_act(mono, PolySeries.monomial(r, top)) == expect, \
                    f"the expansion of a^{p} b^{q} acts wrongly on z^{r}"


@check("core-algebra/anti-automorphism")
def check_anti_automorphism(rng, count=40, order=8):
    for _ in range(count):
        x = random_element(rng, order, terms=4)
        y = random_element(rng, order, terms=4)
        lhs = anti_automorphism(mul(x, y), LEFT)
        rhs = mul(anti_automorphism(y, LEFT), anti_automorphism(x, LEFT))
        assert lhs == rhs, "F does not reverse products"
        assert anti_automorphism(anti_automorphism(x)) == x, "F is not an involution"


@check("core-algebra/shifted-power-exercise")
def check_exercise_identity(rng, order=12, draws=1):
    # (a + x b)^p b^q = b^q (a + (x+q) b)^p, for up to `draws` distinct x per (p, q)
    for p in range(0, 7):
        for q in range(0, 7):
            if p + q > order:
                continue
            bq = power(gen_b(order), q)
            for x in {random_rational(rng) for _ in range(draws)}:
                lhs = mul(binomial_pow(x, p, order).to_left(), bq)
                rhs = mul(bq, binomial_pow(x + q, p, order).to_left())
                assert lhs == rhs, f"exercise identity fails at p={p}, q={q}, x={x}"
    # x = -1 collapses: (a - b)^p = a^p - p b a^(p-1)
    for p in range(2, 11):
        assert binomial_pow(-1, p, p) == AlgebraElement(p, RIGHT, {(p, 0): 1, (p - 1, 1): -p}), \
            f"(a - b)^{p} does not collapse"


@check("core-algebra/integer-shift-identity")
def check_integer_shift_identity(rng, order=12):
    # b^q (a + q b)^p = a^p b^q
    for p in range(0, 7):
        for q in range(0, 7):
            if p + q > order:
                continue
            bq = power(gen_b(order), q)
            lhs = mul(bq, binomial_pow(q, p, order).to_left())
            rhs = mul(power(gen_a(order), p), bq)
            assert lhs == rhs, f"integer shift identity fails at p={p}, q={q}"


@check("core-algebra/double-power-formula")
def check_double_power_formula(rng, top=6):
    # n! b^(2n) = sum_j (-1)^j C(n,j) b^j a^n b^(n-j); n = 0 is trivially 1 = 1
    for n in range(1, top + 1):
        order = 2 * n
        b, an = gen_b(order), power(gen_a(order), n)
        total = AlgebraElement.zero(order)
        for j in range(n + 1):
            term = mul(mul(power(b, j), an), power(b, n - j))
            total = total + scale(GaussianRational((-1) ** j * math.comb(n, j)), term)
        expect = scale(math.factorial(n), power(b, 2 * n))
        assert total == expect, f"double power formula fails at n={n}"


@check("core-algebra/binomial-sum-identity")
def check_binomial_sum(rng, bound=20):
    for x in range(bound + 1):
        for y in range(bound + 1):
            assert sum(math.comb(x + j, j) for j in range(y + 1)) == math.comb(x + y + 1, x + 1)


@check("core-algebra/grading")
def check_grading(rng, count=30, order=9):
    for _ in range(count):
        d1, d2 = rng.randrange(0, 4), rng.randrange(0, 4)
        x = random_element(rng, order, terms=3, max_degree=d1).homogeneous_part(d1)
        y = random_element(rng, order, terms=3, max_degree=d2).homogeneous_part(d2)
        for out, deg in ((mul(x, y), d1 + d2), (x.to_right().to_left(), d1)):
            degrees = {p + q for p, q in out.table}
            assert degrees <= {deg}, "operation broke the grading"
        assert shear(random_rational(rng), x).is_homogeneous
        assert anti_automorphism(x).is_homogeneous


@check("core-algebra/shear-group-law")
def check_shear_laws(rng, count=25, order=8):
    for _ in range(count):
        x, y = random_rational(rng), random_rational(rng)
        u = random_element(rng, order, terms=4)
        v = random_element(rng, order, terms=4)
        assert shear(x, shear(y, u)) == shear(x + y, u), "shear group law failed"
        assert shear(x, mul(u, v)) == mul(shear(x, u), shear(x, v)), "shear not multiplicative"
        assert shear(x, shear(-x, u)) == u, "shear not invertible"
        bq = power(gen_b(order), rng.randrange(0, order + 1))
        assert shear(x, bq) == bq, "shear moved a b-power"
        assert shear(x, AlgebraElement.one(order)) == AlgebraElement.one(order), "shear moved 1"


# -- division --------------------------------------------------------------------


@check("division/two-sided-inverse")
def check_inverse(rng, count=40, order=10):
    one = AlgebraElement.one(order)
    for _ in range(count):
        x = random_unit(rng, order, terms=rng.randrange(4, 6))
        y = invert(x)
        assert mul(x, y) == one, "right inverse failed"
        assert mul(y, x) == one, "left inverse failed"
    geo = invert(one - gen_b(order))
    assert geo == AlgebraElement(order, LEFT, {(0, q): 1 for q in range(order + 1)})


@check("division/linear-identity-and-uniqueness")
def check_divide_linear(rng, count=40, order=10):
    a, b = gen_a(order), gen_b(order)
    for _ in range(count):
        x = random_element(rng, order, terms=5)
        lam = random_gaussian(rng)
        linear = a - scale(lam, b)
        q, r = divide_linear(x, lam)
        assert mul(q.lifted(order), linear) + r.to_element() == x, "division identity failed"
        # uniqueness: the difference of two solutions is 0, so shifting x by
        # d (a - lam b) shifts Q by exactly d and leaves R alone
        d = random_element(rng, order - 1, terms=3)
        q2, r2 = divide_linear(x + mul(d.lifted(order), linear), lam)
        assert q2 == q + d and r2 == r, "division not unique"


@check("division/closed-form-powers")
def check_closed_form(rng, count=20, top=10):
    for m in range(1, top + 1):
        for _ in range(max(count // top, 2)):
            lam = random_rational(rng)
            qc, rc = power_division_closed_form(m, lam)
            q, r = divide_linear(power(gen_a(m), m), lam)
            assert q == qc and r == rc, f"closed form disagrees at m={m}, lam={lam}"


def _divide_by_the_tail(x: AlgebraElement, product: FactoredProduct) -> tuple:
    """(Q, R) of x by the product, by the running-tail formula.

    Peel x_(i-1) (a - lam_i b) + r_i = x_i S_i^(-1) for i = k..1 with
    divide_linear and mul, then R = sum_i r_i S_i P_(i+1) with the tail
    P_(i+1) = F_(i+1)...F_k.  division.divide forms R = x - Q P instead, an
    identity that holds by construction, so this is its referee.
    """
    order = x.order
    quotient = x.with_ordering(LEFT)
    tail = AlgebraElement.one(order)
    rem = AlgebraElement.zero(order)
    for lam, s in reversed(product.factors):
        s_inv = s.truncated(quotient.order).inverse().to_element()
        quotient, r = divide_linear(mul(quotient, s_inv), lam)
        s_tail = mul(s.to_element(order), tail)
        rem = rem + mul(r.to_element(order), s_tail)
        tail = mul(gen_a(order) - scale(lam, gen_b(order)), s_tail)
    return quotient.with_ordering(x.ordering), APolynomial.from_element(rem)


@check("division/factored-products")
def check_divide_product(rng, count=25, order=10):
    for _ in range(count):
        k = rng.randrange(1, 5)
        above = rng.randrange(0, 4)
        factors = tuple((GaussianRational(random_rational(rng)),
                         random_bseries_unit(rng, order + above)) for _ in range(k))
        product = FactoredProduct(factors, order + above)
        x = random_element(rng, order, terms=5, ordering=rng.choice([LEFT, RIGHT]))
        res = divide(x, product)
        assert res.quotient.order == order - k, "quotient not at order N - k"
        assert res.remainder.a_degree is None or res.remainder.a_degree <= k - 1
        qp = mul(res.quotient.lifted(order).with_ordering(LEFT), product.expanded(order))
        assert qp + res.remainder.to_element(LEFT) == x.with_ordering(LEFT), "QP + R != x"
        quotient, remainder = _divide_by_the_tail(x, product)
        assert res.quotient == quotient and res.remainder == remainder, \
            "factored division disagrees with the running-tail formula"
        # remainder ignores left multiples of the divisor
        z = random_element(rng, order, terms=3)
        shifted = x.with_ordering(LEFT) + mul(z, product.expanded(order))
        res2 = divide(shifted, product)
        assert res2.remainder == res.remainder, "remainder changed under x -> x + z*P"


@check("division/truncation-stability")
def check_truncation_stability(rng, count=20, order=8, extra=3):
    big = order + extra
    for _ in range(count):
        k = rng.randrange(1, 4)
        product_big = FactoredProduct(tuple(
            (GaussianRational(random_rational(rng)), random_bseries_unit(rng, big))
            for _ in range(k)), big)
        x_big = random_element(rng, big, terms=6)
        tail = random_element(rng, big, terms=3)
        tail = tail - tail.truncated(order).lifted(big)  # supported in degrees > order
        res1 = divide(x_big, product_big)
        res2 = divide(x_big + tail, product_big)
        assert res1.quotient.truncated(order - k) == res2.quotient.truncated(order - k)
        assert res1.remainder.to_element(LEFT).truncated(order) \
            == res2.remainder.to_element(LEFT).truncated(order)


def _factor_by_peeling(x: AlgebraElement) -> HomogeneousFactorization:
    """factor_homogeneous's factorization, with rho searched again after every peel.

    Strips the left power of b, scales the rest monic, then repeatedly peels
    (a - lam*b) at the largest root lam under (re, im) of the current core's
    remainder polynomial, until it has none; x is nonzero and homogeneous.
    division.factor_homogeneous searches rho once and shifts its roots
    instead, so this is its referee.
    """
    order = x.order
    right = with_ordering(x, RIGHT)
    j = min(q for _, q in right.table)
    stripped = AlgebraElement.from_ints(order, RIGHT, right.den,
                                        {(p, q - j): c for (p, q), c in right.table.items()})
    m = stripped.degree
    lead = stripped.coefficient(m, 0)
    core = with_ordering(scale(lead.inverse(), stripped), LEFT)
    lambdas = []
    while core.degree and core.degree > 0:
        rho = remainder_polynomial(core)
        roots = gaussian_roots(rho)
        if not roots:
            break
        lam = max(roots, key=lambda z: (z.re, z.im))
        q, rem = divide_linear(core, lam)
        if not rem.is_zero:
            raise AssertionError("root of the remainder polynomial left a remainder; bug")
        lambdas.append(lam)
        core = q.lifted(order)
    lambdas.reverse()
    done = core.degree == 0 or core.degree is None
    return HomogeneousFactorization(
        scale=lead,
        b_power=j,
        lambdas=tuple(lambdas),
        core=None if done else core,
        order=order,
    )


# rho of a^2 + c b^2 is lam^2 + lam + c, with no root in Q(i) for these c
_IRREDUCIBLE_QUADRATICS = [Fraction(7), Fraction(2), Fraction(1, 3)]


@check("division/homogeneous-factorization")
def check_factorization(rng, count=25, order=8):
    """b^j times a scale, an optional core a^2 + c b^2 whose rho has no root in
    Q(i), and linear forms, each lam new or its predecessor, or the
    predecessor minus 1 (which makes a double root of rho)."""
    a, b = gen_a(order), gen_b(order)
    for _ in range(count):
        j = rng.randrange(0, 3)
        core = rng.choice([None, None] + _IRREDUCIBLE_QUADRATICS)
        d = rng.randrange(0, order - j - (1 if core is None else 2))
        x = scale(rng.choice([c for c in _COEFF_POOL if c]), power(b, j))
        if core is not None:
            x = mul(x, power(a, 2) + scale(core, power(b, 2)))
        lam = None
        for _ in range(d):
            step = rng.choice([None, None, 0, -1])
            if lam is None or step is None:
                lam = GaussianRational(random_rational(rng), random_rational(rng))
            else:
                lam = lam + step
            x = mul(x, a - scale(lam, b))
        fact = factor_homogeneous(x)
        assert fact == _factor_by_peeling(x), "factorization disagrees with peeling"
        assert fact.complete == (core is None), "a split product came back partial, or not"
        assert fact.expanded() == x, "re-expansion disagrees"


# -- oracle ---------------------------------------------------------------------


@check("oracle/representation-property")
def check_representation(rng, count=40, order=8, bound=24):
    for _ in range(count):
        x = random_element(rng, order, terms=4)
        y = random_element(rng, order, terms=4)
        assert oracle_check_mul(x, y, bound), "act(mul) != act o act"
        f = PolySeries(bound, {rng.randrange(0, 5): random_coeff(rng) for _ in range(3)})
        assert oracle_act(x + y, f) == oracle_act(x, f) + oracle_act(y, f)
        c = random_coeff(rng)
        assert oracle_act(scale(c, x), f) == oracle_act(x, f).scaled(c)
    # soundness: a corrupted product must be caught
    a, b = gen_a(4), gen_b(4)
    good = mul(a, b)
    bad = good + AlgebraElement.monomial(0, 2, 4)
    f = PolySeries.monomial(0, 12)
    assert oracle_act(bad, f) != oracle_act(a, oracle_act(b, f)), "oracle missed a corruption"


@check("oracle/kernel-vs-composed")
def check_kernel_vs_composed(rng, count=40, order=8):
    for _ in range(count):
        x = random_element(rng, order, terms=5)
        f = PolySeries(3 * order, {rng.randrange(0, order): random_coeff(rng) for _ in range(3)})
        assert oracle_act(x, f) == act_composed(x, f), "kernel and composed actions disagree"


@check("oracle/faithfulness-witness")
def check_faithfulness(rng, count=30, top_degree=8):
    for _ in range(count):
        d = rng.randrange(0, top_degree + 1)
        x = random_element(rng, top_degree, terms=3, max_degree=d).homogeneous_part(d)
        if x.is_zero:
            continue
        r = injectivity_witness(x)
        f = PolySeries.monomial(r, r + top_degree)
        assert not oracle_act(x, f).is_zero, "witness exponent does not witness"


# -- modules ----------------------------------------------------------------------


@check("abmod/module-law")
def check_module_law(rng, count=20, order=8):
    for _ in range(count):
        k = rng.randrange(1, 4)
        module = SimplePoleModule(random_matrix(rng, k), order)
        v = module.element([
            BSeries(order, {rng.randrange(0, order + 1): random_coeff(rng) for _ in range(2)})
            for _ in range(k)])
        x = random_element(rng, order, terms=3, ordering=RIGHT)
        y = random_element(rng, order, terms=3, ordering=RIGHT)
        prod = mul(x.to_left(), y.to_left()).to_right()
        lhs = act(prod, v, module)
        rhs = act(x, act(y, v, module), module)
        assert lhs.entries == rhs.entries, "module action not associative over mul"


@check("abmod/simple-pole-containment")
def check_simple_pole(rng, count=20, order=8):
    a = gen_a(order).to_right()
    for _ in range(count):
        k = rng.randrange(1, 4)
        module = SimplePoleModule(random_matrix(rng, k), order)
        v = module.element([
            BSeries(order, {rng.randrange(0, order + 1): random_coeff(rng) for _ in range(2)})
            for _ in range(k)])
        av = act(a, v, module)
        assert av.b_valuation is None or av.b_valuation >= 1, "a did not raise b-valuation"


@check("abmod/bernstein")
def check_bernstein(rng, count=20, order=6):
    for _ in range(count):
        k = rng.randrange(1, 4)
        theta = random_matrix(rng, k)
        module = SimplePoleModule(theta, order)
        p = bernstein(module)
        assert p.is_monic and 1 <= p.degree <= k
        assert evaluate_poly_at_matrix(p, -theta).is_zero, "bernstein does not annihilate"
        # independent route: first linear dependency among the powers of -theta,
        # found on GaussianRationals
        powers = matrix_power_sequence(-theta, k)
        flat = [tuple(c for row in m.rows for c in row) for m in powers]
        d = 1
        while solve_dependency(flat[:d + 1]) is None:
            d += 1
        assert d == p.degree, "bernstein degree disagrees with the first power dependency"


@check("abmod/fresco")
def check_fresco(rng, count=15, order=8):
    e1 = unit_fresco(order)
    one = e1.generator()
    a, b = gen_a(order), gen_b(order)
    assert fresco_act(a, one, e1).to_element(LEFT) == b, "E1 does not satisfy a.e = b.e"
    pex = e1.product.expanded()
    for _ in range(count):
        x = random_element(rng, order, terms=4)
        assert fresco_act(mul(x, pex), one, e1).is_zero, "ideal member acted nontrivially"
        k = rng.randrange(1, 4)
        fresco = Fresco(FactoredProduct.from_lambdas(
            [random_rational(rng) for _ in range(k)], order))
        r = APolynomial.from_element(
            random_element(rng, order, terms=3, max_degree=k - 1, ordering=RIGHT))
        lhs = fresco_act(mul(x, x), r, fresco)
        rhs = fresco_act(x, fresco_act(x, r, fresco), fresco)
        assert lhs == rhs, "fresco action not associative"


@check("abmod/differential-systems")
def check_differential_systems(rng, count=15, order=6):
    for _ in range(count):
        k = rng.randrange(1, 3)
        deg = rng.randrange(0, 3)
        system = DifferentialSystem(tuple(
            random_matrix(rng, k, rational_only=True) for _ in range(deg + 1)))
        module, coeffs = from_differential_system(system, order)
        assert module.x_at_zero() == system.residue, "X(0) != M(0)"
        assert satisfies_system(module, system), "structure does not satisfy ae = M(a)be"
        if deg == 0:
            assert all(m.is_zero for m in coeffs[1:]), "constant system must give X = M(0)"


@check("abmod/xi-representation")
def check_xi(rng, count=40, poles=20):
    alphas = [Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(1, 4),
              Fraction(3, 4), Fraction(3, 5)]
    for _ in range(count):
        dim = rng.randrange(1, 4)
        depth = rng.randrange(0, 4)
        bound = rng.randrange(2, 5)
        terms = {}
        for _ in range(rng.randrange(1, 6)):
            key = (rng.choice(alphas), rng.randrange(0, bound + 1), rng.randrange(0, depth + 1))
            terms[key] = tuple(rng.choice((random_coeff, random_gaussian))(rng)
                               for _ in range(dim))
        xi = XiElement(dim, depth, bound, terms)
        ab = xi_act_a(xi_act_b(xi))
        ba = xi_act_b(xi_act_a(xi))
        assert ab - ba == xi_act_b(xi_act_b(xi)), "ab - ba != b^2 on expansions"
    for _ in range(poles):
        alpha = rng.choice(alphas)
        m = rng.randrange(0, 8)
        assert xi_check_simple_pole(alpha, m) == alpha + m + 1


# -- cli --------------------------------------------------------------------------


@check("cli/print-parse-round-trip")
def check_round_trip(rng, count=500, order=8):
    for _ in range(count):
        ordering = rng.choice([LEFT, RIGHT])
        x = random_element(rng, rng.randrange(0, order + 1), terms=rng.randrange(0, 7),
                           ordering=ordering)
        text = format_element(x)
        assert parse_element(text, x.order, x.ordering) == x, f"round trip broke on {text!r}"


@check("cli/deterministic-output")
def check_determinism(rng, count=40, order=8):
    from .jsonio import element_from_json, element_to_json
    for _ in range(count):
        x = random_element(rng, order, terms=5, ordering=rng.choice([LEFT, RIGHT]))
        s1 = json.dumps(element_to_json(x), indent=2)
        y = element_from_json(json.loads(s1))
        s2 = json.dumps(element_to_json(y), indent=2)
        assert y == x, "JSON did not round-trip"
        assert s1 == s2 and format_element(x) == format_element(y)


def run_all(seed: int = 20260810, names=None, out=print, as_json: bool = False) -> bool:
    """Run the suites, one PASS/FAIL row each; a suite that raises fails alone.

    With as_json, each row is instead one JSON object {"suite", "ok",
    "seconds", "seed", "error"}, error being "<Type>: <message>" or null.
    """
    selected = CHECKS if names is None else {n: CHECKS[n] for n in names}
    width = max(len(n) for n in selected) + 2
    ok = True
    for name, fn in selected.items():
        rng = random.Random(seed)
        start = time.perf_counter()
        try:
            fn(rng)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
        else:
            error = None
        seconds = time.perf_counter() - start
        ok = ok and error is None
        if as_json:
            out(json.dumps({"suite": name, "ok": error is None, "seconds": round(seconds, 6),
                            "seed": seed, "error": error}))
        elif error:
            out(f"{name:<{width}} FAIL  {error} (seed {seed})")
        else:
            out(f"{name:<{width}} PASS")
    return ok
