import random
import sys
import time
from fractions import Fraction

import pytest

from abalg import coefficients, elements, modules
from abalg.checks import random_element, random_gaussian, random_matrix
from abalg.coefficients import ZERO, GaussianRational
from abalg.division import FactoredProduct, remainder_polynomial
from abalg.elements import LEFT, RIGHT, AlgebraElement, gen_a, gen_b, mul, power, scale
from abalg.errors import OrderMismatchError
from abalg.linalg import (QMatrix, evaluate_poly_at_matrix, matrix_power_sequence,
                          minimal_polynomial, solve_dependency)
from abalg.modules import (DifferentialSystem, Fresco, SimplePoleModule, act,
                           act_on_basis, bernstein, fresco_act, from_differential_system,
                           is_geometric_spectrum, satisfies_system, unit_fresco)
from abalg.polynomials import Poly
from abalg.series import APolynomial, BSeries


def rng():
    return random.Random(1234)


def _theta():
    return QMatrix([[Fraction(1, 2), 1], [0, 3]])


# -- action on the basis ------------------------------------------------------

def test_act_on_basis_examples():
    n = 6
    module = SimplePoleModule(_theta(), n)
    a, b = gen_a(n), gen_b(n)
    zs = act_on_basis(a.to_right(), module)
    assert zs[1] == _theta() and all(z.is_zero for i, z in enumerate(zs) if i != 1)
    zs = act_on_basis(power(a, 2).to_right(), module)
    assert zs[2] == (_theta() + QMatrix.identity(2)) @ _theta()
    for q in range(n + 1):
        zs = act_on_basis(power(b, q).to_right(), module)
        assert zs[q] == QMatrix.identity(2)
    # scalar multiples of b-powers act as scalars
    zs = act_on_basis(scale(5, power(b, 2)).to_right(), module)
    assert zs[2] == QMatrix.identity(2).scaled(5)


def test_act_examples():
    n = 6
    module = SimplePoleModule(_theta(), n)
    a, b = gen_a(n), gen_b(n)
    e0 = module.basis_vector(0)
    assert act(b.to_right(), e0, module).entries[0] == BSeries(n, {1: 1})
    # a (b e_i) = theta-row in degree b^2 plus b^2 e_i
    be0 = act(b.to_right(), e0, module)
    abe0 = act(a.to_right(), be0, module)
    assert abe0.entries[0] == BSeries(n, {2: _theta().entry(0, 0) + 1})
    assert abe0.entries[1] == BSeries(n, {2: _theta().entry(0, 1)})


def test_module_law_and_simple_pole():
    r = rng()
    n = 8
    for _ in range(12):
        k = r.randrange(1, 4)
        module = SimplePoleModule(random_matrix(r, k), n)
        v = module.element([BSeries(n, {r.randrange(0, n + 1): GaussianRational(
            Fraction(r.randrange(-3, 4), r.choice([1, 2])))}) for _ in range(k)])
        x = random_element(r, n, terms=3, ordering=RIGHT)
        y = random_element(r, n, terms=3, ordering=RIGHT)
        prod = mul(x.to_left(), y.to_left()).to_right()
        assert act(prod, v, module).entries == act(x, act(y, v, module), module).entries
        av = act(gen_a(n).to_right(), v, module)
        assert av.b_valuation is None or av.b_valuation >= 1


def _act_by_the_left_route(x, v, module):
    """x.v on GaussianRationals: w = x V_i by mul in LEFT form, then sum over the
    RIGHT monomials of w of b^q a^p e_i = M_p b^(p+q) e_i."""
    n, k = module.order, module.rank
    shift = [QMatrix.identity(k)]
    for s in range(n):
        shift.append((module.theta + QMatrix.identity(k).scaled(s)) @ shift[-1])
    out = [[ZERO] * (n + 1) for _ in range(k)]
    for i, series in enumerate(v.entries):
        w = mul(x.with_ordering(LEFT), series.to_element(x.order)).to_right()
        for (p, q), c in w.coeffs.items():
            if p + q <= n:
                for l in range(k):
                    out[l][p + q] = out[l][p + q] + c * shift[p].entry(i, l)
    return module.element(out)


def _sparse_vector(r, module, terms=3):
    n = module.order
    return module.element([BSeries(n, {r.randrange(0, n + 1): random_gaussian(r)
                                       for _ in range(terms)}) for _ in range(module.rank)])


def _act_cases():
    """(x, v, module): zero parts, both orderings, x above the b-order, Gaussian
    theta over denominators, rank 1, and the largest module-stack shape."""
    r = rng()
    n = 6
    module = SimplePoleModule(_theta(), n)
    v = module.element([BSeries(n, {1: 2, 3: Fraction(1, 3)}), BSeries.zero(n)])
    x = random_element(r, n, terms=5, ordering=RIGHT)
    # terms of total degree above n, and pairs (p, q), r that pass it
    high = AlgebraElement(n + 3, RIGHT, {(2, 1): 1, (4, n - 1): 3, (1, n + 1): Fraction(1, 2),
                                         (0, 0): GaussianRational(0, 1), (3, 2): -2})
    gaussian = SimplePoleModule(QMatrix([
        [GaussianRational(Fraction(1, 2), Fraction(1, 3)), Fraction(2, 5)],
        [GaussianRational(0, -1), Fraction(-3, 7)]]), n)
    rank_one = SimplePoleModule(QMatrix([[Fraction(5, 3)]]), n)
    largest = SimplePoleModule(random_matrix(r, 4), 12)
    return [
        (x, v, module),
        (x, module.zero(), module),
        (AlgebraElement.zero(n, RIGHT), v, module),
        (random_element(r, n, terms=5, ordering=LEFT), v, module),
        (high, v, module),
        (high.to_left(), _sparse_vector(r, module), module),
        (x, _sparse_vector(r, gaussian), gaussian),
        (random_element(r, n, terms=4, ordering=LEFT), _sparse_vector(r, gaussian), gaussian),
        (x, _sparse_vector(r, rank_one, terms=4), rank_one),
        (random_element(r, 12, terms=4, ordering=RIGHT), _sparse_vector(r, largest), largest),
        (random_element(r, 12, terms=4, ordering=LEFT), _sparse_vector(r, largest), largest),
    ]


def test_act_edge_cases_against_the_left_route():
    for x, v, module in _act_cases():
        assert act(x, v, module) == _act_by_the_left_route(x, v, module)
    module = SimplePoleModule(_theta(), 6)
    assert act(gen_a(9), module.zero(), module).is_zero
    assert act(AlgebraElement.zero(6, RIGHT), module.basis_vector(1), module).is_zero


def test_act_errors():
    n = 6
    module = SimplePoleModule(_theta(), n)
    with pytest.raises(OrderMismatchError):
        act(AlgebraElement.one(n - 1, RIGHT), module.basis_vector(0), module)
    other = SimplePoleModule(QMatrix.identity(2), n)
    with pytest.raises(ValueError):
        act(AlgebraElement.one(n, RIGHT), other.basis_vector(0), module)


def test_act_makes_no_product_and_no_reordering(monkeypatch):
    def refuse(*args):
        raise AssertionError("act left the RIGHT form")

    cases = _act_cases()
    for module in (elements, modules):
        for name in ("mul", "to_right", "to_left"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    results = [act(x, v, module) for x, v, module in cases]
    monkeypatch.undo()
    for (x, v, module), res in zip(cases, results):
        assert res == _act_by_the_left_route(x, v, module)


def test_act_builds_each_shift_factor_once_per_module(monkeypatch):
    """act_on_basis at rank 3 and b-order 8 builds F_2..F_8 with one matrix
    product each across its three acts (F_0 = I and F_1 = T need none); a
    later act that reaches a higher a-power only extends the list."""
    n, r = 8, rng()
    theta = random_matrix(r, 3)
    x = AlgebraElement(n, RIGHT, {(8, 0): 1, (2, 3): Fraction(1, 2), (0, 1): -3})
    low, high = power(gen_a(n), 3).to_right(), power(gen_a(n), 6).to_right()
    v = _sparse_vector(r, SimplePoleModule(theta, n))
    expected = [act_on_basis(x, SimplePoleModule(theta, n))] + [
        act(y, v, SimplePoleModule(theta, n)) for y in (low, high, low)]
    products = []
    matmul = modules._int_matmul
    monkeypatch.setattr(modules, "_int_matmul", lambda a, b: products.append(1) or matmul(a, b))
    assert act_on_basis(x, SimplePoleModule(theta, n)) == expected[0]
    assert len(products) == 7
    module = SimplePoleModule(theta, n)
    counts = []
    for y, want in zip((low, high, low), expected[1:]):
        products.clear()
        assert act(y, v, module) == want
        counts.append(len(products))
    assert counts == [2, 3, 0] and len(module._factors) == 7


def _refuse_everywhere(monkeypatch, names):
    """Make each named coefficients function raise in every abalg module that holds it."""
    def refuse(*args):
        raise AssertionError("a kernel split or joined GaussianRationals")

    originals = [getattr(coefficients, name) for name in names]
    for mod in [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "abalg"]:
        for name, original in zip(names, originals):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, refuse)


def test_the_matrix_kernels_read_and_build_the_integer_tables(monkeypatch):
    """bernstein, ode2ab and remainder_polynomial form no common denominator
    and divide out no part; the spectrum check forms no common denominator
    (its roots are built by `over`)."""
    theta = QMatrix([[GaussianRational(Fraction(1, 2), 1), Fraction(2, 3)],
                     [GaussianRational(0, Fraction(-1, 4)), 3]])
    module, system = SimplePoleModule(theta, 3), DifferentialSystem((theta, -theta))
    x = AlgebraElement(2, RIGHT, {(2, 0): 1, (1, 1): theta.entry(0, 0), (0, 2): theta.entry(1, 0)})
    calls = [lambda: bernstein(module), lambda: from_differential_system(system, 3)[1],
             lambda: remainder_polynomial(x)]
    expected = [call() for call in calls] + [is_geometric_spectrum(module)]
    _refuse_everywhere(monkeypatch, ("common_denominator", "over"))
    found = [call() for call in calls]
    monkeypatch.undo()
    _refuse_everywhere(monkeypatch, ("common_denominator",))
    found.append(is_geometric_spectrum(module))
    monkeypatch.undo()
    assert found == expected


# -- Bernstein polynomials --------------------------------------------------------

def test_bernstein_examples():
    n = 4
    assert bernstein(SimplePoleModule(QMatrix.identity(2), n)) == Poly([1, 1])
    diag = SimplePoleModule(QMatrix([[Fraction(1, 2), 0], [0, 3]]), n)
    assert bernstein(diag) == Poly.from_roots([Fraction(-1, 2), -3])
    jordan = SimplePoleModule(QMatrix([[1, 1], [0, 1]]), n)
    assert bernstein(jordan) == Poly([1, 2, 1])


def test_bernstein_against_power_dependency():
    r = rng()
    for _ in range(15):
        k = r.randrange(1, 4)
        theta = random_matrix(r, k)
        p = bernstein(SimplePoleModule(theta, 4))
        assert p.is_monic and p.degree <= k
        assert evaluate_poly_at_matrix(p, -theta).is_zero
        powers = matrix_power_sequence(-theta, k)
        flat = [tuple(c for row in m.rows for c in row) for m in powers]
        d = 1
        while solve_dependency(flat[:d + 1]) is None:
            d += 1
        assert d == p.degree


def test_bernstein_diagonalizable_is_product_over_distinct_eigenvalues():
    theta = QMatrix([[2, 0, 0], [0, 2, 0], [0, 0, Fraction(1, 3)]])
    assert bernstein(SimplePoleModule(theta, 2)) == Poly.from_roots([-2, Fraction(-1, 3)])


# -- geometric spectra ---------------------------------------------------------------

def test_geometric_spectrum():
    n = 2
    good = SimplePoleModule(QMatrix([[Fraction(1, 2), 0], [0, 3]]), n)
    chk = is_geometric_spectrum(good)
    assert chk and chk.eigenvalues == (Fraction(1, 2), Fraction(3))
    bad = is_geometric_spectrum(SimplePoleModule(QMatrix([[-1]]), n))
    assert not bad and bad.eigenvalues == (Fraction(-1),)
    irr = is_geometric_spectrum(SimplePoleModule(QMatrix([[0, 2], [1, 0]]), n))
    assert not irr and irr.diagnostic is not None
    # repeated eigenvalues keep multiplicity
    rep = is_geometric_spectrum(SimplePoleModule(QMatrix([[2, 1], [0, 2]]), n))
    assert rep and rep.eigenvalues == (Fraction(2), Fraction(2))


# -- frescos --------------------------------------------------------------------------

def test_unit_fresco_relation():
    n = 8
    e1 = unit_fresco(n)
    one = e1.generator()
    assert fresco_act(gen_a(n), one, e1).to_element(LEFT) == gen_b(n)
    assert fresco_act(AlgebraElement.one(n), one, e1) == one


def test_fresco_ideal_annihilates_generator():
    r = rng()
    n = 8
    e1 = unit_fresco(n)
    pex = e1.product.expanded()
    for _ in range(10):
        x = random_element(r, n, terms=4)
        assert fresco_act(mul(x, pex), e1.generator(), e1).is_zero


def test_fresco_rank2_reduction():
    n = 6
    fresco = Fresco(FactoredProduct.from_lambdas([1, 2], n))
    a = gen_a(n)
    rep = fresco_act(a, APolynomial.from_element(a.to_right()), fresco)
    assert rep.to_element(LEFT) == scale(3, mul(a, gen_b(n))) - scale(3, power(gen_b(n), 2))
    assert rep.a_degree == 1


def test_fresco_action_is_associative():
    r = rng()
    n = 8
    for _ in range(10):
        k = r.randrange(1, 4)
        fresco = Fresco(FactoredProduct.from_lambdas(
            [Fraction(r.randrange(-3, 4)) for _ in range(k)], n))
        x = random_element(r, n, terms=3)
        y = random_element(r, n, terms=3)
        rep = APolynomial.from_element(
            random_element(r, n, terms=3, max_degree=k - 1, ordering=RIGHT))
        lhs = fresco_act(mul(x, y), rep, fresco)
        rhs = fresco_act(x, fresco_act(y, rep, fresco), fresco)
        assert lhs == rhs


def test_fresco_rejects_oversized_representatives():
    from abalg.errors import AbalgError
    fresco = unit_fresco(6)
    bad = APolynomial.from_element(gen_a(6).to_right())  # a-degree 1 in a rank-1 fresco
    with pytest.raises(AbalgError):
        fresco_act(gen_a(6), bad, fresco)


# -- differential systems ----------------------------------------------------------------

def test_scalar_system_closed_form():
    theta, c = Fraction(2), Fraction(3)
    system = DifferentialSystem((QMatrix([[theta]]), QMatrix([[c]])))
    module, coeffs = from_differential_system(system, 5)
    xs = module.x_entry(0, 0)
    expect = BSeries(5, {0: theta})
    for t in range(1, 6):
        expect = expect + BSeries(5, {t: (theta + 1) * c ** t})
    assert xs == expect
    assert satisfies_system(module, system)


def test_constant_system_is_fixed_point():
    theta = _theta()
    system = DifferentialSystem((theta,))
    module, coeffs = from_differential_system(system, 4)
    assert module.x_at_zero() == theta
    assert all(m.is_zero for m in coeffs[1:])
    assert satisfies_system(module, system)


def test_residue_always_survives():
    r = rng()
    for _ in range(10):
        k = r.randrange(1, 3)
        system = DifferentialSystem(tuple(
            random_matrix(r, k, rational_only=True) for _ in range(r.randrange(1, 4))))
        module, _ = from_differential_system(system, 6)
        assert module.x_at_zero() == system.residue
        assert satisfies_system(module, system)


def test_satisfies_system_is_a_real_check():
    theta = QMatrix([[Fraction(2)]])
    system = DifferentialSystem((theta, QMatrix([[Fraction(1)]])))
    module, _ = from_differential_system(system, 4)
    wrong = DifferentialSystem((theta, QMatrix([[Fraction(2)]])))
    assert not satisfies_system(module, wrong)


def test_ode2ab_drops_the_matrices_above_the_order():
    """M_d with d > order never reaches X; their denominators must not enter D."""
    r = rng()
    k, order = 5, 7
    used = tuple(random_matrix(r, k, rational_only=True) for _ in range(order + 1))
    unused = tuple(QMatrix([[Fraction(r.getrandbits(40), r.getrandbits(40) | 1)
                             for _ in range(k)] for _ in range(k)]) for _ in range(8))
    start = time.perf_counter()
    _, coeffs = from_differential_system(DifferentialSystem(used + unused), order)
    elapsed = time.perf_counter() - start
    assert coeffs == from_differential_system(DifferentialSystem(used), order)[1]
    assert elapsed < 1.0, f"ode2ab took {elapsed:.2f} s on matrices it does not use"
