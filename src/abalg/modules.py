"""Finite-rank module structures over the algebra.

Three carriers:

  * SimplePoleModule E(theta): a free rank-k module over the b-series with
    basis e and law  a e = theta * (b e).  The whole algebra acts through

        a^p e = M_p b^p e,  M_p = (theta + (p-1)I) ... (theta + I) theta,

    so b^q a^p e = M_p b^(p+q) e.  act forms x V(b) on the RIGHT form,
    b^q a^p b^r = sum_j G(p, r, j) b^(q+r+j) a^(p-j), with no generic mul,
    and reads M_0..M_N (N the b-order), built with the module.

  * Fresco: the cyclic quotient by a left ideal generated by a factored
    product P with k factors; elements are canonical remainders of
    a-degree <= k-1 and the action is multiply-then-divide.

  * SeriesPoleModule: the same shape as E(theta) but with a structure
    matrix X(b) that is a b-series; produced by the differential-system
    converter, which solves  a e = M(a) b e  in one pass, one b-adic
    coefficient of X at a time (coefficient t needs only those below t).

Module truncation is b-adic (order N in b), independent of the algebra's
total-degree truncation; acting with an element of total-degree order N on
entries known mod b^(N+1) is exact mod b^(N+1).

Only the frescos divide: Fresco.reduce and unit_fresco import the division
layer, so that bernstein, geometric and ode2ab do not load it.
"""

from __future__ import annotations

import math

from .elements import LEFT, RIGHT, AlgebraElement, _row, mul, with_ordering
from .errors import AbalgError, Frozen, OrderingMismatchError, OrderMismatchError
from .linalg import (QMatrix, _int_identity, _int_matmul, characteristic_polynomial,
                     minimal_polynomial)
from .polynomials import Poly, _roots_with_multiplicity
from .series import APolynomial, BSeries


# -- simple pole modules E(theta) ------------------------------------------


class SimplePoleModule(Frozen):
    """Free rank-k module with a e = theta b e, entries truncated at b^order.

    The shift factors M_p = (theta + (p-1)I) ... (theta + I) theta = F_p / D^p
    for p = 0..order, D theta's denominator, are built with the module and
    kept out of ==, hash, repr, copy and pickle: each F_p is a Gaussian-integer
    matrix, rows of (re, im), and F_p = (T + (p-1) D I) F_(p-1) with
    T = D theta, theta's table, so F_0 = I and F_1 = T need no product.
    """

    __slots__ = ("theta", "order", "_factors")

    def __init__(self, theta: QMatrix, order: int):
        if not theta.is_square:
            raise ValueError("theta must be square")
        den, t = theta.den, theta.table
        factors = [_int_identity(len(t)), t][:order + 1]
        for p in range(2, order + 1):
            shifted = [[(re + (p - 1) * den, im) if i == l else (re, im)
                        for l, (re, im) in enumerate(r)] for i, r in enumerate(t)]
            factors.append(_int_matmul(shifted, factors[-1]))
        super().__init__(theta=theta, order=order, _factors=tuple(factors))

    @property
    def rank(self) -> int:
        return self.theta.shape[0]

    def zero(self) -> ModuleElement:
        return ModuleElement(self, tuple(BSeries.zero(self.order) for _ in range(self.rank)))

    def basis_vector(self, i: int) -> ModuleElement:
        entries = [BSeries.zero(self.order) for _ in range(self.rank)]
        entries[i] = BSeries.one(self.order)
        return ModuleElement(self, tuple(entries))

    def element(self, entries) -> ModuleElement:
        return ModuleElement(self, tuple(
            s if isinstance(s, BSeries) else BSeries(self.order, s) for s in entries))


class ModuleElement(Frozen):
    """Coordinates over the b-series basis e_1..e_k of the parent module."""

    __slots__ = ("module", "entries")

    def __init__(self, module: SimplePoleModule, entries: tuple):
        # entries: one BSeries per basis vector, brought to the module's order
        if len(entries) != module.rank:
            raise ValueError("entry count does not match the module rank")
        fixed = tuple(
            s if s.order == module.order else
            (s.truncated(module.order) if s.order > module.order else s.lifted(module.order))
            for s in entries)
        super().__init__(module, fixed)

    @property
    def is_zero(self) -> bool:
        return all(s.is_zero for s in self.entries)

    @property
    def b_valuation(self):
        vals = [s.valuation for s in self.entries if s.valuation is not None]
        return min(vals) if vals else None

    def __add__(self, other):
        if not isinstance(other, ModuleElement) or other.module != self.module:
            return NotImplemented
        return ModuleElement(self.module,
                             tuple(s + t for s, t in zip(self.entries, other.entries)))

    def __sub__(self, other):
        if not isinstance(other, ModuleElement) or other.module != self.module:
            return NotImplemented
        return ModuleElement(self.module,
                             tuple(s - t for s, t in zip(self.entries, other.entries)))

    def scaled(self, c) -> ModuleElement:
        return ModuleElement(self.module, tuple(s.scaled(c) for s in self.entries))


def act_on_basis(x: AlgebraElement, module: SimplePoleModule) -> list[QMatrix]:
    """The series matrix Z(b) with x e = Z(b) e, as matrices [z_0 .. z_N].

    x must be RIGHT-ordered with truncation order >= the module's b-order;
    row i of Z is act(x, e_i), and z_j collects the terms of total degree j.
    """
    if x.ordering is not RIGHT:
        raise OrderingMismatchError("act_on_basis expects a RIGHT-ordered element")
    rows = [act(x, module.basis_vector(i), module).entries for i in range(module.rank)]
    return [QMatrix([[s.coefficient(j) for s in r] for r in rows])
            for j in range(module.order + 1)]


def act(x: AlgebraElement, v: ModuleElement, module: SimplePoleModule) -> ModuleElement:
    """x . (sum_i V_i e_i) = sum_i (x V_i) e_i, built on the RIGHT form of each product.

    With V_i = sum_r v_r b^r, a RIGHT term b^q a^p of x gives
    b^q a^p b^r = sum_j G(p, r, j) b^(q+r+j) a^(p-j), G = reorder_coeff (a
    LEFT term gives a^p b^(q+r), the row G(p, q+r, j) on the same keys).  All
    have total degree t = p+q+r, so a pair with t above the b-order is never
    formed.  The key b^(t-P) a^P of x V_i sends e_i to M_P b^t e: its
    coefficient times row i of F_P is added into the length-k row of b^t,
    on integers over x.den * lcm(den V_i) * D^N.  x may be in either ordering.
    The F_P come built with the module (SimplePoleModule), so act reads them
    and changes nothing.
    """
    if v.module != module:
        raise ValueError("element does not belong to the module")
    n, k = module.order, module.rank
    if x.order < n:
        raise OrderMismatchError(f"element order {x.order} below module b-order {n}")
    parts = [(i, s.element) for i, s in enumerate(v.entries) if not s.is_zero]
    common = math.lcm(*(e.den for _, e in parts))
    left = x.ordering is LEFT
    products = []  # (i, {(P, t): numerator of b^(t-P) a^P in x V_i})
    for i, e in parts:
        s = common // e.den
        terms = [(r, vr * s, vi * s) for (_, r), (vr, vi) in e.table.items()]
        out: dict = {}
        for (p, q), (xr, xi) in x.table.items():
            for r, vr, vi in terms:
                t = p + q + r
                if t > n:
                    continue
                cr, ci = xr * vr - xi * vi, xr * vi + xi * vr
                for j, g in enumerate(_row(p, q + r if left else r, 1)):
                    acc = out.get((p - j, t))
                    if acc is None:
                        out[p - j, t] = [g * cr, g * ci]
                    else:
                        acc[0] += g * cr
                        acc[1] += g * ci
        products.append((i, out))
    top = max((p for _, out in products for p, _ in out), default=0)
    den, factors = module.theta.den, module._factors
    scales = [den ** (n - p) for p in range(top + 1)]  # M_p = F_p / D^p, over D^N
    rows = [[[0, 0] for _ in range(k)] for _ in range(n + 1)]
    for i, out in products:
        for (p, t), (cr, ci) in out.items():
            cr, ci, row = cr * scales[p], ci * scales[p], rows[t]
            for acc, (fr, fi) in zip(row, factors[p][i]):
                acc[0] += cr * fr - ci * fi
                acc[1] += cr * fi + ci * fr
    whole = x.den * common * den ** n
    return module.element([BSeries.from_element(AlgebraElement.from_ints(
        n, LEFT, whole, {(0, t): row[l] for t, row in enumerate(rows)})) for l in range(k)])


def bernstein(module: SimplePoleModule) -> Poly:
    """The minimal polynomial of -theta (monic, exact).

    mu_(-theta)(x) = (-1)^d mu_theta(-x), d = deg mu_theta: coefficient j of
    mu_theta with the sign (-1)^(d-j), so theta is never negated."""
    mu = minimal_polynomial(module.theta)
    d = len(mu.table) - 1
    return Poly.from_ints(mu.den, [(re, im) if (d - j) % 2 == 0 else (-re, -im)
                                   for j, (re, im) in enumerate(mu.table)])


class SpectrumCheck(Frozen):
    """Outcome of the geometric-spectrum test; falsy when not geometric.  The
    eigenvalues are Fractions with multiplicity, when they split over Q."""

    __slots__ = ("is_geometric", "eigenvalues", "diagnostic")

    def __bool__(self):
        return self.is_geometric


def is_geometric_spectrum(module: SimplePoleModule) -> SpectrumCheck:
    """True iff every eigenvalue of theta is a positive rational.

    Decided exactly: one root search finds the roots in Q(i) of the
    characteristic polynomial with their multiplicities; fewer real ones
    than its degree means the spectrum does not split over Q, and the check
    fails with a diagnostic rather than attempting algebraic numbers.
    """
    g = characteristic_polynomial(module.theta)
    eigen = [z.re for z in _roots_with_multiplicity(g) if not z.im]  # ascending
    if len(eigen) < g.degree:
        return SpectrumCheck(False, None, "characteristic polynomial does not split over Q")
    bad = [r for r in eigen if r <= 0]
    if bad:
        return SpectrumCheck(False, tuple(eigen),
                             f"non-positive eigenvalue {bad[0]}")
    return SpectrumCheck(True, tuple(eigen), None)


# -- frescos ------------------------------------------------------------------


class Fresco(Frozen):
    """The cyclic quotient by the left ideal generated by a factored product.

    Free over the b-series with basis 1, a, ..., a^(k-1); elements are the
    canonical remainders.  product is the FactoredProduct.
    """

    __slots__ = ("product",)

    @property
    def rank(self) -> int:
        return len(self.product)

    @property
    def order(self) -> int:
        return self.product.order

    def generator(self) -> APolynomial:
        return APolynomial.one(self.order)

    def reduce(self, x: AlgebraElement) -> APolynomial:
        from .division import divide
        return divide(x, self.product).remainder


def fresco_act(x: AlgebraElement, r: APolynomial, fresco: Fresco) -> APolynomial:
    """Canonical representative of x * r in the quotient (multiply, then divide)."""
    if r.a_degree is not None and r.a_degree > fresco.rank - 1:
        raise AbalgError("representative has a-degree >= the fresco rank")
    left = with_ordering(x, LEFT)
    prod = mul(left, r.to_element(LEFT).lifted(left.order)
               if r.order < left.order else r.to_element(LEFT).truncated(left.order))
    return fresco.reduce(prod)


def unit_fresco(order: int) -> Fresco:
    """The rank-1 fresco on (a - b): its generator satisfies a.e = b.e."""
    from .division import FactoredProduct
    return Fresco(FactoredProduct.linear(1, order))


# -- differential systems -> series structure matrices ----------------------------


class DifferentialSystem(Frozen):
    """s dF/ds = M(s) F with M a matrix polynomial M_0 + M_1 s + ... ."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: tuple):
        # coeffs: the QMatrix M_d of s^d, for d = 0, 1, ...
        if not coeffs:
            raise ValueError("need at least the constant matrix M(0)")
        k = coeffs[0].shape[0]
        for m in coeffs:
            if not m.is_square or m.shape[0] != k:
                raise ValueError("all coefficient matrices must be square of one size")
        super().__init__(coeffs=coeffs)

    @property
    def rank(self) -> int:
        return self.coeffs[0].shape[0]

    @property
    def residue(self) -> QMatrix:
        return self.coeffs[0]


class SeriesPoleModule(Frozen):
    """a e = X(b) b e with X a matrix of b-series: x_coeffs holds order + 1
    QMatrix, the one of b^t at index t."""

    __slots__ = ("x_coeffs", "order")

    @property
    def rank(self) -> int:
        return self.x_coeffs[0].shape[0]

    def x_entry(self, i: int, l: int) -> BSeries:
        return BSeries(self.order, {t: m.entry(i, l) for t, m in enumerate(self.x_coeffs)})

    def x_at_zero(self) -> QMatrix:
        return self.x_coeffs[0]

    # row-vector action: a (V e) = (V X(b) b + b^2 V') e
    def act_a(self, entries: tuple) -> tuple:
        k = self.rank
        out = []
        for l in range(k):
            s = BSeries.zero(self.order)
            for i in range(k):
                if not entries[i].is_zero:
                    s = s + (entries[i] * self.x_entry(i, l)).shifted(1)
            s = s + entries[l].derivative().lifted(self.order).shifted(2)
            out.append(s)
        return tuple(out)

    def act_b(self, entries: tuple) -> tuple:
        return tuple(s.shifted(1) for s in entries)

    def basis_b_vector(self, j: int) -> tuple:
        return tuple(BSeries.monomial(1, self.order) if i == j else BSeries.zero(self.order)
                     for i in range(self.rank))


def _evaluate_system_on_be(system: DifferentialSystem, module: SeriesPoleModule):
    """Rows w_i = (M(a) b e)_i under the module's current a-action."""
    k = system.rank
    rows = [tuple(BSeries.zero(module.order) for _ in range(k)) for _ in range(k)]
    # cur[j] = a^d (b e_j), advanced in d
    cur = [module.basis_b_vector(j) for j in range(k)]
    for d, mat in enumerate(system.coeffs):
        if d:
            cur = [module.act_a(c) for c in cur]
        for i in range(k):
            for j in range(k):
                c = mat.entry(i, j)
                if c:
                    rows[i] = tuple(s + t.scaled(c) for s, t in zip(rows[i], cur[j]))
    return rows


def from_differential_system(system: DifferentialSystem, order: int
                             ) -> tuple[SeriesPoleModule, tuple]:
    """Solve a e = M(a) b e for the unique structure matrix X(b) mod b^(order+1).

    Row j of W_d holds a^d (b e_j): W_0 = b I, W_d = W_(d-1) X b + b^2 W_(d-1)'
    by the action a (V e) = (V X b + b^2 V') e, and X b = sum_d M_d W_d.  On
    b^n, W_d[n] = sum_(s+u=n-1) W_(d-1)[s] X_u + (n-1) W_(d-1)[n-1], and
    W_(d-1)[s] = 0 for s < d (a raises b-valuation), so W_d[t+1] needs only
    X_0..X_(t-1): X_t = [t = 0] M_0 + sum_(d>=1) M_d W_d[t+1] comes one
    coefficient at a time, as the degree blocks of division.invert do.

    The recurrence runs on Gaussian-integer matrices: with D the lcm of the
    denominators of M_0..M_order and M~_d = D M_d, the matrices
    W~_d[n] = D^(n-1) W_d[n] and X~_t = D^(t+1) X_t are integral, since

        W~_d[t+1] = t D W~_(d-1)[t] + sum_(s=d..t) W~_(d-1)[s] X~_(t-s)
        X~_t = [t = 0] M~_0 + sum_(d>=1) M~_d W~_d[t+1]

    and each sum is one product of a row of blocks by a column of blocks.
    X_t is X~_t over D^(t+1).  Returns the module and the coefficient
    matrices of X.
    """
    k = system.rank
    coeffs = system.coeffs[:order + 1]  # W_d[t+1] = 0 for d > t, so M_d, d > order, is unused
    top = len(coeffs) - 1
    den = math.lcm(*(m.den for m in coeffs))
    mt = [[[(re * (den // m.den), im * (den // m.den)) for re, im in r] for r in m.table]
          for m in coeffs]
    zero = [[(0, 0)] * k for _ in range(k)]
    # M~_1 .. M~_top side by side, for the sum over d
    m_row = [[z for d in range(1, top + 1) for z in mt[d][i]] for i in range(k)]
    w = [[zero] * (order + 2) for _ in range(top + 1)]  # w[d][n] = W~_d[n]
    w[0][1] = _int_identity(k)
    x = []
    for t in range(order + 1):
        top_t = min(t, top)  # W~_d[t+1] = 0 for d > t
        f = t * den
        for d in range(1, top_t + 1):
            prev = w[d - 1]
            acc = _int_matmul([[z for s in range(d, t + 1) for z in prev[s][i]] for i in range(k)],
                              [r for s in range(d, t + 1) for r in x[t - s]])
            w[d][t + 1] = [[(ar + f * pr, ai + f * pi) for (ar, ai), (pr, pi) in zip(ra, rp)]
                           for ra, rp in zip(acc, prev[t])]
        if top_t:
            x.append(_int_matmul([r[:k * top_t] for r in m_row],
                                 [r for d in range(1, top_t + 1) for r in w[d][t + 1]]))
        else:
            x.append(mt[0] if t == 0 else zero)
    module = SeriesPoleModule(tuple(QMatrix.from_ints(den ** (t + 1), xt)
                                    for t, xt in enumerate(x)), order)
    if module.x_at_zero() != system.residue:
        raise AssertionError("X(0) != M(0); internal bug")
    return module, module.x_coeffs


def satisfies_system(module: SeriesPoleModule, system: DifferentialSystem) -> bool:
    """Check a e = M(a) b e mod b^(order+1) by substituting the action back in."""
    rows = _evaluate_system_on_be(system, module)
    for i in range(module.rank):
        lhs = module.act_a(tuple(
            BSeries.one(module.order) if j == i else BSeries.zero(module.order)
            for j in range(module.rank)))
        if any(l != r for l, r in zip(lhs, rows[i])):
            return False
    return True
