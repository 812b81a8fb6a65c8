"""Unit inversion, division with remainder, and homogeneous factorization.

Division is offered against the divisor shapes that admit an exact
division theory here: a single linear form (a - lam*b), and products

    P = (a - lam_1 b) S_1 (a - lam_2 b) S_2 ... (a - lam_k b) S_k

with each S_i a unit of the b-subalgebra.  The quotient of an order-N
dividend is determined to order N-k and the remainder (a-degree <= k-1)
to order N; both identities are exact in the truncated algebra.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .coefficients import GaussianRational, ONE, common_denominator
from .elements import (LEFT, RIGHT, AlgebraElement, _by_degree, _from_ints, _scalar_ints,
                       _times_b_power, gen_a, gen_b, mul, scale, shear, with_ordering)
from .errors import (NotHomogeneousError, NotMonicError, OrderMismatchError,
                     ZeroConstantTermError, ZeroElementError)
from .polynomials import Poly, gaussian_roots
from .series import APolynomial, BSeries


def invert(x: AlgebraElement) -> AlgebraElement:
    """Two-sided inverse of a unit in the order-N quotient.

    After scaling the constant term to 1 (x = 1 + x'), the inverse y obeys
    y = 1 - x' y, and the degree-d part of x' y involves only parts of y of
    degree < d, so y is filled degree by degree.  As in elements.mul,
    x' y = sum x_{p,q} a^p (b^q y), and b^q y is extended by one degree
    block each time a block of y is done.  (The recursion defines a right
    inverse; the truncated algebra is finite-dimensional, so it is
    automatically two-sided.)

    The loop runs on integers: with x' = X / D in the layout of
    coefficients.common_denominator, it keeps Y_{m,n} = y_{m,n} D^(m+n),
    which is a Gaussian integer, since

        Y_d = - sum over deg = 1..d of D^(deg-1) (X_deg * Y_(d-deg))_d

    where X_deg is the degree-deg part of X.  The division by D^(m+n), and
    by the constant term, happens once per coefficient at the end.
    """
    src = with_ordering(x, LEFT)
    c0 = src.constant_term
    if not c0:
        raise ZeroConstantTermError("constant term is zero; element is not a unit")
    order = x.order
    width = order + 1
    # x' = X / den: dividing the numerators by the constant term's numerator C
    # (times conj(C) over |C|^2) and reducing gives the least such den.
    _, table = common_denominator(src.coeffs)
    cr, ci = table.pop((0, 0))
    den = cr * cr + ci * ci
    table = {k: (re * cr + im * ci, im * cr - re * ci) for k, (re, im) in table.items()}
    g = math.gcd(den, *(part for c in table.values() for part in c))
    den //= g
    x_blocks = _by_degree({k: (re // g, im // g) for k, (re, im) in table.items()}, order)
    y_blocks = [[(0, 0, 1, 0)]]
    # w_blocks[q][e] is b^q times the degree-e part of Y, on the LEFT basis;
    # it is needed up to e = w_top[q], where the x-term a^p b^q of least p runs out.
    w_top = {}
    for p, q in table:
        w_top[q] = max(w_top.get(q, 0), order - p - q)
    w_blocks = {q: [] for q in w_top}
    for d in range(1, width):
        for q, blocks in w_blocks.items():
            if d - 1 <= w_top[q]:
                blocks.append(_times_b_power(q, y_blocks[d - 1], width))
        # Horner's rule in den, from the highest deg down
        acc: dict = {}
        for deg in range(d, 0, -1):
            for v in acc.values():
                v[0] *= den
                v[1] *= den
            for p, q, xr, xi in x_blocks[deg]:
                shift = p * width
                for k, wr, wi in w_blocks[q][d - deg]:
                    k += shift
                    re, im = xr * wr - xi * wi, xr * wi + xi * wr
                    old = acc.get(k)
                    if old is None:
                        acc[k] = [re, im]
                    else:
                        old[0] += re
                        old[1] += im
        y_blocks.append([(*divmod(k, width), -re, -im) for k, (re, im) in acc.items() if re or im])
    e, (ur, ui) = _scalar_ints(c0.inverse())
    out = {(m, n): (re * ur - im * ui, re * ui + im * ur)
           for block in y_blocks for m, n, re, im in block}
    return with_ordering(_from_ints(order, LEFT, e, out, step=den), x.ordering)


def divide_linear(x: AlgebraElement, lam) -> tuple[AlgebraElement, BSeries]:
    """Unique Q, R with  x = Q (a - lam*b) + R,  R a series in b.

    Shear by lam to reduce to division by a, split off the a-free part of
    the RIGHT form, shear the quotient back.  Q comes back at order N-1
    (that is how far it is determined), R at order N.
    """
    lam = GaussianRational.coerce(lam)
    order = x.order
    sheared = shear(lam, with_ordering(x, RIGHT))
    r_table = {}
    q_table = {}
    for (p, q), c in sheared.coeffs.items():
        if p == 0:
            r_table[q] = c
        else:
            q_table[(p - 1, q)] = c
    remainder = BSeries(order, r_table)
    quotient = AlgebraElement(max(order - 1, 0), RIGHT, q_table)
    quotient = with_ordering(shear(-lam, quotient), x.ordering)
    return quotient, remainder


def power_division_closed_form(m: int, lam) -> tuple[AlgebraElement, BSeries]:
    """The closed-form quotient and remainder of a^m by (a - lam*b).

        Q = a^(m-1) + lam a^(m-2) b + lam(lam+1) a^(m-3) b^2 + ...
        R = lam(lam+1)...(lam+m-1) b^m

    Serves as an independent oracle for divide_linear; Q is returned at
    order m-1 and R at order m to match it.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lam = GaussianRational.coerce(lam)
    rising = ONE
    q_table = {}
    for i in range(m):
        if rising:
            q_table[(m - 1 - i, i)] = rising
        rising = rising * (lam + i)
    quotient = AlgebraElement(m - 1, LEFT, q_table)
    remainder = BSeries.monomial(m, m, rising)
    return quotient, remainder


@dataclass(frozen=True)
class FactoredProduct:
    """An ordered product of factors (a - lam_i b) S_i with unit S_i."""

    factors: tuple  # of (GaussianRational, BSeries)
    order: int

    def __post_init__(self):
        if not self.factors:
            raise ValueError("a factored product needs at least one factor")
        checked = []
        for lam, s in self.factors:
            lam = GaussianRational.coerce(lam)
            if not isinstance(s, BSeries):
                raise TypeError("unit parts must be BSeries")
            s = s.truncated(self.order) if s.order > self.order else s.lifted(self.order)
            if not s.is_unit:
                raise ZeroConstantTermError("unit part has zero constant term")
            checked.append((lam, s))
        object.__setattr__(self, "factors", tuple(checked))

    @staticmethod
    def linear(lam, order: int) -> FactoredProduct:
        return FactoredProduct(((GaussianRational.coerce(lam), BSeries.one(order)),), order)

    @staticmethod
    def from_lambdas(lambdas, order: int) -> FactoredProduct:
        one = BSeries.one(order)
        return FactoredProduct(tuple((GaussianRational.coerce(l), one) for l in lambdas), order)

    def __len__(self):
        return len(self.factors)

    def expanded(self, order: int | None = None) -> AlgebraElement:
        order = self.order if order is None else order
        out = AlgebraElement.one(order)
        a = AlgebraElement.monomial(1, 0, order)
        b = AlgebraElement.monomial(0, 1, order)
        for lam, s in self.factors:
            out = mul(mul(out, a - scale(lam, b)), s.to_element(order))
        return out


@dataclass(frozen=True)
class DivisionResult:
    """x = quotient * P + remainder, exactly modulo total degree > order."""

    quotient: AlgebraElement    # order N - k
    remainder: APolynomial      # order N, a-degree <= k-1


def divide(x: AlgebraElement, product: FactoredProduct) -> DivisionResult:
    """Division with remainder by a factored product, peeling factors from the right.

    With F_i = (a - lam_i b) S_i and x_k = x, divide x_i S_i^{-1} =
    x_(i-1) (a - lam_i b) + r_i for i = k..1; then Q = x_0 and
    R = sum_i r_i S_i P_(i+1) with the running tail P_(i+1) = F_(i+1)...F_k.
    x_i is carried at order N-(k-i), as far as it is determined; r_i beyond
    that order meets P_(i+1), of valuation k-i, only above degree N.
    """
    k = len(product)
    if x.order < k:
        raise OrderMismatchError(f"dividend order {x.order} below the {k}-factor divisor")
    if product.order < x.order:
        raise OrderMismatchError(
            f"divisor known only to order {product.order} < dividend order {x.order}")
    order = x.order
    quotient = with_ordering(x, LEFT)
    tail = AlgebraElement.one(order)
    rem = AlgebraElement.zero(order)
    for lam, s in reversed(product.factors):
        s_inv = s.truncated(quotient.order).inverse().to_element()
        quotient, r = divide_linear(mul(quotient, s_inv), lam)
        s_tail = mul(s.to_element(order), tail)
        rem = rem + mul(r.to_element(order), s_tail)
        tail = mul(gen_a(order) - scale(lam, gen_b(order)), s_tail)
    remainder = APolynomial.from_element(rem)
    if remainder.a_degree is not None and remainder.a_degree > k - 1:
        raise AssertionError("remainder a-degree exceeded k-1; internal bug")
    return DivisionResult(with_ordering(quotient, x.ordering), remainder)


def remainder_polynomial(x: AlgebraElement) -> Poly:
    """The polynomial rho with rho(lam) b^m = remainder of x by (a - lam*b).

    Defined for homogeneous monic x of degree m (monic: the a^m coefficient
    is 1).  a^p = Q (a - lam*b) + lam(lam+1)...(lam+p-1) b^p (see
    power_division_closed_form), and multiplying on the left by b^q keeps
    that congruence, so x = sum_p c_p b^(m-p) a^p on the RIGHT basis has

        rho(lam) = sum_p c_p lam(lam+1)...(lam+p-1).

    lam is a root of rho iff (a - lam*b) divides x on the right.
    """
    if x.is_zero:
        raise ZeroElementError("remainder polynomial of the zero element")
    if not x.is_homogeneous:
        raise NotHomogeneousError("remainder_polynomial expects a homogeneous element")
    right = with_ordering(x, RIGHT)
    m = right.degree
    if right.coefficient(m, 0) != ONE:
        raise NotMonicError("the a^m coefficient must be 1")
    rho, rising = Poly(), Poly([1])
    for p in range(m + 1):
        rho = rho + rising * right.coefficient(p, m - p)
        rising = rising * Poly([p, 1])
    return rho


@dataclass(frozen=True)
class HomogeneousFactorization:
    """scale * b^b_power * core * prod_i (a - lambdas[i] * b), re-expandable.

    `complete` means core is absent and the lambdas account for the whole
    element; otherwise `core` is the monic homogeneous part whose remainder
    polynomial has no root in Q(i), so that no right factor (a - lam*b)
    with lam in Q(i) divides it.
    """

    scale: GaussianRational
    b_power: int
    lambdas: tuple
    core: AlgebraElement | None
    order: int

    @property
    def complete(self) -> bool:
        return self.core is None

    def expanded(self) -> AlgebraElement:
        out = AlgebraElement.monomial(0, self.b_power, self.order, self.scale)
        if self.core is not None:
            out = mul(out, self.core)
        a = AlgebraElement.monomial(1, 0, self.order)
        b = AlgebraElement.monomial(0, 1, self.order)
        for lam in self.lambdas:
            out = mul(out, a - scale(lam, b))
        return out


def factor_homogeneous(x: AlgebraElement) -> HomogeneousFactorization:
    """Factorization of a homogeneous element into linear forms over Q(i).

    Strips the maximal left power of b (the smallest q in the RIGHT form),
    scales the rest monic, then repeatedly peels a right factor
    (a - lam*b) at a root lam of the remainder polynomial.  The root search
    is complete in Q(i): the unfactored monic core is returned exactly when
    its remainder polynomial has no root there.  Factorizations are not
    unique; the deterministic choice here is the largest root under (re, im)
    ordering.
    """
    if x.is_zero:
        raise ZeroElementError("cannot factor the zero element")
    if not x.is_homogeneous:
        raise NotHomogeneousError("factor_homogeneous expects a homogeneous element")
    order = x.order
    right = with_ordering(x, RIGHT)
    j = min(q for _, q in right.coeffs)
    stripped = AlgebraElement(order, RIGHT, {(p, q - j): c for (p, q), c in right.coeffs.items()})
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
