"""Unit inversion, division with remainder, and homogeneous factorization.

Division is offered against the divisor shapes that admit an exact
division theory here: a single linear form (a - lam*b), and products

    P = (a - lam_1 b) S_1 (a - lam_2 b) S_2 ... (a - lam_k b) S_k

with each S_i a unit of the b-subalgebra.  The quotient of an order-N
dividend is determined to order N-k and the remainder (a-degree <= k-1)
to order N; both identities are exact in the truncated algebra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .coefficients import GaussianRational, ONE, over
from .elements import (LEFT, RIGHT, AlgebraElement, _by_degree, _times_b_power, gen_a, gen_b,
                       mul, scale, shear, with_ordering)
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

    The loop runs on integers, each degree over its own denominator.  The
    degree-k part of x' is X_k / D_k, D_k its least denominator.  With
    L_0 = 1 and L_d the lcm of D_k L_(d-k) over the k = 1..d for which
    both X_k and y_(d-k) are nonzero (1 if there is none), Y_d = L_d y_d
    is a Gaussian integer, since

        Y_d = - sum over those k of (L_d / (D_k L_(d-k))) (X_k * Y_(d-k))_d

    and each factor L_d / (D_k L_(d-k)) is an integer; each k's products
    are summed first and scaled by its factor once per key.  So the
    numerators stay near the size of the result's, where one denominator D
    for all of x' would scale y_d by D^d.  At the end every block is
    brought over e lcm(L_0, ..., L_N), with 1/c0 = u / e in lowest terms.
    """
    src = with_ordering(x, LEFT)
    c0 = src.table.get((0, 0))
    if c0 is None:
        raise ZeroConstantTermError("constant term is zero; element is not a unit")
    order = x.order
    width = order + 1
    # x' = x / c0 - 1: the numerators times conj(C) are over |C|^2, C the
    # constant term's numerator; one gcd per degree block gives D_k.
    cr, ci = c0
    norm = cr * cr + ci * ci
    table = {k: (re * cr + im * ci, im * cr - re * ci)
             for k, (re, im) in src.table.items() if k != (0, 0)}
    x_blocks = []
    dens = []
    for block in _by_degree(table, order):
        g = math.gcd(norm, *(part for _, _, re, im in block for part in (re, im)))
        x_blocks.append([(p, q, re // g, im // g) for p, q, re, im in block])
        dens.append(norm // g)
    y_blocks = [[(0, 0, 1, 0)]]
    scales = [1]  # L_d
    # w_blocks[q][e] is b^q times Y_e, on the LEFT basis; it is needed up
    # to e = w_top[q], where the x-term a^p b^q of least p runs out.
    w_top = {}
    for p, q in table:
        w_top[q] = max(w_top.get(q, 0), order - p - q)
    w_blocks = {q: [] for q in w_top}
    # Y_d is summed in acc at the keys m * width + (d - m), which no other
    # degree shares; part holds one k's products while they await their factor.
    acc_re, acc_im, part_re, part_im = ([0] * (width * width) for _ in range(4))
    for d in range(1, width):
        for q, blocks in w_blocks.items():
            if d - 1 <= w_top[q]:
                blocks.append(_times_b_power(q, y_blocks[d - 1], width))
        parts = [k for k in range(1, d + 1) if x_blocks[k] and y_blocks[d - k]]
        scale_d = math.lcm(*(dens[k] * scales[d - k] for k in parts))
        keys = range(d, d * width + 1, width - 1)  # m = 0..d
        for k in parts:
            f = scale_d // (dens[k] * scales[d - k])
            sum_re, sum_im = (acc_re, acc_im) if f == 1 else (part_re, part_im)
            for p, q, xr, xi in x_blocks[k]:
                shift = p * width
                for i, wr, wi in w_blocks[q][d - k]:
                    i += shift
                    sum_re[i] += xr * wr - xi * wi
                    sum_im[i] += xr * wi + xi * wr
            if f != 1:
                for i in keys:
                    acc_re[i] += f * part_re[i]
                    acc_im[i] += f * part_im[i]
                    part_re[i] = part_im[i] = 0
        y_blocks.append([(m, d - m, -acc_re[i], -acc_im[i])
                         for m, i in enumerate(keys) if acc_re[i] or acc_im[i]])
        scales.append(scale_d)
    # 1/c0 = src.den * conj(C) / |C|^2 = (ur + ui*i) / e in lowest terms
    ur, ui = src.den * cr, -src.den * ci
    g = math.gcd(norm, ur, ui)
    e, ur, ui = norm // g, ur // g, ui // g
    common = math.lcm(*scales)
    out = {}
    for block, s in zip(y_blocks, scales):
        s = common // s
        for m, n, re, im in block:
            out[(m, n)] = ((re * ur - im * ui) * s, (re * ui + im * ur) * s)
    return with_ordering(AlgebraElement.from_ints(order, LEFT, e * common, out), x.ordering)


def divide_linear(x: AlgebraElement, lam) -> tuple[AlgebraElement, BSeries]:
    """Unique Q, R with  x = Q (a - lam*b) + R,  R a series in b.

    Shear by lam to reduce to division by a, split off the a-free part of
    the RIGHT form, shear the quotient back.  Q comes back at order N-1
    (that is how far it is determined), R at order N.
    """
    lam = GaussianRational.coerce(lam)
    order = x.order
    sheared = shear(lam, with_ordering(x, RIGHT))
    den = sheared.den
    r_table = {}
    q_table = {}
    for (p, q), c in sheared.table.items():
        if p == 0:
            r_table[q] = over(*c, den)
        else:
            q_table[(p - 1, q)] = c
    remainder = BSeries(order, r_table)
    quotient = AlgebraElement.from_ints(max(order - 1, 0), RIGHT, den, q_table)
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

    @functools.cached_property
    def unit_inverses(self) -> tuple:
        """S_i^(-1) for each factor, at the product's order, computed once."""
        return tuple(s.inverse() for _, s in self.factors)

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
    # The inverse of a truncation is the truncation of the inverse.
    for (lam, s), s_inv in zip(reversed(product.factors), reversed(product.unit_inverses)):
        s_inv = s_inv.truncated(quotient.order).to_element()
        quotient, r = divide_linear(mul(quotient, s_inv), lam)
        s_tail = mul(s.to_element(order), tail)
        rem = rem + mul(r.to_element(order), s_tail)
        tail = mul(gen_a(order) - scale(lam, gen_b(order)), s_tail)
    remainder = APolynomial.from_element(rem)
    if remainder.a_degree is not None and remainder.a_degree > k - 1:
        raise AssertionError("remainder a-degree exceeded k-1; internal bug")
    return DivisionResult(with_ordering(quotient, x.ordering), remainder)


@functools.cache
def _stirling_row(p: int) -> tuple:
    """([p 0], ..., [p p]): the unsigned Stirling numbers of the first kind,
    the coefficients of the rising factorial lam(lam+1)...(lam+p-1), by
    [p+1 k] = p [p k] + [p k-1].  Callers ask for the rows in increasing p,
    so that each new row finds the one before it cached."""
    if p == 0:
        return (1,)
    prev = _stirling_row(p - 1)
    return tuple((p - 1) * (prev[k] if k < p else 0) + (prev[k - 1] if k else 0)
                 for k in range(p + 1))


def remainder_polynomial(x: AlgebraElement) -> Poly:
    """The polynomial rho with rho(lam) b^m = remainder of x by (a - lam*b).

    Defined for homogeneous monic x of degree m (monic: the a^m coefficient
    is 1).  a^p = Q (a - lam*b) + lam(lam+1)...(lam+p-1) b^p (see
    power_division_closed_form), and multiplying on the left by b^q keeps
    that congruence, so x = sum_p c_p b^(m-p) a^p on the RIGHT basis has

        rho(lam) = sum_p c_p lam(lam+1)...(lam+p-1) = sum_k (sum_p c_p [p k]) lam^k

    with [p k] the unsigned Stirling numbers of the first kind.  With
    c_p = C_p / D over the element's one denominator, rho_k is the integer
    sum_p C_p [p k] over D: one integer matrix-vector product over the
    cached Stirling triangle, and one division per coefficient.

    lam is a root of rho iff (a - lam*b) divides x on the right.
    """
    if x.is_zero:
        raise ZeroElementError("remainder polynomial of the zero element")
    if not x.is_homogeneous:
        raise NotHomogeneousError("remainder_polynomial expects a homogeneous element")
    right = with_ordering(x, RIGHT)
    m = right.degree
    den, table = right.den, right.table
    if table.get((m, 0)) != (den, 0):
        raise NotMonicError("the a^m coefficient must be 1")
    rho_re, rho_im = [0] * (m + 1), [0] * (m + 1)
    for p in range(m + 1):
        row = _stirling_row(p)
        re, im = table.get((p, m - p), (0, 0))
        if re or im:
            for k, s in enumerate(row):
                rho_re[k] += re * s
                rho_im[k] += im * s
    return Poly([over(re, im, den) for re, im in zip(rho_re, rho_im)])


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
