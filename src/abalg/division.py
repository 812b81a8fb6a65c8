"""Unit inversion, division with remainder, and homogeneous factorization.

Division is offered against the divisor shapes that admit an exact
division theory here: a single linear form (a - lam*b), and products

    P = (a - lam_1 b) S_1 (a - lam_2 b) S_2 ... (a - lam_k b) S_k

with each S_i a unit of the b-subalgebra.  The quotient of an order-N
dividend is determined to order N-k and the remainder (a-degree <= k-1)
to order N; both identities are exact in the truncated algebra.

Both run on the LEFT integer table.  Through the symbol of each degree (see
divide_linear), division by a - lam*b is one synthetic division per degree;
a factored division peels the factors from the right on one table, each
peel a convolution in the b-power by S_i^(-1) and one synthetic division,
builds Q alone and takes R = x - Q P, with Q P multiplied out factor by
factor on Q's table (_times_factors): P is never expanded and no generic
product is made.  The b-series and a-polynomials taken and given (unit
parts, their cached inverses, the remainders) are views of elements (see
series), so no coefficient is split into integers or rebuilt as a fraction
at either end.

The polynomial layer is imported by remainder_polynomial and
factor_homogeneous, the two functions that use it, so that inv, div-linear
and div do not load it.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .coefficients import GaussianRational, ONE, over
from .elements import (LEFT, RIGHT, AlgebraElement, _by_degree, _make, _scalar_ints,
                       _times_b_power, mul, scale, to_left, with_ordering)
from .errors import (Frozen, NotHomogeneousError, NotMonicError, OrderMismatchError,
                     ZeroConstantTermError, ZeroElementError)
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


def _synthetic_division(rows: list, order: int, den: int, e: int, lam: tuple,
                         remainder: dict | None = None) -> tuple[int, dict]:
    """Q of X = Q (a - lam*b) + R, for the LEFT table X / den in degree rows.

    rows[n] is None or the lists (re, im) of the numerators X_(p,n-p), and
    lam = (L_re + L_im*i) / e.  Degree n runs the back-substitution of
    divide_linear on integers: with G_k = g_k den e^(n-1-k),

        G_(n-1) = X_(n,0),   G_(k-1) = X_(k,n-k) e^(n-k) - ((k-n+1) e - L) G_k,

    and r_n = G_(-1) / (den e^n) goes to remainder[(0, n)] over den e^N if
    asked for.  Q (order N-1) comes back in lowest terms, as its denominator
    and the table of its nonzero terms: over den e^(N-1), less their content.
    """
    lr, li = lam
    top = max(order - 1, 0)
    powers = [1]
    for _ in range(order):
        powers.append(powers[-1] * e)
    q_den = g = den * powers[top]
    table = {}
    for n, row in enumerate(rows):
        if row is None:
            continue
        xr, xi = row
        gr, gi = xr[n], xi[n]
        cr = -lr  # the real part of (k-n+1) e - L
        for k in range(n - 1, -1, -1):
            if gr or gi:
                s = powers[top - n + 1 + k]
                table[(k, n - 1 - k)] = (gr * s, gi * s)
            if k or remainder is not None:
                f = powers[n - k]
                gr, gi = xr[k] * f - cr * gr - li * gi, xi[k] * f - cr * gi + li * gr
                cr -= e
        if remainder is not None:
            remainder[(0, n)] = (gr * powers[order - n], gi * powers[order - n])
    for re, im in table.values():
        if g == 1:
            break
        g = math.gcd(g, re, im)
    if g != 1:
        table = {key: (re // g, im // g) for key, (re, im) in table.items()}
    return q_den // g, table


def divide_linear(x: AlgebraElement, lam) -> tuple[AlgebraElement, BSeries]:
    """Unique Q, R with  x = Q (a - lam*b) + R,  R a series in b.

    In the faithful representation (a multiplies by z, b is the primitive)
    the degree-n part of a LEFT element has the symbol

        P_n(u) = sum_p x_(p,n-p) u(u-1)...(u-p+1),

    products multiply symbols as R_n(u) = sum_(d+e=n) X_d(u) Y_e(u-d), and
    a - lam*b has the symbol u - lam.  So degree n of the identity reads
    P_n(u) = Q_(n-1)(u) (u - c) + r_n with c = n-1+lam, and since
    (u - c) u(u-1)...(u-k+1) = u(u-1)...(u-k) + (k - c) u(u-1)...(u-k+1),
    the coefficients g_k of Q_(n-1) follow by back-substitution:

        g_(n-1) = x_(n,0),   g_(k-1) = x_(k,n-k) - (k - c) g_k,

    and r_n = x_(0,n) + c g_0 is the next step, g_(-1).

    That runs on the LEFT integer table (_synthetic_division); a RIGHT x is
    converted once on entry and Q once on exit.  Q comes back at order N-1
    (that is how far it is determined), R at order N.
    """
    left = with_ordering(x, LEFT)
    order = left.order
    rows = [None] * (order + 1)
    for (p, q), (re, im) in left.table.items():
        row = rows[p + q] = rows[p + q] or ([0] * (p + q + 1), [0] * (p + q + 1))
        row[0][p], row[1][p] = re, im
    e, lam = _scalar_ints(GaussianRational.coerce(lam))
    r_table = {}
    quotient = _make(max(order - 1, 0), LEFT,
                     *_synthetic_division(rows, order, left.den, e, lam, r_table))
    rem = AlgebraElement.from_ints(order, LEFT, left.den * e ** order, r_table)
    return with_ordering(quotient, x.ordering), BSeries.from_element(rem)


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


class FactoredProduct(Frozen):
    """An ordered product of factors (a - lam_i b) S_i with unit S_i."""

    # factors: tuple of (GaussianRational, BSeries); the last two slots cache
    # unit_inverses and the expansion, filled on first use
    __slots__ = ("factors", "order", "_unit_inverses", "_expansion")

    def __init__(self, factors: tuple, order: int):
        if not factors:
            raise ValueError("a factored product needs at least one factor")
        checked = []
        for lam, s in factors:
            lam = GaussianRational.coerce(lam)
            if not isinstance(s, BSeries):
                raise TypeError("unit parts must be BSeries")
            s = s.truncated(order) if s.order > order else s.lifted(order)
            if not s.is_unit:
                raise ZeroConstantTermError("unit part has zero constant term")
            checked.append((lam, s))
        super().__init__(factors=tuple(checked), order=order, _unit_inverses=None,
                         _expansion=None)

    @staticmethod
    def linear(lam, order: int) -> FactoredProduct:
        return FactoredProduct(((GaussianRational.coerce(lam), BSeries.one(order)),), order)

    @staticmethod
    def from_lambdas(lambdas, order: int) -> FactoredProduct:
        one = BSeries.one(order)
        return FactoredProduct(tuple((GaussianRational.coerce(l), one) for l in lambdas), order)

    def __len__(self):
        return len(self.factors)

    @property
    def unit_inverses(self) -> tuple:
        """S_i^(-1) for each factor, at the product's order, computed once, as
        the AlgebraElement that BSeries stores."""
        if self._unit_inverses is None:
            object.__setattr__(self, "_unit_inverses",
                               tuple(s.inverse().element for _, s in self.factors))
        return self._unit_inverses

    def expanded(self, order: int | None = None) -> AlgebraElement:
        """The product, at an order up to its own (the default); expanded once.

        divide does not use it (see _times_factors); the referees do."""
        if self._expansion is None:
            out = AlgebraElement.zero(self.order)  # every factor vanishes at order 0
            if self.order:
                out = AlgebraElement.one(self.order)
                a = AlgebraElement.monomial(1, 0, self.order)
                b = AlgebraElement.monomial(0, 1, self.order)
                for lam, s in self.factors:
                    out = mul(mul(out, a - scale(lam, b)), s.to_element(self.order))
            object.__setattr__(self, "_expansion", out)
        if order in (None, self.order):
            return self._expansion
        return self._expansion.truncated(order)


class DivisionResult(Frozen):
    """x = quotient * P + remainder, exactly modulo total degree > order."""

    __slots__ = ("quotient", "remainder")

    def __init__(self, quotient: AlgebraElement, remainder: APolynomial):
        # quotient at order N - k, remainder at order N with a-degree <= k-1
        super().__init__(quotient=quotient, remainder=remainder)


def _times_factors(order: int, den: int, table: dict, factors: tuple) -> tuple[int, dict]:
    """(D, T) with T / D the LEFT table of X (a - lam_1 b) S_1 ... (a - lam_k b) S_k
    to order N, X = table / den on the LEFT basis.

    Since b^q a = a b^q - q b^(q+1),

        a^p b^q (a - lam b) = a^(p+1) b^q - (q + lam) a^p b^(q+1),

    so with lam = L / e a linear factor is one pass over the table, which
    goes over den * e; a unit part S = T_S / d_S (terms b^j) is one
    convolution in the b-power against its terms, over den * d_S.  Each
    linear factor raises the degree by one, so after the t-th factor only
    terms of degree <= N - k + t can reach the product: the rest are
    dropped as they appear.  The table is flat, the key (p, q) at
    p * (N + 1) + q, and no content is divided out: D is den times the
    denominators of the factors.
    """
    width = order + 1
    size = width * width
    xr, xi = [0] * size, [0] * size
    for (p, q), (re, im) in table.items():
        xr[p * width + q], xi[p * width + q] = re, im
    for top, (lam, s) in enumerate(factors, order - len(factors) + 1):
        e, (lr, li) = _scalar_ints(lam)
        yr, yi = [0] * size, [0] * size
        for p in range(top):
            i = p * width
            for q in range(top - p):
                re, im = xr[i + q], xi[i + q]
                if re or im:
                    j = i + q + width
                    yr[j] += e * re
                    yi[j] += e * im
                    cr = q * e + lr
                    yr[j - width + 1] -= cr * re - li * im
                    yi[j - width + 1] -= cr * im + li * re
        den *= e
        s = s.element
        terms = sorted((j, sr, si) for (_, j), (sr, si) in s.table.items() if j <= top)
        if s.den == 1 and terms == [(0, 1, 0)]:
            xr, xi = yr, yi
            continue
        den *= s.den
        xr, xi = [0] * size, [0] * size
        for p in range(top + 1):
            i = p * width
            last = top - p
            for q in range(last + 1):
                re, im = yr[i + q], yi[i + q]
                if re or im:
                    for j, sr, si in terms:
                        if q + j > last:
                            break
                        xr[i + q + j] += re * sr - im * si
                        xi[i + q + j] += re * si + im * sr
    return den, {divmod(i, width): (re, im) for i, (re, im) in enumerate(zip(xr, xi))
                 if re or im}


def divide(x: AlgebraElement, product: FactoredProduct) -> DivisionResult:
    """Division with remainder by a factored product, peeling factors from the right.

    With x_k = x, x_(i-1) is the quotient of x_i S_i^(-1) by (a - lam_i b)
    for i = k..1, and Q = x_0; x_i, at order N-(k-i) as far as it is
    determined, is one LEFT integer table, which a peel groups by degree,
    convolves in the b-power with S_i^(-1) into dense rows and hands to
    _synthetic_division (divide_linear's kernel) for the next table, its
    content divided out.  Q is the only element built.  Then R = x - Q P:
    Q's table is multiplied through the factors in order (_times_factors,
    one pass per linear factor and one convolution per unit part), and R is
    assembled over the lcm of the two denominators; P is not expanded.
    Since the division is unique, R has a-degree <= k-1 exactly when Q is
    right, so that bound is checked.
    """
    k = len(product)
    if x.order < k:
        raise OrderMismatchError(f"dividend order {x.order} below the {k}-factor divisor")
    if product.order < x.order:
        raise OrderMismatchError(
            f"divisor known only to order {product.order} < dividend order {x.order}")
    left = with_ordering(x, LEFT)
    order, den, table = x.order, left.den, left.table
    for top, (lam, _), s in zip(range(order, 0, -1), reversed(product.factors),
                                reversed(product.unit_inverses)):
        rows = _by_degree(table, top)
        # terms past top are dropped: the inverse of a truncation truncates the inverse
        dense = [None] * (top + 1)
        for j, (sr, si) in ((j, c) for (_, j), c in s.table.items() if j <= top):
            for n, row in enumerate(rows[:top - j + 1]):
                if row:
                    tr, ti = dense[n + j] = dense[n + j] or ([0] * (n + j + 1), [0] * (n + j + 1))
                    for p, _, xr, xi in row:
                        tr[p] += xr * sr - xi * si
                        ti[p] += xr * si + xi * sr
        den, table = _synthetic_division(dense, top, den * s.den, *_scalar_ints(lam))
    quotient = _make(order - k, LEFT, den, table)
    qp_den, qp = _times_factors(order, den, table, product.factors)
    den = math.lcm(left.den, qp_den)
    fx, fq = den // left.den, den // qp_den
    table = {key: (re * fx, im * fx) for key, (re, im) in left.table.items()}
    for key, (re, im) in qp.items():
        acc = table.get(key)
        table[key] = ((-re * fq, -im * fq) if acc is None
                      else (acc[0] - re * fq, acc[1] - im * fq))
    remainder = APolynomial.from_element(AlgebraElement.from_ints(order, LEFT, den, table))
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
    from .polynomials import Poly
    return Poly.from_ints(den, zip(rho_re, rho_im))


class HomogeneousFactorization(Frozen):
    """scale * b^b_power * core * prod_i (a - lambdas[i] * b), re-expandable.

    `complete` means core is absent and the lambdas account for the whole
    element; otherwise `core` is the monic homogeneous part whose remainder
    polynomial has no root in Q(i), so that no right factor (a - lam*b)
    with lam in Q(i) divides it.
    """

    __slots__ = ("scale", "b_power", "lambdas", "core", "order")

    def __init__(self, scale: GaussianRational, b_power: int, lambdas: tuple,
                 core: AlgebraElement | None, order: int):
        super().__init__(scale=scale, b_power=b_power, lambdas=lambdas, core=core, order=order)

    @property
    def complete(self) -> bool:
        return self.core is None

    def expanded(self) -> AlgebraElement:
        out = AlgebraElement.monomial(0, self.b_power, self.order, self.scale)
        if self.core is not None:
            out = mul(out, self.core)
        for lam in self.lambdas:  # none at order 0, where a and b do not exist
            out = mul(out, AlgebraElement(self.order, LEFT, {(1, 0): ONE, (0, 1): -lam}))
        return out


def factor_homogeneous(x: AlgebraElement) -> HomogeneousFactorization:
    """Factorization of a homogeneous element into linear forms over Q(i).

    Strips the maximal left power of b (the smallest q in the RIGHT form),
    scales the rest monic, then peels right factors (a - lam*b) at roots
    lam of the remainder polynomial.  The root search is complete in Q(i):
    the unfactored monic core is returned exactly when its remainder
    polynomial has no root there.  Factorizations are not unique; the
    deterministic choice here is to peel, each time, the largest root of
    the current core's remainder polynomial under (re, im) ordering.

    One root search serves every peel.  A homogeneous x of degree m has the
    symbol P_x(u) (see divide_linear) and rho_x(lam) = P_x(lam + m - 1).
    For x = q (a - lam_0 b) the product rule gives
    P_x(u) = P_q(u) (u - lam_0 - m + 1), so

        rho_x(lam) = (lam - lam_0) rho_q(lam + 1):

    the roots of rho_q are the other roots of rho_x, each plus 1, counted
    with multiplicity.  With the roots of the monic core's rho sorted by
    (re, im) descending, r_0 >= r_1 >= ..., step t peels lam_t = r_t + t;
    a real integer shift keeps the (re, im) order, so that is the largest
    root at every step.  divide_linear's remainder must vanish at each
    peel, which checks the rule exactly.

    The monic core is built once on the RIGHT basis, where
    remainder_polynomial reads it as it stands, and converted to LEFT once
    for the peels.  The roots are sorted on integer keys, their parts over
    one common denominator, and each lam_t is formed from the integers of
    r_t's real part and t.
    """
    if x.is_zero:
        raise ZeroElementError("cannot factor the zero element")
    if not x.is_homogeneous:
        raise NotHomogeneousError("factor_homogeneous expects a homogeneous element")
    order = x.order
    right = with_ordering(x, RIGHT)
    j = min(q for _, q in right.table)
    m = right.degree - j
    # the stripped RIGHT table over its leading numerator C: c / C = c conj(C) / |C|^2
    lr, li = right.table[(m, j)]
    monic = AlgebraElement.from_ints(order, RIGHT, lr * lr + li * li,
                                     {(p, q - j): (re * lr + im * li, im * lr - re * li)
                                      for (p, q), (re, im) in right.table.items()})
    core = to_left(monic)
    from .polynomials import _roots_with_multiplicity
    roots = _roots_with_multiplicity(remainder_polynomial(monic)) if m else []
    d = math.lcm(*(c.denominator for z in roots for c in (z.re, z.im)))
    roots.sort(key=lambda z: (z.re.numerator * (d // z.re.denominator),
                              z.im.numerator * (d // z.im.denominator)), reverse=True)
    lambdas = []
    for t, r in enumerate(roots):
        n, e = r.re.as_integer_ratio()
        lam = GaussianRational(Fraction(n + t * e, e), r.im)
        q, rem = divide_linear(core, lam)
        if not rem.is_zero:
            raise AssertionError("root of the remainder polynomial left a remainder; bug")
        lambdas.append(lam)
        core = q.lifted(order)
    lambdas.reverse()
    return HomogeneousFactorization(
        scale=over(lr, li, right.den),
        b_power=j,
        lambdas=tuple(lambdas),
        core=core if core.degree else None,
        order=order,
    )
