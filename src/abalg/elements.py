"""Truncated exact arithmetic in the algebra generated by a, b with ab - ba = b^2.

An AlgebraElement is a sparse table of Gaussian-rational coefficients over
monomials in one of the two normal orderings:

    LEFT   a^p b^q      (key (p, q))
    RIGHT  b^q a^p      (key (p, q), same key, different monomial)

All computation happens in the quotient of the algebra by the two-sided
ideal of total degree > N.  The defining relation is homogeneous of degree
2, so this quotient is a finite-dimensional algebra and every operation
below is exact in it; truncation never introduces approximation.

The change of basis between the orderings is governed by the integers
reorder_coeff(p, q, j):

    a^p b^q = sum_j reorder_coeff(p,q,j) * b^(q+j) a^(p-j)
    b^q a^p = sum_j (-1)^j reorder_coeff(p,q,j) * a^(p-j) b^(q+j)

An element is stored as FLINT's fmpq_poly stores a polynomial: one
denominator `den` >= 1 and a table `table` of Gaussian-integer numerators
{(p, q): (re, im)}, with coefficient (re + im*i) / den, kept in lowest
terms: no zero entry, and gcd(den, every numerator) == 1.  That form is
unique (den is the lcm of the denominators of all parts), so equality is
equality of (den, table).  The kernels (the ordering conversions, mul,
shear, division.invert, the oracle act) loop on those Python ints, and
every result is built by AlgebraElement.from_ints, which divides out one
gcd.  A product of tables over D and D' lies over D*D'; shear's
coefficients lie over D times a power of the shift's denominator; invert
scales its per-degree denominators to one (see division.invert).

The public constructor takes a table of GaussianRationals and is the only
place that splits one; `coeffs` and `coefficient` give them back, built on
each call, for the printer, JSON and the referees.
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cache

from .coefficients import (ONE, ZERO, Coefficient, GaussianRational, RationalLike,
                           common_denominator, over)
from .errors import Frozen, OrderingMismatchError, OrderMismatchError


class Ordering(enum.Enum):
    LEFT = "left"   # monomials a^p b^q
    RIGHT = "right"  # monomials b^q a^p


LEFT = Ordering.LEFT
RIGHT = Ordering.RIGHT


@cache
def reorder_coeff(p: int, q: int, j: int) -> int:
    """The exact integer coefficient of b^(q+j) a^(p-j) in a^p b^q.

    Zero outside 0 <= j <= p.  For q >= 1 the closed form is
    C(q+j-1, j) * p!/(p-j)!; for q = 0 the reordering is trivial.
    Satisfies both recursions

        G(p+1,q,j) = G(p,q,j) + (q+j-1) G(p,q,j-1)
        G(p+1,q,j) = G(p,q,j) + q G(p,q+1,j-1)
    """
    if j < 0 or j > p:
        return 0
    if q == 0:
        return 1 if j == 0 else 0
    return math.comb(q + j - 1, j) * math.perm(p, j)


class AlgebraElement(Frozen):
    """An element of the order-N quotient algebra, in a fixed normal ordering.

    Immutable.  Stored as `den` and `table` (see the module docstring); no
    stored key exceeds total degree `order`.  `table` is a plain dict that
    _make, lifted, BSeries.from_element and to_element share between values,
    so it is read-only by contract: Frozen guards the fields, not what they
    hold.  Equality demands identical order and ordering: comparing across
    truncations or orderings raises instead of silently returning False -
    convert explicitly.
    """

    __slots__ = ("order", "ordering", "den", "table")

    def __init__(self, order: int, ordering: Ordering, coeffs: dict):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        split = {}
        for (p, q), c in coeffs.items():
            if p < 0 or q < 0:
                raise ValueError(f"negative exponent in key {(p, q)}")
            if p + q > order:
                raise ValueError(f"key {(p, q)} exceeds truncation order {order}")
            c = GaussianRational.coerce(c)
            if c:
                split[(p, q)] = c
        # The lcm of reduced denominators leaves no common factor: lowest terms.
        _fill(self, order, ordering, *common_denominator(split))

    # -- constructors --------------------------------------------------

    @staticmethod
    def from_ints(order: int, ordering: Ordering, den: int, table: dict) -> AlgebraElement:
        """The element with coefficient (re + im*i) / den at each key (p, q) of table.

        den >= 1, and every key must satisfy 0 <= p, q and p + q <= order
        (not checked: this is the exit of the kernels).  Zero entries are
        dropped and one gcd over den and all numerators is divided out.
        """
        table = {k: (re, im) for k, (re, im) in table.items() if re or im}
        g = den
        for re, im in table.values():
            if g == 1:
                break
            g = math.gcd(g, re, im)
        if g != 1:
            den //= g
            table = {k: (re // g, im // g) for k, (re, im) in table.items()}
        return _make(order, ordering, den, table)

    @staticmethod
    def zero(order: int, ordering: Ordering = LEFT) -> AlgebraElement:
        return AlgebraElement(order, ordering, {})

    @staticmethod
    def one(order: int, ordering: Ordering = LEFT) -> AlgebraElement:
        return AlgebraElement(order, ordering, {(0, 0): ONE})

    @staticmethod
    def monomial(p: int, q: int, order: int, coeff=ONE,
                 ordering: Ordering = LEFT) -> AlgebraElement:
        return AlgebraElement(order, ordering, {(p, q): GaussianRational.coerce(coeff)})

    @staticmethod
    def scalar(value, order: int, ordering: Ordering = LEFT) -> AlgebraElement:
        return AlgebraElement.monomial(0, 0, order, value, ordering)

    # -- structure -------------------------------------------------------

    @property
    def coeffs(self) -> dict:
        """{(p, q): GaussianRational}, built on each call."""
        den = self.den
        return {k: over(re, im, den) for k, (re, im) in self.table.items()}

    @property
    def is_zero(self) -> bool:
        return not self.table

    @property
    def degree(self):
        """Maximal total degree of a stored monomial; None for zero."""
        return max(p + q for p, q in self.table) if self.table else None

    @property
    def valuation(self):
        """Minimal total degree of a stored monomial; None for zero."""
        return min(p + q for p, q in self.table) if self.table else None

    @property
    def is_homogeneous(self) -> bool:
        return len({p + q for p, q in self.table}) <= 1

    def coefficient(self, p: int, q: int) -> Coefficient:
        c = self.table.get((p, q))
        return ZERO if c is None else over(*c, self.den)

    @property
    def constant_term(self) -> Coefficient:
        return self.coefficient(0, 0)

    def homogeneous_part(self, n: int) -> AlgebraElement:
        return AlgebraElement.from_ints(self.order, self.ordering, self.den,
                                        {k: c for k, c in self.table.items()
                                         if k[0] + k[1] == n})

    def truncated(self, order: int) -> AlgebraElement:
        """Image in the smaller quotient of the given order."""
        if order > self.order:
            raise OrderMismatchError(f"cannot truncate order {self.order} up to {order}")
        return AlgebraElement.from_ints(order, self.ordering, self.den,
                                        {k: c for k, c in self.table.items()
                                         if k[0] + k[1] <= order})

    def lifted(self, order: int) -> AlgebraElement:
        """The zero-tail representative in a larger quotient.

        Degrees above self.order are unknown for a truncated value; this
        picks the zero representative, exact whenever self is an actual
        polynomial or when only degrees <= self.order matter downstream.
        """
        if order < self.order:
            raise OrderMismatchError(f"cannot lift order {self.order} down to {order}")
        return _make(order, self.ordering, self.den, self.table)

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatchError(
                f"comparing elements of different truncation orders ({self.order} vs {other.order})")
        if self.ordering is not other.ordering:
            raise OrderingMismatchError(
                "comparing elements in different orderings; convert explicitly")
        return self.den == other.den and self.table == other.table

    __hash__ = None

    # -- arithmetic sugar ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, AlgebraElement):
            return add(self, other)
        return NotImplemented

    def __sub__(self, other):
        if isinstance(other, AlgebraElement):
            return add(self, negated(other))
        return NotImplemented

    def __neg__(self):
        return negated(self)

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return mul(self, other)
        if isinstance(other, (GaussianRational,) + RationalLike):
            return scale(other, self)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (GaussianRational,) + RationalLike):
            return scale(other, self)
        return NotImplemented

    def __pow__(self, n: int):
        return power(self, n)

    # -- conversions -----------------------------------------------------

    def to_right(self) -> AlgebraElement:
        return to_right(self)

    def to_left(self) -> AlgebraElement:
        return to_left(self)

    def with_ordering(self, ordering: Ordering) -> AlgebraElement:
        return with_ordering(self, ordering)

    def __repr__(self):
        terms = ", ".join(f"{k}: {v}" for k, v in sorted(self.coeffs.items()))
        return f"<AlgebraElement order={self.order} {self.ordering.value} {{{terms}}}>"


def _fill(x: AlgebraElement, order: int, ordering: Ordering, den: int, table: dict):
    # slot by slot, not through Frozen.__init__: this builds every kernel result
    setattr_ = object.__setattr__
    setattr_(x, "order", order)
    setattr_(x, "ordering", ordering)
    setattr_(x, "den", den)
    setattr_(x, "table", table)


def _make(order: int, ordering: Ordering, den: int, table: dict) -> AlgebraElement:
    """The element stored as (den, table), which must already be in lowest terms.

    Tables are shared, never mutated.
    """
    x = object.__new__(AlgebraElement)
    _fill(x, order, ordering, den, table)
    return x


def gen_a(order: int) -> AlgebraElement:
    return AlgebraElement.monomial(1, 0, order)


def gen_b(order: int) -> AlgebraElement:
    return AlgebraElement.monomial(0, 1, order)


# -- guards ---------------------------------------------------------------

def _check_same_ordering(x: AlgebraElement, y: AlgebraElement):
    if x.ordering is not y.ordering:
        raise OrderingMismatchError(
            f"orderings differ ({x.ordering.value} vs {y.ordering.value}); convert explicitly")


def _check_same_order(x: AlgebraElement, y: AlgebraElement):
    if x.order != y.order:
        raise OrderMismatchError(f"truncation orders differ ({x.order} vs {y.order})")


# -- linear operations ------------------------------------------------------

def add(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Coefficientwise sum; the result lives at the smaller of the two orders."""
    _check_same_ordering(x, y)
    order = min(x.order, y.order)
    den = math.lcm(x.den, y.den)
    sx, sy = den // x.den, den // y.den
    out = {k: (re * sx, im * sx) for k, (re, im) in x.table.items() if k[0] + k[1] <= order}
    for k, (re, im) in y.table.items():
        if k[0] + k[1] <= order:
            acc = out.get(k)
            out[k] = (re * sy, im * sy) if acc is None else (acc[0] + re * sy, acc[1] + im * sy)
    return AlgebraElement.from_ints(order, x.ordering, den, out)


def scale(c, x: AlgebraElement) -> AlgebraElement:
    e, (cr, ci) = _scalar_ints(GaussianRational.coerce(c))
    return AlgebraElement.from_ints(x.order, x.ordering, e * x.den,
                                    {k: (cr * re - ci * im, cr * im + ci * re)
                                     for k, (re, im) in x.table.items()})


def negated(x: AlgebraElement) -> AlgebraElement:
    return _make(x.order, x.ordering, x.den, {k: (-re, -im) for k, (re, im) in x.table.items()})


# -- helpers of the integer kernels ----------------------------------------------------

@cache
def _row(p: int, q: int, sign: int) -> tuple:
    """(sign^j * reorder_coeff(p, q, j) for j = 0..p), trailing zeros dropped.

    sign = 1 rewrites a^p b^q on the RIGHT basis, sign = -1 rewrites b^q a^p
    on the LEFT basis; the j-th entry lands on key (p - j, q + j).
    """
    if q == 0:
        return (1,)
    return tuple(sign ** j * reorder_coeff(p, q, j) for j in range(p + 1))


def _scalar_ints(c: GaussianRational) -> tuple[int, tuple[int, int]]:
    """(e, (re, im)) with c == (re + im*i) / e, e >= 1."""
    e, ints = common_denominator({0: c})
    return e, ints[0]


def _binomial_rows(s: GaussianRational, top: int, sign: int = 1) -> tuple[int, list]:
    """(e, rows) with (a + s*b)^p = sum_j rows[p][j] / e^top * b^j a^(p-j), p <= top.

    rows[p][j] = C(p, j) R_j e^(top-j), where the rising product
    s(s+1)...(s+j-1) is R_j / e^j with R_j a Gaussian integer, e = den(s).
    With sign = -1 the product is the falling one s(s-1)...(s-j+1), and the
    rows give (a + s*b)^p = sum_j rows[p][j] / e^top * a^(p-j) b^j instead.
    """
    e, (sr, si) = _scalar_ints(s)
    products = [(1, 0)]
    for t in range(top):
        re, im = products[-1]
        fr = sr + sign * t * e
        products.append((re * fr - im * si, re * si + im * fr))
    scaled = [(re * e ** (top - j), im * e ** (top - j)) for j, (re, im) in enumerate(products)]
    return e, [[(math.comb(p, j) * re, math.comb(p, j) * im)
                for j, (re, im) in enumerate(scaled[:p + 1])] for p in range(top + 1)]


# -- ordering conversions -----------------------------------------------------

def _reorder(x: AlgebraElement, ordering: Ordering, sign: int) -> AlgebraElement:
    """x rewritten on the basis of `ordering`; sign as in _row."""
    out: dict = {}
    for (p, q), (re, im) in x.table.items():
        for j, g in enumerate(_row(p, q, sign)):
            key = (p - j, q + j)
            acc = out.get(key)
            if acc is None:
                out[key] = [g * re, g * im]
            else:
                acc[0] += g * re
                acc[1] += g * im
    return AlgebraElement.from_ints(x.order, ordering, x.den, out)


def to_right(x: AlgebraElement) -> AlgebraElement:
    """Rewrite a LEFT element on the basis b^q a^p (value-equal, same order)."""
    if x.ordering is not LEFT:
        raise OrderingMismatchError("to_right expects a LEFT-ordered element")
    return _reorder(x, RIGHT, 1)


def to_left(x: AlgebraElement) -> AlgebraElement:
    """Rewrite a RIGHT element on the basis a^p b^q; inverse of to_right."""
    if x.ordering is not RIGHT:
        raise OrderingMismatchError("to_left expects a RIGHT-ordered element")
    return _reorder(x, LEFT, -1)


def with_ordering(x: AlgebraElement, ordering: Ordering) -> AlgebraElement:
    if x.ordering is ordering:
        return x
    return to_right(x) if ordering is RIGHT else to_left(x)


# -- multiplication --------------------------------------------------------------

def _times_b_power(q: int, terms: list, width: int) -> list:
    """b^q times the LEFT terms [(p, q', re, im)], on the LEFT basis.

    Returns [(index, re, im)] with index m*width + n for the key (m, n).
    """
    out: dict = {}
    for p, q2, re, im in terms:
        index = p * width + q + q2
        for g in _row(p, q, -1):
            acc = out.get(index)
            if acc is None:
                out[index] = [g * re, g * im]
            else:
                acc[0] += g * re
                acc[1] += g * im
            index += 1 - width
    return [(k, re, im) for k, (re, im) in out.items() if re or im]


def _by_degree(table: dict, order: int) -> list:
    """The terms [(p, q, re, im)] of an integer table, grouped by total degree."""
    out = [[] for _ in range(order + 1)]
    for (p, q), (re, im) in table.items():
        out[p + q].append((p, q, re, im))
    return out


def mul(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Product in the truncated algebra; both factors must be LEFT-ordered.

    With x = sum x_{p,q} a^p b^q, the product is sum x_{p,q} a^p (b^q y):
    b^q y is rewritten on the LEFT basis once per b-power q of x, by the
    signed rows (-1)^j reorder_coeff(p', q, j), and multiplying by a^p only
    shifts keys.  The relation being homogeneous, the product of degree-d
    and degree-d' monomials is homogeneous of degree d+d': grading is exact,
    truncation only drops whole degrees > N, and b^q y is built and used one
    degree block at a time, empty blocks of y skipped.  The loops run on
    Gaussian-integer numerators over the denominator Dx*Dy, accumulated
    only for the a-powers up to min(N, deg x + deg y), so that sparse or
    low-degree operands at a high order cost no (N+1)^2 table.
    """
    _check_same_ordering(x, y)
    if x.ordering is not LEFT:
        raise OrderingMismatchError("mul expects LEFT-ordered operands")
    _check_same_order(x, y)
    order = x.order
    width = order + 1
    y_blocks = _by_degree(y.table, order)
    x_by_b_power: dict = {}
    x_degree = 0
    for (p, q), (re, im) in x.table.items():
        x_by_b_power.setdefault(q, []).append((p, re, im))
        x_degree = max(x_degree, p + q)
    size = (min(order, x_degree + (y.degree or 0)) + 1) * width
    acc_re = [0] * size
    acc_im = [0] * size
    for q, x_terms in x_by_b_power.items():
        top = order - q - min(p for p, _, _ in x_terms)
        w_blocks = [_times_b_power(q, terms, width) if terms else []
                    for terms in y_blocks[:top + 1]]
        for p, xr, xi in x_terms:
            shift = p * width
            for block in w_blocks[:order - q - p + 1]:
                for k, wr, wi in block:
                    k += shift
                    acc_re[k] += xr * wr - xi * wi
                    acc_im[k] += xr * wi + xi * wr
    table = {divmod(k, width): (re, im)
             for k, (re, im) in enumerate(zip(acc_re, acc_im)) if re or im}
    return AlgebraElement.from_ints(order, LEFT, x.den * y.den, table)


def power(x: AlgebraElement, n: int) -> AlgebraElement:
    """x^n by binary exponentiation; zero at once when valuation * n > order."""
    if n < 0:
        raise ValueError("negative powers are not defined here; see division.invert")
    if n and (x.is_zero or x.valuation * n > x.order):
        return AlgebraElement.zero(x.order, x.ordering)
    out = AlgebraElement.one(x.order, LEFT)
    base = with_ordering(x, LEFT)
    while n:
        if n & 1:
            out = mul(out, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return with_ordering(out, x.ordering)


# -- the anti-automorphism and the shear automorphisms ------------------------

def anti_automorphism(x: AlgebraElement, ordering: Ordering | None = None) -> AlgebraElement:
    """The involutive anti-automorphism fixing a and sending b to -b.

    It reverses products and maps the LEFT monomial a^p b^q to the RIGHT
    monomial (-1)^q b^q a^p (and symmetrically), so on the coefficient
    table it swaps the ordering tag and flips the sign of odd-q terms.
    Pass `ordering` to convert the result; by default the swapped form is
    returned as-is.
    """
    swapped = RIGHT if x.ordering is LEFT else LEFT
    out = {(p, q): ((-re, -im) if q % 2 else (re, im)) for (p, q), (re, im) in x.table.items()}
    result = _make(x.order, swapped, x.den, out)
    if ordering is not None:
        result = with_ordering(result, ordering)
    return result


def binomial_pow(x, p: int, order: int) -> AlgebraElement:
    """(a + x*b)^p expanded in RIGHT ordering: the shear a -> a + x*b of a^p.

    Closed form: sum_j x(x+1)...(x+j-1) * C(p, j) * b^j a^(p-j).
    Agrees with the p-fold product of (a + x*b).
    """
    if p > order:
        raise OrderMismatchError(f"degree {p} exceeds truncation order {order}")
    return shear(x, AlgebraElement.monomial(p, 0, order, ordering=RIGHT))


def shear(x, X: AlgebraElement) -> AlgebraElement:
    """The unitary automorphism a -> a + x*b, b -> b, applied to X.

    Computed termwise in X's own ordering: the key (p, q) goes to
    (p - j, q + j) times C(p, j) and, on the RIGHT form (b^q a^p ->
    b^q (a + x*b)^p), the rising x(x+1)...(x+j-1), on the LEFT form
    (a^p b^q -> (a + x*b)^p b^q) the falling x(x-1)...(x-j+1); on the
    symbol of the LEFT table that is P_d(u) -> P_d(u + x).  Multiplicative,
    fixes the b-subalgebra, and shear(x, shear(y, X)) = shear(x+y, X).  The
    loop runs over the denominator D * e^P, with D that of X, e that of x
    and P the largest a-power of X (see _binomial_rows).
    """
    table = X.table
    top = max((p for p, _ in table), default=0)
    e, rows = _binomial_rows(GaussianRational.coerce(x), top, 1 if X.ordering is RIGHT else -1)
    out: dict = {}
    for (p, q), (cr, ci) in table.items():
        for j, (sr, si) in enumerate(rows[p]):
            re, im = cr * sr - ci * si, cr * si + ci * sr
            key = (p - j, q + j)
            acc = out.get(key)
            if acc is None:
                out[key] = [re, im]
            else:
                acc[0] += re
                acc[1] += im
    return AlgebraElement.from_ints(X.order, X.ordering, X.den * e ** top, out)


def coefficient_profile(x: AlgebraElement) -> list[Fraction]:
    """Per-degree size profile: entry n is max over p+q = n of magnitude/q!.

    Purely diagnostic (an exact echo of the factorial growth class the
    algebra's coefficient estimates live in); length order+1.
    """
    out = [Fraction(0)] * (x.order + 1)
    for (p, q), c in x.coeffs.items():
        n = p + q
        value = c.magnitude() / math.factorial(q)
        if value > out[n]:
            out[n] = value
    return out
