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

Coefficients are stored as GaussianRationals, but the kernels (the
ordering conversions, mul, shear and division.invert) never add or
multiply Fractions in their loops.  This is the layout of FLINT's fmpq_poly:
at entry, coefficients.common_denominator writes an element as one positive
common denominator D, the lcm of all part denominators, and a table of
Gaussian-integer numerators, {(p, q): (re, im)} with coefficient
(re + im*i) / D.  The loops run on Python ints; at exit, _from_ints divides
each numerator by its denominator once, giving reduced GaussianRational
parts.  A product of tables over D and D' lies over D*D'; shear's
coefficients lie over D times a power of the shift's denominator; invert
keeps its own per-degree denominators (see division.invert).
"""

from __future__ import annotations

import enum
import math
from fractions import Fraction
from functools import cache

from .coefficients import ONE, Coefficient, GaussianRational, RationalLike, common_denominator
from .errors import OrderingMismatchError, OrderMismatchError


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


class AlgebraElement:
    """An element of the order-N quotient algebra, in a fixed normal ordering.

    Immutable.  Zero coefficients are never stored; no stored key exceeds
    total degree `order`.  Equality demands identical order and ordering:
    comparing across truncations or orderings raises instead of silently
    returning False - convert explicitly.
    """

    __slots__ = ("order", "ordering", "coeffs")

    def __init__(self, order: int, ordering: Ordering, coeffs: dict):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        table = {}
        for (p, q), c in coeffs.items():
            if p < 0 or q < 0:
                raise ValueError(f"negative exponent in key {(p, q)}")
            if p + q > order:
                raise ValueError(f"key {(p, q)} exceeds truncation order {order}")
            c = GaussianRational.coerce(c)
            if c:
                table[(p, q)] = c
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "ordering", ordering)
        object.__setattr__(self, "coeffs", table)

    def __setattr__(self, name, value):
        raise AttributeError("AlgebraElement is immutable")

    # -- constructors --------------------------------------------------

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
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self):
        """Maximal total degree of a stored monomial; None for zero."""
        return max(p + q for p, q in self.coeffs) if self.coeffs else None

    @property
    def valuation(self):
        """Minimal total degree of a stored monomial; None for zero."""
        return min(p + q for p, q in self.coeffs) if self.coeffs else None

    @property
    def is_homogeneous(self) -> bool:
        return len({p + q for p, q in self.coeffs}) <= 1

    def coefficient(self, p: int, q: int) -> Coefficient:
        return self.coeffs.get((p, q), GaussianRational())

    @property
    def constant_term(self) -> Coefficient:
        return self.coefficient(0, 0)

    def homogeneous_part(self, n: int) -> AlgebraElement:
        return AlgebraElement(self.order, self.ordering,
                              {k: c for k, c in self.coeffs.items() if k[0] + k[1] == n})

    def truncated(self, order: int) -> AlgebraElement:
        """Image in the smaller quotient of the given order."""
        if order > self.order:
            raise OrderMismatchError(f"cannot truncate order {self.order} up to {order}")
        return AlgebraElement(order, self.ordering,
                              {k: c for k, c in self.coeffs.items() if k[0] + k[1] <= order})

    def lifted(self, order: int) -> AlgebraElement:
        """The zero-tail representative in a larger quotient.

        Degrees above self.order are unknown for a truncated value; this
        picks the zero representative, exact whenever self is an actual
        polynomial or when only degrees <= self.order matter downstream.
        """
        if order < self.order:
            raise OrderMismatchError(f"cannot lift order {self.order} down to {order}")
        return AlgebraElement(order, self.ordering, dict(self.coeffs))

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
        return self.coeffs == other.coeffs

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
    out = {k: c for k, c in x.coeffs.items() if k[0] + k[1] <= order}
    for k, c in y.coeffs.items():
        if k[0] + k[1] <= order:
            out[k] = out.get(k, GaussianRational()) + c
    return AlgebraElement(order, x.ordering, out)


def scale(c, x: AlgebraElement) -> AlgebraElement:
    c = GaussianRational.coerce(c)
    if not c:
        return AlgebraElement.zero(x.order, x.ordering)
    return AlgebraElement(x.order, x.ordering, {k: c * v for k, v in x.coeffs.items()})


def negated(x: AlgebraElement) -> AlgebraElement:
    return AlgebraElement(x.order, x.ordering, {k: -v for k, v in x.coeffs.items()})


# -- the integer layout of the kernels (see the module docstring) --------------

def _from_ints(order: int, ordering: Ordering, den: int, table: dict,
               step: int = 1) -> AlgebraElement:
    """The element with coefficient (re + im*i) / (den * step^(p+q)) at key (p, q).

    Zero numerators are dropped; every part comes out reduced.
    """
    dens = [den * step ** d for d in range(order + 1)]
    coeffs = {}
    for (p, q), (re, im) in table.items():
        if re or im:
            d = dens[p + q]
            coeffs[(p, q)] = GaussianRational(Fraction(re, d), Fraction(im, d))
    return AlgebraElement(order, ordering, coeffs)


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


def _binomial_rows(s: GaussianRational, top: int) -> tuple[int, list]:
    """(e, rows) with (a + s*b)^p = sum_j rows[p][j] / e^top * b^j a^(p-j), p <= top.

    rows[p][j] = C(p, j) R_j e^(top-j), where the rising product
    s(s+1)...(s+j-1) is R_j / e^j with R_j a Gaussian integer, e = den(s).
    """
    e, (sr, si) = _scalar_ints(s)
    rising = [(1, 0)]
    for t in range(top):
        re, im = rising[-1]
        fr = sr + t * e
        rising.append((re * fr - im * si, re * si + im * fr))
    scaled = [(re * e ** (top - j), im * e ** (top - j)) for j, (re, im) in enumerate(rising)]
    return e, [[(math.comb(p, j) * re, math.comb(p, j) * im)
                for j, (re, im) in enumerate(scaled[:p + 1])] for p in range(top + 1)]


# -- ordering conversions -----------------------------------------------------

def _reorder(x: AlgebraElement, ordering: Ordering, sign: int) -> AlgebraElement:
    """x rewritten on the basis of `ordering`; sign as in _row."""
    den, table = common_denominator(x.coeffs)
    out: dict = {}
    for (p, q), (re, im) in table.items():
        for j, g in enumerate(_row(p, q, sign)):
            key = (p - j, q + j)
            acc = out.get(key)
            if acc is None:
                out[key] = [g * re, g * im]
            else:
                acc[0] += g * re
                acc[1] += g * im
    return _from_ints(x.order, ordering, den, out)


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
    degree block at a time.  The loops run on Gaussian-integer numerators
    under the denominator Dx*Dy (see coefficients.common_denominator).
    """
    _check_same_ordering(x, y)
    if x.ordering is not LEFT:
        raise OrderingMismatchError("mul expects LEFT-ordered operands")
    _check_same_order(x, y)
    order = x.order
    width = order + 1
    dx, xt = common_denominator(x.coeffs)
    dy, yt = common_denominator(y.coeffs)
    y_blocks = _by_degree(yt, order)
    x_by_b_power: dict = {}
    for (p, q), (re, im) in xt.items():
        x_by_b_power.setdefault(q, []).append((p, re, im))
    acc_re = [0] * (width * width)
    acc_im = [0] * (width * width)
    for q, x_terms in x_by_b_power.items():
        top = order - q - min(p for p, _, _ in x_terms)
        w_blocks = [_times_b_power(q, y_blocks[e], width) for e in range(top + 1)]
        for p, xr, xi in x_terms:
            shift = p * width
            for block in w_blocks[:order - q - p + 1]:
                for k, wr, wi in block:
                    k += shift
                    acc_re[k] += xr * wr - xi * wi
                    acc_im[k] += xr * wi + xi * wr
    table = {divmod(k, width): (re, im)
             for k, (re, im) in enumerate(zip(acc_re, acc_im)) if re or im}
    return _from_ints(order, LEFT, dx * dy, table)


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
    out = {(p, q): (-c if q % 2 else c) for (p, q), c in x.coeffs.items()}
    result = AlgebraElement(x.order, swapped, out)
    if ordering is not None:
        result = with_ordering(result, ordering)
    return result


def binomial_pow(x, p: int, order: int) -> AlgebraElement:
    """(a + x*b)^p expanded in RIGHT ordering.

    Closed form: sum_j x(x+1)...(x+j-1) * C(p, j) * b^j a^(p-j).
    Agrees with the p-fold product of (a + x*b).
    """
    if p > order:
        raise OrderMismatchError(f"degree {p} exceeds truncation order {order}")
    e, rows = _binomial_rows(GaussianRational.coerce(x), p)
    return _from_ints(order, RIGHT, e ** p, {(p - j, j): c for j, c in enumerate(rows[p])})


def shear(x, X: AlgebraElement) -> AlgebraElement:
    """The unitary automorphism a -> a + x*b, b -> b, applied to X.

    Computed on the RIGHT form termwise: b^q a^p -> b^q (a + x*b)^p, the
    b^q prefix simply shifting the RIGHT keys.  Multiplicative, fixes the
    b-subalgebra, and shear(x, shear(y, X)) = shear(x+y, X).  The result
    comes back in X's ordering.  The loop runs over the denominator
    D * e^P, with D that of X, e that of x and P the largest a-power of X
    (see _binomial_rows).
    """
    src = with_ordering(X, RIGHT)
    den, table = common_denominator(src.coeffs)
    top = max((p for p, _ in table), default=0)
    e, rows = _binomial_rows(GaussianRational.coerce(x), top)
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
    result = _from_ints(X.order, RIGHT, den * e ** top, out)
    return with_ordering(result, X.ordering)


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
