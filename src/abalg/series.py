"""The commutative subalgebra of series in b, and polynomials in a over it.

Both are views of one AlgebraElement, stored as `element`.

BSeries is a truncated series c_0 + c_1 b + ... + c_N b^N, stored as an
order-N LEFT element whose keys are all (0, q).  These are the scalars of
every module structure in the package.  Sums, scaling, truncation and
comparison are the element's; shifted and derivative (the derivative that
the commutation rule a S(b) = S(b) a + b^2 S'(b) consumes) read its
integer table.  `inverse` is division.invert on the element: a unit of the
b-subalgebra is a unit of the algebra, with an inverse in b again, so one
inversion serves both.  `coeffs` and `coefficient` are built on each call.
`__mul__` stays a GaussianRational Cauchy product over `coeffs`: it
referees `invert` on b-series.

APolynomial is sum_j S_j(b) a^j, stored as the order-N RIGHT element.
`parts` gives back S_0..S_k, S_j at b-order N-j, as far as the
total-degree truncation determines it.
"""

from __future__ import annotations

import math

from .coefficients import GaussianRational, ONE, ZERO
from .elements import LEFT, RIGHT, AlgebraElement, Ordering, _make, scale, with_ordering
from .errors import OrderMismatchError


def _wrap(cls, x: AlgebraElement):
    """The cls view of x, which must already have cls's storage form."""
    out = object.__new__(cls)
    object.__setattr__(out, "element", x)
    return out


class BSeries:
    """A series in b alone, truncated at b^order.  Immutable."""

    __slots__ = ("element",)

    def __init__(self, order: int, coeffs=()):
        items = coeffs.items() if isinstance(coeffs, dict) else enumerate(coeffs[:order + 1])
        table = {}
        for q, c in items:
            if q < 0:
                raise ValueError("negative exponent")
            if q <= order:
                table[(0, q)] = c
        object.__setattr__(self, "element", AlgebraElement(order, LEFT, table))

    def __setattr__(self, name, value):
        raise AttributeError("BSeries is immutable")

    def __reduce__(self):
        return BSeries.from_element, (self.element,)

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int) -> BSeries:
        return _wrap(BSeries, AlgebraElement.zero(order))

    @staticmethod
    def one(order: int) -> BSeries:
        return _wrap(BSeries, AlgebraElement.one(order))

    @staticmethod
    def monomial(q: int, order: int, coeff=ONE) -> BSeries:
        return BSeries(order, {q: coeff})

    @staticmethod
    def from_element(x: AlgebraElement) -> BSeries:
        """The series of an AlgebraElement all of whose terms have p = 0."""
        for p, q in x.table:
            if p != 0:
                raise ValueError(f"element has an a-power term {(p, q)}; not a b-series")
        # b^q a^0 and a^0 b^q coincide, so the table reads the same in either ordering.
        return _wrap(BSeries, x if x.ordering is LEFT else _make(x.order, LEFT, x.den, x.table))

    def to_element(self, order: int | None = None, ordering: Ordering = LEFT) -> AlgebraElement:
        x = self.element
        if order is not None and order != x.order:
            x = x.truncated(order) if order < x.order else x.lifted(order)
        return x if ordering is LEFT else _make(x.order, RIGHT, x.den, x.table)

    # -- structure ----------------------------------------------------------

    @property
    def order(self) -> int:
        return self.element.order

    @property
    def coeffs(self) -> tuple:
        """(c_0, ..., c_N) as GaussianRationals, built on each call."""
        out = [ZERO] * (self.order + 1)
        for (_, q), c in self.element.coeffs.items():
            out[q] = c
        return tuple(out)

    @property
    def is_zero(self) -> bool:
        return self.element.is_zero

    @property
    def constant_term(self) -> GaussianRational:
        return self.element.constant_term

    @property
    def is_unit(self) -> bool:
        return (0, 0) in self.element.table

    @property
    def valuation(self):
        return self.element.valuation

    def coefficient(self, q: int) -> GaussianRational:
        return self.element.coefficient(0, q)

    def truncated(self, order: int) -> BSeries:
        return _wrap(BSeries, self.element.truncated(order))

    def lifted(self, order: int) -> BSeries:
        return _wrap(BSeries, self.element.lifted(order))

    def __eq__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        return self.element == other.element

    __hash__ = None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        return _wrap(BSeries, self.element + other.element)

    def __sub__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        return _wrap(BSeries, self.element - other.element)

    def __neg__(self):
        return _wrap(BSeries, -self.element)

    def scaled(self, c) -> BSeries:
        return _wrap(BSeries, scale(c, self.element))

    def __mul__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        order = min(self.order, other.order)
        left, right = self.coeffs, other.coeffs
        out = [GaussianRational()] * (order + 1)
        for i, c in enumerate(left):
            if not c or i > order:
                continue
            for j in range(order - i + 1):
                d = right[j]
                if d:
                    out[i + j] = out[i + j] + c * d
        return BSeries(order, out)

    def shifted(self, k: int) -> BSeries:
        """Multiplication by b^k, k >= 0 (same truncation order)."""
        if k < 0:
            raise ValueError("b-series can only be shifted by b^k with k >= 0")
        x = self.element
        return _wrap(BSeries, AlgebraElement.from_ints(
            x.order, LEFT, x.den, {(0, q + k): c for (_, q), c in x.table.items()
                                   if q + k <= x.order}))

    def derivative(self) -> BSeries:
        """d/db, truncated at order-1."""
        x = self.element
        return _wrap(BSeries, AlgebraElement.from_ints(
            max(x.order - 1, 0), LEFT, x.den,
            {(0, q - 1): (re * q, im * q) for (_, q), (re, im) in x.table.items() if q}))

    def inverse(self) -> BSeries:
        """The multiplicative inverse of a unit: division.invert on the element,
        since the inverse of a unit of the b-subalgebra is again a series in b."""
        from .division import invert
        return _wrap(BSeries, invert(self.element))

    def __repr__(self):
        terms = " + ".join(f"({c})b^{q}" for q, c in enumerate(self.coeffs) if c) or "0"
        return f"<BSeries order={self.order} {terms}>"


class APolynomial:
    """sum_j S_j(b) a^j with BSeries left coefficients, inside the order-N quotient.

    Stored as the order-N RIGHT element, so S_j is carried at b-order N-j.
    The empty coefficient list is the zero polynomial.
    """

    __slots__ = ("element",)

    def __init__(self, order: int, parts):
        parts = list(parts)
        for j, s in enumerate(parts):
            if j > order:
                raise OrderMismatchError(f"a-degree {j} exceeds truncation order {order}")
            if not isinstance(s, BSeries):
                raise TypeError("APolynomial coefficients must be BSeries")
        den = math.lcm(*(s.element.den for s in parts))
        table = {}
        for j, s in enumerate(parts):
            f = den // s.element.den
            for (_, q), (re, im) in s.element.table.items():
                if j + q <= order:
                    table[(j, q)] = (re * f, im * f)
        object.__setattr__(self, "element", AlgebraElement.from_ints(order, RIGHT, den, table))

    def __setattr__(self, name, value):
        raise AttributeError("APolynomial is immutable")

    def __reduce__(self):
        return APolynomial.from_element, (self.element,)

    @staticmethod
    def zero(order: int) -> APolynomial:
        return _wrap(APolynomial, AlgebraElement.zero(order, RIGHT))

    @staticmethod
    def one(order: int) -> APolynomial:
        return _wrap(APolynomial, AlgebraElement.one(order, RIGHT))

    @property
    def order(self) -> int:
        return self.element.order

    @property
    def is_zero(self) -> bool:
        return self.element.is_zero

    @property
    def a_degree(self):
        return max((p for p, _ in self.element.table), default=None)

    @property
    def parts(self) -> tuple:
        """(S_0, ..., S_k), k the a-degree, built on each call; () for zero."""
        top = self.a_degree
        return () if top is None else tuple(self.coefficient(j) for j in range(top + 1))

    def coefficient(self, j: int) -> BSeries:
        x = self.element
        return _wrap(BSeries, AlgebraElement.from_ints(
            max(x.order - j, 0), LEFT, x.den, {(0, q): c for (p, q), c in x.table.items()
                                               if p == j}))

    def __eq__(self, other):
        if not isinstance(other, APolynomial):
            return NotImplemented
        return self.element == other.element

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, APolynomial):
            return NotImplemented
        return _wrap(APolynomial, self.element + other.element)

    def __neg__(self):
        return _wrap(APolynomial, -self.element)

    def __sub__(self, other):
        if not isinstance(other, APolynomial):
            return NotImplemented
        return _wrap(APolynomial, self.element - other.element)

    def to_element(self, ordering: Ordering = RIGHT) -> AlgebraElement:
        return with_ordering(self.element, ordering)

    @staticmethod
    def from_element(x: AlgebraElement) -> APolynomial:
        return _wrap(APolynomial, with_ordering(x, RIGHT))

    def __repr__(self):
        body = " + ".join(f"[{s!r}]a^{j}" for j, s in enumerate(self.parts)) or "0"
        return f"<APolynomial order={self.order} {body}>"
