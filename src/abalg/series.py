"""The commutative subalgebra of series in b, and polynomials in a over it.

BSeries is a dense truncated series c_0 + c_1 b + ... + c_N b^N.  These are
the scalars of every module structure in the package, so they carry their
own arithmetic (including unit inversion and the derivative, which is what
the commutation rule a S(b) = S(b) a + b^2 S'(b) consumes).

APolynomial is a list of BSeries left coefficients S_0..S_k representing
sum_j S_j(b) a^j, i.e. a RIGHT-ordered element grouped by a-degree.  Its
`order` is the ambient total-degree truncation, so S_j is only meaningful
up to b^(order-j).
"""

from __future__ import annotations

from .coefficients import GaussianRational, ONE
from .elements import LEFT, RIGHT, AlgebraElement, Ordering
from .errors import OrderMismatchError, ZeroConstantTermError


class BSeries:
    """A series in b alone, truncated at b^order.  Immutable."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs=()):
        if order < 0:
            raise ValueError("truncation order must be nonnegative")
        table = list(coeffs[:order + 1]) if not isinstance(coeffs, dict) else None
        if table is None:
            table = [GaussianRational()] * (order + 1)
            for q, c in coeffs.items():
                if q < 0:
                    raise ValueError("negative exponent")
                if q <= order:
                    table[q] = GaussianRational.coerce(c)
        else:
            table = [GaussianRational.coerce(c) for c in table]
            table += [GaussianRational()] * (order + 1 - len(table))
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(table))

    def __setattr__(self, name, value):
        raise AttributeError("BSeries is immutable")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def zero(order: int) -> BSeries:
        return BSeries(order)

    @staticmethod
    def one(order: int) -> BSeries:
        return BSeries(order, [ONE])

    @staticmethod
    def monomial(q: int, order: int, coeff=ONE) -> BSeries:
        return BSeries(order, {q: coeff})

    @staticmethod
    def from_element(x: AlgebraElement) -> BSeries:
        """Read off an AlgebraElement all of whose terms have p = 0."""
        table = {}
        for (p, q), c in x.coeffs.items():
            if p != 0:
                raise ValueError(f"element has an a-power term {(p, q)}; not a b-series")
            table[q] = c
        return BSeries(x.order, table)

    def to_element(self, order: int | None = None, ordering: Ordering = LEFT) -> AlgebraElement:
        # b^q a^0 and a^0 b^q coincide, so either ordering tag is faithful.
        order = self.order if order is None else order
        table = {(0, q): c for q, c in enumerate(self.coeffs) if c and q <= order}
        return AlgebraElement(order, ordering, table)

    # -- structure ----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    @property
    def constant_term(self) -> GaussianRational:
        return self.coeffs[0]

    @property
    def is_unit(self) -> bool:
        return bool(self.coeffs[0])

    @property
    def valuation(self):
        for q, c in enumerate(self.coeffs):
            if c:
                return q
        return None

    def coefficient(self, q: int) -> GaussianRational:
        return self.coeffs[q] if 0 <= q <= self.order else GaussianRational()

    def truncated(self, order: int) -> BSeries:
        if order > self.order:
            raise OrderMismatchError(f"cannot truncate order {self.order} up to {order}")
        return BSeries(order, self.coeffs[:order + 1])

    def lifted(self, order: int) -> BSeries:
        if order < self.order:
            raise OrderMismatchError(f"cannot lift order {self.order} down to {order}")
        return BSeries(order, self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatchError(
                f"comparing b-series of different truncation orders ({self.order} vs {other.order})")
        return self.coeffs == other.coeffs

    __hash__ = None

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return BSeries(order, [self.coeffs[q] + other.coeffs[q] for q in range(order + 1)])

    def __sub__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        order = min(self.order, other.order)
        return BSeries(order, [self.coeffs[q] - other.coeffs[q] for q in range(order + 1)])

    def __neg__(self):
        return BSeries(self.order, [-c for c in self.coeffs])

    def scaled(self, c) -> BSeries:
        c = GaussianRational.coerce(c)
        return BSeries(self.order, [c * v for v in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, BSeries):
            return NotImplemented
        order = min(self.order, other.order)
        out = [GaussianRational()] * (order + 1)
        for i, c in enumerate(self.coeffs):
            if not c or i > order:
                continue
            for j in range(order - i + 1):
                d = other.coeffs[j]
                if d:
                    out[i + j] = out[i + j] + c * d
        return BSeries(order, out)

    def shifted(self, k: int) -> BSeries:
        """Multiplication by b^k (same truncation order)."""
        return BSeries(self.order, [GaussianRational()] * k + list(self.coeffs))

    def derivative(self) -> BSeries:
        """d/db, truncated at order-1."""
        n = max(self.order - 1, 0)
        return BSeries(n, [self.coeffs[q + 1] * (q + 1) for q in range(min(n + 1, self.order))])

    def inverse(self) -> BSeries:
        """The multiplicative inverse of a unit, by the Cauchy-product recursion."""
        c0 = self.coeffs[0]
        if not c0:
            raise ZeroConstantTermError("b-series with zero constant term has no inverse")
        inv0 = c0.inverse()
        out = [inv0]
        for n in range(1, self.order + 1):
            s = GaussianRational()
            for i in range(1, n + 1):
                if self.coeffs[i]:
                    s = s + self.coeffs[i] * out[n - i]
            out.append(-inv0 * s)
        return BSeries(self.order, out)

    def __repr__(self):
        terms = " + ".join(f"({c})b^{q}" for q, c in enumerate(self.coeffs) if c) or "0"
        return f"<BSeries order={self.order} {terms}>"


class APolynomial:
    """sum_j S_j(b) a^j with BSeries left coefficients, inside the order-N quotient.

    Stored coefficients respect the total-degree truncation: S_j is carried
    at b-order N-j.  The empty coefficient list is the zero polynomial.
    """

    __slots__ = ("order", "parts")

    def __init__(self, order: int, parts):
        cleaned = []
        for j, s in enumerate(parts):
            if j > order:
                raise OrderMismatchError(f"a-degree {j} exceeds truncation order {order}")
            if not isinstance(s, BSeries):
                raise TypeError("APolynomial coefficients must be BSeries")
            cleaned.append(s.truncated(order - j) if s.order > order - j else s.lifted(order - j))
        while cleaned and cleaned[-1].is_zero:
            cleaned.pop()
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "parts", tuple(cleaned))

    def __setattr__(self, name, value):
        raise AttributeError("APolynomial is immutable")

    @staticmethod
    def zero(order: int) -> APolynomial:
        return APolynomial(order, [])

    @staticmethod
    def one(order: int) -> APolynomial:
        return APolynomial(order, [BSeries.one(order)])

    @property
    def is_zero(self) -> bool:
        return not self.parts

    @property
    def a_degree(self):
        return len(self.parts) - 1 if self.parts else None

    def coefficient(self, j: int) -> BSeries:
        if 0 <= j < len(self.parts):
            return self.parts[j]
        return BSeries.zero(max(self.order - j, 0))

    def __eq__(self, other):
        if not isinstance(other, APolynomial):
            return NotImplemented
        if self.order != other.order:
            raise OrderMismatchError(
                f"comparing a-polynomials of different orders ({self.order} vs {other.order})")
        return self.parts == other.parts

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, APolynomial):
            return NotImplemented
        order = min(self.order, other.order)
        n = max(len(self.parts), len(other.parts))
        parts = []
        for j in range(min(n, order + 1)):
            s = self.coefficient(j).truncated(min(order - j, self.coefficient(j).order))
            t = other.coefficient(j).truncated(min(order - j, other.coefficient(j).order))
            parts.append(s.lifted(order - j) + t.lifted(order - j))
        return APolynomial(order, parts)

    def __neg__(self):
        return APolynomial(self.order, [-s for s in self.parts])

    def __sub__(self, other):
        if not isinstance(other, APolynomial):
            return NotImplemented
        return self + (-other)

    def to_element(self, ordering: Ordering = RIGHT) -> AlgebraElement:
        table = {}
        for j, s in enumerate(self.parts):
            for q, c in enumerate(s.coeffs):
                if c:
                    table[(j, q)] = c
        x = AlgebraElement(self.order, RIGHT, table)
        return x.with_ordering(ordering)

    @staticmethod
    def from_element(x: AlgebraElement) -> APolynomial:
        right = x.with_ordering(RIGHT)
        k = max((p for p, _ in right.coeffs), default=0)
        parts = []
        for j in range(k + 1):
            parts.append(BSeries(x.order - j,
                                 {q: c for (p, q), c in right.coeffs.items() if p == j}))
        return APolynomial(x.order, parts)

    def __repr__(self):
        body = " + ".join(f"[{s!r}]a^{j}" for j, s in enumerate(self.parts)) or "0"
        return f"<APolynomial order={self.order} {body}>"
