"""Multivalued expansions: finite sums of s^(alpha+m) (log s)^j tensor vectors.

The symbols are indexed by a rational alpha in (0, 1], a shift m >= 0 and
a log depth j <= log_depth; coefficients are vectors of Gaussian
rationals.  The generators act by

    a = multiplication by s            (m -> m+1)
    b = primitive vanishing at 0:
        b[s^beta (log s)^j] = s^(beta+1)/(beta+1) (log s)^j
                              - j/(beta+1) * b[s^beta (log s)^(j-1)]

(differentiate the right side to check; beta = alpha + m > 0 keeps every
denominator nonzero).  Terms pushed past the m-truncation are dropped on
both sides of any identity, so ab - ba = b^2 survives truncation exactly.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import GaussianRational
from .errors import Frozen


def _check_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


class XiElement(Frozen):
    """Sparse table (alpha, m, j) -> coefficient vector of length dim."""

    __slots__ = ("dim", "log_depth", "m_bound", "terms")

    def __init__(self, dim: int, log_depth: int, m_bound: int, terms: dict):
        table = {}
        for (alpha, m, j), vec in terms.items():
            alpha = _check_alpha(alpha)
            if m < 0 or m > m_bound:
                if m < 0:
                    raise ValueError("negative shift m")
                continue
            if not 0 <= j <= log_depth:
                raise ValueError(f"log depth {j} outside [0, {log_depth}]")
            vec = tuple(GaussianRational.coerce(c) for c in vec)
            if len(vec) != dim:
                raise ValueError("coefficient vector has the wrong dimension")
            if any(vec):
                table[(alpha, m, j)] = vec
        super().__init__(dim=dim, log_depth=log_depth, m_bound=m_bound, terms=table)

    @staticmethod
    def symbol(alpha, m: int, j: int, m_bound: int) -> XiElement:
        """The one-dimensional s^(alpha+m) (log s)^j, of log depth j."""
        return XiElement(1, j, m_bound, {(Fraction(alpha), m, j): (1,)})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def _compatible(self, other: XiElement):
        if (self.dim, self.log_depth, self.m_bound) != (other.dim, other.log_depth,
                                                        other.m_bound):
            raise ValueError("XiElement shapes differ")

    def __add__(self, other):
        if not isinstance(other, XiElement):
            return NotImplemented
        self._compatible(other)
        table = dict(self.terms)
        for key, vec in other.terms.items():
            cur = table.get(key)
            table[key] = vec if cur is None else tuple(a + b for a, b in zip(cur, vec))
        return XiElement(self.dim, self.log_depth, self.m_bound, table)

    def __sub__(self, other):
        if not isinstance(other, XiElement):
            return NotImplemented
        return self + other.scaled(-1)

    def scaled(self, c) -> XiElement:
        c = GaussianRational.coerce(c)
        return XiElement(self.dim, self.log_depth, self.m_bound,
                         {k: tuple(c * a for a in vec) for k, vec in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, XiElement):
            return NotImplemented
        self._compatible(other)
        return self.terms == other.terms

    __hash__ = None

    def __repr__(self):
        bits = []
        for (alpha, m, j), vec in sorted(self.terms.items()):
            log = f"(log s)^{j}" if j else ""
            bits.append(f"s^{alpha + m}{log} (x) {vec}")
        return f"<XiElement {' + '.join(bits) or '0'}>"


def xi_act_a(xi: XiElement) -> XiElement:
    """Multiplication by s: every exponent shifts by one; overflow terms drop."""
    table = {}
    for (alpha, m, j), vec in xi.terms.items():
        if m + 1 <= xi.m_bound:
            key = (alpha, m + 1, j)
            cur = table.get(key)
            table[key] = vec if cur is None else tuple(a + b for a, b in zip(cur, vec))
    return XiElement(xi.dim, xi.log_depth, xi.m_bound, table)


def _primitive_weights(beta: Fraction, j: int) -> tuple:
    """Weights w_t with b[s^beta (log)^j] = sum_t w_t s^(beta+1) (log)^t, t
    ascending: w_j = 1/(beta+1) and w_(t-1) = -t w_t / (beta+1), that is
    w_t = (-1)^(j-t) j! / (t! (beta+1)^(j-t+1))."""
    inv = 1 / (beta + 1)
    out = [inv]
    for t in range(j, 0, -1):
        out.append(-t * out[-1] * inv)
    return tuple(enumerate(reversed(out)))


def xi_act_b(xi: XiElement) -> XiElement:
    """The primitive without constant, termwise via the log-reduction rule."""
    table = {}
    for (alpha, m, j), vec in xi.terms.items():
        if m + 1 > xi.m_bound:
            continue
        beta = alpha + m
        for t, w in _primitive_weights(beta, j):
            key = (alpha, m + 1, t)
            add = tuple(c * w for c in vec)
            cur = table.get(key)
            table[key] = add if cur is None else tuple(a + b for a, b in zip(cur, add))
    return XiElement(xi.dim, xi.log_depth, xi.m_bound, table)


def xi_check_simple_pole(alpha, m: int) -> Fraction:
    """Verify a[s^(alpha+m)] = (alpha+m+1) b[s^(alpha+m)] and return that factor.

    The single symbol spans a rank-1 simple-pole module whose structure
    constant is alpha+m+1.
    """
    alpha = _check_alpha(Fraction(alpha))
    xi = XiElement.symbol(alpha, m, 0, m_bound=m + 1)
    theta = alpha + m + 1
    if xi_act_a(xi) != xi_act_b(xi).scaled(theta):
        raise AssertionError("simple-pole relation failed on a monomial; bug")
    return theta
