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

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .coefficients import GaussianRational


def _check_alpha(alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    if not (0 < alpha <= 1):
        raise ValueError(f"alpha must lie in (0, 1], got {alpha}")
    return alpha


@dataclass(frozen=True)
class XiElement:
    """Sparse table (alpha, m, j) -> coefficient vector of length dim."""

    dim: int
    log_depth: int
    m_bound: int
    terms: dict

    def __post_init__(self):
        table = {}
        for (alpha, m, j), vec in self.terms.items():
            alpha = _check_alpha(alpha)
            if m < 0 or m > self.m_bound:
                if m < 0:
                    raise ValueError("negative shift m")
                continue
            if not 0 <= j <= self.log_depth:
                raise ValueError(f"log depth {j} outside [0, {self.log_depth}]")
            vec = tuple(GaussianRational.coerce(c) for c in vec)
            if len(vec) != self.dim:
                raise ValueError("coefficient vector has the wrong dimension")
            if any(vec):
                table[(alpha, m, j)] = vec
        object.__setattr__(self, "terms", table)

    @staticmethod
    def zero(dim: int, log_depth: int, m_bound: int) -> XiElement:
        return XiElement(dim, log_depth, m_bound, {})

    @staticmethod
    def symbol(alpha, m: int, j: int, m_bound: int, dim: int = 1,
               log_depth: int | None = None, vec=None) -> XiElement:
        if log_depth is None:
            log_depth = j
        if vec is None:
            vec = [1] + [0] * (dim - 1)
        return XiElement(dim, log_depth, m_bound, {(Fraction(alpha), m, j): tuple(vec)})

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


@cache
def _primitive_weights(beta: Fraction, j: int) -> tuple:
    """Weights w_t with b[s^beta (log)^j] = sum_t w_t s^(beta+1) (log)^t."""
    inv = Fraction(1, 1) / (beta + 1)
    if j == 0:
        return ((0, inv),)
    out = {j: inv}
    for t, w in _primitive_weights(beta, j - 1):
        out[t] = out.get(t, Fraction(0)) - Fraction(j) * inv * w
    return tuple(sorted(out.items()))


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
