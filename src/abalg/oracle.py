"""Faithful operator representation on truncated power series in z.

The generators act on C{z} by

    a  =  multiplication by z
    b  =  primitive without constant term,  b[z^r] = z^(r+1)/(r+1)

so a^p b^q sends z^r to (r!/(q+r)!) z^(p+q+r).  This representation is
injective, which makes it a brute-force oracle for every algebra
operation: two elements agree iff they act identically on enough
monomials.

The action of a whole element is implemented twice on purpose - once
through the closed kernel u_m = sum r!/(q+r)! x_{p,q} t_r, once by
composing the elementary act_a/act_b - and the two are cross-checked
against each other in the tests.

The kernel `act` runs on Gaussian integers in the layout of the algebra
kernels (coefficients.common_denominator: an integer table over one
positive denominator), with an integral scale F_m per output degree m
(see `act`).  `act_composed`, `act_a` and `act_b` stay on Fractions, one
coefficient at a time, and share no arithmetic with `act`, so they remain
an independent referee of it.
"""

from __future__ import annotations

from fractions import Fraction

from .coefficients import GaussianRational, ONE, common_denominator
from .elements import LEFT, AlgebraElement, mul
from .errors import (NotHomogeneousError, OrderingMismatchError, WitnessNotFoundError,
                     ZeroElementError)


class PolySeries:
    """A polynomial in z truncated at degree D: sparse map exponent -> coefficient."""

    __slots__ = ("degree_bound", "coeffs")

    def __init__(self, degree_bound: int, coeffs: dict | None = None):
        if degree_bound < 0:
            raise ValueError("degree bound must be nonnegative")
        table = {}
        for m, c in (coeffs or {}).items():
            if m < 0:
                raise ValueError("negative exponent")
            if m > degree_bound:
                continue
            c = GaussianRational.coerce(c)
            if c:
                table[m] = c
        object.__setattr__(self, "degree_bound", degree_bound)
        object.__setattr__(self, "coeffs", table)

    def __setattr__(self, name, value):
        raise AttributeError("PolySeries is immutable")

    @staticmethod
    def monomial(r: int, degree_bound: int, coeff=ONE) -> PolySeries:
        return PolySeries(degree_bound, {r: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, m: int) -> GaussianRational:
        return self.coeffs.get(m, GaussianRational())

    def __eq__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        return self.degree_bound == other.degree_bound and self.coeffs == other.coeffs

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, PolySeries):
            return NotImplemented
        bound = min(self.degree_bound, other.degree_bound)
        out = {m: c for m, c in self.coeffs.items() if m <= bound}
        for m, c in other.coeffs.items():
            if m <= bound:
                out[m] = out.get(m, GaussianRational()) + c
        return PolySeries(bound, out)

    def scaled(self, c) -> PolySeries:
        c = GaussianRational.coerce(c)
        return PolySeries(self.degree_bound, {m: c * v for m, v in self.coeffs.items()})

    def __repr__(self):
        terms = ", ".join(f"z^{m}: {c}" for m, c in sorted(self.coeffs.items()))
        return f"<PolySeries D={self.degree_bound} {{{terms}}}>"


def act_a(f: PolySeries) -> PolySeries:
    """Multiplication by z; terms pushed past the degree bound are dropped."""
    return PolySeries(f.degree_bound, {m + 1: c for m, c in f.coeffs.items()})


def act_b(f: PolySeries) -> PolySeries:
    """The primitive without constant: t_m z^m -> t_m z^(m+1)/(m+1)."""
    return PolySeries(f.degree_bound, {m + 1: c / (m + 1) for m, c in f.coeffs.items()})


def act(X: AlgebraElement, f: PolySeries) -> PolySeries:
    """Action of a LEFT-ordered element, by the closed kernel.

    Output coefficient of z^m is  sum over p+q+r = m of r!/(q+r)! x_{p,q} t_r.

    The sum runs on integers.  With X = (table) / Dx and f = (table) / Dt in
    the layout of coefficients.common_denominator, let r0 be the smallest
    exponent of f that reaches z^m.  Every term reaching z^m has r >= r0
    and q + r <= m, so with F_m = m!/r0! = (r0+1)...m each weight

        F_m r!/(q+r)!  =  [(r0+1)...r] * [(q+r+1)...m]

    is an integer of at most deg(X) factors, each at most m.  Only the
    degrees m that some term reaches are visited, so neither a large degree
    bound nor the gaps of a sparse f cost time or memory.  Each output
    coefficient is divided once, by Dx Dt F_m.
    """
    if X.ordering is not LEFT:
        raise OrderingMismatchError("act expects a LEFT-ordered element")
    bound = f.degree_bound
    dx, xt = common_denominator(X.coeffs)
    dt, tt = common_denominator(f.coeffs)
    blocks: dict = {}
    for (p, q), c in xt.items():
        blocks.setdefault(p + q, []).append((q, c))
    degrees = sorted(blocks)
    lowest: dict = {}  # m -> r0(m)
    for r in sorted(tt):
        for d in degrees:
            if r + d > bound:
                break
            lowest.setdefault(r + d, r)
    out = {}
    for m, r0 in lowest.items():
        falling = [1]  # falling[k] = m(m-1)...(m-k+1), up to F_m = falling[m - r0]
        for k in range(m - r0):
            falling.append(falling[-1] * (m - k))
        scale = falling[-1]
        re = im = 0
        for d in degrees:
            r = m - d
            if r < r0:
                break
            if r not in tt:
                continue
            sr = si = 0
            for q, (xr, xi) in blocks[d]:
                w = falling[d - q]  # (q+r+1)...m
                sr += w * xr
                si += w * xi
            tr, ti = tt[r]
            w = scale // falling[d]  # (r0+1)...r
            re += w * (sr * tr - si * ti)
            im += w * (sr * ti + si * tr)
        if re or im:
            den = dx * dt * scale
            out[m] = GaussianRational(Fraction(re, den), Fraction(im, den))
    return PolySeries(bound, out)


def act_composed(X: AlgebraElement, f: PolySeries) -> PolySeries:
    """Same action, derived route: sum of x_{p,q} * act_a^p(act_b^q(f)).

    Kept deliberately independent of the kernel formula so the two can be
    cross-checked.
    """
    if X.ordering is not LEFT:
        raise OrderingMismatchError("act_composed expects a LEFT-ordered element")
    out = PolySeries(f.degree_bound)
    for (p, q), x in sorted(X.coeffs.items()):
        g = f
        for _ in range(q):
            g = act_b(g)
        for _ in range(p):
            g = act_a(g)
        out = out + g.scaled(x)
    return out


def oracle_check_mul(X: AlgebraElement, Y: AlgebraElement, degree_bound: int) -> bool:
    """True iff act(X*Y) = act(X) o act(Y) on all z^r with r + 2N <= degree_bound.

    X and Y are taken as exact polynomials, so the product is formed at
    order X.order + Y.order (no truncation loss) before acting.
    """
    full = mul(X.lifted(X.order + Y.order), Y.lifted(X.order + Y.order))
    top = degree_bound - X.order - Y.order
    for r in range(max(top, 0) + 1):
        f = PolySeries.monomial(r, degree_bound)
        if act(full, f) != act(X, act(Y, f)):
            return False
    return True


def _default_witness_bound(P: AlgebraElement) -> int:
    # A factorization of P over C has each root bounded in terms of the
    # coefficient data; for Gaussian-rational input the vanishing slots
    # r+1 = root are confined below max numerator + degree + 1.
    biggest = 0
    for c in P.coeffs.values():
        biggest = max(biggest, abs(c.re.numerator), abs(c.im.numerator))
    return int(biggest) + (P.degree or 0) + 1


def injectivity_witness(P: AlgebraElement, r_max: int | None = None) -> int:
    """Smallest r <= r_max with act(P, z^r) != 0, for nonzero homogeneous P.

    Raises WitnessNotFoundError when the bound is too small (the caller
    enlarges it); with the default bound this does not happen for
    Gaussian-rational data.
    """
    if P.is_zero:
        raise ZeroElementError("the zero element acts as zero on everything")
    if not P.is_homogeneous:
        raise NotHomogeneousError("injectivity_witness expects a homogeneous element")
    X = P.with_ordering(LEFT)
    m = X.degree
    if r_max is None:
        r_max = _default_witness_bound(X)
    for r in range(r_max + 1):
        f = PolySeries.monomial(r, m + r)
        if not act(X, f).is_zero:
            return r
    raise WitnessNotFoundError(r_max)
