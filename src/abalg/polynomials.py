"""Dense univariate polynomials over the Gaussian rationals.

Small exact toolkit backing the remainder-root machinery, Bernstein
polynomials and spectrum checks: ring operations, division,
Lagrange interpolation, and one exact root search, complete for roots in
Q(i).  It lifts the roots of a monic Gaussian-integer form mod p to a
p-adic precision past a Cauchy bound B on them, and keeps a candidate only
if it vanishes exactly; it factors no integer and has no budget.  Roots
come real ones first, ascending, then the others by (re, im); the private
_roots_with_multiplicity repeats each as often as it divides.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .coefficients import GaussianRational, ONE, ZERO, common_denominator, over


class Poly:
    """Coefficients low to high, trailing zeros stripped; () is the zero polynomial."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [GaussianRational.coerce(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def from_roots(roots) -> Poly:
        out = Poly([1])
        for r in roots:
            out = out * Poly([-GaussianRational.coerce(r), 1])
        return out

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.coeffs) - 1

    @property
    def leading(self) -> GaussianRational:
        return self.coeffs[-1] if self.coeffs else ZERO

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == ONE

    def coefficient(self, k: int) -> GaussianRational:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else ZERO

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly([self.coefficient(k) - other.coefficient(k) for k in range(n)])

    def __neg__(self):
        return Poly([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (GaussianRational, int, Fraction)):
            c = GaussianRational.coerce(other)
            return Poly([c * v for v in self.coeffs])
        if not isinstance(other, Poly):
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [ZERO] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(other.coeffs):
                if d:
                    out[i + j] = out[i + j] + c * d
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly(), self
        inv = other.leading.inverse()
        quot = [ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + other.degree]
            if top:
                f = top * inv
                quot[k] = f
                for j, d in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - f * d
        return Poly(quot), Poly(rem)

    def __call__(self, x) -> GaussianRational:
        x = GaussianRational.coerce(x)
        out = ZERO
        for c in reversed(self.coeffs):
            out = out * x + c
        return out

    def __repr__(self):
        body = " + ".join(f"({c})x^{k}" for k, c in enumerate(self.coeffs) if c) or "0"
        return f"<Poly {body}>"


def interpolate(points) -> Poly:
    """Exact Lagrange interpolation through (x_i, y_i) with distinct x_i."""
    points = [(GaussianRational.coerce(x), GaussianRational.coerce(y)) for x, y in points]
    out = Poly()
    for i, (xi, yi) in enumerate(points):
        if not yi:
            continue
        basis = Poly([1])
        denom = ONE
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = basis * Poly([-xj, 1])
                denom = denom * (xi - xj)
        out = out + basis * (yi * denom.inverse())
    return out


# -- exact root search ---------------------------------------------------------


def _cleared(f: Poly) -> tuple[int, list]:
    """(D, [(re, im), ...]) with f's coefficient j == (re + im*i) / D, low to high."""
    den, table = common_denominator(dict(enumerate(f.coeffs)))
    return den, list(table.values())


def _gmul(a: tuple, b: tuple) -> tuple:
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _ggcd(a: tuple, b: tuple) -> tuple:
    """A gcd of two Gaussian integers (Euclid, each quotient rounded)."""
    while b != (0, 0):
        n = b[0] * b[0] + b[1] * b[1]
        x, y = _gmul(a, (b[0], -b[1]))
        qb = _gmul(((2 * x + n) // (2 * n), (2 * y + n) // (2 * n)), b)
        a, b = b, (a[0] - qb[0], a[1] - qb[1])
    return a


def _primitive(cs: list) -> list:
    """cs without trailing zeros, divided by the Gaussian-integer gcd of its entries."""
    cs = list(cs)
    while cs and cs[-1] == (0, 0):
        cs.pop()
    g = (0, 0)
    for c in cs:
        g = _ggcd(g, c)
    n = g[0] * g[0] + g[1] * g[1]
    return [((cr * g[0] + ci * g[1]) // n, (ci * g[0] - cr * g[1]) // n) for cr, ci in cs]


def _pseudo_divmod(a: list, b: list) -> tuple[list, list]:
    """(q, r) over Z[i] with lc(b)^(deg a - deg b + 1) a = q b + r, deg r < deg b."""
    q, r = [], list(a)
    for k in range(len(a) - len(b), -1, -1):
        t = r[k + len(b) - 1]
        q = [_gmul(b[-1], c) for c in q] + [t]
        r = [_gmul(b[-1], c) for c in r]
        for j, c in enumerate(b):
            tc = _gmul(t, c)
            r[k + j] = (r[k + j][0] - tc[0], r[k + j][1] - tc[1])
    return q[::-1], r[:len(b) - 1]


def _squarefree(cs: list) -> list:
    """The primitive part of f / gcd(f, f') for f = sum c_j x^j, by a primitive
    pseudo-remainder sequence over Z[i]."""
    a = cs
    b = _primitive([(j * cr, j * ci) for j, (cr, ci) in enumerate(cs)][1:])
    while b:
        a, b = b, _primitive(_pseudo_divmod(a, b)[1])
    return _primitive(_pseudo_divmod(cs, a)[0]) if len(a) > 1 else cs


def _horner(cs: list, x: int, m: int) -> int:
    out = 0
    for c in reversed(cs):
        out = (out * x + c) % m
    return out


def _roots_mod(cs: list, p: int):
    """The roots mod p of sum cs[j] x^j (integers), or None if one is multiple."""
    roots = [x for x in range(p) if not _horner(cs, x, p)]
    der = [j * c for j, c in enumerate(cs)][1:]
    return None if any(not _horner(der, x, p) for x in roots) else roots


def _lift(cs: list, r: int, p: int, m: int) -> int:
    """The root mod m = p^(2^k) of sum cs[j] x^j over the simple root r mod p
    (Newton, doubling the exponent each step)."""
    der = [j * c for j, c in enumerate(cs)][1:]
    q = p
    while q < m:
        q *= q
        r = (r - _horner(cs, r, q) * pow(_horner(der, r, q), -1, q)) % q
    return r


def _prime_after(p: int) -> int:
    """The least prime above p that is 1 mod 4."""
    p += 1
    while p % 4 != 1 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += 1
    return p


def _reductions(g: list, p: int):
    """(s, roots of g mod p under i -> s, roots under i -> -s) for an s with
    s^2 = -1 mod p, or None if either reduction has a multiple root."""
    s = next(t for t in (pow(b, (p - 1) // 4, p) for b in range(2, p)) if t * t % p == p - 1)
    roots = [_roots_mod([(re + e * s * im) % p for re, im in g], p) for e in (1, -1)]
    return None if None in roots else (s, *roots)


def _monic(cs: list) -> list:
    """g(w) = sum_j c_j c_n^(n-1-j) w^j, monic, so that g(c_n z) = c_n^(n-1) f(z)."""
    g, power = [(1, 0)], (1, 0)
    for c in reversed(cs[:-1]):
        g.append(_gmul(c, power))
        power = _gmul(power, cs[-1])
    return g[::-1]


def _is_root(g: list, u: int, v: int) -> bool:
    re = im = 0
    for cr, ci in reversed(g):
        re, im = re * u - im * v + cr, re * v + im * u + ci
    return not re and not im


def gaussian_roots(f: Poly) -> list[GaussianRational]:
    """All roots of f in Q(i), each listed once: the real ones ascending,
    then the others by (re, im).  Complete, and no integer is factored.

    With f = sum c_j x^j / D over Gaussian integers c_j, every root z gives
    a Gaussian integer w = c_n z, a root of the monic
    g(w) = sum_j c_j c_n^(n-1-j) w^j, with |w| <= |c_n| + max_(j<n) |c_j| = B
    (Cauchy).  Take the least prime p = 1 mod 4 above n at which both
    reductions of g, i -> s and i -> -s for s^2 = -1 mod p, have only simple
    roots; if the first one fails, f is first replaced by its squarefree
    part, and then only finitely many primes fail.  The roots mod p (found
    by evaluation) and s are Newton-lifted mod M = p^(2^k) > 2B.  A pair
    (r+, r-) of lifted roots is u + sv and u - sv mod M for a root
    w = u + vi, so u and v are read off as symmetric residues; a candidate
    is kept if |u|, |v| <= B and g(w) = 0 exactly.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    _, cs = _cleared(f)
    if len(cs) < 3:
        return [-f.coeffs[0] / f.coeffs[1]] if len(cs) == 2 else []
    g, p = _monic(cs), _prime_after(len(cs) - 1)
    if (found := _reductions(g, p)) is None:
        cs = _squarefree(cs)
        g = _monic(cs)
        while (found := _reductions(g, p)) is None:
            p = _prime_after(p)
    s, plus, minus = found
    lr, li = cs[-1]
    n = lr * lr + li * li
    bound = isqrt(n) + 1 + max(isqrt(re * re + im * im) + 1 for re, im in cs[:-1])
    m = p
    while m <= 2 * bound:
        m *= m
    s = _lift([1, 0, 1], s, p, m)
    plus, minus = ([_lift([(re + e * s * im) % m for re, im in g], r, p, m) for r in rs]
                   for e, rs in ((1, plus), (-1, minus)))
    half, half_s, mid = pow(2, -1, m), pow(2 * s, -1, m), m // 2
    roots = set()
    for a in plus:
        for b in minus:
            u = ((a + b) * half + mid) % m - mid
            v = ((a - b) * half_s + mid) % m - mid
            if abs(u) <= bound and abs(v) <= bound and _is_root(g, u, v):
                roots.add(over(u * lr + v * li, v * lr - u * li, n))
    return sorted(roots, key=lambda z: (z.im != 0, z.re, z.im))


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of f, each listed once, ascending: the real ones
    of gaussian_roots(f)."""
    return [z.re for z in gaussian_roots(f) if not z.im]


def _roots_with_multiplicity(f: Poly) -> list[GaussianRational]:
    """The roots of f in Q(i) in the order of gaussian_roots, each repeated
    as often as it divides f.

    When gaussian_roots finds deg f roots, they are all simple.  Otherwise
    each root z is taken out of the monic g of gaussian_roots as often as
    x - w divides it, with w = c_n z = u + vi a Gaussian integer (so the
    divisions that give u and v are exact).  g is monic, so synthetic
    division by x - w stays on Gaussian integers and only its remainder
    g_0 + w h_0 is tested.
    """
    roots = gaussian_roots(f)
    if len(roots) == f.degree:
        return roots
    _, cs = _cleared(f)
    g, (lr, li) = _monic(cs), cs[-1]
    out = []
    for z in roots:
        (x, d), (y, e) = z.re.as_integer_ratio(), z.im.as_integer_ratio()
        u, v = (x * e * lr - y * d * li) // (d * e), (x * e * li + y * d * lr) // (d * e)
        while len(g) > 1:
            h = [None] * (len(g) - 1)
            cr, ci = g[-1]
            for j in range(len(g) - 2, -1, -1):
                h[j] = (cr, ci)
                cr, ci = g[j][0] + cr * u - ci * v, g[j][1] + cr * v + ci * u
            if cr or ci:
                break
            g = h
            out.append(z)
    return out
