"""Dense univariate polynomials over the Gaussian rationals.

Small exact toolkit backing the remainder-root machinery, Bernstein
polynomials and spectrum checks: ring operations, division,
Lagrange interpolation, and one exact root search, complete for roots in
Q(i).  It lifts the roots of a monic Gaussian-integer form mod p to a
p-adic precision past a Cauchy bound B on them, and keeps a candidate only
if it vanishes exactly; it factors no integer and has no budget.  A prime
fails when the form has a multiple root mod p.  After the first failure
the form is replaced by its square-free part, from a subresultant
sequence over Z[i] with exact divisions, unless it is of high degree and
a gcd mod the prime 2^61 - 1 proves it square-free already; the primes
that fail after that are finitely many.  Roots come real ones first,
ascending, then the others by (re, im); the private
_roots_with_multiplicity repeats each as often as it divides.  Both read
the integer `table` over `den` that a Poly is stored as (see its class).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt

from .coefficients import GaussianRational, ONE, ZERO, common_denominator, over


class Poly:
    """Gaussian-integer numerators (re, im), low to high and without trailing
    zeros, over one positive denominator, in lowest terms: zero is (1, ())."""

    __slots__ = ("den", "table")

    def __init__(self, coeffs=()):
        den, table = common_denominator(dict(enumerate(map(GaussianRational.coerce, coeffs))))
        _fill(self, den, table.values())

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @staticmethod
    def from_ints(den: int, table) -> Poly:
        """sum_j (re_j + im_j*i) / den x^j for table[j] == (re_j, im_j), den >= 1."""
        return _fill(object.__new__(Poly), den, table)

    @staticmethod
    def from_roots(roots) -> Poly:
        out = Poly([1])
        for r in roots:
            out = out * Poly([-GaussianRational.coerce(r), 1])
        return out

    @property
    def coeffs(self) -> tuple:
        """The coefficients as GaussianRationals, low to high, built on each call."""
        den = self.den
        return tuple(over(re, im, den) for re, im in self.table)

    @property
    def is_zero(self) -> bool:
        return not self.table

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial at -1."""
        return len(self.table) - 1

    @property
    def leading(self) -> GaussianRational:
        return self.coefficient(self.degree)

    @property
    def is_monic(self) -> bool:
        return bool(self.table) and self.table[-1] == (self.den, 0)

    def coefficient(self, k: int) -> GaussianRational:
        return over(*self.table[k], self.den) if 0 <= k < len(self.table) else ZERO

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.den == other.den and self.table == other.table

    def __hash__(self):
        return hash((self.den, self.table))

    def __add__(self, other):
        n = max(len(self.table), len(other.table))
        return Poly([self.coefficient(k) + other.coefficient(k) for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.table), len(other.table))
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
        right = other.coeffs
        out = [ZERO] * (len(self.table) + len(right) - 1)
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            for j, d in enumerate(right):
                if d:
                    out[i + j] = out[i + j] + c * d
        return Poly(out)

    __rmul__ = __mul__

    def divmod(self, other) -> tuple[Poly, Poly]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        rem, divisor = list(self.coeffs), other.coeffs
        dq = len(rem) - len(divisor)
        if dq < 0:
            return Poly(), self
        inv = divisor[-1].inverse()
        quot = [ZERO] * (dq + 1)
        for k in range(dq, -1, -1):
            top = rem[k + len(divisor) - 1]
            if top:
                f = top * inv
                quot[k] = f
                for j, d in enumerate(divisor):
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


def _fill(f: Poly, den: int, table) -> Poly:
    """f storing den and table, trailing zeros stripped, in lowest terms."""
    cs = list(table)
    while cs and cs[-1][0] == cs[-1][1] == 0:
        cs.pop()
    g = gcd(den, *[v for z in cs for v in z])  # a list: see linalg._divide_content
    if g > 1:
        den, cs = den // g, [(re // g, im // g) for re, im in cs]
    object.__setattr__(f, "den", den)
    object.__setattr__(f, "table", tuple(cs))
    return f


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


def _gdivide(cs: list, d: tuple) -> list:
    """cs / d entrywise, for a Gaussian integer d that divides every entry."""
    n = d[0] * d[0] + d[1] * d[1]
    out = []
    for cr, ci in cs:
        qr, rr = divmod(cr * d[0] + ci * d[1], n)
        qi, ri = divmod(ci * d[0] - cr * d[1], n)
        if rr or ri:
            raise AssertionError("inexact division in the subresultant sequence; internal bug")
        out.append((qr, qi))
    return out


def _gpow(a: tuple, e: int) -> tuple:
    out = (1, 0)
    for _ in range(e):
        out = _gmul(out, a)
    return out


def _squarefree(cs: list) -> list:
    """The primitive part of f / gcd(f, f') for f = sum c_j x^j, by the
    subresultant remainder sequence over Z[i].

    Each pseudo-remainder of a by b (deg a - deg b = delta) is divided
    exactly by g h^delta, with g = lc(a) and h <- g^delta / h^(delta-1)
    (both 1 at the start): the sequence stays on the subresultants, with no
    content taken along the way.  The last nonzero one, the gcd, and the
    pseudo-quotient of f by it have their Gaussian content divided out;
    the first of the two keeps that quotient small when the gcd has a high
    degree.
    """
    a = cs
    b = [(j * cr, j * ci) for j, (cr, ci) in enumerate(cs)][1:]
    g = h = (1, 0)
    while len(b) > 1:
        delta = len(a) - len(b)
        r = _pseudo_divmod(a, b)[1]
        while r and r[-1] == (0, 0):
            r.pop()
        a, b = b, _gdivide(r, _gmul(g, _gpow(h, delta)))
        g = a[-1]
        h = _gdivide([_gpow(g, delta)], _gpow(h, delta - 1))[0]
    return _primitive(_pseudo_divmod(cs, _primitive(a))[0]) if not b else cs


_Q = 2 ** 61 - 1  # a prime = 3 mod 4: -1 is no square mod it, so Z[i]/(_Q) is a field

# The degree above which a first prime that fails asks _certified_squarefree
# before it takes the exact square-free part.  Measured on one Xeon vCPU, on
# rho of a product of three powers of linear forms (square-free, and the
# first prime fails), _squarefree against _certified_squarefree, in us:
# deg 6: 59/50; deg 8: 109/89; deg 10: 192/139; deg 12: 327/194;
# deg 14: 496/254; deg 16: 750/319; deg 20: 1901/465; deg 30: 16438/1224.
# On an f with a repeated root the certificate is lost time, so it is asked
# only where it costs at most half the square-free part: from degree 14 on.
_CERTIFY_ABOVE = 13


def _certified_squarefree(cs: list) -> bool:
    """True only if f = sum c_j x^j is square-free over Q(i): lc(f) is not
    0 mod _Q and gcd(f, f') over Z[i]/(_Q) is constant.

    A repeated factor h^2 of f may be taken primitive over Z[i] (Gauss); its
    leading coefficient divides lc(f), so h keeps its degree mod _Q and
    divides both f and f' there.  So the gcd mod _Q is never of lower
    degree than the one over Q(i); False says nothing.
    """
    q = _Q
    a = [(cr % q, ci % q) for cr, ci in cs]
    if a[-1] == (0, 0):
        return False
    b = [(j * cr % q, j * ci % q) for j, (cr, ci) in enumerate(a)][1:]
    while len(b) > 1:
        lr, li = b[-1]
        t = pow(lr * lr + li * li, -1, q)
        ir, ii = lr * t % q, -li * t % q
        b = [((cr * ir - ci * ii) % q, (cr * ii + ci * ir) % q) for cr, ci in b]
        for k in range(len(a) - len(b), -1, -1):
            tr, ti = a[k + len(b) - 1]
            for j in range(len(b) - 1):
                cr, ci = b[j]
                ar, ai = a[k + j]
                a[k + j] = ((ar - tr * cr + ti * ci) % q, (ai - tr * ci - ti * cr) % q)
        a = a[:len(b) - 1]
        while a and a[-1] == (0, 0):
            a.pop()
        a, b = b, a
    return len(b) == 1


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
    """(s, [roots of g mod p under i -> s, roots under i -> -s]) for an s with
    s^2 = -1 mod p, or None if a reduction has a multiple root.  A real g
    reduces to one polynomial either way, so its list holds one entry."""
    s = next(t for t in (pow(b, (p - 1) // 4, p) for b in range(2, p)) if t * t % p == p - 1)
    signs = (1, -1) if any(im for _, im in g) else (1,)
    roots = [_roots_mod([(re + e * s * im) % p for re, im in g], p) for e in signs]
    return None if None in roots else (s, roots)


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
    roots.  If the first one fails, f is replaced by its square-free part
    (_squarefree), unless deg f > _CERTIFY_ABOVE and a gcd mod 2^61 - 1
    proves that no root repeats (_certified_squarefree); either way only
    finitely many primes fail after that.  A real g (so every
    characteristic polynomial of a rational matrix) has one reduction for
    both signs, so its roots mod p are found and lifted once.  The roots
    mod p (found by evaluation) and s are Newton-lifted mod
    M = p^(2^k) > 2B.  A pair
    (r+, r-) of lifted roots is u + sv and u - sv mod M for a root
    w = u + vi, so u and v are read off as symmetric residues; a candidate
    is kept if |u|, |v| <= B and g(w) = 0 exactly.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    cs = f.table
    if len(cs) < 3:
        return [-f.coefficient(0) / f.coefficient(1)] if len(cs) == 2 else []
    g, p = _monic(cs), _prime_after(len(cs) - 1)
    if (found := _reductions(g, p)) is None:
        if len(cs) - 1 > _CERTIFY_ABOVE and _certified_squarefree(cs):
            p = _prime_after(p)
        else:
            cs = _squarefree(cs)
            g = _monic(cs)
        while (found := _reductions(g, p)) is None:
            p = _prime_after(p)
    s, residues = found
    lr, li = cs[-1]
    n = lr * lr + li * li
    bound = isqrt(n) + 1 + max(isqrt(re * re + im * im) + 1 for re, im in cs[:-1])
    m = p
    while m <= 2 * bound:
        m *= m
    s = _lift([1, 0, 1], s, p, m)
    lifted = [[_lift([(re + e * s * im) % m for re, im in g], r, p, m) for r in rs]
              for e, rs in zip((1, -1), residues)]
    plus, minus = lifted[0], lifted[-1]
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
    cs = f.table
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
