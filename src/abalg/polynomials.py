"""Dense univariate polynomials over the Gaussian rationals.

Small exact toolkit backing the remainder-root machinery, Bernstein
polynomials and spectrum checks: ring operations, division, Lagrange
interpolation, and one exact root search, complete for roots in Q(i).  It
reduces a monic Gaussian-integer form once, by i -> s mod p, finds its roots
mod p with their multiplicities, lifts each p-adically past Fujiwara's bound
B on the roots, and reads the Gaussian root off the lifted residue as its
remainder of least norm modulo a power of gcd(p, s - i); a candidate is kept
only if it vanishes exactly.  The primes, s and the lifted constants depend
on p alone and are computed once per process.  It factors no integer and has
no budget.  When some roots mod p are multiple and they sum to the degree,
each is lifted on the derivative that makes it simple; if the roots kept sum
to the degree with multiplicity, they are all the roots, so a form that
splits and whose distinct roots stay distinct mod p needs no square-free
part.  Otherwise the form is replaced by its square-free part, from a
subresultant sequence over Z[i] with exact divisions, unless it is of high
degree and a gcd mod the prime 2^61 - 1 proves it square-free already, and
primes are tried until the roots mod p are simple; finitely many fail.
Roots come real ones first, ascending, then the others by (re, im); the
private _roots_with_multiplicity repeats each as often as it divides.  Both
read the integer `table` over `den` that a Poly is stored as (see its
class).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
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

# The degree above which a first prime with a multiple root asks
# _certified_squarefree before anything else.  Measured on one shared Xeon
# vCPU, best of 100 runs, in us, at degrees 6/10/14/20/30:
# - square-free and split, the roots j and j + p (j = 1..n/2) meeting in
#   pairs mod the first prime p: the certificate takes 34/83/140/266/523,
#   against 84/196/396/1162/7392 for the count attempt (which fails) and
#   _squarefree;
# - three roots of multiplicity about n/3, which the count attempt settles:
#   the search takes 106/153/213/313/471 with the certificate asked and
#   74/108/159/237/362 without (real), 118/169/269/384/654 and
#   81/108/182/258/465 (Gaussian).
# At every degree the certificate costs under half of what it replaces on the
# first kind and adds a third to a half to the second: the mix of forms
# decides, not the degree, so the threshold stays.  Below it, the forms
# with repeated roots that spectra and factorizations meet are settled by
# the count attempt alone.
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


def _roots_mod(cs: list, p: int) -> list:
    """[(r, e)]: the roots r mod p of sum cs[j] x^j (integers, the top one
    prime to p), ascending, each with its multiplicity e.  A root is found by
    evaluation and divided out mod p as often as it divides; the search
    stops when the degree is spent."""
    h, out = [c % p for c in cs], []
    for x in range(p):
        if len(h) == 1:
            break
        if _horner(h, x, p):
            continue
        e = 0
        while len(h) > 1:
            q, c = [0] * (len(h) - 1), h[-1]
            for j in range(len(h) - 2, -1, -1):
                q[j] = c
                c = (h[j] + c * x) % p
            if c:
                break
            h, e = q, e + 1
        out.append((x, e))
    return out


def _lift(f: list, df: list, r: int, p: int, m: int) -> int:
    """The root mod m = p^(2^k) of f over a root r mod p at which its
    derivative df is a unit (Newton, doubling the exponent each step)."""
    q = p
    while q < m:
        q *= q
        r = (r - _horner(f, r, q) * pow(_horner(df, r, q), -1, q)) % q
    return r


@cache
def _prime_after(p: int) -> int:
    """The least prime above p that is 1 mod 4."""
    p += 1
    while p % 4 != 1 or any(p % d == 0 for d in range(3, isqrt(p) + 1, 2)):
        p += 1
    return p


@cache
def _square_root_of_minus_one(p: int) -> int:
    """An s with s^2 = -1 mod the prime p = 1 mod 4."""
    return next(t for t in (pow(b, (p - 1) // 4, p) for b in range(2, p)) if t * t % p == p - 1)


@cache
def _lift_constants(p: int, k: int) -> tuple:
    """(gamma, M, t) for M = p^(2^k): t = s mod p with t^2 = -1 mod M, for
    s = _square_root_of_minus_one(p), and gamma = pi^(2^k) for
    pi = gcd(p, s - i), so that gamma Z[i] is the kernel of i -> t mod M."""
    s, m = _square_root_of_minus_one(p), p ** (2 ** k)
    gamma = _ggcd((p, 0), (s, -1))
    for _ in range(k):
        gamma = _gmul(gamma, gamma)
    return gamma, m, _lift([1, 0, 1], [0, 2], s, p, m)


def _reduction(g: list, p: int):
    """(s, the roots of g mod p under i -> s, as _roots_mod gives them) for
    s = _square_root_of_minus_one(p)."""
    s = _square_root_of_minus_one(p)
    return s, _roots_mod([(re + s * im) % p for re, im in g], p)


def _multiple(residues: list) -> bool:
    return any(e > 1 for _, e in residues)


def _monic(cs: list) -> list:
    """g(w) = sum_j c_j c_n^(n-1-j) w^j, monic, so that g(c_n z) = c_n^(n-1) f(z)."""
    g, power = [(1, 0)], (1, 0)
    for c in reversed(cs[:-1]):
        g.append(_gmul(c, power))
        power = _gmul(power, cs[-1])
    return g[::-1]


def _root_bound(g: list) -> int:
    """B = 2^(1 + max_j ceil(L_j / (n - j))) >= |w| for every root w of the
    monic g of degree n >= 1, L_j the bit length of |re_j| + |im_j| >= |g_j|:
    Fujiwara's bound 2 max_j |g_j|^(1/(n-j)), read from bit lengths."""
    n = len(g) - 1
    return 2 << max(-(-(abs(re) + abs(im)).bit_length() // (n - j))
                    for j, (re, im) in enumerate(g[:-1]))


def _deflate(g: list, u: int, v: int, most: int) -> tuple[list, int]:
    """(h, e) with g = (x - w)^e h for w = u + vi and e <= most as large as
    it goes: synthetic division by a monic x - w stays on Gaussian integers,
    and only its remainder, g(w), is tested."""
    e = 0
    while e < most and len(g) > 1:
        h = [None] * (len(g) - 1)
        cr, ci = g[-1]
        for j in range(len(g) - 2, -1, -1):
            h[j] = (cr, ci)
            cr, ci = g[j][0] + cr * u - ci * v, g[j][1] + cr * v + ci * u
        if cr or ci:
            break
        g, e = h, e + 1
    return g, e


def _lifted_roots(g: list, p: int, residues: list) -> list:
    """The roots w = u + vi of the monic g that the residues of
    _reduction(g, p) lead to, each as (u, v, e), verified.

    The kernel of i -> s mod p is pi Z[i] for pi = gcd(p, s - i), and that of
    its lift i -> t mod M = p^(2^k) is gamma Z[i] for gamma = pi^(2^k), with
    |gamma|^2 = M > 24 B^2, B = _root_bound(g); _lift_constants gives them
    for the least such k, once per p and k.  A residue r of multiplicity
    e is a simple root of the (e-1)-th derivative of the reduction, since
    p > deg g >= e, and a root w of g of multiplicity e over it is a root of
    that derivative; so r is Newton-lifted there to rho mod M, and
    rho = w mod gamma.  Then w is the remainder of least norm
    w' = rho - gamma round(rho conj(gamma) / M), each part rounded: |w| is at
    most sqrt(2) B and |w'| at most sqrt(M/2), while a nonzero multiple of
    gamma is at least sqrt(M) in absolute value.  w' is kept if |u|, |v| <= B
    and x - w' divides the running quotient e times.  When every residue is
    simple, every root of g is kept; otherwise the kept e sum to deg g
    exactly when the kept roots are all of them, with their multiplicities.
    """
    bound, k = _root_bound(g), 0
    while _lift_constants(p, k)[1] <= 24 * bound * bound:
        k += 1
    gamma, m, t = _lift_constants(p, k)
    ders = [[(re + t * im) % m for re, im in g]]
    for _ in range(max((e for _, e in residues), default=0)):
        ders.append([j * c % m for j, c in enumerate(ders[-1])][1:])
    gr, gi = gamma
    left, found = g, []
    for r, e in residues:
        rho = _lift(ders[e - 1], ders[e], r, p, m)
        qr, qi = (2 * rho * gr + m) // (2 * m), (m - 2 * rho * gi) // (2 * m)
        u, v = rho - qr * gr + qi * gi, -qr * gi - qi * gr
        if abs(u) <= bound and abs(v) <= bound:
            h, d = _deflate(left, u, v, e)
            if d == e:
                left = h
                found.append((u, v, e))
    return found


def gaussian_roots(f: Poly) -> list[GaussianRational]:
    """All roots of f in Q(i), each listed once: the real ones ascending,
    then the others by (re, im).  Complete, and no integer is factored.

    With f = sum c_j x^j / D over Gaussian integers c_j, every root z gives
    a Gaussian integer w = c_n z, a root of the monic
    g(w) = sum_j c_j c_n^(n-1-j) w^j, with |w| <= B = _root_bound(g)
    (Fujiwara).  The reduction of g by i -> s, s^2 = -1 mod p, is searched
    for roots mod p, with multiplicity, at the least prime p = 1 mod 4 above
    max(n, 20), and the roots mod p are lifted (_lifted_roots):
    - if every root mod p is simple, the roots kept are all of them;
    - if some root mod p is multiple and n > _CERTIFY_ABOVE, a gcd mod
      2^61 - 1 may prove that no root repeats (_certified_squarefree): the
      next primes are tried until one has only simple roots;
    - otherwise, if the multiplicities mod p sum to n, each root mod p is
      lifted on the derivative that makes it simple, and when the roots
      kept, each dividing g as often as it is counted, number n with
      multiplicity, they are all of them, with no square-free part taken;
    - failing that, f is replaced by its square-free part (_squarefree),
      and the primes from p on are tried until one has only simple roots;
      only finitely many fail.
    The roots stay integer pairs (u, v) until the end, where z = w / c_n.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    cs = f.table
    if len(cs) < 3:
        return [-f.coefficient(0) / f.coefficient(1)] if len(cs) == 2 else []
    n = len(cs) - 1
    g, p = _monic(cs), _prime_after(max(n, 20))
    _, residues = _reduction(g, p)
    if _multiple(residues):
        if n > _CERTIFY_ABOVE and _certified_squarefree(cs):
            p = _prime_after(p)
        else:
            if sum(e for _, e in residues) == n:
                found = _lifted_roots(g, p, residues)
                if sum(e for _, _, e in found) == n:
                    return _divided_by_leading(found, cs)
            cs = _squarefree(cs)
            g = _monic(cs)
        _, residues = _reduction(g, p)
        while _multiple(residues):
            p = _prime_after(p)
            _, residues = _reduction(g, p)
    return _divided_by_leading(_lifted_roots(g, p, residues), cs)


def _divided_by_leading(found: list, cs: list) -> list[GaussianRational]:
    """The roots z = w / c_n = w conj(c_n) / |c_n|^2 of f for the roots
    w = u + vi of _monic(cs), in the order of gaussian_roots: every z has
    the one positive denominator |c_n|^2, so the integer numerators sort."""
    lr, li = cs[-1]
    n = lr * lr + li * li
    keys = sorted((v * lr != u * li, u * lr + v * li, v * lr - u * li) for u, v, _ in found)
    return [over(re, im, n) for _, re, im in keys]


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of f, each listed once, ascending: the real ones
    of gaussian_roots(f)."""
    return [z.re for z in gaussian_roots(f) if not z.im]


def _roots_with_multiplicity(f: Poly) -> list[GaussianRational]:
    """The roots of f in Q(i) in the order of gaussian_roots, each repeated
    as often as it divides f.

    When gaussian_roots finds deg f roots, they are all simple.  Otherwise
    each root z is taken out of the monic g of gaussian_roots as often as
    x - w divides it (_deflate), with w = c_n z = u + vi a Gaussian integer
    (so the divisions that give u and v are exact).
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
        g, k = _deflate(g, u, v, len(g))
        out += [z] * k
    return out
