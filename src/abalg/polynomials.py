"""Dense univariate polynomials over the Gaussian rationals.

Small exact toolkit backing the remainder-root machinery, Bernstein
polynomials and spectrum checks: ring operations, division, gcd/lcm,
Lagrange interpolation, and exact root searches (rational roots by the
rational root theorem; Gaussian roots through rational quadratic factors
of the norm polynomial, found Kronecker-style).  Everything is exact; the
root searches are complete for roots lying in Q(i) and report nothing
otherwise.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd, isqrt

from .coefficients import GaussianRational, ONE, ZERO, common_denominator, over
from .errors import AbalgError


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
    def constant(c) -> Poly:
        return Poly([c])

    @staticmethod
    def x() -> Poly:
        return Poly([0, 1])

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

    def monic(self) -> Poly:
        if self.is_zero:
            return self
        inv = self.leading.inverse()
        return Poly([inv * c for c in self.coeffs])

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

    def derivative(self) -> Poly:
        return Poly([c * k for k, c in enumerate(self.coeffs)][1:])

    def real_part(self) -> list[Fraction]:
        return [c.re for c in self.coeffs]

    def imag_part(self) -> list[Fraction]:
        return [c.im for c in self.coeffs]

    def conjugate(self) -> Poly:
        return Poly([c.conjugate() for c in self.coeffs])

    def __repr__(self):
        body = " + ".join(f"({c})x^{k}" for k, c in enumerate(self.coeffs) if c) or "0"
        return f"<Poly {body}>"


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd by the Euclidean algorithm."""
    while not g.is_zero:
        f, g = g, f.divmod(g)[1]
    return f.monic() if not f.is_zero else f

def poly_lcm(f: Poly, g: Poly) -> Poly:
    if f.is_zero or g.is_zero:
        return Poly()
    d = poly_gcd(f, g)
    return (f * g).divmod(d)[0].monic()


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


# -- exact root searches ------------------------------------------------------


_DIVISOR_BUDGET = 10 ** 6  # trial divisions by _divisors before a domain error
_KRONECKER_CAP = 4000  # candidate quadratics tried before giving up


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        return []
    if isqrt(n) > _DIVISOR_BUDGET:
        raise AbalgError(f"finding the divisors of a {n.bit_length()}-bit integer takes more "
                         f"than {_DIVISOR_BUDGET} trial divisions")
    out = set()
    for d in range(1, isqrt(n) + 1):
        if n % d == 0:
            out.add(d)
            out.add(n // d)
    return sorted(out)


def _cleared(f: Poly) -> tuple[int, list]:
    """(D, [(re, im), ...]) with f's coefficient j == (re + im*i) / D, low to high."""
    den, table = common_denominator(dict(enumerate(f.coeffs)))
    return den, list(table.values())


def _vanishes(cs: list, p: int, q: int) -> bool:
    """Whether sum c_j (p/q)^j = 0, q > 0, by Horner on the integer
    sum c_j p^j q^(n-j) (homogeneous in p and q)."""
    re, im = cs[-1]
    qk = 1
    for cr, ci in reversed(cs[:-1]):
        qk *= q
        re, im = re * p + cr * qk, im * p + ci * qk
    return not re and not im


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots of f (each listed once), exactly.

    A rational root kills both the real- and imaginary-part polynomials,
    so candidates come from whichever of the two is nonzero: p/q with p
    dividing the lowest nonzero and q the leading coefficient of its
    primitive integer form.  Each is tested on f's Gaussian-integer
    numerators.
    """
    if f.is_zero:
        raise ValueError("the zero polynomial has every root")
    _, cs = _cleared(f)
    base = [re for re, _ in cs]
    if not any(base):
        base = [im for _, im in cs]
    base = base[next(j for j, c in enumerate(base) if c):]
    content = int_gcd(*base)
    base = [c // content for c in base]
    cands = {(0, 1)}
    for p in _divisors(base[0]):
        for q in _divisors(base[-1]):
            g = int_gcd(p, q)
            cands.add((p // g, q // g))
            cands.add((-p // g, q // g))
    return sorted(Fraction(p, q) for p, q in cands if _vanishes(cs, p, q))


def _deflated(cs: list, p: int, q: int):
    """The Gaussian-integer quotient of sum c_j x^j by q x - p, or None if
    q x - p does not divide it (synthetic division from the top: by Gauss's
    lemma, every step of a true division is an exact division by q)."""
    h = [None] * (len(cs) - 1)
    cr, ci = cs[-1]
    for j in range(len(cs) - 2, -1, -1):
        if cr % q or ci % q:
            return None
        h[j] = (cr // q, ci // q)
        cr, ci = cs[j][0] + p * h[j][0], cs[j][1] + p * h[j][1]
    return h if not cr and not ci else None


def rational_sqrt(fr: Fraction):
    """The nonnegative rational square root of fr, or None."""
    if fr < 0:
        return None
    n, d = isqrt(fr.numerator), isqrt(fr.denominator)
    if n * n == fr.numerator and d * d == fr.denominator:
        return Fraction(n, d)
    return None


def gaussian_sqrt(z: GaussianRational):
    """A w in Q(i) with w^2 = z, or None if z is not a square there.

    With w = x + yi: x^2 + y^2 must equal the rational square root of
    norm(z), then x^2 = (re + |z|)/2 must itself be a rational square.
    """
    z = GaussianRational.coerce(z)
    if not z:
        return ZERO
    n = rational_sqrt(z.norm())
    if n is None:
        return None
    x = rational_sqrt((z.re + n) / 2)
    if x is None:
        return None
    if x:
        return GaussianRational(x, z.im / (2 * x))
    y = rational_sqrt(-z.re)
    return GaussianRational(0, y) if y is not None else None


def _quadratic_roots(A: GaussianRational, B: GaussianRational, C: GaussianRational):
    """Roots of A x^2 + B x + C lying in Q(i) (exact quadratic formula)."""
    s = gaussian_sqrt(B * B - 4 * A * C)
    if s is None:
        return []
    half = (2 * A).inverse()
    r1, r2 = (-B + s) * half, (-B - s) * half
    return [r1] if r1 == r2 else [r1, r2]


def _quadratic_gaussian_roots(b: Fraction, c: Fraction):
    """Roots of x^2 + b x + c for rational b, c, when they lie in Q(i)."""
    roots = _quadratic_roots(ONE, GaussianRational(b), GaussianRational(c))
    return roots or None



def gaussian_roots(f: Poly) -> list[GaussianRational]:
    """All roots of f lying in Q(i), found exactly; best-effort beyond caps.

    Real rational roots come from the rational root theorem and are
    deflated out.  A strictly complex Gaussian root u+vi of the remaining
    part g is, together with its conjugate, a zero of the norm polynomial
    N = g * conj(g) in Q[x], hence of a rational quadratic factor of N;
    integer quadratic factors of the primitive integer form of N are
    searched Kronecker-style through divisor triples of N(0), N(1), N(-1).
    When the divisor enumeration would exceed the cap or the divisor
    budget only the rational roots are reported (callers treat the
    factorization as partial).
    """
    rs = rational_roots(f)
    roots: list[GaussianRational] = [GaussianRational(r) for r in rs]
    # deflate on integers: with f = c / D, the quotient h = c / prod (q x - p)
    # is D g / prod q for g = f / prod (x - r)
    den, cs = _cleared(f)
    scale = 1
    for r in rs:
        while len(cs) > 1 and (h := _deflated(cs, r.numerator, r.denominator)) is not None:
            cs, scale = h, scale * r.denominator
    g = Poly([over(re * scale, im * scale, den) for re, im in cs])
    if g.degree < 1:
        return roots
    if g.degree == 1:
        z = -g.coefficient(0) * g.coefficient(1).inverse()
        if z.im:
            roots.append(z)
        return roots
    if g.degree == 2:
        roots.extend(z for z in _quadratic_roots(g.coefficient(2), g.coefficient(1),
                                                 g.coefficient(0)) if z.im)
        return roots
    # g has no rational roots now, so N(0), N(1), N(-1) are all nonzero.
    norm = g * g.conjugate()  # real coefficients
    ints = [re for re, _ in _cleared(norm)[1]]
    n0 = ints[0]
    n1 = sum(ints)
    nm1 = sum(c if k % 2 == 0 else -c for k, c in enumerate(ints))
    try:
        d0, d1, dm1 = _divisors(n0), _divisors(n1), _divisors(nm1)
    except AbalgError:  # past the divisor budget: partial, as past the cap
        return roots
    if len(d0) * len(d1) * len(dm1) * 8 > _KRONECKER_CAP:
        return roots
    seen = set()
    lead = ints[-1]
    for g0 in d0:
        for s0 in (g0, -g0):
            for g1 in d1:
                for s1 in (g1, -g1):
                    for gm1 in dm1:
                        for sm1 in (gm1, -gm1):
                            # integer quadratic e x^2 + p x + s0 through
                            # the three sampled values
                            e2, p2 = s1 + sm1 - 2 * s0, s1 - sm1
                            if e2 == 0 or e2 % 2 or p2 % 2:
                                continue
                            e = e2 // 2
                            if lead % e:
                                continue
                            pair = _quadratic_gaussian_roots(
                                Fraction(p2, 2 * e), Fraction(s0, e))
                            if not pair:
                                continue
                            for z in pair:
                                if z.im and (z.re, z.im) not in seen and not f(z):
                                    seen.add((z.re, z.im))
                                    roots.append(z)
    return roots

