"""Exact scalars: Gaussian rationals re + im*i with arbitrary-precision parts.

Every coefficient that the package takes in or gives out is a
GaussianRational; inside, the kernels work on Gaussian-integer numerators
over one positive denominator (see common_denominator, and the storage of
elements.AlgebraElement).  Arithmetic is exact (fractions.Fraction
underneath, always reduced, positive denominator), so equality of algebra
elements is decidable and no tolerance appears anywhere.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

from .errors import AbalgError, SchemaError

RationalLike = (int, Fraction)


def _as_fraction(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an int or Fraction, got {type(value).__name__}")


class GaussianRational:
    """An element of Q(i), immutable."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    def __reduce__(self):
        return GaussianRational, (self.re, self.im)

    # -- constructors ------------------------------------------------

    @staticmethod
    def coerce(value) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, RationalLike):
            return GaussianRational(value)
        raise TypeError(f"cannot coerce {type(value).__name__} to GaussianRational")

    # -- predicates --------------------------------------------------

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return GaussianRational.coerce(other) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, RationalLike):
            return GaussianRational(self.re * other, self.im * other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        a, b, c, d = self.re, self.im, other.re, other.im
        return GaussianRational(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, RationalLike):
            return GaussianRational(self.re / other, self.im / other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) * self.inverse()

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers are supported")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """re^2 + im^2, a nonnegative rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm()
        if not n:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational(self.re / n, -self.im / n)

    def magnitude(self) -> Fraction:
        """max(|re|, |im|); the exact size proxy used by coefficient profiles."""
        return max(abs(self.re), abs(self.im))

    # -- comparison / hashing ----------------------------------------

    def __eq__(self, other):
        if isinstance(other, RationalLike):
            return self.im == 0 and self.re == other
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    # -- display -----------------------------------------------------

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if not self.im:
            return str(self.re)
        if not self.re:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re} {sign} {abs(self.im)}*i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)

#: Alias matching the domain vocabulary.
Coefficient = GaussianRational


def common_denominator(coeffs: dict) -> tuple[int, dict]:
    """(D, {key: (re, im)}) with coeffs[key] == (re + im*i) / D, where D >= 1 is
    the lcm of all part denominators: FLINT's fmpq_poly layout, an integer
    table over one positive denominator."""
    den = 1
    for c in coeffs.values():
        den = math.lcm(den, c.re.denominator, c.im.denominator)
    return den, {k: (c.re.numerator * (den // c.re.denominator),
                     c.im.numerator * (den // c.im.denominator))
                 for k, c in coeffs.items()}


def over(re: int, im: int, den: int) -> GaussianRational:
    """(re + im*i) / den for integers, den != 0: the way back out of the
    common-denominator layout, one Fraction division per part."""
    if not re and not im:
        return ZERO
    return GaussianRational(Fraction(re, den), Fraction(im, den))


def _over_the_limit(limit: int) -> AbalgError:
    return AbalgError(f"coefficient over the {limit}-digit limit for printing")


def int_to_str(n: int) -> str:
    """str(n); a domain error beyond the interpreter's digit limit, which stays
    in force because decimal conversion is quadratic in the digit count."""
    try:
        return str(n)
    except ValueError:
        raise _over_the_limit(sys.get_int_max_str_digits()) from None


def check_printable_bits(bits: int):
    """The error of int_to_str, raised ahead of time for an integer known to
    be at least 2^bits in size: 2^bits >= 10^limit once 3*bits >= 10*limit,
    so such an integer has more digits than the limit allows."""
    limit = sys.get_int_max_str_digits()
    if limit and 3 * bits >= 10 * limit:
        raise _over_the_limit(limit)


def fraction_to_str(x: Fraction) -> str:
    """Canonical "num/den" form, reduced, den positive; e.g. "-3/2", "5/1"."""
    return f"{int_to_str(x.numerator)}/{int_to_str(x.denominator)}"


def _is_digits(text: str) -> bool:
    return text.isascii() and text.isdigit()


def fraction_from_str(text: str) -> Fraction:
    """Parse "num/den": an optional "-", ASCII digits, then optionally "/" and
    ASCII digits (den defaults to 1).  Raises SchemaError on anything else."""
    if not isinstance(text, str):
        raise SchemaError(f"rational must be a string, got {type(text).__name__}")
    num, sep, den = text.partition("/")
    if not _is_digits(num.removeprefix("-")) or (sep and not _is_digits(den)):
        raise SchemaError(f"bad rational string {text!r}")
    try:
        return Fraction(int(num), int(den) if sep else 1)
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"bad rational string {text!r}") from exc
