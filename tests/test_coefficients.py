from fractions import Fraction

import pytest

from abalg.coefficients import (GaussianRational, fraction_from_str, fraction_to_str)
from abalg.errors import SchemaError


def test_exact_arithmetic():
    a = GaussianRational(Fraction(1, 3), 2)
    b = GaussianRational(Fraction(-1, 2), Fraction(5, 7))
    assert a + b == GaussianRational(Fraction(-1, 6), Fraction(19, 7))
    assert a - b == GaussianRational(Fraction(5, 6), Fraction(9, 7))
    # (1/3 + 2i)(-1/2 + 5/7 i) = -1/6 - 10/7 + (5/21 - 1) i
    assert a * b == GaussianRational(Fraction(-1, 6) - Fraction(10, 7),
                                     Fraction(5, 21) - 1)


def test_inverse_and_division():
    z = GaussianRational(3, -4)
    assert z * z.inverse() == GaussianRational(1)
    assert (z / z) == GaussianRational(1)
    with pytest.raises(ZeroDivisionError):
        GaussianRational().inverse()


def test_a_number_divided_by_a_gaussian_rational():
    z = GaussianRational(Fraction(1, 3), -2)
    assert 1 / z == z.inverse()
    assert Fraction(1, 2) / z == z.inverse() * Fraction(1, 2)
    with pytest.raises(ZeroDivisionError):
        1 / GaussianRational(0)


def test_powers_and_conjugate():
    i = GaussianRational(0, 1)
    assert i ** 2 == GaussianRational(-1)
    assert i ** 3 == GaussianRational(0, -1)
    assert i.conjugate() == i ** 3
    assert (i ** 0) == GaussianRational(1)


def test_magnitude_and_norm():
    z = GaussianRational(Fraction(-3, 2), 1)
    assert z.magnitude() == Fraction(3, 2)
    assert z.norm() == Fraction(9, 4) + 1


def test_coercion_rules():
    assert GaussianRational.coerce(2) == GaussianRational(2)
    assert GaussianRational(1) + Fraction(1, 2) == GaussianRational(Fraction(3, 2))
    with pytest.raises(TypeError):
        GaussianRational.coerce(0.5)  # floats never enter the kernel


@pytest.mark.parametrize("z, x", [
    (GaussianRational(1), 1), (GaussianRational(0), 0), (GaussianRational(-7), -7),
    (GaussianRational(2 ** 70), 2 ** 70), (GaussianRational(Fraction(1, 2)), Fraction(1, 2)),
    (GaussianRational(Fraction(-3, 4)), Fraction(-3, 4)),
    (GaussianRational(Fraction(1, 2), 3), GaussianRational(Fraction(1, 2), 3))])
def test_equal_scalars_hash_equal(z, x):
    """a == b implies hash(a) == hash(b), so a set or a dict finds a real
    GaussianRational by its int or Fraction, and the other way round."""
    assert z == x and x == z and hash(z) == hash(x)
    assert x in {z} and z in {x} and {z: 1}[x] == {x: 1}[z] == 1
    shifted = z + GaussianRational(0, 1)
    assert shifted not in {x} and x not in {shifted}


def test_rational_strings():
    assert fraction_to_str(Fraction(-3, 2)) == "-3/2"
    assert fraction_from_str("-3/2") == Fraction(-3, 2)
    assert fraction_from_str("7") == 7
    for bad in ("", "1/0", "x", "1.5", None):
        with pytest.raises(SchemaError):
            fraction_from_str(bad)


@pytest.mark.parametrize("bad", [" 1", "1_0", "+1", "1/ 2", " 1_0 ", "1/-2", "1/", "/2", "-",
                                 "--1", "\u0661", "1/\u0662"])
def test_rational_strings_are_decimal_num_slash_den_only(bad):
    # int() alone would take spaces, underscores, "+" and non-ASCII digits
    with pytest.raises(SchemaError):
        fraction_from_str(bad)


def test_rational_strings_take_an_optional_minus_and_ascii_digits():
    assert fraction_from_str("-0/5") == 0
    assert fraction_from_str("007/010") == Fraction(7, 10)
    assert fraction_from_str("-12") == -12
