import math
from fractions import Fraction

import pytest

from abalg.coefficients import GaussianRational
from abalg.expansions import (XiElement, _primitive_weights, xi_act_a, xi_act_b,
                              xi_check_simple_pole)


def test_primitive_of_plain_power():
    xi = XiElement.symbol(Fraction(1, 2), 0, 0, m_bound=2)
    out = xi_act_b(xi)
    assert out == XiElement(1, 0, 2, {(Fraction(1, 2), 1, 0): (GaussianRational(Fraction(2, 3)),)})


def test_primitive_of_log_term():
    # b[s^beta log s] = s^(beta+1)/(beta+1) log s - s^(beta+1)/(beta+1)^2
    xi = XiElement.symbol(Fraction(1), 0, 1, m_bound=2)
    out = xi_act_b(xi)
    assert out == XiElement(1, 1, 2, {
        (Fraction(1), 1, 1): (GaussianRational(Fraction(1, 2)),),
        (Fraction(1), 1, 0): (GaussianRational(Fraction(-1, 4)),),
    })


def _weights_by_recursion(beta, j):
    """The j-step recursion from b[s^beta (log s)^j] = s^(beta+1)/(beta+1)
    (log s)^j - j/(beta+1) b[s^beta (log s)^(j-1)]."""
    inv = 1 / (beta + 1)
    out = {j: inv}
    for t, w in (_weights_by_recursion(beta, j - 1) if j else ()):
        out[t] = out.get(t, Fraction(0)) - j * inv * w
    return tuple(sorted(out.items()))


@pytest.mark.parametrize("beta", [Fraction(1), Fraction(1, 2), Fraction(2, 3) + 4,
                                  Fraction(7, 12), Fraction(1, 8) + 49,
                                  Fraction(1, 10 ** 30 + 7)])
def test_primitive_weights_closed_form_agrees_with_the_recursion(beta):
    for j in range(13):
        assert _primitive_weights(beta, j) == _weights_by_recursion(beta, j)
    inv = 1 / (beta + 1)
    assert _primitive_weights(beta, 40)[3] == (
        3, Fraction((-1) ** 37 * math.factorial(40), math.factorial(3)) * inv ** 38)


def test_multiplication_by_s():
    xi = XiElement.symbol(Fraction(2, 3), 1, 2, m_bound=3)
    assert xi_act_a(xi) == XiElement.symbol(Fraction(2, 3), 2, 2, m_bound=3)
    # truncation drops the overflow silently
    top = XiElement.symbol(Fraction(2, 3), 3, 0, m_bound=3)
    assert xi_act_a(top).is_zero


def test_simple_pole_scalars():
    assert xi_check_simple_pole(1, 0) == 2
    assert xi_check_simple_pole(Fraction(1, 2), 0) == Fraction(3, 2)
    assert xi_check_simple_pole(Fraction(3, 7), 4) == Fraction(3, 7) + 5


def test_alpha_range_is_enforced():
    with pytest.raises(ValueError):
        XiElement.symbol(Fraction(3, 2), 0, 0, m_bound=1)
    with pytest.raises(ValueError):
        XiElement.symbol(Fraction(0), 0, 0, m_bound=1)


def test_log_depth_is_enforced():
    with pytest.raises(ValueError):
        XiElement(1, 1, 2, {(Fraction(1, 2), 0, 2): (GaussianRational(1),)})
