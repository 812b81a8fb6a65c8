from fractions import Fraction

import pytest

from abalg.coefficients import GaussianRational
from abalg.expansions import XiElement, xi_act_a, xi_act_b, xi_check_simple_pole


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
