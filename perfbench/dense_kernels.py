"""Workload `dense-kernels`: the core kernels on dense LEFT elements.

Every monomial of degree <= N is present, for N from 8 to 12, at two
coefficient heights: the small values of the invariant suites, and
~20-bit numerators over ~10-bit denominators.  Almost all time is spent in
the `coefficients` and `elements` layers (Fraction-pair arithmetic inside
`mul`), so an integer or common-denominator layout is tested where it is
hardest: `invert` of a large-height dense unit grows ~1600-bit parts.
"""

from __future__ import annotations

import random
from fractions import Fraction

from abalg import division, elements, oracle
from abalg.coefficients import GaussianRational
from abalg.elements import LEFT, RIGHT, AlgebraElement
from abalg.oracle import PolySeries

import gen
from harness import Op

NAME = "dense-kernels"

# (height, orders).  Orders stay small enough that one pass takes about two
# seconds, so a run holds many passes and each op's median is steady.
SIZES = (("small", (8, 10, 12)), ("large", (8, 10)))
TINY_SIZES = (("small", (3, 4)), ("large", (3,)))

# Magnitudes of the scalars of `shear` and `divide_linear`; the seed draws
# only their signs, since powers of the scalar set the cost of both ops.
_SCALARS = ((Fraction(5, 3), Fraction(1, 2)), (Fraction(-3, 2), Fraction(2, 3)))


def _large_part(rng):
    num = rng.randrange(2 ** 19, 2 ** 20) * rng.choice((1, -1))
    return Fraction(num, rng.randrange(2 ** 9, 2 ** 10))


def _coeffs(rng, count, height):
    """count coefficients at the given height, in an order drawn from the seed.

    The small height is a fixed multiset of the invariant suites' values,
    so every seed asks for the same mix of Fraction work; the large height
    draws values of fixed bit lengths.
    """
    if height == "small":
        return gen.small_values(rng, count)
    return [GaussianRational(_large_part(rng), _large_part(rng)) for _ in range(count)]


def _dense(rng, order, height, ordering=LEFT):
    keys = [(p, d - p) for d in range(order + 1) for p in range(d + 1)]
    return AlgebraElement(order, ordering, dict(zip(keys, _coeffs(rng, len(keys), height))))


def _scalar(rng, which):
    re, im = _SCALARS[which]
    return GaussianRational(re * rng.choice((1, -1)), im * rng.choice((1, -1)))


def make_inputs(seed: int, tiny: bool = False) -> list:
    rng = random.Random(f"{NAME}:{seed}")
    ops = []
    for height, orders in (TINY_SIZES if tiny else SIZES):
        for n in orders:
            label = f"N={n} {height}"
            x = _dense(rng, n, height)
            y = _dense(rng, n, height)
            f = PolySeries(3 * n, dict(enumerate(_coeffs(rng, 3 * n + 1, height))))
            for kind, args in (
                ("mul", (x, y)),
                ("invert", (x,)),
                ("divide_linear", (x, _scalar(rng, 0))),
                ("shear", (_scalar(rng, 1), x)),
                ("to_right", (x,)),
                ("to_left", (_dense(rng, n, height, RIGHT),)),
                ("act", (x, f)),
            ):
                ops.append(Op(len(ops), kind, label, args))
    return ops


_CALLS = {
    "mul": lambda x, y: elements.mul(x, y),
    "invert": lambda x: division.invert(x),
    "divide_linear": lambda x, lam: division.divide_linear(x, lam),
    "shear": lambda s, x: elements.shear(s, x),
    "to_right": lambda x: elements.to_right(x),
    "to_left": lambda x: elements.to_left(x),
    "act": lambda x, f: oracle.act(x, f),
}


def execute(op: Op):
    # Module attributes are looked up per call so that the traced run's spans see them.
    return _CALLS[op.kind](*op.args)


def _acts_alike(left_of, right_of, order) -> bool:
    """left_of(z^r) == right_of(z^r) through degree order + r, for r = 0..order.

    Truncated at degree N, an element is pinned by its action on z^0..z^N:
    degree d carries d+1 coefficients, and r!/(q+r)! for q = 0..d are
    independent functions of r.
    """
    for r in range(order + 1):
        f = PolySeries.monomial(r, order + r)
        if left_of(f) != right_of(f):
            return False
    return True


def check(op: Op, result) -> bool:
    act = oracle.act
    if op.kind == "mul":
        x, y = op.args
        return _acts_alike(lambda f: act(result, f), lambda f: act(x, act(y, f)), x.order)
    if op.kind == "invert":
        (x,) = op.args
        return _acts_alike(lambda f: act(x, act(result, f)), lambda f: f, x.order)
    if op.kind == "divide_linear":
        x, lam = op.args
        q, r = result
        n = x.order
        divisor = elements.gen_a(n) - elements.scale(lam, elements.gen_b(n))
        return elements.mul(q.lifted(n), divisor) + r.to_element() == x
    if op.kind == "shear":
        s, x = op.args
        return result.ordering is x.ordering and elements.shear(-s, result) == x
    if op.kind == "to_right":
        (x,) = op.args
        return result.ordering is RIGHT and elements.to_left(result) == x
    if op.kind == "to_left":
        (x,) = op.args
        return result.ordering is LEFT and elements.to_right(result) == x
    if op.kind == "act":
        x, f = op.args
        return result == oracle.act_composed(x, f)
    raise ValueError(f"unknown op kind {op.kind}")
