"""Seeded generators of input values shared by the workloads."""

from __future__ import annotations

from fractions import Fraction

from abalg.coefficients import GaussianRational
from abalg.elements import LEFT, AlgebraElement
from abalg.linalg import QMatrix
from abalg.series import BSeries

#: The small coefficient height: the values the invariant suites draw from.
SMALL = [
    GaussianRational(1), GaussianRational(-1), GaussianRational(2),
    GaussianRational(Fraction(1, 2)), GaussianRational(Fraction(-3, 2)),
    GaussianRational(0, 1), GaussianRational(0, -1), GaussianRational(1, 1),
    GaussianRational(Fraction(2, 3)), GaussianRational(-2, Fraction(1, 2)),
]


# Fixed multisets that the seed only permutes (and for matrices signs), so
# that every seed asks for about the same work: root searches and coefficient
# growth depend on these values far more than on their order.
_LAMBDAS = [Fraction(v) for v in ("1", "-1", "2", "-2", "1/2", "3", "-1/2", "-3", "3/2", "1",
                                  "-2", "5/2")]
_ENTRY_SIZES = [Fraction(v) for v in ("1", "2", "1/2", "3/2", "0", "2/3", "1", "0", "3")]


def lambdas(rng, m, shuffle=True) -> list:
    """The first m values of the fixed multiset, shuffled; the first gains imaginary part +-1."""
    out = [GaussianRational(v) for v in _LAMBDAS[:m]]
    out[0] += GaussianRational(0, rng.choice((1, -1)))
    if shuffle:
        rng.shuffle(out)
    return out


def shuffled_matrix(rng, k) -> QMatrix:
    """A rational k x k matrix: a fixed multiset of entries, signed and shuffled."""
    values = [_ENTRY_SIZES[i % len(_ENTRY_SIZES)] * rng.choice((1, -1)) for i in range(k * k)]
    rng.shuffle(values)
    return QMatrix([values[i * k:(i + 1) * k] for i in range(k)])


#: The lambdas of factored products: a fixed multiset that the seed orders and signs.
_PRODUCT_LAMBDAS = (Fraction(1, 2), Fraction(-2), Fraction(3), Fraction(2, 3))


def product_lambdas(rng, k) -> list:
    """k lambdas for a factored product: fixed magnitudes, signs and order from the seed."""
    out = [lam * rng.choice((1, -1)) for lam in _PRODUCT_LAMBDAS[:k]]
    rng.shuffle(out)
    return out


def small_values(rng, count) -> list:
    """count values of SMALL, a fixed multiset for the count, in seed order."""
    values = [SMALL[i % len(SMALL)] for i in range(count)]
    rng.shuffle(values)
    return values


def sparse_element(rng, shape, order, terms, ordering=LEFT, max_degree=None):
    """A sparse element whose monomials `shape` draws and whose values `rng` orders.

    Pass a random.Random of a constant seed as `shape`: every seed then gets
    the same monomials and the same multiset of values, so the same work.
    """
    top = order if max_degree is None else min(order, max_degree)
    support = [(p, d - p) for d in range(top + 1) for p in range(d + 1)]
    keys = shape.sample(support, min(terms, len(support)))
    return AlgebraElement(order, ordering, dict(zip(keys, small_values(rng, len(keys)))))


def bseries_unit(rng, shape, order) -> BSeries:
    """A b-series unit with a fixed support and a constant term of fixed height."""
    values = small_values(rng, 2)
    table = {0: GaussianRational(2 * rng.choice((1, -1)))}
    for q in sorted(shape.sample(range(1, order + 1), 2)):
        table[q] = values.pop()
    return BSeries(order, table)


def matrix(rng, k) -> QMatrix:
    """A k x k matrix of SMALL values, a fixed multiset in seed order."""
    values = small_values(rng, k * k)
    return QMatrix([values[i * k:(i + 1) * k] for i in range(k)])


def _matmul(x, y):
    return [[sum(x[i][l] * y[l][j] for l in range(len(y))) for j in range(len(y[0]))]
            for i in range(len(x))]


def _unit_triangular_inverse(t, lower):
    """Inverse of a unit lower (or upper) triangular matrix of Fractions."""
    k = len(t)
    inv = [[Fraction(int(i == j)) for j in range(k)] for i in range(k)]
    rows = range(k) if lower else range(k - 1, -1, -1)
    for i in rows:
        for j in (range(i) if lower else range(i + 1, k)):
            for col in range(k):
                inv[i][col] -= t[i][j] * inv[j][col]
    return inv


def spectrum_matrix(rng, k, shape=None, negative=None) -> tuple[QMatrix, tuple]:
    """(theta, eigenvalues): theta = S D S^-1 with a known rational spectrum D.

    Eigenvalues may repeat (theta stays diagonalizable); one matrix in four
    has a negative eigenvalue, so the geometric-spectrum test also says no.
    Given `shape` (a random.Random of a constant seed) and `negative`, S and
    the multiset of eigenvalues are fixed and the seed only orders them.
    """
    choices = [Fraction(p, q) for p in range(1, 7) for q in (1, 2, 3)]
    if shape is None:
        eigen = [rng.choice(choices) for _ in range(k)]
        if rng.randrange(4) == 0:
            eigen[0] = -eigen[0]
    else:
        eigen = [choices[(5 * i + 1) % len(choices)] for i in range(k)]
        if negative:
            eigen[0] = -eigen[0]
        rng.shuffle(eigen)
    entries = rng if shape is None else shape
    low = [[Fraction(entries.randrange(-2, 3)) if j < i else Fraction(int(i == j))
            for j in range(k)] for i in range(k)]
    up = [[Fraction(entries.randrange(-2, 3)) if j > i else Fraction(int(i == j))
           for j in range(k)] for i in range(k)]
    s_inv = _matmul(_unit_triangular_inverse(up, lower=False),
                    _unit_triangular_inverse(low, lower=True))
    diag = [[eigen[i] if i == j else Fraction(0) for j in range(k)] for i in range(k)]
    return QMatrix(_matmul(_matmul(_matmul(low, up), diag), s_inv)), tuple(eigen)


def poly_from_roots(roots) -> list:
    """Coefficients (low to high) of prod (x - r), in plain Fractions."""
    out = [Fraction(1)]
    for r in roots:
        out = [Fraction(0)] + out
        for i in range(len(out) - 1):
            out[i] -= r * out[i + 1]
    return out
