"""Exact dense matrices over the Gaussian rationals.

Just enough linear algebra for the module layer: ring operations, the
minimal polynomial as the first linear dependency among the powers of a
matrix, and the characteristic polynomial by Faddeev-LeVerrier.  Everything
exact, no pivot-size heuristics needed.

Entries are stored as GaussianRationals, but `@`, `apply`, the minimal and
the characteristic polynomial never add or multiply Fractions in their loops:
as in the element kernels, coefficients.common_denominator writes a matrix
as one positive denominator D and a table of Gaussian-integer numerators
(re, im), the loops run on Python ints, and coefficients.over divides once
per part at exit.  matrix_power_sequence, solve_dependency and
evaluate_poly_at_matrix stay on GaussianRational arithmetic, as the
independent referees of those kernels.
"""

from __future__ import annotations

import math

from .coefficients import GaussianRational, ONE, ZERO, common_denominator, over
from .polynomials import Poly


class QMatrix:
    """A square or rectangular matrix with GaussianRational entries; immutable."""

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(GaussianRational.coerce(c) for c in row) for row in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @staticmethod
    def identity(k: int) -> QMatrix:
        return QMatrix([[ONE if i == j else ZERO for j in range(k)] for i in range(k)])

    @staticmethod
    def zeros(k: int, m: int | None = None) -> QMatrix:
        m = k if m is None else m
        return QMatrix([[ZERO] * m for _ in range(k)])

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.rows), len(self.rows[0])

    @property
    def is_square(self) -> bool:
        n, m = self.shape
        return n == m

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.rows[i][j]

    def row(self, i: int) -> tuple:
        return self.rows[i]

    def column(self, j: int) -> tuple:
        return tuple(r[j] for r in self.rows)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.rows == other.rows

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return QMatrix([[a + b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)])

    def __sub__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return QMatrix([[a - b for a, b in zip(r1, r2)]
                        for r1, r2 in zip(self.rows, other.rows)])

    def __neg__(self):
        return QMatrix([[-a for a in r] for r in self.rows])

    def scaled(self, c) -> QMatrix:
        c = GaussianRational.coerce(c)
        return QMatrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        d1, x = _split(self)
        d2, y = _split(other)
        return _join(d1 * d2, _int_matmul(x, y))

    def apply(self, vec) -> tuple:
        """Matrix times column vector (a sequence of coefficients)."""
        vec = tuple(vec)
        if len(vec) != self.shape[1]:
            raise ValueError("length mismatch")
        column = QMatrix([[c] for c in vec])
        return (self @ column).column(0)

    def trace(self) -> GaussianRational:
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        out = ZERO
        for i in range(self.shape[0]):
            out = out + self.rows[i][i]
        return out

    @property
    def is_zero(self) -> bool:
        return all(not c for r in self.rows for c in r)

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in r) for r in self.rows)
        return f"<QMatrix {self.shape[0]}x{self.shape[1]} [{body}]>"


# -- the integer layout (see the module docstring) ------------------------------

def _split(a: QMatrix) -> tuple[int, list]:
    """(D, rows) with a[i][j] == (re + im*i) / D for rows[i][j] == (re, im)."""
    m = a.shape[1]
    den, table = common_denominator({(i, j): c for i, r in enumerate(a.rows)
                                     for j, c in enumerate(r)})
    flat = list(table.values())
    return den, [flat[i:i + m] for i in range(0, len(flat), m)]


def _join(den: int, rows) -> QMatrix:
    """The matrix with entries (re + im*i) / den: one division per part."""
    return QMatrix([[over(re, im, den) for re, im in r] for r in rows])


def _int_matmul(x, y) -> list:
    """The product of Gaussian-integer matrices given as rows of (re, im)."""
    cols = list(zip(*y))
    out = []
    for row in x:
        terms = [(l, z) for l, z in enumerate(row) if z[0] or z[1]]
        new = []
        for col in cols:
            re = im = 0
            for l, (ar, ai) in terms:
                br, bi = col[l]
                re += ar * br - ai * bi
                im += ar * bi + ai * br
            new.append((re, im))
        out.append(new)
    return out


def _int_identity(k: int) -> list:
    return [[(1, 0) if i == j else (0, 0) for j in range(k)] for i in range(k)]


# -- the GaussianRational routes that referee the integer kernels ------------------


def matrix_power_sequence(a: QMatrix, n: int) -> list[QMatrix]:
    """[I, a, a^2, ..., a^n], multiplied out on GaussianRationals (not by `@`)."""
    k = a.shape[0]
    out = [QMatrix.identity(k)]
    for _ in range(n):
        prev = out[-1].rows
        out.append(QMatrix([[sum((prev[i][l] * a.rows[l][j] for l in range(k)), ZERO)
                             for j in range(k)] for i in range(k)]))
    return out


def solve_dependency(vectors) -> list | None:
    """Coefficients c with sum c_i vectors[i] = 0 and the LAST one = 1, or None.

    vectors[:-1] are known independent; returns the representation of the
    last vector over them if dependent.
    """
    if not vectors:
        return None
    n = len(vectors[0])
    m = len(vectors) - 1
    # Solve sum_{i<m} x_i vectors[i] = vectors[m] by Gaussian elimination.
    aug = [[vectors[i][r] for i in range(m)] + [vectors[m][r]] for r in range(n)]
    pivots = []
    row = 0
    for col in range(m):
        pivot = None
        for r in range(row, n):
            if aug[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col].inverse()
        aug[row] = [inv * v for v in aug[row]]
        for r in range(n):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    for r in range(row, n):
        if aug[r][m]:
            return None  # inconsistent: the last vector is independent
    x = [ZERO] * m
    for r, col in enumerate(pivots):
        x[col] = aug[r][m]
    return [-c for c in x] + [ONE]


def evaluate_poly_at_matrix(p: Poly, a: QMatrix) -> QMatrix:
    out = QMatrix.zeros(a.shape[0])
    for c, power in zip(p.coeffs, matrix_power_sequence(a, max(p.degree, 0))):
        if c:
            out = out + power.scaled(c)
    return out


# -- polynomials of a matrix -----------------------------------------------------


def _reduce(vec: list, comb: list, basis: list) -> None:
    """Eliminate the pivots of `basis` from vec in place, fraction-free, and
    carry the same row operations on comb, its combination of the powers."""
    for piv, row, rcomb in basis:
        cr, ci = vec[piv]
        if not cr and not ci:
            continue
        pv = row[piv][0]  # a positive integer (see minimal_polynomial)
        for t, (sr, si) in enumerate(row):
            vr, vi = vec[t]
            vec[t] = (pv * vr - cr * sr + ci * si, pv * vi - cr * si - ci * sr)
        for t in range(len(comb)):
            vr, vi = comb[t]
            sr, si = rcomb[t] if t < len(rcomb) else (0, 0)
            comb[t] = (pv * vr - cr * sr + ci * si, pv * vi - cr * si - ci * sr)


def _divide_content(vec: list, comb: list) -> None:
    g = math.gcd(*(v for pair in vec + comb for v in pair))
    if g > 1:
        vec[:] = [(re // g, im // g) for re, im in vec]
        comb[:] = [(re // g, im // g) for re, im in comb]


def minimal_polynomial(a: QMatrix) -> Poly:
    """Monic minimal polynomial: the first linear dependency among the powers.

    With a = A/D and A integral, the flattened powers I, A, A^2, ... are
    reduced one at a time against the earlier ones by fraction-free
    elimination over the Gaussian integers, each row carrying its
    combination of the powers and scaled so that its pivot is the positive
    integer |pivot|^2, with the rational content divided out.  The first
    power that reduces to zero gives sum_j c_j A^j = 0 with c_d > 0, so the
    minimal polynomial of a has coefficients c_j / (c_d D^(d-j)).
    """
    if not a.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    k = a.shape[0]
    den, abar = _split(a)
    basis = []
    power = _int_identity(k)
    for d in range(k + 1):
        vec = [z for r in power for z in r]
        comb = [(0, 0)] * d + [(1, 0)]
        _reduce(vec, comb, basis)
        _divide_content(vec, comb)
        piv = next((t for t, (re, im) in enumerate(vec) if re or im), None)
        if piv is None:
            top = comb[d][0]
            return Poly([over(re, im, top * den ** (d - j)) for j, (re, im) in enumerate(comb)])
        pr, pi = vec[piv]
        vec = [(re * pr + im * pi, im * pr - re * pi) for re, im in vec]
        comb = [(re * pr + im * pi, im * pr - re * pi) for re, im in comb]
        _divide_content(vec, comb)
        basis.append((piv, vec, comb))
        power = _int_matmul(power, abar)
    raise AssertionError("no dependency among k+1 powers; internal bug")


def characteristic_polynomial(a: QMatrix) -> Poly:
    """det(xI - a), monic of degree k, by the Faddeev-LeVerrier recursion.

    It runs on A = D a, which is integral: M_s = A M_(s-1) + c_(k-s+1) I and
    c_(k-s) = -tr(A M_s) / s keep every M_s integral and every division by s
    exact, since det(xI - A) has Gaussian-integer coefficients.  Those are
    D^j times the coefficients c_(k-j) of det(xI - a).
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    k = a.shape[0]
    den, abar = _split(a)
    coeffs = [(0, 0)] * (k + 1)
    coeffs[k] = (1, 0)
    am = [[(0, 0)] * k for _ in range(k)]  # A @ M for the previous step
    for step in range(1, k + 1):
        cr, ci = coeffs[k - step + 1]
        m = [[(re + cr, im + ci) if i == j else (re, im) for j, (re, im) in enumerate(r)]
             for i, r in enumerate(am)]
        am = _int_matmul(abar, m)
        tr_re = sum(am[i][i][0] for i in range(k))
        tr_im = sum(am[i][i][1] for i in range(k))
        coeffs[k - step] = (-tr_re // step, -tr_im // step)
    return Poly([over(re, im, den ** (k - j)) for j, (re, im) in enumerate(coeffs)])
