"""Exact dense matrices over the Gaussian rationals.

Just enough linear algebra for the module layer: ring operations, the
minimal polynomial as the first linear dependency among the first columns
of the powers of a matrix, and the characteristic polynomial by
Faddeev-LeVerrier.  Everything exact, no pivot-size heuristics needed.

A QMatrix is stored as an AlgebraElement is: one positive denominator `den`
and rows of Gaussian-integer numerators (re, im), `table`, in lowest terms.
`@`, the minimal and the characteristic polynomial run on these tables;
`rows` and `entry` are built on each call.  matrix_power_sequence,
solve_dependency and evaluate_poly_at_matrix stay on GaussianRational
arithmetic over `rows`, as the independent referees of those kernels.
"""

from __future__ import annotations

import math

from .coefficients import GaussianRational, ONE, ZERO, common_denominator, over
from .polynomials import Poly


class QMatrix:
    """A nonempty rectangular matrix over the Gaussian rationals; immutable."""

    __slots__ = ("den", "table")

    def __init__(self, rows):
        rows = [[GaussianRational.coerce(c) for c in row] for row in rows]
        if not rows or not rows[0]:
            raise ValueError("matrix must be nonempty")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        den, table = common_denominator(dict(enumerate(c for r in rows for c in r)))
        flat = tuple(table.values())
        _fill(self, den, [flat[i:i + width] for i in range(0, len(flat), width)])

    def __setattr__(self, name, value):
        raise AttributeError("QMatrix is immutable")

    @staticmethod
    def from_ints(den: int, table) -> QMatrix:
        """Entry (i, j) is (re + im*i) / den for table[i][j] == (re, im); den >= 1."""
        return _fill(object.__new__(QMatrix), den, table)

    @staticmethod
    def identity(k: int) -> QMatrix:
        return QMatrix.from_ints(1, _int_identity(k))

    @staticmethod
    def zeros(k: int, m: int | None = None) -> QMatrix:
        return QMatrix.from_ints(1, [[(0, 0)] * (k if m is None else m)] * k)

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.table), len(self.table[0])

    @property
    def is_square(self) -> bool:
        n, m = self.shape
        return n == m

    @property
    def rows(self) -> tuple:
        """The entries as GaussianRationals, row by row, built on each call."""
        den = self.den
        return tuple(tuple(over(re, im, den) for re, im in r) for r in self.table)

    def entry(self, i: int, j: int) -> GaussianRational:
        return over(*self.table[i][j], self.den)

    def __eq__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        return self.den == other.den and self.table == other.table

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
        return QMatrix.from_ints(self.den, [[(-re, -im) for re, im in r] for r in self.table])

    def scaled(self, c) -> QMatrix:
        c = GaussianRational.coerce(c)
        return QMatrix([[c * a for a in r] for r in self.rows])

    def __matmul__(self, other):
        if not isinstance(other, QMatrix):
            return NotImplemented
        if self.shape[1] != other.shape[0]:
            raise ValueError("shape mismatch")
        return QMatrix.from_ints(self.den * other.den, _int_matmul(self.table, other.table))

    @property
    def is_zero(self) -> bool:
        return all(z == (0, 0) for r in self.table for z in r)

    def __repr__(self):
        body = "; ".join(" ".join(str(c) for c in r) for r in self.rows)
        return f"<QMatrix {self.shape[0]}x{self.shape[1]} [{body}]>"


# -- the integer layout (see the module docstring) ------------------------------

def _fill(a: QMatrix, den: int, table: list) -> QMatrix:
    """a storing den and table in lowest terms."""
    g = math.gcd(den, *[v for r in table for z in r for v in z])  # a list: see _divide_content
    if g > 1:
        den, table = den // g, [[(re // g, im // g) for re, im in r] for r in table]
    object.__setattr__(a, "den", den)
    object.__setattr__(a, "table", tuple(map(tuple, table)))
    return a


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
    # Unpack a list, not a generator: the argument tuple built from a
    # generator is resized in place, so on release it joins the tuple free
    # list of its length, and lengths up to 20 keep up to 2000 each.
    g = math.gcd(*[v for pair in vec + comb for v in pair])
    if g > 1:
        vec[:] = [(re // g, im // g) for re, im in vec]
        comb[:] = [(re // g, im // g) for re, im in comb]


def _vanishes(comb: list, powers: list, c: int) -> bool:
    """True if sum_j comb[j] powers[j] is zero in the columns from c on."""
    for row in range(len(powers[0])):
        for t in range(c, len(powers[0])):
            re = im = 0
            for (cr, ci), p in zip(comb, powers):
                vr, vi = p[row][t]
                re += cr * vr - ci * vi
                im += cr * vi + ci * vr
            if re or im:
                return False
    return True


def minimal_polynomial(a: QMatrix) -> Poly:
    """Monic minimal polynomial, from the first columns of the powers.

    With a = A/D and A integral, the first c columns of the powers I, A,
    A^2, ... (c = 1, 2, 4, ..., k) are reduced one power at a time against
    the earlier ones by fraction-free elimination over the Gaussian
    integers, each row carrying its combination of the powers and scaled so
    that its pivot is the positive integer |pivot|^2, with the rational
    content divided out.  The first power A^d that reduces to zero gives
    sum_j c_j A^j = 0 on e_1..e_c, with c_d > 0: the minimal polynomial of A
    on their Krylov spaces, which divides that of A.  So it is that of A if
    d = k, or if sum_j c_j A^j, from the powers already built, is zero on
    the other columns too (always when c = k); otherwise c doubles.  The
    minimal polynomial of a has coefficients c_j / (c_d D^(d-j)).
    """
    if not a.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    k = a.shape[0]
    den, abar = a.den, a.table
    powers = [_int_identity(k)]
    c = 1
    while True:
        basis = []
        for d in range(k + 1):
            if d == len(powers):
                powers.append(_int_matmul(powers[-1], abar))
            vec = [z for r in powers[d] for z in r[:c]]
            comb = [(0, 0)] * d + [(1, 0)]
            _reduce(vec, comb, basis)
            _divide_content(vec, comb)
            piv = next((t for t, (re, im) in enumerate(vec) if re or im), None)
            if piv is None:
                break
            pr, pi = vec[piv]
            vec = [(re * pr + im * pi, im * pr - re * pi) for re, im in vec]
            comb = [(re * pr + im * pi, im * pr - re * pi) for re, im in comb]
            _divide_content(vec, comb)
            basis.append((piv, vec, comb))
        else:
            raise AssertionError("no dependency among k+1 powers; internal bug")
        if d == k or c == k or _vanishes(comb, powers, c):
            return Poly.from_ints(comb[d][0] * den ** d,
                                  [(re * den ** j, im * den ** j) for j, (re, im) in enumerate(comb)])
        c = min(2 * c, k)


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
    den, abar = a.den, a.table
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
    return Poly.from_ints(den ** k, [(re * den ** j, im * den ** j)
                                     for j, (re, im) in enumerate(coeffs)])
