"""Exact dense matrices over the Gaussian rationals.

Just enough linear algebra for the module layer: ring operations, the
minimal polynomial as the lcm of the first linear dependencies among the
Krylov vectors of e_1 and of the unit vectors off its pivots (which together
span the space), and the characteristic polynomial from the power sums of
its roots by Newton's identities.  Everything exact, no pivot-size
heuristics needed.

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

    def __reduce__(self):
        return QMatrix.from_ints, (self.den, self.table)

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


def _int_matvec(a, v) -> list:
    """a v for a Gaussian-integer matrix a and vector v, as in _int_matmul."""
    terms = [(l, vr, vi) for l, (vr, vi) in enumerate(v) if vr or vi]
    out = []
    for row in a:
        re = im = 0
        for l, vr, vi in terms:
            ar, ai = row[l]
            re += ar * vr - ai * vi
            im += ar * vi + ai * vr
        out.append((re, im))
    return out


def _int_identity(k: int) -> list:
    return [[(1, 0) if i == j else (0, 0) for j in range(k)] for i in range(k)]


# -- the GaussianRational routes that referee the integer kernels ------------------


def matrix_power_sequence(a: QMatrix, n: int) -> list[QMatrix]:
    """[I, a, a^2, ..., a^n], multiplied out on GaussianRationals (not by `@`)."""
    k, rows = a.shape[0], a.rows
    out = [QMatrix.identity(k)]
    for _ in range(n):
        prev = out[-1].rows
        out.append(QMatrix([[sum((prev[i][l] * rows[l][j] for l in range(k)), ZERO)
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
        pv = row[piv][0]  # a positive integer (see _first_dependency)
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


def _first_dependency(vectors) -> tuple[list, list]:
    """(basis, comb) for the first of the vectors that depends on the earlier ones.

    Each, a new list, is reduced in place against the earlier ones by
    fraction-free elimination over the Gaussian integers, carrying its
    combination comb of them, and kept as a basis row (pivot, row, comb)
    scaled so that its pivot is the positive integer |pivot|^2, with the
    rational content divided out.  The first that reduces to zero gives
    sum_j comb[j] vectors[j] = 0 with comb[-1] > 0.
    """
    basis = []
    for d, vec in enumerate(vectors):
        comb = [(0, 0)] * d + [(1, 0)]
        _reduce(vec, comb, basis)
        _divide_content(vec, comb)
        piv = next((t for t, (re, im) in enumerate(vec) if re or im), None)
        if piv is None:
            return basis, comb
        pr, pi = vec[piv]
        vec = [(re * pr + im * pi, im * pr - re * pi) for re, im in vec]
        comb = [(re * pr + im * pi, im * pr - re * pi) for re, im in comb]
        _divide_content(vec, comb)
        basis.append((piv, vec, comb))
    raise AssertionError("no dependency among k+1 powers; internal bug")


def _krylov(a, v):
    """v, A v, ..., A^k v, each a new list."""
    for _ in range(len(a) + 1):
        yield list(v)
        v = _int_matvec(a, v)


def _at_unit_vector(comb: list, a, m: int) -> list:
    """sum_j comb[j] A^j e_m, by Horner on one vector."""
    w = [(0, 0)] * len(a)
    for cr, ci in reversed(comb):
        w = _int_matvec(a, w)
        re, im = w[m]
        w[m] = (re + cr, im + ci)
    return w


def _int_polymul(x: list, y: list) -> list:
    """The product of polynomials with Gaussian-integer coefficients, low to high."""
    out = [(0, 0)] * (len(x) + len(y) - 1)
    for i, (xr, xi) in enumerate(x):
        for j, (yr, yi) in enumerate(y):
            re, im = out[i + j]
            out[i + j] = (re + xr * yr - xi * yi, im + xr * yi + xi * yr)
    return out


def minimal_polynomial(a: QMatrix) -> Poly:
    """Monic minimal polynomial, the lcm of those of e_1 and some unit vectors.

    With a = A/D and A integral, the first dependency sum_j c_j A^j v = 0
    among v, A v, A^2 v, ... (one matrix-vector product each; see
    _first_dependency) is mu_v = sum_j c_j x^j, the minimal polynomial of A
    on v.  It is monic: A is integral, so mu_v divides the monic Z[i]
    polynomial det(xI - A), and by Gauss's lemma a monic divisor of it has
    Gaussian-integer coefficients; the dependency is primitive with a
    positive leading coefficient, so that coefficient is 1.  The minimal
    polynomial of A is the lcm of mu_v over vectors v that span C^k, and
    e_1 with the unit vectors e_m at the positions m that are no pivot of
    its reduced Krylov rows span C^k, since on the pivot coordinates those
    rows are triangular.  So mu starts at mu_(e_1), and for each such e_m
    in turn lcm(mu, mu_(e_m)) = mu mu_w with w = mu(A) e_m (Horner on one
    vector): mu is unchanged when w = 0, and the product of two monic Z[i]
    polynomials needs no division.  It stops when deg mu = k.  The minimal
    polynomial of a has coefficients c_j / D^(d-j), d = deg mu.
    """
    if not a.is_square:
        raise ValueError("minimal polynomial of a non-square matrix")
    k = a.shape[0]
    den, abar = a.den, a.table
    basis, comb = _first_dependency(_krylov(abar, [(1, 0)] + [(0, 0)] * (k - 1)))
    pivots = {piv for piv, _, _ in basis}
    for m in range(k):
        if len(comb) > k:
            break
        if m not in pivots:
            w = _at_unit_vector(comb, abar, m)
            if any(re or im for re, im in w):
                comb = _int_polymul(comb, _first_dependency(_krylov(abar, w))[1])
    if comb[-1] != (1, 0):
        raise AssertionError("the minimal polynomial is not monic over Z[i]; internal bug")
    d = len(comb) - 1
    return Poly.from_ints(den ** d, [(re * den ** j, im * den ** j)
                                     for j, (re, im) in enumerate(comb)])


def _trace_of_product(x, y) -> tuple:
    """tr(x y) = sum_ij x_ij y_ji for Gaussian-integer matrices."""
    re = im = 0
    for row, col in zip(x, zip(*y)):
        for (xr, xi), (yr, yi) in zip(row, col):
            re += xr * yr - xi * yi
            im += xr * yi + xi * yr
    return re, im


def _newton(sums: list) -> list:
    """[c_0, ..., c_k], c_k = 1: the monic polynomial whose roots have the
    Gaussian-integer power sums p_1..p_k, by Newton's identities
    s c_(k-s) = -sum_(i=1..s) c_(k-s+i) p_i, every division by s checked."""
    k = len(sums)
    coeffs = [(0, 0)] * k + [(1, 0)]
    for s in range(1, k + 1):
        re = im = 0
        for (cr, ci), (pr, pi) in zip(coeffs[k - s + 1:], sums):
            re -= cr * pr - ci * pi
            im -= cr * pi + ci * pr
        if re % s or im % s:
            raise AssertionError("inexact division in Newton's identities; internal bug")
        coeffs[k - s] = (re // s, im // s)
    return coeffs


def characteristic_polynomial(a: QMatrix) -> Poly:
    """det(xI - a), monic of degree k, from the power sums of its roots.

    It runs on A = D a, which is integral.  Each p_s = tr(A^s), s = 1..k, is
    tr(A^h A^(s-h)) with h = ceil(s/2), so only A^2..A^ceil(k/2) are
    multiplied out.  Newton's identities (_newton) turn them into the
    coefficients of det(xI - A), which are Gaussian integers, so every
    division by s is exact; they are D^j times the coefficients c_(k-j) of
    det(xI - a).
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of a non-square matrix")
    k = a.shape[0]
    den, abar = a.den, a.table
    powers = [_int_identity(k), abar]
    while len(powers) <= (k + 1) // 2:
        powers.append(_int_matmul(powers[-1], abar))
    coeffs = _newton([_trace_of_product(powers[(s + 1) // 2], powers[s // 2])
                      for s in range(1, k + 1)])
    return Poly.from_ints(den ** k, [(re * den ** j, im * den ** j)
                                     for j, (re, im) in enumerate(coeffs)])
