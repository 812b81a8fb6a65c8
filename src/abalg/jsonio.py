"""JSON schemas for every value the CLI reads or writes.

Rationals travel as decimal strings "num/den" (reduced, positive
denominator, optional leading minus); a bare "num" is accepted on input.
Term lists are emitted in the canonical (total degree, b-power) order so
output is byte-stable.

The types of the division, linalg, modules, oracle and series layers are
imported by the functions that build them, so that a subcommand loads only
the layers of the values it reads and writes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .coefficients import GaussianRational, fraction_from_str, fraction_to_str
from .elements import LEFT, RIGHT, AlgebraElement
from .errors import SchemaError
# The one layer kept at top level: perfbench's traced runs find
# abalg.expansions in sys.modules after importing jsonio.
from .expansions import XiElement

if TYPE_CHECKING:
    from .division import FactoredProduct, HomogeneousFactorization
    from .linalg import QMatrix
    from .modules import DifferentialSystem
    from .oracle import PolySeries
    from .polynomials import Poly
    from .series import BSeries


def _need(doc: dict, key: str, kind=None):
    if not isinstance(doc, dict) or key not in doc:
        raise SchemaError(f"missing field {key!r}")
    value = doc[key]
    if kind is not None and not isinstance(value, kind):
        raise SchemaError(f"field {key!r} has the wrong type")
    return value


def coeff_to_json(c: GaussianRational) -> dict:
    return {"re": fraction_to_str(c.re), "im": fraction_to_str(c.im)}


def coeff_from_json(doc) -> GaussianRational:
    return GaussianRational(fraction_from_str(_need(doc, "re")),
                            fraction_from_str(_need(doc, "im")))


# -- algebra elements -----------------------------------------------------

def element_to_json(x: AlgebraElement) -> dict:
    terms = []
    for (p, q), c in sorted(x.coeffs.items(), key=lambda kv: (kv[0][0] + kv[0][1], kv[0][1])):
        entry = {"p": p, "q": q}
        entry.update(coeff_to_json(c))
        terms.append(entry)
    return {"order": x.order, "ordering": x.ordering.value, "terms": terms}


def element_from_json(doc) -> AlgebraElement:
    order = _need(doc, "order", int)
    tag = _need(doc, "ordering", str)
    if tag not in ("left", "right"):
        raise SchemaError(f"ordering must be 'left' or 'right', got {tag!r}")
    ordering = LEFT if tag == "left" else RIGHT
    table: dict = {}
    for entry in _need(doc, "terms", list):
        p, q = _need(entry, "p", int), _need(entry, "q", int)
        if (p, q) in table:
            raise SchemaError(f"duplicate term ({p}, {q})")
        table[(p, q)] = coeff_from_json(entry)
    try:
        return AlgebraElement(order, ordering, table)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# -- b-series and factored products ----------------------------------------

def bseries_from_json(doc, order: int | None = None) -> BSeries:
    """The b-series of an element document, cut at b^order if order is given.

    The cut comes before the series is built, so a huge truncation order in
    the document costs nothing beyond the order asked for.
    """
    from .series import BSeries
    x = element_from_json(doc)
    if order is not None and x.order > order:
        x = x.truncated(order)
    try:
        return BSeries.from_element(x)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def factored_product_from_json(doc, order: int | None = None) -> FactoredProduct:
    from .division import FactoredProduct
    factors = []
    for entry in _need(doc, "factors", list):
        lam = coeff_from_json(_need(entry, "lambda"))
        s = bseries_from_json(_need(entry, "S"), order)
        factors.append((lam, s))
    if not factors:
        raise SchemaError("a factored product needs at least one factor")
    if order is None:
        order = max(s.order for _, s in factors)
    return FactoredProduct(tuple(factors), order)


def factorization_to_json(f: HomogeneousFactorization) -> dict:
    return {
        "scale": coeff_to_json(f.scale),
        "b_power": f.b_power,
        "lambdas": [coeff_to_json(lam) for lam in f.lambdas],
        "complete": f.complete,
        "core": None if f.core is None else element_to_json(f.core),
    }


# -- truncated power series in z ----------------------------------------------

def polyseries_to_json(f: PolySeries) -> dict:
    terms = []
    for m, c in sorted(f.coeffs.items()):
        entry = {"m": m}
        entry.update(coeff_to_json(c))
        terms.append(entry)
    return {"degree": f.degree_bound, "terms": terms}


def polyseries_from_json(doc) -> PolySeries:
    from .oracle import PolySeries
    bound = _need(doc, "degree", int)
    table = {}
    for entry in _need(doc, "terms", list):
        m = _need(entry, "m", int)
        if m in table:
            raise SchemaError(f"duplicate exponent {m}")
        if m < 0 or m > bound:
            raise SchemaError(f"exponent {m} outside [0, {bound}]")
        table[m] = coeff_from_json(entry)
    try:
        return PolySeries(bound, table)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


# -- matrices and differential systems --------------------------------------------

def matrix_to_json(m: QMatrix) -> dict:
    return {"k": m.shape[0], "entries": [[coeff_to_json(c) for c in row] for row in m.rows]}


#: The largest rank a matrix document may declare.  On a 2.0 GHz Xeon vCPU,
#: bernstein and geometric on a dense 14x14 matrix of small Gaussian rationals
#: end within about 1.5 s.  The minimal polynomial now eliminates only over
#: Krylov vectors of length k, never over the k^2 entries of the powers, but
#: the bound also caps geometric and ode2ab, and large entries are slow at
#: any rank.
MAX_RANK = 14


def matrix_from_json(doc) -> QMatrix:
    from .linalg import QMatrix
    k = _need(doc, "k", int)
    if k > MAX_RANK:
        raise SchemaError(f"k must be at most {MAX_RANK}")
    entries = _need(doc, "entries", list)
    if len(entries) != k or any(not isinstance(r, list) or len(r) != k for r in entries):
        raise SchemaError(f"entries must be a {k}x{k} array")
    try:
        return QMatrix([[coeff_from_json(c) for c in row] for row in entries])
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc


def system_from_json(doc) -> DifferentialSystem:
    from .modules import DifferentialSystem
    k = _need(doc, "k", int)
    mats = [matrix_from_json(m) for m in _need(doc, "coeffs", list)]
    if not mats:
        raise SchemaError("a differential system needs at least M(0)")
    if any(m.shape != (k, k) for m in mats):
        raise SchemaError("coefficient matrix size disagrees with k")
    return DifferentialSystem(tuple(mats))


def series_matrix_to_json(coeffs) -> dict:
    """X(b) as coefficient matrices of b^0, b^1, ...; same shape as a system."""
    return {"k": coeffs[0].shape[0], "coeffs": [matrix_to_json(m) for m in coeffs]}


# -- polynomials -----------------------------------------------------------------

def poly_to_json(p: Poly) -> dict:
    return {"coeffs": [coeff_to_json(c) for c in p.coeffs]}


# -- multivalued expansions ---------------------------------------------------------

def xi_to_json(xi: XiElement) -> dict:
    terms = []
    for (alpha, m, j), vec in sorted(xi.terms.items()):
        terms.append({
            "alpha": fraction_to_str(alpha),
            "m": m,
            "j": j,
            "c": [coeff_to_json(c) for c in vec],
        })
    return {"dim": xi.dim, "log_depth": xi.log_depth, "m_bound": xi.m_bound,
            "terms": terms}


#: The largest log depth an expansion document may declare.  b maps a symbol
#: of log depth j to j + 1 symbols, whose weights come from a j-step recursion.
MAX_LOG_DEPTH = 100


def xi_from_json(doc) -> XiElement:
    dim = _need(doc, "dim", int)
    depth = _need(doc, "log_depth", int)
    if dim < 0 or depth < 0:
        raise SchemaError("dim and log_depth must be nonnegative")
    if depth > MAX_LOG_DEPTH:
        raise SchemaError(f"log_depth must be at most {MAX_LOG_DEPTH}")
    table = {}
    max_m = 0
    for entry in _need(doc, "terms", list):
        alpha = fraction_from_str(_need(entry, "alpha"))
        m, j = _need(entry, "m", int), _need(entry, "j", int)
        vec = [coeff_from_json(c) for c in _need(entry, "c", list)]
        if (alpha, m, j) in table:
            raise SchemaError(f"duplicate term ({alpha}, {m}, {j})")
        table[(alpha, m, j)] = tuple(vec)
        max_m = max(max_m, m)
    # m_bound is part of the type but optional on the wire: default leaves
    # one step of room so a single a- or b-action does not truncate.
    bound = doc.get("m_bound", max_m + 1)
    if not isinstance(bound, int):
        raise SchemaError("m_bound must be an integer")
    try:
        return XiElement(dim, depth, bound, table)
    except ValueError as exc:
        raise SchemaError(str(exc)) from exc
