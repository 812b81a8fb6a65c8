"""Exact kernel for the noncommutative algebra generated by a, b with ab - ba = b^2.

Truncated (order-N) exact arithmetic over the Gaussian rationals, normal
orderings and their conversion, unit inversion and division with
remainder, a faithful operator-representation oracle on power series,
finite-rank module structures (simple-pole modules, frescos, Bernstein
polynomials, differential-system conversion, multivalued expansions) and
a CLI exposing all of it.

The public names below load their module on first access (PEP 562), so
`import abalg` alone imports no kernel module.  A name is looked up in its
module on every access and never cached here: whoever rebinds a module's
function (as the benchmark's tracer does) is seen through the package too.
"""

import importlib

# public name -> (module, attribute)
_EXPORTS = {name: (module, name) for module, names in {
    "coefficients": ("Coefficient", "GaussianRational"),
    "division": ("DivisionResult", "FactoredProduct", "HomogeneousFactorization", "divide",
                 "divide_linear", "factor_homogeneous", "invert",
                 "power_division_closed_form", "remainder_polynomial"),
    "elements": ("LEFT", "RIGHT", "AlgebraElement", "Ordering", "add", "anti_automorphism",
                 "binomial_pow", "coefficient_profile", "gen_a", "gen_b", "mul", "power",
                 "reorder_coeff", "scale", "shear", "to_left", "to_right"),
    "errors": ("AbalgError", "ExprError", "NotHomogeneousError", "NotMonicError",
               "OrderingMismatchError", "OrderMismatchError", "SchemaError",
               "WitnessNotFoundError", "ZeroConstantTermError", "ZeroElementError"),
    "expansions": ("XiElement", "xi_act_a", "xi_act_b", "xi_check_simple_pole"),
    "expr": ("format_element", "parse", "parse_element", "parse_scalar"),
    "linalg": ("QMatrix", "characteristic_polynomial", "minimal_polynomial"),
    "modules": ("DifferentialSystem", "Fresco", "ModuleElement", "SeriesPoleModule",
                "SimplePoleModule", "SpectrumCheck", "act_on_basis", "bernstein", "fresco_act",
                "from_differential_system", "is_geometric_spectrum", "satisfies_system",
                "unit_fresco"),
    "oracle": ("PolySeries", "act", "act_a", "act_b", "act_composed", "injectivity_witness",
               "oracle_check_mul"),
    "polynomials": ("Poly", "gaussian_roots", "interpolate", "rational_roots"),
    "series": ("APolynomial", "BSeries"),
}.items() for name in names}
_EXPORTS["module_act"] = ("modules", "act")

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f".{module}", __name__), attr)


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS))
