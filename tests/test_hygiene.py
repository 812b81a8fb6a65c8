"""Source hygiene: no module of the package imports a name it never uses,
the package exports a fixed set of names, the oracle, the
GaussianRational routes of linalg and polynomials and BSeries.__mul__ stay
independent referees of the integer kernels, BSeries and APolynomial keep
one storage, and every span of the traced benchmark names a function or
method that exists.
"""

import ast
import hashlib
import importlib
import importlib.util
from pathlib import Path

import pytest

import abalg

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "abalg"
MODULES = sorted(SRC.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used]


def test_the_scan_sees_unused_and_used_names():
    source = "import os\nfrom math import gcd, lcm as l\nprint(l(2, 3), os.sep)\n"
    assert unused_imports(source) == ["line 2: gcd"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


# -- the public names of the package -------------------------------------------------

# module -> the names `abalg` exports from it, under the same name
EXPORTED = {
    "coefficients": "Coefficient GaussianRational",
    "division": "DivisionResult FactoredProduct HomogeneousFactorization divide divide_linear "
                "factor_homogeneous invert power_division_closed_form remainder_polynomial",
    "elements": "LEFT RIGHT AlgebraElement Ordering add anti_automorphism binomial_pow "
                "coefficient_profile gen_a gen_b mul power reorder_coeff scale shear to_left "
                "to_right",
    "errors": "AbalgError ExprError NotHomogeneousError NotMonicError OrderingMismatchError "
              "OrderMismatchError SchemaError WitnessNotFoundError ZeroConstantTermError "
              "ZeroElementError",
    "expansions": "XiElement xi_act_a xi_act_b xi_check_simple_pole",
    "expr": "format_element parse parse_element parse_scalar",
    "linalg": "QMatrix characteristic_polynomial minimal_polynomial",
    "modules": "DifferentialSystem Fresco ModuleElement SeriesPoleModule SimplePoleModule "
               "SpectrumCheck act_on_basis bernstein fresco_act from_differential_system "
               "is_geometric_spectrum satisfies_system unit_fresco",
    "oracle": "PolySeries act act_a act_b act_composed injectivity_witness oracle_check_mul",
    "polynomials": "Poly gaussian_roots interpolate rational_roots",
    "series": "APolynomial BSeries",
}
EXPORTS = {name: (module, name) for module, names in EXPORTED.items() for name in names.split()}
EXPORTS["module_act"] = ("modules", "act")


def test_the_package_exports_its_public_names():
    assert set(abalg.__all__) == set(EXPORTS) and len(abalg.__all__) == len(EXPORTS)
    for name, (module, attr) in EXPORTS.items():
        assert getattr(abalg, name) is getattr(importlib.import_module(f"abalg.{module}"), attr)
    assert set(EXPORTS) <= set(dir(abalg))
    namespace = {}
    exec("from abalg import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    with pytest.raises(AttributeError):
        getattr(abalg, "no_such_name")
    exec("from abalg import division", namespace)
    assert namespace["division"] is importlib.import_module("abalg.division")


# -- the referees must not share the kernels' code -------------------------------

ORACLE = SRC / "oracle.py"

# sha256 of shape() of each referee, named module.qualname, as it stood when
# the kernel it checks moved onto integers.  The oracle's `act_composed`,
# `act_a`, `act_b` and the `PolySeries` they build stay on Fractions so that
# they check the oracle `act`.  `matrix_power_sequence`, `solve_dependency`,
# `evaluate_poly_at_matrix` and `Poly.__call__` stay on GaussianRational
# arithmetic so that they check `QMatrix.__matmul__`, `minimal_polynomial`,
# `characteristic_polynomial` and `rational_roots` in checks.py and the tests.
# A change to a referee must be a deliberate change of these digests, made
# together with a new argument that it still referees its kernel.
REFEREE_DIGESTS = {
    "oracle.PolySeries": "522c83f0121a58e4d34d677a21ad3965f74969bf7b8cf0734d1a4216132c134f",
    "oracle.act_a": "94c2fe899b1ac8f16fb222f43a058948e0cd32153f2318a230a004b5c891ac3a",
    "oracle.act_b": "6e564b790f8a39b2362280e8f3e7dd015211404301777a362827a43c59bdb5e1",
    "oracle.act_composed": "4a1a0611c47124b5f44db3000cd6508ae3ba94943a433f503e6d9d5f0c151ce5",
    "linalg.matrix_power_sequence":
        "f1635689bcb7221063dd3a819cdc9abd9e9fe71fc5fedb17a5634f070828b1e5",
    "linalg.solve_dependency": "ce0afde8befa53498cf608642d761697dedff00da427bd0cd6a88d2598505978",
    "linalg.evaluate_poly_at_matrix":
        "c346cec144b72d043799e5b039a4e8117d4b8728f9717c5eeab6d3c7f50ab040",
    "polynomials.Poly.__call__": "ed90ecf0fe4e4d230c9372002a2224c4c1b1ae809754319eb8d755763ec8412d",
    # the GaussianRational Cauchy product over `coeffs` referees BSeries.inverse
    "series.BSeries.__mul__":
        "81a8af515df4527bf94d7322ba138042963cca681f99be394826d18b52ff29c0",
}


def test_series_and_a_polynomials_keep_one_storage():
    """BSeries and APolynomial are views of an AlgebraElement and store nothing else."""
    from abalg.series import APolynomial, BSeries
    assert BSeries.__slots__ == ("element",)
    assert APolynomial.__slots__ == ("element",)


def private_imports(source: str) -> list[str]:
    """`_`-prefixed names imported from another abalg module."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level or (node.module or "").startswith("abalg"):
            names += [alias.name for alias in node.names if alias.name.startswith("_")]
    return names


def shape(node) -> str:
    """ast.dump without positions or empty fields, so that it reads the same on
    every supported Python (3.12 added FunctionDef.type_params, and 3.13's
    ast.dump leaves out empty fields)."""
    if isinstance(node, ast.AST):
        fields = ", ".join(f"{name}={shape(value)}" for name, value in ast.iter_fields(node)
                           if value not in (None, []))
        return f"{type(node).__name__}({fields})"
    if isinstance(node, list):
        return "[" + ", ".join(shape(v) for v in node) + "]"
    return repr(node)


def test_the_private_import_scan_sees_relative_and_absolute_imports():
    source = "from .elements import _row, mul\nfrom abalg.x import _y\nfrom os import _exit\n"
    assert private_imports(source) == ["_row", "_y"]


def test_the_oracle_imports_no_private_kernel_helpers():
    assert private_imports(ORACLE.read_text()) == []


def definition(name: str):
    """The def or class statement of module.qualname in src/abalg, or None."""
    module, *path = name.split(".")
    node, body = None, ast.parse((SRC / f"{module}.py").read_text()).body
    for part in path:
        node = next((n for n in body if isinstance(n, (ast.FunctionDef, ast.ClassDef))
                     and n.name == part), None)
        if node is None:
            return None
        body = node.body
    return node


def test_the_definition_lookup_reaches_methods():
    assert definition("polynomials.Poly.__call__").name == "__call__"
    assert definition("polynomials.Poly.missing") is None


def test_the_referee_functions_are_unchanged():
    found = {name: hashlib.sha256(shape(definition(name)).encode()).hexdigest()
             for name in REFEREE_DIGESTS}
    assert found == REFEREE_DIGESTS


# -- the traced benchmark's spans ---------------------------------------------------


def test_every_traced_span_names_an_existing_function():
    """A rename in the package must fail here, not in `perfbench/run.py --trace 1`."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for name, owner, attr in tracing.SPANS:
        if isinstance(owner, type):
            found = attr in owner.__dict__
        else:
            found = hasattr(importlib.import_module(owner), attr)
        if not found:
            missing.append(f"{name}: {owner}.{attr}")
    assert tracing.SPANS and missing == []
