"""Source hygiene: no module of the package imports a name it never uses or
`dataclasses`, the package exports a fixed set of names, the value classes
behave as frozen dataclasses on __slots__, change only while they are
built and copy by one rule, the oracle, the GaussianRational routes of
linalg and polynomials and BSeries.__mul__ stay independent referees of the integer kernels,
BSeries and APolynomial keep one storage, every span of the traced
benchmark names a function or method that exists, a tiny traced run finds
every span's module loaded, every defaulted parameter has a call that
sets it, and the in-process benchmark workloads give the results of a
pinned digest.
"""

import ast
import hashlib
import importlib
import importlib.util
import json
import subprocess
import sys
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


def test_no_module_imports_dataclasses():
    """The value classes are __slots__ classes on errors.Frozen: `dataclasses`
    imports `inspect`, `ast` and `dis`, about 10 ms of every CLI request's
    start-up, and each decorated class costs about 1 ms more."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for name in names
                      if name.split(".")[0] == "dataclasses"]
    assert found == []


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
# `matrix_power_sequence` was re-pinned when it began to build the view
# `a.rows` once per call instead of once for every term of every product: it
# is the same triple sum on the same GaussianRational values, with no integer
# table and no `@` in it, so it still referees `@`, `minimal_polynomial` and
# `characteristic_polynomial`.
REFEREE_DIGESTS = {
    "oracle.PolySeries": "522c83f0121a58e4d34d677a21ad3965f74969bf7b8cf0734d1a4216132c134f",
    "oracle.act_a": "94c2fe899b1ac8f16fb222f43a058948e0cd32153f2318a230a004b5c891ac3a",
    "oracle.act_b": "6e564b790f8a39b2362280e8f3e7dd015211404301777a362827a43c59bdb5e1",
    "oracle.act_composed": "4a1a0611c47124b5f44db3000cd6508ae3ba94943a433f503e6d9d5f0c151ce5",
    "linalg.matrix_power_sequence":
        "1907fb21bf5acb804612118ca56bf9bdd04887c63d5f3b4314f997fa148b2e40",
    "linalg.solve_dependency": "ce0afde8befa53498cf608642d761697dedff00da427bd0cd6a88d2598505978",
    "linalg.evaluate_poly_at_matrix":
        "c346cec144b72d043799e5b039a4e8117d4b8728f9717c5eeab6d3c7f50ab040",
    "polynomials.Poly.__call__": "ed90ecf0fe4e4d230c9372002a2224c4c1b1ae809754319eb8d755763ec8412d",
    # the GaussianRational Cauchy product over `coeffs` referees invert on b-series
    "series.BSeries.__mul__":
        "81a8af515df4527bf94d7322ba138042963cca681f99be394826d18b52ff29c0",
}


def test_series_and_a_polynomials_keep_one_storage():
    """BSeries and APolynomial are views of an AlgebraElement and store nothing else."""
    from abalg.series import APolynomial, BSeries
    assert BSeries.__slots__ == ("element",)
    assert APolynomial.__slots__ == ("element",)


def test_matrices_and_polynomials_keep_one_storage():
    """QMatrix and Poly store one denominator and a Gaussian-integer table, as
    AlgebraElement does, and nothing else."""
    from abalg.linalg import QMatrix
    from abalg.polynomials import Poly
    assert QMatrix.__slots__ == Poly.__slots__ == ("den", "table")


# -- the value classes --------------------------------------------------------------

def _value_cases():
    """(make, __slots__, hashable, repr of make(0)) per value class; make(0) and
    make(0) are equal, make(1) differs from them in one field."""
    from fractions import Fraction
    from abalg.coefficients import GaussianRational
    from abalg.division import DivisionResult, FactoredProduct, HomogeneousFactorization
    from abalg.elements import AlgebraElement
    from abalg.expansions import XiElement
    from abalg.linalg import QMatrix
    from abalg.modules import (DifferentialSystem, Fresco, ModuleElement, SeriesPoleModule,
                               SimplePoleModule, SpectrumCheck)
    from abalg.series import APolynomial

    module = SimplePoleModule(QMatrix([[Fraction(1, 2)]]), 1)
    two = GaussianRational(2)
    return {
        "FactoredProduct": (
            lambda v: FactoredProduct.from_lambdas([2 + v], 1),
            ("factors", "order", "_factor_ints"), False,
            "FactoredProduct(factors=((GaussianRational(Fraction(2, 1), Fraction(0, 1)), "
            "<BSeries order=1 (1)b^0>),), order=1)"),
        "DivisionResult": (
            lambda v: DivisionResult(AlgebraElement.monomial(v, 0, 1), APolynomial.one(1)),
            ("quotient", "remainder"), False,
            "DivisionResult(quotient=<AlgebraElement order=1 left {(0, 0): 1}>, "
            "remainder=<APolynomial order=1 [<BSeries order=1 (1)b^0>]a^0>)"),
        "HomogeneousFactorization": (
            lambda v: HomogeneousFactorization(scale=two, b_power=v, lambdas=(two,), core=None,
                                               order=1),
            ("scale", "b_power", "lambdas", "core", "order"), True,
            "HomogeneousFactorization(scale=GaussianRational(Fraction(2, 1), Fraction(0, 1)), "
            "b_power=0, lambdas=(GaussianRational(Fraction(2, 1), Fraction(0, 1)),), core=None, "
            "order=1)"),
        "SimplePoleModule": (
            lambda v: SimplePoleModule(QMatrix([[Fraction(1, 2) + v]]), 1),
            ("theta", "order", "_factors"), False,
            "SimplePoleModule(theta=<QMatrix 1x1 [1/2]>, order=1)"),
        "ModuleElement": (
            lambda v: module.zero() if v else module.basis_vector(0),
            ("module", "entries"), False,
            "ModuleElement(module=SimplePoleModule(theta=<QMatrix 1x1 [1/2]>, order=1), "
            "entries=(<BSeries order=1 (1)b^0>,))"),
        "SpectrumCheck": (
            lambda v: SpectrumCheck(True, (Fraction(1, 2),), None) if v else
            SpectrumCheck(False, None, "characteristic polynomial does not split over Q"),
            ("is_geometric", "eigenvalues", "diagnostic"), True,
            "SpectrumCheck(is_geometric=False, eigenvalues=None, "
            "diagnostic='characteristic polynomial does not split over Q')"),
        "Fresco": (
            lambda v: Fresco(FactoredProduct.linear(2 + v, 1)), ("product",), False,
            "Fresco(product=FactoredProduct(factors=((GaussianRational(Fraction(2, 1), "
            "Fraction(0, 1)), <BSeries order=1 (1)b^0>),), order=1))"),
        "DifferentialSystem": (
            lambda v: DifferentialSystem((QMatrix([[1 + v]]),)), ("coeffs",), False,
            "DifferentialSystem(coeffs=(<QMatrix 1x1 [1]>,))"),
        "SeriesPoleModule": (
            lambda v: SeriesPoleModule((QMatrix([[1]]), QMatrix([[v]])), 1),
            ("x_coeffs", "order"), False,
            "SeriesPoleModule(x_coeffs=(<QMatrix 1x1 [1]>, <QMatrix 1x1 [0]>), order=1)"),
        "XiElement": (
            lambda v: XiElement(1, 0, 2, {(Fraction(1, 2), 0, 0): (1 + v,)}),
            ("dim", "log_depth", "m_bound", "terms"), False,
            "<XiElement s^1/2 (x) (GaussianRational(Fraction(1, 1), Fraction(0, 1)),)>"),
    }


@pytest.mark.parametrize("name", list(_value_cases()))
def test_the_value_classes_behave_as_frozen_dataclasses(name):
    """By-field ==, hash where the fields allow one, the dataclass repr, no
    assignment, copies equal to the original, and exactly the listed slots."""
    import copy
    make, slots, hashable, text = _value_cases()[name]
    x, same, other = make(0), make(0), make(1)
    assert type(x).__name__ == name and type(x).__slots__ == slots
    assert x == same and not x != same and x != other and not x == other
    assert x.__eq__(object()) is NotImplemented and copy.copy(x) == x
    assert repr(x) == text
    if hashable:
        assert hash(x) == hash(same)
    else:
        with pytest.raises(TypeError):
            hash(x)
    with pytest.raises(AttributeError):
        setattr(x, slots[0], getattr(other, slots[0]))
    with pytest.raises(AttributeError):
        delattr(x, slots[0])
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == same and not hasattr(x, "__dict__")


def test_a_factored_product_compares_without_its_caches():
    """Two products built alike are ==, show the same repr, hold equal but
    distinct factor integers and expand alike."""
    from abalg.division import FactoredProduct
    one, two = FactoredProduct.from_lambdas([1, 2], 3), FactoredProduct.from_lambdas([1, 2], 3)
    assert one == two and repr(one) == repr(two)
    assert one.factor_ints == two.factor_ints and one.factor_ints is not two.factor_ints
    assert one.expanded() == two.expanded()


def test_a_simple_pole_module_compares_without_its_cache():
    """Two modules built alike are ==, show the same repr, hold equal but
    distinct shift factors, reduce (the state pickle and copy store) to
    theta and the order alone, and act alike."""
    import copy
    from fractions import Fraction
    from abalg.elements import RIGHT, AlgebraElement
    from abalg.linalg import QMatrix
    from abalg.modules import SimplePoleModule, act
    theta = QMatrix([[Fraction(1, 2), 1], [0, Fraction(-1, 3)]])
    one, two = SimplePoleModule(theta, 4), SimplePoleModule(theta, 4)
    x = AlgebraElement.monomial(3, 1, 4, ordering=RIGHT)
    assert one == two and repr(one) == repr(two)
    assert one._factors == two._factors and one._factors is not two._factors
    assert one.__reduce__() == two.__reduce__() == (SimplePoleModule, (theta, 4))
    assert copy.copy(one) == one and copy.copy(one)._factors == one._factors
    assert act(x, one.basis_vector(0), one) == act(x, two.basis_vector(0), two)


def _copied_values():
    """name -> (value, its derived slots) for the six kernel value classes
    (KERNEL_VALUES), a SimplePoleModule and a FactoredProduct."""
    from fractions import Fraction
    from abalg.coefficients import GaussianRational
    from abalg.division import FactoredProduct
    from abalg.elements import RIGHT, AlgebraElement
    from abalg.linalg import QMatrix
    from abalg.modules import SimplePoleModule
    from abalg.polynomials import Poly
    from abalg.series import APolynomial, BSeries

    z = GaussianRational(Fraction(1, 2), Fraction(-3, 5))
    s = BSeries(3, {0: 2, 2: z})
    module = SimplePoleModule(QMatrix([[Fraction(1, 2), z], [0, Fraction(-1, 3)]]), 4)
    product = FactoredProduct(((z, s), (1, BSeries.one(3))), 3)
    return {
        "GaussianRational": (z, ()),
        "AlgebraElement": (AlgebraElement(3, RIGHT, {(1, 1): z, (0, 2): 3}), ()),
        "BSeries": (s, ()),
        "APolynomial": (APolynomial(3, [s, BSeries.one(3)]), ()),
        "QMatrix": (QMatrix([[1, z], [Fraction(2, 7), 0]]), ()),
        "Poly": (Poly([z, 0, 1]), ()),
        "SimplePoleModule": (module, ("_factors",)),
        "FactoredProduct": (product, ("_factor_ints",)),
    }


@pytest.mark.parametrize("name", list(_copied_values()))
def test_the_value_classes_copy_and_pickle(name):
    """copy.copy, copy.deepcopy and a pickle round trip give == values of the
    same class; a value reduces to its fields alone, so each copy builds its
    derived slots again, equal to the original's."""
    import copy
    import pickle
    x, derived = _copied_values()[name]
    if derived:
        fields = tuple(getattr(x, slot) for slot in type(x).__slots__ if slot not in derived)
        assert x.__reduce__() == (type(x), fields)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)
        for slot in derived:
            assert getattr(y, slot) == getattr(x, slot)
            assert getattr(y, slot) is not getattr(x, slot)


#: The six value classes that the kernels build and return, each with a
#: constructor, a repr or an equality of its own.
KERNEL_VALUES = ("GaussianRational", "AlgebraElement", "BSeries", "APolynomial", "QMatrix",
                 "Poly")


@pytest.mark.parametrize("name", KERNEL_VALUES)
def test_the_kernel_values_refuse_assignment_and_deletion(name):
    """Every slot refuses setattr and delattr, a new attribute is refused,
    and the value is then == to a deep copy taken before and survives a
    pickle round trip."""
    import copy
    import pickle
    x = _copied_values()[name][0]
    before = copy.deepcopy(x)
    for slot in type(x).__slots__:
        with pytest.raises(AttributeError):
            setattr(x, slot, None)
        with pytest.raises(AttributeError):
            delattr(x, slot)
    with pytest.raises(AttributeError):
        x.extra = 1
    assert x == before and pickle.loads(pickle.dumps(x)) == before


#: Every value class without derived slots, by name; a copy of one of them
#: stores the fields as they are.
PLAIN_VALUES = sorted(set(_value_cases()) - {"FactoredProduct", "SimplePoleModule"}
                      | set(KERNEL_VALUES))


@pytest.mark.parametrize("name", PLAIN_VALUES)
def test_a_copy_of_a_plain_value_does_not_run_its_constructor(name, monkeypatch):
    """copy.copy, copy.deepcopy and a pickle round trip of a value without
    derived slots give an == value with the same repr while its class's
    __init__ raises."""
    import copy
    import pickle
    x = _copied_values()[name][0] if name in KERNEL_VALUES else _value_cases()[name][0](0)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{name}.__init__ ran")

    monkeypatch.setattr(type(x), "__init__", refuse)
    for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(y) is type(x) and y == x and repr(y) == repr(x)


@pytest.mark.parametrize("name", ["DivisionResult", "HomogeneousFactorization", "SpectrumCheck",
                                  "Fresco", "SeriesPoleModule"])
def test_a_value_that_only_stores_its_fields_binds_them_as_a_dataclass(name):
    """Built by errors.Frozen.__init__ alone: the fields bind by position or
    by name, and a missing, an extra or a doubled field is a TypeError."""
    x = _value_cases()[name][0](0)
    cls, slots = type(x), type(x).__slots__
    assert "__init__" not in vars(cls)
    values = [getattr(x, slot) for slot in slots]
    by_name = dict(zip(slots, values))
    rest = dict(list(by_name.items())[1:])
    assert cls(*values) == cls(**by_name) == cls(values[0], **rest) == x
    for args, kwargs in [(values[:-1], {}), ((), rest), (values + [None], {}),
                         (values, {"extra": None}), (values, {slots[0]: values[0]})]:
        with pytest.raises(TypeError):
            cls(*args, **kwargs)


def test_derived_slots_bind_by_name_only():
    """errors.Frozen.__init__ takes a derived slot by name, never by position,
    and refuses a value with one missing."""
    from fractions import Fraction
    from abalg.errors import Frozen
    from abalg.linalg import QMatrix
    from abalg.modules import SimplePoleModule
    module = SimplePoleModule(QMatrix([[Fraction(1, 2)]]), 1)
    fields = (module.theta, module.order)
    for args, kwargs in [(fields, {}), ((*fields, module._factors), {})]:
        with pytest.raises(TypeError):
            Frozen.__init__(object.__new__(SimplePoleModule), *args, **kwargs)
    built = object.__new__(SimplePoleModule)
    Frozen.__init__(built, *fields, _factors=module._factors)
    assert built == module and built._factors is module._factors


def test_only_frozen_defines_reduce():
    """One copy rule: no class of the package but errors.Frozen defines __reduce__."""
    found = [f"{path.stem}.{node.name}"
             for path in MODULES for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ClassDef) and any(
                 isinstance(item, ast.FunctionDef) and item.name == "__reduce__"
                 for item in node.body)]
    assert found == ["errors.Frozen"]


#: Classes with __slots__ that are not errors.Frozen, each with its reason.
NOT_FROZEN = {
    "oracle.PolySeries": "a referee: REFEREE_DIGESTS pins its source",
    "expr._Token": "the parser's own token, never handed out",
}


def test_every_slots_class_is_frozen():
    """Every class of the package with __slots__ subclasses errors.Frozen,
    but for the named exceptions in NOT_FROZEN, and none of them writes a
    guard of its own."""
    from abalg.errors import Frozen
    found, guarded = set(), []
    for path in MODULES:
        module = importlib.import_module("abalg" if path.stem == "__init__" else
                                         f"abalg.{path.stem}")
        for obj in vars(module).values():
            if not (isinstance(obj, type) and obj.__module__ == module.__name__
                    and "__slots__" in vars(obj)):
                continue
            if not issubclass(obj, Frozen):
                found.add(f"{path.stem}.{obj.__qualname__}")
            elif obj is not Frozen and {"__setattr__", "__delattr__"} & vars(obj).keys():
                guarded.append(obj.__qualname__)
    assert found == set(NOT_FROZEN) and guarded == []


#: The helpers, besides every __init__, that fill in a value __new__ made.
CONSTRUCTOR_HELPERS = {"elements.py": {"_fill"}}


def setattr_outside_construction(source: str, name: str) -> list[str]:
    """Each reference to object.__setattr__, or to a name bound to it, that
    sits neither in an __init__ nor in one of the module's constructor helpers."""
    tree = ast.parse(source)
    allowed = {"__init__"} | CONSTRUCTOR_HELPERS.get(name, set())

    def is_setattr(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name) and node.value.id == "object")

    aliases = {target.id for node in ast.walk(tree)
               if isinstance(node, ast.Assign) and is_setattr(node.value)
               for target in node.targets if isinstance(target, ast.Name)}
    found = []

    def visit(node, function):
        if is_setattr(node) or (isinstance(node, ast.Name) and node.id in aliases
                                and isinstance(node.ctx, ast.Load)):
            if function not in allowed:
                found.append(f"{name}:{node.lineno} in {function or 'the module body'}")
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_no_value_changes_after_construction():
    """object.__setattr__, through an alias too, is used only while a value is
    built: in an __init__, or in elements._fill, which fills in an element
    that __new__ made (the other helpers go through Frozen.__init__)."""
    sample = ("set_ = object.__setattr__\n"
              "class V:\n"
              "    def __init__(self):\n"
              "        object.__setattr__(self, 'x', 1)\n"
              "    def fill(self):\n"
              "        set_(self, 'y', 2)\n")
    assert setattr_outside_construction(sample, "v.py") == [
        "v.py:1 in the module body", "v.py:6 in fill"]
    found = [line for path in MODULES
             for line in setattr_outside_construction(path.read_text(encoding="utf-8"),
                                                      path.name)]
    assert found == []


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


# -- every option has a caller ------------------------------------------------------

CALLER_DIRS = ("src", "tests", "perfbench")


def defaulted_parameters(source: str, module: str) -> list[tuple[str, str, list[str], str]]:
    """(module.qualname, the name a call uses, the positional parameters, a
    defaulted parameter) for every defaulted parameter of every def in
    source.  A method's first parameter, unless it is a staticmethod, is not
    positional for its callers, and an __init__ is called by its class's name."""
    found = []

    def visit(node, prefix, cls):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                names = [a.arg for a in args.posonlyargs + args.args]
                if cls and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                   for d in child.decorator_list):
                    names = names[1:]
                defaulted = names[len(names) - len(args.defaults):] if args.defaults else []
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                              if d is not None]
                called = cls if child.name == "__init__" else child.name
                found.extend((f"{module}.{prefix}{child.name}", called, names, p)
                             for p in defaulted)
                visit(child, f"{prefix}{child.name}.", None)

    visit(ast.parse(source), "", None)
    return found


def options_without_a_caller(defining: dict, calling: list, exempt=frozenset()) -> list[str]:
    """module.qualname(parameter) for each defaulted parameter of the sources
    in defining (module -> source) that no call in the sources of calling
    passes, by position or by keyword, to a function of that name.  A call
    with *args or **kwargs passes every parameter."""
    calls = {}
    for source in calling:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                func = node.func
                name = (func.id if isinstance(func, ast.Name)
                        else func.attr if isinstance(func, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)

    def passes(call, names, p):
        return (any(isinstance(a, ast.Starred) for a in call.args)
                or any(k.arg in (None, p) for k in call.keywords)
                or (p in names and names.index(p) < len(call.args)))

    return [f"{qualname}({p})" for module, source in defining.items()
            for qualname, called, names, p in defaulted_parameters(source, module)
            if qualname not in exempt
            and not any(passes(call, names, p) for call in calls.get(called, []))]


def test_the_option_scan_sees_positions_keywords_and_starred_calls():
    source = ("class C:\n"
              "    def __init__(self, a, b=1):\n"
              "        pass\n"
              "    def f(self, x, y=0, *, z=None):\n"
              "        def inner(w=2):\n"
              "            pass\n"
              "    @staticmethod\n"
              "    def g(u=1, v=2):\n"
              "        pass\n"
              "def h(t=3):\n"
              "    pass\n")
    caller = "C(0, 2)\nC(0).f(1, 2)\nC.g(v=5)\nh(*args)\n"
    assert options_without_a_caller({"m": source}, [source, caller]) == [
        "m.C.f(z)", "m.C.f.inner(w)", "m.C.g(u)"]
    assert options_without_a_caller({"m": source}, [caller, "inner(**kw)"],
                                    exempt={"m.C.f"}) == ["m.C.g(u)"]


def test_every_option_has_a_caller():
    """A defaulted parameter of the package that no call in src, tests or
    perfbench sets is a constant.  The suites registered in checks.CHECKS are
    exempt: their volume keywords are the acceptance criteria's interface."""
    from abalg.checks import CHECKS
    defining = {path.stem: path.read_text(encoding="utf-8") for path in MODULES}
    calling = [path.read_text(encoding="utf-8") for folder in CALLER_DIRS
               for path in sorted((ROOT / folder).rglob("*.py"))]
    exempt = {f"checks.{fn.__qualname__}" for fn in CHECKS.values()}
    assert options_without_a_caller(defining, calling, exempt) == []


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
    # the tracer counts these, read from GaussianRational.__dict__
    from abalg.coefficients import GaussianRational
    missing += [f"scalar op: GaussianRational.{attr}" for attr in tracing.SCALAR_METHODS
                if attr not in GaussianRational.__dict__]
    assert tracing.SPANS and tracing.SCALAR_METHODS and missing == []


# The sha256 of the reprs, joined by "\n", of every op result of the
# in-process workloads: perfbench's module_stack and then dense_kernels, each
# at seed 1 and then seed 2.  A change that keeps every result == keeps it.
WORKLOAD_RESULTS_DIGEST = "d1a78264e5d9ab8a974c8dba23605b2495ef7695740cbcd806d38bc2eeab38d0"


def test_the_in_process_workloads_give_the_pinned_results(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    reprs = []
    for name in ("module_stack", "dense_kernels"):
        workload = importlib.import_module(name)
        for seed in (1, 2):
            reprs += [repr(workload.execute(op)) for op in workload.make_inputs(seed)]
    digest = hashlib.sha256("\n".join(reprs).encode()).hexdigest()
    assert digest == WORKLOAD_RESULTS_DIGEST


@pytest.mark.parametrize("workload", ["dense-kernels", "module-stack", "cli-sparse"])
def test_a_tiny_traced_run_finds_every_span_owner_loaded(workload):
    """The tracer looks each span's module up in sys.modules: a lazy import
    that keeps one of them unloaded must fail here, not only in
    `perfbench/check_bench.py`.  Each workload loads its own modules, so
    each gets a tiny traced run (about 2 s).  On module-stack the module
    action and the root search, whose caches keep work out of later calls,
    still show self time."""
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--trace", "1",
         "--tiny", "--seconds", "0.3"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    if workload == "module-stack":
        metrics = json.loads(result.stdout.splitlines()[-1])["metrics"]
        assert metrics["modules.act_self_s"]["value"] > 0
        assert metrics["polynomials.roots_self_s"]["value"] > 0
