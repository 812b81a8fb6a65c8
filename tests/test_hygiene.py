"""Source hygiene: no module of the package imports a name it never uses,
and the oracle stays an independent referee of the kernels.

`__init__.py` is exempt from the import scan, since its imports are the
package's re-exports.
"""

import ast
import hashlib
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "abalg"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


# -- the oracle referees the kernels, so it must not share their code ----------

ORACLE = SRC / "oracle.py"

# sha256 of shape() of each part of the referee as it stood when `act` moved
# onto integers.  `act_composed`, `act_a`, `act_b` and the `PolySeries` they
# build stay on Fractions so that they check `act` independently; a change to
# them must be a deliberate change of these digests, made together with a new
# argument that they still referee it.
REFEREE_DIGESTS = {
    "PolySeries": "522c83f0121a58e4d34d677a21ad3965f74969bf7b8cf0734d1a4216132c134f",
    "act_a": "94c2fe899b1ac8f16fb222f43a058948e0cd32153f2318a230a004b5c891ac3a",
    "act_b": "6e564b790f8a39b2362280e8f3e7dd015211404301777a362827a43c59bdb5e1",
    "act_composed": "4a1a0611c47124b5f44db3000cd6508ae3ba94943a433f503e6d9d5f0c151ce5",
}


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


def test_the_referee_functions_are_unchanged():
    tree = ast.parse(ORACLE.read_text())
    found = {node.name: hashlib.sha256(shape(node).encode()).hexdigest() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in REFEREE_DIGESTS}
    assert found == REFEREE_DIGESTS
