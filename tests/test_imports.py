"""No module of the package imports a name it never uses, and every name
the package defines at module level is read outside the tests."""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fcqw"
#: every module but ``__init__``, whose imports are the package's exports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
#: the code that may read a name of the package: the package, the demos and
#: the benchmark; an import (``__init__``'s export list) is not a read
READERS = sorted([*PACKAGE.glob("*.py"), *ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
#: perfbench's tables that name the entry points it wraps by string
NAME_TABLES = ("ENTRY_POINTS", "BUILDERS")


def _dotted(node) -> str | None:
    """``a.b.c`` of a chain of attributes on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return None if base is None else f"{base}.{node.attr}"
    return None


def unused_imports(source: str) -> list[str]:
    """The names bound by imports (``import a.b`` binds and needs ``a.b``)
    that no name or attribute chain of the module reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = set()
    for node in ast.walk(tree):
        chain = _dotted(node)
        if chain is not None:
            parts = chain.split(".")
            used.update(".".join(parts[:k]) for k in range(1, len(parts) + 1))
    return sorted(imported - used)


def test_the_check_finds_unused_imports():
    source = "import os\nimport scipy.linalg\nfrom math import pi, tau\nimport numpy as np\n"
    assert unused_imports(source) == ["np", "os", "pi", "scipy.linalg", "tau"]
    used = source + "np.zeros(os.sep, scipy.linalg.eigh(pi), tau)\n"
    assert unused_imports(used) == []
    assert unused_imports("import scipy.linalg\nscipy.special.erf\n") == ["scipy.linalg"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> set[str]:
    """The module-level functions, classes and assigned names (constants),
    dunders aside."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def read_names(source: str) -> set[str]:
    """The names and attributes the code loads, and the strings in its
    ``NAME_TABLES`` assignments."""
    read = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id in NAME_TABLES for t in node.targets):
            read.update(c.value for c in ast.walk(node.value)
                        if isinstance(c, ast.Constant) and isinstance(c.value, str))
    return read


def unreached_names(defining: list[str], reading: list[str]) -> list[str]:
    """The names the ``defining`` sources define that no ``reading`` source reads."""
    defined = set().union(*map(defined_names, defining))
    return sorted(defined - set().union(*map(read_names, reading)))


def test_the_check_finds_unreached_names():
    package = "A, _B = 1, 2\nC: int = 3\ndef f():\n    return A\nclass K:\n    pass\n"
    reader = "import m\nm.K()\nENTRY_POINTS = [(m, 'C')]\n"
    # f is planted: no source calls it, and its own def is not a read
    assert unreached_names([package], [package, reader]) == ["_B", "f"]
    assert unreached_names([package], [package, reader + "m.f(_B)\n"]) == []
    assert unreached_names(["__all__ = []\n"], [""]) == []


def test_every_package_name_is_read_outside_the_tests():
    sources = [p.read_text(encoding="utf-8") for p in sorted(PACKAGE.glob("*.py"))]
    readers = [p.read_text(encoding="utf-8") for p in READERS]
    assert unreached_names(sources, readers) == []
