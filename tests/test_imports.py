"""No module of the package imports a name it never uses."""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fcqw"
#: every module but ``__init__``, whose imports are the package's exports
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
