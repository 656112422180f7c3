"""Every name a module of ``dualkit`` imports is used in that module.

``__init__.py`` imports names to export them and is not scanned.  A name
counts as used when it is read anywhere in the module, annotations and
string annotations included.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "dualkit"
MODULES = sorted(path for path in SOURCE.glob("*.py") if path.name != "__init__.py")


def imported_names(tree):
    """(name bound, line) of each import outside ``from __future__``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def used_names(tree):
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:                    # a string annotation such as "FiniteAlgebra"
                used |= used_names(ast.parse(node.value, mode="eval"))
            except SyntaxError:
                pass
    return used


def unused_imports(text):
    tree = ast.parse(text)
    used = used_names(tree)
    return [(name, line) for name, line in imported_names(tree) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_scan_finds_an_unused_import():
    text = ("from __future__ import annotations\nimport itertools\nimport numpy as np\n"
            "from .algebras import BudgetExceeded, Congruence, total_congruence\n"
            "def f(x: 'Congruence') -> int:\n    return np.sum(x)\n")
    assert unused_imports(text) == [("itertools", 2), ("BudgetExceeded", 4),
                                    ("total_congruence", 4)]
