"""numpy is the package's only third-party dependency.

``pip install .[test]`` installs numpy and the test tools and nothing else, so
an import of anything else in ``src/liemetric`` would fail only where that
module happens to be missing.  Each module is parsed, not imported, so the
check holds whatever else is installed.
"""

import ast
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "liemetric"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "liemetric"}


def _foreign_imports(source: str) -> list[str]:
    """Top-level modules imported by ``source`` that are neither the standard library, numpy nor the package."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:  # a relative import is the package
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in ALLOWED]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_modules_import_only_numpy_and_the_standard_library(path):
    assert _foreign_imports(path.read_text(encoding="utf-8")) == []


def test_foreign_imports_are_found():
    source = "import numpy as np\nimport scipy.linalg\nfrom sympy import Matrix\nfrom . import lie\nimport math\n"
    assert _foreign_imports(source) == ["scipy.linalg", "sympy"]
    assert _foreign_imports("def f():\n    from scipy import linalg\n") == ["scipy"]
