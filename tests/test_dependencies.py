"""The runtime stays standard-library only, as ``pyproject.toml``'s empty
``dependencies`` promises: every absolute import in the package names a
standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "faastune"


def _non_stdlib_imports(source: str) -> list[str]:
    """Top-level modules of the absolute imports in ``source`` that are not
    in the standard library; relative imports are the package's own."""
    names = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module)
    return [name for name in names if name.split(".")[0] not in sys.stdlib_module_names]


def test_the_check_finds_third_party_imports_at_any_depth():
    source = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import model\n"
        "from .errors import ParseError\n"
        "def f():\n"
        "    from hypothesis.strategies import floats\n"
    )
    assert _non_stdlib_imports(source) == ["numpy", "hypothesis.strategies"]


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    assert {module.name: _non_stdlib_imports(module.read_text(encoding="utf-8"))
            for module in modules} == {module.name: [] for module in modules}
