"""weilkit has no runtime dependencies: it imports only itself and the
standard library."""

import ast
import pathlib
import sys

import weilkit

PACKAGE = pathlib.Path(weilkit.__file__).parent


def outside_imports(source: str):
    """(line, module) of each import in source that is neither relative,
    nor of weilkit, nor of the standard library."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [] if node.level else [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "weilkit" and top not in sys.stdlib_module_names:
                out.append((node.lineno, name))
    return out


def test_outside_imports_are_found():
    source = "import os\nfrom . import weil\nfrom .exactlin import qq\nimport sympy.core\n"
    source += "def f():\n    from numpy import array\n"
    assert outside_imports(source) == [(4, "sympy.core"), (6, "numpy")]


def test_the_package_imports_only_itself_and_the_standard_library():
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) >= 10
    found = {
        f"{path.relative_to(PACKAGE)}:{line}": name
        for path in paths
        for line, name in outside_imports(path.read_text())
    }
    assert found == {}
