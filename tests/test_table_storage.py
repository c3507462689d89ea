"""Only weil.py knows how a tabled algebra stores its structure terms: no
other module of the package names the attribute that holds the table, so
the storage format can change in one module."""

import ast
import pathlib

import weilkit
from weilkit.weil import WeilAlgebra

PACKAGE = pathlib.Path(weilkit.__file__).parent
STORED_TABLE = "_table"


def names_of(source: str, attribute: str):
    """Lines where source reads or writes `attribute` on any object, or
    spells it as a string (getattr, setattr, monkeypatching)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr == attribute:
            out.append(node.lineno)
        elif isinstance(node, ast.Constant) and node.value == attribute:
            out.append(node.lineno)
    return sorted(out)


def test_attribute_names_are_found():
    source = "a = w._table\nb = w._table_x\nw._table = 1\nc = getattr(w, '_table')\n"
    source += "def f(_table):\n    return _table\n"
    assert names_of(source, STORED_TABLE) == [1, 3, 4]


def test_the_stored_table_is_named_in_weil_only():
    # the attribute this test guards is the one the algebra really stores
    assert STORED_TABLE in WeilAlgebra.__slots__
    paths = sorted(PACKAGE.rglob("*.py"))
    assert len(paths) >= 10
    found = {
        str(path.relative_to(PACKAGE)): names_of(path.read_text(), STORED_TABLE) for path in paths
    }
    assert found.pop("weil.py")
    assert {name: lines for name, lines in found.items() if lines} == {}
