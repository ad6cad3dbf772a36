"""Every name a library module imports is used in that module.

`__init__.py` imports names to re-export them, and `from __future__`
imports switch on language features, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "borelcover"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source):
    """Names bound by the imports of the source that no expression reads.

    An attribute chain starts with a name, so `linalg.rank` reads `linalg`.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_finds_an_unused_name():
    source = ("from fractions import Fraction\nimport os.path\nfrom math import comb as c\n"
              "os.path.join('a', 'b')\n")
    assert unused_imports(source) == ["Fraction", "c"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((SRC / module).read_text()) == []
