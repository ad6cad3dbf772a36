"""Every name a library module imports is used in that module, and every
private module-level name of the library is read somewhere in it.

`__init__.py` imports names to re-export them, and `from __future__`
imports switch on language features, so both are exempt from the first.
The second keeps helpers that only tests call out of the library.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "borelcover"
SOURCES = sorted(p.name for p in SRC.glob("*.py"))
MODULES = [name for name in SOURCES if name != "__init__.py"]


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


def _is_private(name):
    return name.startswith("_") and not name.startswith("__")


def unread_private_names(sources):
    """The private functions, classes and constants defined at the top level
    of the sources (a dict from module name to source text) that no source
    reads, as "module:name".

    A read is a loaded name, an attribute or a name imported by `from`.
    """
    defined = []
    read = set()
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                names = []
            defined += [(module, n) for n in names if _is_private(n)]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(a.name for a in node.names)
    return sorted(f"{module}:{name}" for module, name in defined if name not in read)


def test_finds_an_unread_private_name():
    sources = {
        "a.py": ("_USED = 1\n_UNUSED: int = 2\n__all__ = []\n"
                 "def _f():\n    return _USED\n"
                 "class _C:\n    pass\nclass _D:\n    pass\n"
                 "def _g():\n    _stored = 3\n"),
        "b.py": "from .a import _C\nfrom . import a\na._f()\n",
    }
    assert unread_private_names(sources) == ["a.py:_D", "a.py:_UNUSED", "a.py:_g"]


def test_every_private_name_is_read_in_the_library():
    assert unread_private_names({m: (SRC / m).read_text() for m in SOURCES}) == []
