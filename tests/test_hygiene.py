"""Every top-level import of a module in ``src/spincomb`` or ``tests`` is
used by that module.  Names listed in ``__all__`` count as used, and
``from __future__ import annotations`` is exempt; the package's
``__init__`` lists in ``__all__`` exactly what it imports.  Every module-level
``_private`` name of ``src/spincomb`` is read somewhere in the package, so
a removed caller cannot leave its helper behind.  Every field of a value
type (a slot of a ``_Value`` subclass of the package) is read as
``.<field>`` in the package, the tests or the demos, so a value type
carries nothing only its constructor writes.  Every Python file of the
package, the tests, the demos and the tools parses under the grammar of
Python 3.10, the oldest version ``pyproject.toml`` declares."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted((ROOT / "src" / "spincomb").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
SOURCES = MODULES + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "tools").glob("*.py"))


def imports_and_exports(tree: ast.Module) -> tuple:
    """The names bound by the top-level imports of a module and the names
    its ``__all__`` lists, as two sets."""
    imported = set()
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names if a.name != "*")
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported.update(ast.literal_eval(node.value))
    return imported, exported


def unused_imports(source: str) -> list:
    """Names bound by the top-level imports of ``source`` that no expression
    of the module reads and ``__all__`` does not list, sorted."""
    tree = ast.parse(source)
    imported, exported = imports_and_exports(tree)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used - exported)


def test_checker_flags_only_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import sys as system\n"
        "from typing import List, Tuple\n"
        "from json import dumps, loads\n"
        "__all__ = ['dumps']\n"
        "def f(x: List[int]) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert unused_imports(source) == ["Tuple", "loads", "system"]


@pytest.mark.parametrize(
    "path", MODULES, ids=[str(p.relative_to(ROOT)) for p in MODULES]
)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_exports_match_imports():
    """``src/spincomb/__init__.py`` lists in ``__all__`` exactly the names
    it imports, so a name cannot be dropped from only one of the two."""
    init = (ROOT / "src" / "spincomb" / "__init__.py").read_text(encoding="utf-8")
    imported, exported = imports_and_exports(ast.parse(init))
    assert imported == exported


def unread_private_names(sources: list) -> list:
    """Module-level ``_private`` names (not dunders) defined in ``sources``
    that none of them reads as a Name, an Attribute or an imported name,
    sorted."""
    defined = set()
    read = set()
    for source in sources:
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
            elif isinstance(n, ast.alias):
                read.add(n.name)
    private = {d for d in defined if d.startswith("_") and not d.startswith("__")}
    return sorted(private - read)


def test_private_checker_flags_only_unread_names():
    sources = [
        "_CAP = 3\n"
        "_unused: int = 4\n"
        "def _helper():\n"
        "    return _CAP\n"
        "def _orphan():\n"
        "    _orphan_local = 1\n"
        "class _Kept: pass\n"
        "__version__ = '1'\n",
        "from .a import _helper\n"
        "import a\n"
        "x = a._Kept\n",
    ]
    assert unread_private_names(sources) == ["_orphan", "_unused"]


def test_no_unread_private_names():
    sources = [path.read_text(encoding="utf-8") for path in PACKAGE]
    assert unread_private_names(sources) == []


def unread_fields(package: list, readers: list) -> list:
    """``Class.field`` for each ``__slots__`` entry of a class in ``package``
    that derives from ``_Value`` and that no source of ``readers`` loads as
    an attribute ``.field``, sorted."""
    fields = []
    for source in package:
        for node in ast.parse(source).body:
            if isinstance(node, ast.ClassDef) and any(
                isinstance(b, ast.Name) and b.id == "_Value" for b in node.bases
            ):
                for stmt in node.body:
                    if isinstance(stmt, ast.Assign) and any(
                        isinstance(t, ast.Name) and t.id == "__slots__" for t in stmt.targets
                    ):
                        fields.extend((node.name, f) for f in ast.literal_eval(stmt.value))
    read = {
        n.attr
        for source in readers
        for n in ast.walk(ast.parse(source))
        if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
    }
    return sorted(f"{cls}.{field}" for cls, field in fields if field not in read)


def test_field_checker_flags_only_unread_fields():
    package = [
        "class _Value:\n"
        "    __slots__ = ()\n"
        "class Pair(_Value):\n"
        "    __slots__ = ('left', 'right', 'spare')\n"
        "class Plain:\n"
        "    __slots__ = ('hidden',)\n"
        "def total(p):\n"
        "    return p.left\n",
    ]
    readers = package + ["x = pair.right\nsetattr(pair, 'spare', 1)\npair.spare = 2\n"]
    assert unread_fields(package, readers) == ["Pair.spare"]


def test_every_value_field_is_read():
    readers = MODULES + sorted((ROOT / "demos").glob("*.py"))
    assert unread_fields(
        [path.read_text(encoding="utf-8") for path in PACKAGE],
        [path.read_text(encoding="utf-8") for path in readers],
    ) == []


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_parses_as_python_3_10(path):
    """``requires-python = ">=3.10"`` while the suite runs on a newer
    interpreter, so a newer-only syntax would pass here and break there."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
