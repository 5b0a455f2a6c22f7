"""``pmixed.__all__`` agrees with what ``pmixed/__init__.py`` imports.

A deletion that removes a name from a module but not from the package's
export list, or the other way round, fails here instead of in a caller's
``from pmixed import *``.
"""

import ast
from pathlib import Path

import pmixed


def _public_imports() -> list[str]:
    """The public names that ``pmixed/__init__.py`` imports from its modules."""
    tree = ast.parse(Path(pmixed.__file__).read_text(encoding="utf-8"))
    return [alias.asname or alias.name for node in tree.body
            if isinstance(node, ast.ImportFrom) and node.module != "__future__"
            for alias in node.names if not (alias.asname or alias.name).startswith("_")]


def test_every_listed_name_resolves():
    assert [name for name in pmixed.__all__ if not hasattr(pmixed, name)] == []


def test_all_lists_each_public_import_once():
    assert sorted(pmixed.__all__) == sorted(_public_imports())
