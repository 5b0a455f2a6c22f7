"""The benchmark's calls into the package resolve.

``perfbench/*.py`` reach the package through module aliases such as
``import pmixed.models as pm_models``.  This test parses those files,
without importing them, and checks that every attribute chain they take
from an alias exists, so a deletion that would break the benchmark fails
the suite instead of the benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _uses(path: Path) -> set[tuple[str, str]]:
    """(module, attribute chain) pairs, such as ``("pmixed.models",
    "Vocabulary.from_file")``, read through a module alias in ``path``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases = {alias.asname or alias.name: alias.name
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if alias.name.split(".")[0] == "pmixed"}
    uses = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in aliases:
            uses.add((aliases[node.id], ".".join(reversed(attrs))))
    return uses


def _resolves(module: str, chain: str) -> bool:
    target = importlib.import_module(module)
    for attr in chain.split("."):
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def test_every_name_the_benchmark_uses_exists():
    files = sorted(PERFBENCH.glob("*.py"))
    if not files:
        pytest.skip("perfbench/ is not present")
    uses = {(path.name, *use) for path in files for use in _uses(path)}
    assert uses, "no aliased pmixed module found in perfbench/"
    missing = [f"{name}: {module}.{chain}" for name, module, chain in sorted(uses)
               if not _resolves(module, chain)]
    assert missing == []
