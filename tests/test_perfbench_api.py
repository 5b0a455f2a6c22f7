"""The benchmark's calls into the package resolve, and its command lines parse.

``perfbench/*.py`` reach the package through module aliases such as
``import pmixed.models as pm_models``.  This test parses those files,
without importing them, and checks that every attribute chain they take
from an alias exists, so a deletion that would break the benchmark fails
the suite instead of the benchmark run.  The ``pmixed`` command lines that
the workloads start are checked against the CLI's parser, without running
them, for the same reason.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pmixed.cli import build_parser

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


def test_every_command_line_the_benchmark_starts_parses(monkeypatch, tmp_path):
    """Each workload's cold-start command and the `pmixed train` that prepares
    a serve workload's snapshot, captured instead of run."""
    path = PERFBENCH / "workloads.py"
    if not path.exists():
        pytest.skip("perfbench/ is not present")
    monkeypatch.chdir(PERFBENCH.parent)  # the fixture config's paths are relative to it
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look it up
    spec.loader.exec_module(workloads)
    argvs = []
    monkeypatch.setattr(workloads.subprocess, "run", lambda argv, **_: argvs.append(argv))
    for name in workloads.NAMES:
        workload = workloads.make(name, 0, tmp_path)
        workload.prepare()
        argvs.append(workload.cold_start_argv())
    assert [argv[3] for argv in argvs] == ["compare", "train", "predict", "train", "predict"]
    parser = build_parser()
    for argv in argvs:
        assert argv[:3] == [sys.executable, "-m", "pmixed.cli"]
        try:
            parser.parse_args(argv[3:])
        except SystemExit:
            pytest.fail(f"pmixed does not accept {argv[3:]}")
