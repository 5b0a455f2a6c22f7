"""The benchmark's and the scripts' calls into the package resolve, and the
benchmark's command lines parse.

``perfbench/*.py`` and ``scripts/*.py`` reach the package through module
aliases such as ``import pmixed.models as pm_models`` and through names
such as ``from pmixed.experiment import run_comparison``.  These tests parse
those files, without importing or running them, and check that every name
they import and every attribute chain they take from one exists, private
names such as ``mollifier._in_ball`` included, so a rename or deletion that
would break the benchmark or a script fails the suite instead of their next
run.  The ``pmixed`` command lines that the workloads start are checked
against the CLI's parser, without running them, for the same reason.
"""

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from pmixed.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _uses(path: Path) -> set[tuple[str, str]]:
    """(module, attribute chain) pairs, such as ``("pmixed.models",
    "Vocabulary.from_file")``: each name ``path`` imports from the package,
    and each chain it reads through a module alias or an imported name."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    aliases = {}  # local name: (module, chain to the name in it)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update((alias.asname or alias.name, (alias.name, []))
                           for alias in node.names if alias.name.split(".")[0] == "pmixed")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "pmixed":
            aliases.update((alias.asname or alias.name, (node.module, [alias.name]))
                           for alias in node.names)
    uses = set()
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.append(node.attr)
            node = node.value
        if isinstance(node, ast.Name) and node.id in aliases:
            module, chain = aliases[node.id]
            if chain or attrs:
                uses.add((module, ".".join(chain + attrs[::-1])))
    return uses


def _resolves(module: str, chain: str) -> bool:
    target = importlib.import_module(module)
    for attr in chain.split("."):
        if not hasattr(target, attr):
            return False
        target = getattr(target, attr)
    return True


def _missing(folder: Path) -> list[str]:
    """The package names that ``folder/*.py`` use and the package lacks."""
    files = sorted(folder.glob("*.py"))
    if not files:
        pytest.skip(f"{folder.name}/ is not present")
    uses = {(path.name, *use) for path in files for use in _uses(path)}
    assert uses, f"no pmixed name found in {folder.name}/"
    return [f"{name}: {module}.{chain}" for name, module, chain in sorted(uses)
            if not _resolves(module, chain)]


def test_every_name_the_benchmark_uses_exists():
    assert _missing(PERFBENCH) == []


def test_every_name_the_scripts_use_exists():
    """``scripts/bench_projection.py`` patches private names of the search,
    such as ``mollifier._in_ball`` and the divergence kernel."""
    assert _missing(ROOT / "scripts") == []


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
