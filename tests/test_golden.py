"""Byte-exact golden outputs: two fixture comparison reports and a predict trace.

The files under ``tests/golden/`` were produced by the CLI commands below
and must be reproduced byte for byte; a change that alters either output
has to say why and regenerate them with
``PYTHONPATH=src python tests/test_golden.py``
from the repository root.
"""

from pathlib import Path

import pytest

from pmixed.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN_DIR = REPO_ROOT / "tests" / "golden"
FIXTURE = "data/twodomain"

COMPARE_ARGS = [
    "compare", "--config", f"{FIXTURE}/config.json", "--runs", "1", "--max-seq-len", "8",
]
# every test position, two seeds: the whole evaluation, several query blocks deep
COMPARE_FULL_ARGS = ["compare", "--config", f"{FIXTURE}/config.json", "--runs", "2"]
TRAIN_ARGS = [
    "train", "--private-corpus", f"{FIXTURE}/private.txt",
    "--public-corpus", f"{FIXTURE}/public.txt", "--vocab", f"{FIXTURE}/vocab.txt",
    "--n-models", "80", "--order", "3", "--smoothing-k", "0.1", "--seed", "0",
]
PREDICT_ARGS = [
    "predict", "--q", "0.25", "--mode", "paper-faithful", "--eps-g", "32",
    "--queries", "512", "--alpha", "3", "--seed", "0", "--steps", "16",
    "--context", "w35 w19", "--context", "w45 w14 w47", "--context", "w20",
    "--context", "w07 w01 w11 w08",
]


def write_compare_report(path: Path, args=COMPARE_ARGS) -> None:
    assert main([*args, "--output", str(path)]) == 0


def write_predict_trace(path: Path, work_dir: Path) -> None:
    snapshot = work_dir / "snapshot.jsonl"
    assert main([*TRAIN_ARGS, "--output", str(snapshot)]) == 0
    assert main([*PREDICT_ARGS, "--snapshot", str(snapshot), "--trace", str(path),
                 "--output", str(work_dir / "responses.jsonl")]) == 0


@pytest.fixture
def at_repo_root(monkeypatch):
    # the report echoes the config's relative corpus paths
    monkeypatch.chdir(REPO_ROOT)


def test_compare_report_matches_golden(at_repo_root, tmp_path):
    out = tmp_path / "compare_report.jsonl"
    write_compare_report(out)
    assert out.read_bytes() == (GOLDEN_DIR / "compare_report.jsonl").read_bytes()


def test_full_compare_report_matches_golden(at_repo_root, tmp_path):
    out = tmp_path / "compare_report_full.jsonl"
    write_compare_report(out, COMPARE_FULL_ARGS)
    assert out.read_bytes() == (GOLDEN_DIR / "compare_report_full.jsonl").read_bytes()


def test_predict_trace_matches_golden(at_repo_root, tmp_path):
    out = tmp_path / "predict_trace.jsonl"
    write_predict_trace(out, tmp_path)
    assert out.read_bytes() == (GOLDEN_DIR / "predict_trace.jsonl").read_bytes()


if __name__ == "__main__":
    import tempfile

    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    write_compare_report(GOLDEN_DIR / "compare_report.jsonl")
    write_compare_report(GOLDEN_DIR / "compare_report_full.jsonl", COMPARE_FULL_ARGS)
    with tempfile.TemporaryDirectory() as scratch:
        write_predict_trace(GOLDEN_DIR / "predict_trace.jsonl", Path(scratch))
