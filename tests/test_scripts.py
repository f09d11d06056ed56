"""Smoke runs of the scripts under scripts/ on tiny inputs."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / name), *map(str, args)], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_null_histograms_single_sample_prints_missing_std_as_na(tmp_path):
    path = tmp_path / "graph.txt"
    path.write_text("a b\nb a\nb c\nc a\na c\nc d\nd c\nd e\ne b\nb d\ne f\ng a\n")
    out = run_script("null_histograms.py", path, "--samples", 1, "--swaps", 100, "--out", tmp_path / "report.json")
    assert "closure_ii_i: mean=" in out
    assert "std=NA" in out
    assert (tmp_path / "report.json").exists()


def test_extremal_sweep_small():
    out = run_script("extremal_sweep.py", "--max-k", 2)
    rows = [line.split() for line in out.splitlines()[1:3]]
    assert [row[0] for row in rows] == ["1", "2"]
    # singleton classes: the claimed and computed io-closure values agree
    assert rows[0][-4:-2] == rows[0][-2:]
