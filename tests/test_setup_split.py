"""A smoke run of ``scripts/setup_split.py`` on this checkout."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_round_of_wide_prints_each_steps_median():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "setup_split.py"), str(ROOT),
         "--workload", "wide", "--rounds", "1", "--pairs", "1"],
        capture_output=True, text=True, check=False, timeout=300)
    assert proc.returncode == 0, proc.stderr
    rows = dict(line.split(None, 1) for line in proc.stdout.splitlines()[2:])
    steps = ("train", "write_arpa", "read_arpa", "build_bias_trie")
    seconds = {step: float(rows[step]) for step in (*steps, "setup_s")}
    assert all(value > 0 for value in seconds.values())
    # setup_s also holds the keyword list and the syllable lines
    assert sum(seconds[step] for step in steps) < seconds["setup_s"]
    assert rows["tree"] == f"1: {ROOT}"
