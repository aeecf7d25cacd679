"""The benchmark's self-test (`perfbench/selftest.py`) checks its
gridprep-free references against gridprep's oracles, that every check
rejects a corrupted output (measurement seed 98 must fail), and that
BENCHMARK.json names the metrics `run.py` prints.  It runs here so a change
to the library that breaks the benchmark's references shows in the suite.
"""
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=ROOT,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "selftest passed" in run.stdout
