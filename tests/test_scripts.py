"""The scripts under scripts/ run end to end from the repository root."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*args):
    return subprocess.run([sys.executable, *args], cwd=ROOT, capture_output=True,
                          text=True, timeout=120)


def test_chaining_slack():
    res = run_script("scripts/chaining_slack.py", "--members", "4", "8")
    assert res.returncode == 0, res.stderr
    rows = res.stdout.splitlines()[1:]
    assert [int(row.split()[0]) for row in rows] == [4, 8]


def test_fourier_maximal():
    res = run_script("scripts/fourier_maximal.py", "--k", "1024", "--m-list", "16", "32")
    assert res.returncode == 0, res.stderr
    assert any(line.startswith("saturation check: PASS") for line in res.stdout.splitlines())
