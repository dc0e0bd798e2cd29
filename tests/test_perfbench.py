"""The benchmark harness under ``perfbench/`` still runs against the package."""

import subprocess
import sys
from pathlib import Path


def test_benchmark_selftest():
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"], cwd=root,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "24 of 24 checks hold" in proc.stdout, proc.stdout
