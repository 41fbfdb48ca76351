"""The perf harness's command line parses and prints its help."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_harness_help_exits_zero():
    result = subprocess.run(
        [sys.executable, str(REPO / "benchmarks" / "perf" / "harness.py"), "--help"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert "--check-memory-budget" in result.stdout
