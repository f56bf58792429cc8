"""Every demo script must run cleanly end to end."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMO_DIR = Path(__file__).resolve().parent.parent / "demos"
DEMOS = sorted(DEMO_DIR.glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    # A temp directory of the demo's own shows anything it leaves behind.
    tmpdir = tmp_path / "tmp"
    tmpdir.mkdir()
    proc = subprocess.run(
        [sys.executable, str(script)], capture_output=True, text=True, timeout=300,
        env={**os.environ, "TMPDIR": str(tmpdir)},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert list(tmpdir.iterdir()) == []


def test_demos_exist():
    assert len(DEMOS) >= 5
