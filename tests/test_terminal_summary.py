"""The acceptance criteria's verdict lines reach pytest's terminal summary (see conftest.py)."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_acceptance_section_prints_the_verdict_line():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/test_acceptance.py", "-k", "criterion_05", "-q", "-p", "no:cacheprovider"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
    _, heading, section = proc.stdout.partition(" acceptance criteria ")
    assert heading, proc.stdout[-2000:]
    assert "[criterion 05] PASS: identity=True" in section
