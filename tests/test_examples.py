"""Every script under ``examples/`` runs to completion.

The examples are the user-facing demos (``life_sciences_sharing.py`` is the
only one of the CDSS publish / import cycle); each runs in a fresh
interpreter, as a user would run it, and must exit 0.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_exist():
    assert len(EXAMPLES) >= 6


@pytest.mark.parametrize("example", EXAMPLES, ids=lambda path: path.name)
def test_example_exits_cleanly(example):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    result = subprocess.run(
        [sys.executable, str(example)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
