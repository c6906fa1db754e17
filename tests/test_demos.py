"""Smoke test of the walkthroughs in demos/: each runs to exit 0 in a fresh
process against the package under test."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import greymatch as gm

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    source = str(Path(gm.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, str(demo)], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": source})
    assert done.returncode == 0, done.stderr
