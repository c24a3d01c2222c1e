"""The demos are part of the answer surface: their stdout is pinned byte for byte."""
import glob
import os
import subprocess
import sys

import pytest

from conftest import golden_compare

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "0*.py")))


def test_all_five_demos_are_collected():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: os.path.basename(p)[:-3])
def test_demo_stdout_matches_golden(path):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, path], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    golden_compare(f"demo_{os.path.basename(path)[:-3]}.txt", proc.stdout)
