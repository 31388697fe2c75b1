"""The demos and the README's "Library in one minute" example run as
written, each in a fresh interpreter."""

import glob
import os
import re
import subprocess
import sys

import pytest

import gapsvt

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def _python(*args):
    src = os.path.dirname(os.path.dirname(gapsvt.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)


def test_the_four_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_runs(demo):
    run = _python(demo)
    assert run.returncode == 0, run.stderr
    assert run.stdout


def test_readme_library_example_runs():
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Library in one minute", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    assert "svt_gap_run" in block
    run = _python("-c", block)
    assert run.returncode == 0, run.stderr
