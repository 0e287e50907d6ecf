"""Smoke test: every demo script and every README Python example runs
to completion.

Each runs in its own process with a temporary working directory, since
demos 02 and 04 write their CSV files into the working directory.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0*.py"))
README_EXAMPLES = re.findall(r"^```python\n(.*?)^```$",
                             (ROOT / "README.md").read_text(), re.M | re.S)


def _run_python(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-2000:]


def test_all_five_demos_are_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_runs(demo, tmp_path):
    _run_python([str(demo)], tmp_path)


def test_readme_has_python_examples():
    assert len(README_EXAMPLES) == 2


@pytest.mark.parametrize("index", range(len(README_EXAMPLES)))
def test_readme_example_runs(index, tmp_path):
    _run_python(["-c", README_EXAMPLES[index]], tmp_path)
