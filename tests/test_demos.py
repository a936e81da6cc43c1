"""Every script under ``demos/`` prints its pinned stdout, and every README code block runs."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
#: Each demo's stdout, pinned; regenerated by ``PYTHONPATH=src python tests/test_golden.py``.
GOLDEN_DEMOS = ROOT / "tests" / "golden" / "demos"


def demo_stdout(demo: Path) -> str:
    """Run ``demo`` against the package in ``src`` and return its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.name for demo in DEMOS])
def test_demo_runs(demo):
    expected = (GOLDEN_DEMOS / f"{demo.stem}.txt").read_text(encoding="utf-8")
    assert demo_stdout(demo) == expected


def test_readme_python_blocks_run_in_order():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)
