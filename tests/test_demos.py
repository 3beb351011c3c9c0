import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import disd

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run_clean(script: Path) -> subprocess.CompletedProcess:
    # the scripts import the same disd package as the tests; any warning fails the run
    env = dict(os.environ, PYTHONPATH=str(Path(disd.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", str(script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    return proc


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    assert _run_clean(demo).stdout


def test_readme_quick_start_runs_clean(tmp_path):
    blocks = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    assert len(blocks) == 1
    script = tmp_path / "quick_start.py"
    script.write_text(blocks[0])
    _run_clean(script)
