import os
import subprocess
import sys
from pathlib import Path

import pytest

import disd

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def test_all_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_clean(demo):
    # the demos import the same disd package as the tests; any warning fails the run
    env = dict(os.environ, PYTHONPATH=str(Path(disd.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-W", "error", str(demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert proc.stdout
