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
    # the scripts import the same disd package as the tests and run under the non-finite
    # LAPACK input guard of the tests; any warning or non-finite LAPACK input fails the run
    env = dict(os.environ, PYTHONPATH=str(Path(disd.__file__).resolve().parents[1]))
    guard = Path(__file__).resolve().with_name("lapack_guard.py")
    proc = subprocess.run([sys.executable, "-W", "error", str(guard), str(script)], env=env,
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


def test_a_nan_reaching_lapack_fails_the_run(tmp_path):
    # eigh may answer a NaN matrix without an error; the guard still fails the run
    script = tmp_path / "nan_eigh.py"
    script.write_text("import numpy as np\n"
                      "try:\n"
                      "    np.linalg.eigh(np.full((2, 2), np.nan))\n"
                      "except np.linalg.LinAlgError:\n"
                      "    pass\n"
                      "print('done')\n")
    with pytest.raises(AssertionError, match=r"non-finite input reached LAPACK in np\.linalg\.eigh"):
        _run_clean(script)


def test_package_exports_the_names_the_readme_and_demos_use():
    # the README lists them; every other name is imported from its module
    texts = [(ROOT / "README.md").read_text(), *(demo.read_text() for demo in DEMOS)]
    used = {name for text in texts for name in re.findall(r"\bdisd\.(\w+)", text)}
    modules = {path.stem for path in Path(disd.__file__).parent.glob("*.py")}
    exported = {name for name in vars(disd) if not name.startswith("_")} - modules
    assert exported == used - modules
